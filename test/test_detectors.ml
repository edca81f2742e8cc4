(* Tests for the compiler-derived error detectors: the foreach
   loop-invariant pass (§III-A, Figs 7/8), the uniform-broadcast XOR
   pass (§III-B, Fig 9), their runtime, and overhead measurement. *)

open Detectors

let check = Alcotest.check

let vcopy_src =
  "export void vcopy_ispc(uniform int a1[], uniform int a2[], uniform int \
   n) { foreach (i = 0 ... n) { a2[i] = a1[i]; } }"

let vcopy_workload lengths =
  {
    Vulfi.Workload.w_name = "vcopy";
    w_fn = "vcopy_ispc";
    w_out_tolerance = 0.0;
    w_inputs = List.length lengths;
    w_build = (fun target -> Minispc.Driver.compile target vcopy_src);
    w_setup =
      (fun ~input st ->
        let n = List.nth lengths input in
        let mem = Interp.Machine.memory st in
        let a1 = Interp.Memory.alloc mem ~name:"a1" ~bytes:(4 * max n 1) in
        let a2 = Interp.Memory.alloc mem ~name:"a2" ~bytes:(4 * max n 1) in
        Interp.Memory.write_i32_array mem a1
          (Array.init n (fun i -> (i * 13) - 7));
        ( [ Interp.Vvalue.of_ptr a1; Interp.Vvalue.of_ptr a2;
            Interp.Vvalue.of_i32 n ],
          fun () ->
            {
              Vulfi.Outcome.empty_output with
              Vulfi.Outcome.o_i32 = [ Interp.Memory.read_i32_array mem a2 n ];
            } ));
  }

(* ---------------- detection of the foreach pattern ---------------- *)

let test_detect_matches_codegen_meta () =
  List.iter
    (fun target ->
      let m = Minispc.Driver.compile target vcopy_src in
      let f = Vir.Vmodule.find_func_exn m "vcopy_ispc" in
      let found = Foreach_invariants.detect f in
      match (found, f.Vir.Func.foreach_meta) with
      | [ ff ], [ meta ] ->
        check Alcotest.string "header label" meta.Vir.Func.fm_full_body
          ff.Foreach_invariants.ff_header;
        check Alcotest.string "exit label" meta.Vir.Func.fm_exit
          ff.Foreach_invariants.ff_exit;
        check Alcotest.int "new_counter" meta.Vir.Func.fm_new_counter
          ff.Foreach_invariants.ff_new_counter;
        check Alcotest.int "aligned_end" meta.Vir.Func.fm_aligned_end
          ff.Foreach_invariants.ff_aligned_end;
        check Alcotest.int "vl" meta.Vir.Func.fm_vl
          ff.Foreach_invariants.ff_vl
      | _ ->
        Alcotest.failf "expected one foreach (found %d, meta %d)"
          (List.length found)
          (List.length f.Vir.Func.foreach_meta))
    Vir.Target.all

let test_detect_ignores_plain_loops () =
  let m = Ir_samples.scale_add_module () in
  let f = Vir.Vmodule.find_func_exn m "scale_add" in
  check Alcotest.int "no foreach found" 0
    (List.length (Foreach_invariants.detect f))

let test_detect_multiple_foreach () =
  let src =
    "export void two(uniform float a[], uniform int n) { foreach (i = 0 \
     ... n) { a[i] = a[i] + 1.0; } foreach (j = 0 ... n) { a[j] = a[j] * \
     2.0; } }"
  in
  let m = Minispc.Driver.compile Vir.Target.Avx src in
  let f = Vir.Vmodule.find_func_exn m "two" in
  check Alcotest.int "two foreach loops" 2
    (List.length (Foreach_invariants.detect f))

(* ---------------- pass insertion ---------------- *)

let test_pass_inserts_block () =
  List.iter
    (fun target ->
      let m = Minispc.Driver.compile target vcopy_src in
      let n = Foreach_invariants.run m in
      check Alcotest.int "one detector inserted" 1 n;
      let f = Vir.Vmodule.find_func_exn m "vcopy_ispc" in
      let labels = List.map (fun b -> b.Vir.Block.label) f.Vir.Func.blocks in
      Alcotest.(check bool) "check block exists" true
        (List.exists
           (fun l ->
             String.length l >= 33
             && String.sub l 0 33 = "foreach_fullbody_check_invariants")
           labels);
      let s = Vir.Pp.module_to_string m in
      Alcotest.(check bool) "calls the detector runtime" true
        (Astring_contains.contains s Runtime.check_foreach_name))
    Vir.Target.all

let test_pass_preserves_semantics () =
  List.iter
    (fun target ->
      List.iter
        (fun n ->
          let m = Minispc.Driver.compile target vcopy_src in
          ignore (Foreach_invariants.run m);
          let st = Interp.Machine.create (Interp.Compile.compile_module m) in
          Runtime.attach st;
          let mem = Interp.Machine.memory st in
          let a1 = Interp.Memory.alloc mem ~name:"a1" ~bytes:(4 * max n 1) in
          let a2 = Interp.Memory.alloc mem ~name:"a2" ~bytes:(4 * max n 1) in
          let input = Array.init n (fun i -> i - 3) in
          Interp.Memory.write_i32_array mem a1 input;
          let _ =
            Interp.Machine.run st "vcopy_ispc"
              [ Interp.Vvalue.of_ptr a1; Interp.Vvalue.of_ptr a2;
                Interp.Vvalue.of_i32 n ]
          in
          check
            Alcotest.(array int)
            (Printf.sprintf "%s n=%d output" (Vir.Target.name target) n)
            input
            (Interp.Memory.read_i32_array mem a2 n);
          Alcotest.(check bool)
            (Printf.sprintf "no false positive (n=%d)" n)
            false (Interp.Machine.detections st > 0))
        [ 0; 1; 5; 8; 16; 23 ])
    Vir.Target.all

(* ---------------- runtime invariant checks ---------------- *)

(* A machine to call the detector handlers on directly: they record
   firings in its detection counter, which [Machine.reset] zeroes. *)
let handler_machine () =
  Interp.Machine.create
    (Interp.Compile.compile_module
       (Minispc.Driver.compile Vir.Target.Avx vcopy_src))

let test_runtime_invariants () =
  let st = handler_machine () in
  let call nc ae vl =
    Interp.Machine.reset st;
    ignore
      (Runtime.handle_check_foreach st
         [ Interp.Vvalue.of_i32 nc; Interp.Vvalue.of_i32 ae;
           Interp.Vvalue.of_i32 vl ]);
    Interp.Machine.detections st > 0
  in
  Alcotest.(check bool) "clean exit ok" false (call 16 16 8);
  Alcotest.(check bool) "mid-loop value ok" false (call 8 16 8);
  Alcotest.(check bool) "invariant 1: negative" true (call (-8) 16 8);
  Alcotest.(check bool) "invariant 2: beyond aligned_end" true (call 24 16 8);
  Alcotest.(check bool) "invariant 3: not multiple of Vl" true (call 13 16 8)

(* ---------------- fault injection with detectors ---------------- *)

let detector_campaign category =
  let cfg =
    {
      Vulfi.Campaign.experiments_per_campaign = 30;
      min_campaigns = 3;
      max_campaigns = 3;
      margin_target = 1.0;
      seed = 4242;
    }
  in
  Vulfi.Campaign.run
    ~transform:(Overhead.transform Overhead.paper_detectors)
    ~hooks:Runtime.hooks cfg
    (vcopy_workload [ 19; 37 ])
    Vir.Target.Avx category

let test_detectors_fire_on_control_faults () =
  let r = detector_campaign Analysis.Sites.Control in
  Alcotest.(check bool) "control faults produce SDCs" true
    (r.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_sdc > 0);
  Alcotest.(check bool)
    (Printf.sprintf "detector flags some runs (%d flagged)"
       r.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_detected)
    true
    (r.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_detected > 0)

let test_detectors_silent_on_pure_data () =
  (* Paper Fig 12: pure-data faults cannot touch the loop iterator, so
     the foreach detector must stay silent. *)
  let r = detector_campaign Analysis.Sites.Pure_data in
  check Alcotest.int "no detections on pure-data faults" 0
    r.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_detected


let test_strengthened_detector_catches_more () =
  (* The exit-equality extension must dominate the Fig 8 invariants on
     control faults (it subsumes them on the exit path). *)
  let cfg =
    {
      Vulfi.Campaign.experiments_per_campaign = 40;
      min_campaigns = 3;
      max_campaigns = 3;
      margin_target = 1.0;
      seed = 777;
    }
  in
  let run set =
    Vulfi.Campaign.run
      ~transform:(Overhead.transform set)
      ~hooks:Runtime.hooks cfg
      (vcopy_workload [ 19; 37 ])
      Vir.Target.Avx Analysis.Sites.Control
  in
  let base = run Overhead.paper_detectors in
  let strong = run Overhead.strengthened_detectors in
  Alcotest.(check bool)
    (Printf.sprintf "strengthened detects >= baseline (%d vs %d)"
       strong.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_detected
       base.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_detected)
    true
    (strong.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_detected
     >= base.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_detected)

let test_strengthened_no_false_positives () =
  List.iter
    (fun target ->
      List.iter
        (fun n ->
          let m = Minispc.Driver.compile target vcopy_src in
          ignore (Foreach_invariants.run ~strengthen:true m);
          let st = Interp.Machine.create (Interp.Compile.compile_module m) in
          Runtime.attach st;
          let mem = Interp.Machine.memory st in
          let a1 = Interp.Memory.alloc mem ~name:"a1" ~bytes:(4 * max n 1) in
          let a2 = Interp.Memory.alloc mem ~name:"a2" ~bytes:(4 * max n 1) in
          Interp.Memory.write_i32_array mem a1 (Array.init n (fun i -> i));
          ignore
            (Interp.Machine.run st "vcopy_ispc"
               [ Interp.Vvalue.of_ptr a1; Interp.Vvalue.of_ptr a2;
                 Interp.Vvalue.of_i32 n ]);
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d clean" (Vir.Target.name target) n)
            false (Interp.Machine.detections st > 0))
        [ 0; 1; 7; 8; 16; 23 ])
    Vir.Target.all

let test_runtime_exact_invariant () =
  let st = handler_machine () in
  let call nc ae =
    Interp.Machine.reset st;
    ignore
      (Runtime.handle_check_foreach_exact st
         [ Interp.Vvalue.of_i32 nc; Interp.Vvalue.of_i32 ae ]);
    Interp.Machine.detections st > 0
  in
  Alcotest.(check bool) "equality holds" false (call 16 16);
  Alcotest.(check bool) "early exit flagged" true (call 8 16);
  Alcotest.(check bool) "overshoot flagged" true (call 24 16)

(* ---------------- uniform broadcast detector ---------------- *)

let broadcast_src =
  "export void scale(uniform float a[], uniform float s, uniform int n) \
   { foreach (i = 0 ... n) { a[i] = a[i] * s; } }"

let test_uniform_xor_inserts () =
  let m = Minispc.Driver.compile Vir.Target.Avx broadcast_src in
  let n = Uniform_xor.run m in
  Alcotest.(check bool)
    (Printf.sprintf "protected %d broadcasts" n)
    true (n > 0);
  let s = Vir.Pp.module_to_string m in
  Alcotest.(check bool) "calls uniform checker" true
    (Astring_contains.contains s Runtime.check_uniform_name)

let test_uniform_xor_no_false_positives () =
  List.iter
    (fun target ->
      let m = Minispc.Driver.compile target broadcast_src in
      ignore (Uniform_xor.run m);
      let st = Interp.Machine.create (Interp.Compile.compile_module m) in
      Runtime.attach st;
      let mem = Interp.Machine.memory st in
      let n = 13 in
      let a = Interp.Memory.alloc mem ~name:"a" ~bytes:(4 * n) in
      Interp.Memory.write_f32_array mem a (Array.init n float_of_int);
      let _ =
        Interp.Machine.run st "scale"
          [ Interp.Vvalue.of_ptr a; Interp.Vvalue.of_f32 2.5;
            Interp.Vvalue.of_i32 n ]
      in
      Alcotest.(check bool) "clean run not flagged" false
        (Interp.Machine.detections st > 0))
    Vir.Target.all

let test_uniform_xor_detects_broadcast_corruption () =
  (* Inject faults into the broadcast vector's lanes (pure-data sites of
     the scale kernel include the broadcast shuffle Lvalue) and check
     that at least some corruptions are flagged. *)
  let w =
    {
      Vulfi.Workload.w_name = "scale";
      w_fn = "scale";
      w_out_tolerance = 0.0;
      w_inputs = 1;
      w_build = (fun t -> Minispc.Driver.compile t broadcast_src);
      w_setup =
        (fun ~input:_ st ->
          let mem = Interp.Machine.memory st in
          let n = 16 in
          let a = Interp.Memory.alloc mem ~name:"a" ~bytes:(4 * n) in
          Interp.Memory.write_f32_array mem a (Array.init n float_of_int);
          ( [ Interp.Vvalue.of_ptr a; Interp.Vvalue.of_f32 2.5;
              Interp.Vvalue.of_i32 n ],
            fun () ->
              {
                Vulfi.Outcome.empty_output with
                Vulfi.Outcome.o_f32 = [ Interp.Memory.read_f32_array mem a n ];
              } ));
    }
  in
  let hooks = Runtime.hooks () in
  let p =
    Vulfi.Experiment.prepare
      ~transform:(fun m ->
        ignore (Uniform_xor.run m);
        m)
      w Vir.Target.Avx Analysis.Sites.Pure_data
  in
  let g = Vulfi.Experiment.golden_run ~hooks p ~input:0 in
  let detected = ref 0 in
  for site = 1 to g.Vulfi.Experiment.g_dyn_sites do
    let r =
      Vulfi.Experiment.faulty_run ~hooks p ~golden:g ~dynamic_site:site
        ~seed:(777 + site)
    in
    if r.Vulfi.Experiment.r_detected then incr detected
  done;
  Alcotest.(check bool)
    (Printf.sprintf "broadcast corruptions detected (%d)" !detected)
    true (!detected > 0)


(* ---------------- source-level asserts ---------------- *)

let assert_src =
  "export void checked_copy(uniform int a1[], uniform int a2[],\n\
   uniform int n) {\n\
   foreach (i = 0 ... n) {\n\
   int v = a1[i];\n\
   assert(v == a1[i]);\n\
   a2[i] = v;\n\
   assert(a2[i] == v);\n\
   }\n\
   }"

let assert_workload lengths =
  {
    Vulfi.Workload.w_name = "checked_copy";
    w_fn = "checked_copy";
    w_out_tolerance = 0.0;
    w_inputs = List.length lengths;
    w_build = (fun target -> Minispc.Driver.compile target assert_src);
    w_setup =
      (fun ~input st ->
        let n = List.nth lengths input in
        let mem = Interp.Machine.memory st in
        let a1 = Interp.Memory.alloc mem ~name:"a1" ~bytes:(4 * max n 1) in
        let a2 = Interp.Memory.alloc mem ~name:"a2" ~bytes:(4 * max n 1) in
        Interp.Memory.write_i32_array mem a1 (Array.init n (fun i -> i * 5));
        ( [ Interp.Vvalue.of_ptr a1; Interp.Vvalue.of_ptr a2;
            Interp.Vvalue.of_i32 n ],
          fun () ->
            {
              Vulfi.Outcome.empty_output with
              Vulfi.Outcome.o_i32 = [ Interp.Memory.read_i32_array mem a2 n ];
            } ));
  }

let test_assert_clean_run_silent () =
  List.iter
    (fun target ->
      let m = Minispc.Driver.compile target assert_src in
      let st = Interp.Machine.create (Interp.Compile.compile_module m) in
      Runtime.attach st;
      let mem = Interp.Machine.memory st in
      let n = 19 in
      let a1 = Interp.Memory.alloc mem ~name:"a1" ~bytes:(4 * n) in
      let a2 = Interp.Memory.alloc mem ~name:"a2" ~bytes:(4 * n) in
      Interp.Memory.write_i32_array mem a1 (Array.init n (fun i -> i));
      ignore
        (Interp.Machine.run st "checked_copy"
           [ Interp.Vvalue.of_ptr a1; Interp.Vvalue.of_ptr a2;
             Interp.Vvalue.of_i32 n ]);
      Alcotest.(check bool)
        (Vir.Target.name target ^ " clean run silent")
        false (Interp.Machine.detections st > 0))
    Vir.Target.all

let test_assert_catches_injected_faults () =
  (* Faults in the copied values (pure-data!) violate the equality
     asserts — detection coverage the foreach invariants cannot give. *)
  let hooks = Runtime.hooks () in
  let p =
    Vulfi.Experiment.prepare (assert_workload [ 19 ]) Vir.Target.Avx
      Analysis.Sites.Pure_data
  in
  let g = Vulfi.Experiment.golden_run ~hooks p ~input:0 in
  let detected = ref 0 and sdc = ref 0 in
  for site = 1 to g.Vulfi.Experiment.g_dyn_sites do
    let r =
      Vulfi.Experiment.faulty_run ~hooks p ~golden:g ~dynamic_site:site
        ~seed:(9000 + site)
    in
    if r.Vulfi.Experiment.r_outcome = Vulfi.Outcome.Sdc then incr sdc;
    if r.Vulfi.Experiment.r_detected then incr detected
  done;
  Alcotest.(check bool)
    (Printf.sprintf "asserts detect pure-data faults (%d detected, %d SDC)"
       !detected !sdc)
    true (!detected > 0)

let test_assert_runtime_handler () =
  let st = handler_machine () in
  ignore (Runtime.handle_assert st [ Interp.Vvalue.of_bool true ]);
  Alcotest.(check bool) "ok not flagged" false
    (Interp.Machine.detections st > 0);
  ignore (Runtime.handle_assert st [ Interp.Vvalue.of_bool false ]);
  Alcotest.(check bool) "violated flags" true
    (Interp.Machine.detections st > 0);
  Alcotest.(check int) "count" 1 (Interp.Machine.detections st)

(* ---------------- overhead ---------------- *)

let test_overhead_positive_and_small () =
  let w = vcopy_workload [ 64 ] in
  let m = Overhead.measure w Vir.Target.Avx ~input:0 in
  Alcotest.(check bool) "detector adds instructions" true
    (m.Overhead.detected_instrs > m.Overhead.plain_instrs);
  let frac = Overhead.overhead_fraction m in
  Alcotest.(check bool)
    (Printf.sprintf "exit-only overhead is small (%.2f%%)" (100. *. frac))
    true
    (frac > 0.0 && frac < 0.25)

let test_overhead_every_iteration_costs_more () =
  let w = vcopy_workload [ 64 ] in
  let exit_only =
    Overhead.measure ~set:Overhead.paper_detectors w Vir.Target.Avx ~input:0
  in
  let every =
    Overhead.measure
      ~set:
        {
          Overhead.with_foreach = true;
          with_uniform = false;
          placement = `Every_iteration;
          strengthen = false;
        }
      w Vir.Target.Avx ~input:0
  in
  Alcotest.(check bool) "per-iteration placement costs more" true
    (every.Overhead.detected_instrs > exit_only.Overhead.detected_instrs)

let test_overhead_zero_when_no_detectors () =
  let w = vcopy_workload [ 32 ] in
  let m =
    Overhead.measure
      ~set:
        {
          Overhead.with_foreach = false;
          with_uniform = false;
          placement = `Exit_only;
          strengthen = false;
        }
      w Vir.Target.Sse ~input:0
  in
  check Alcotest.int "no detectors inserted" 0 m.Overhead.detectors_inserted;
  check (Alcotest.float 0.0) "zero overhead" 0.0
    (Overhead.overhead_fraction m)

(* ---------------- properties ---------------- *)

(* Detector-equipped clean runs never flag, across sizes and targets. *)
let prop_no_false_positives =
  QCheck.Test.make ~name:"detectors have no false positives" ~count:40
    QCheck.(pair (int_range 0 64) bool)
    (fun (n, use_avx) ->
      let target = if use_avx then Vir.Target.Avx else Vir.Target.Sse in
      let m = Minispc.Driver.compile target vcopy_src in
      ignore (Foreach_invariants.run m);
      ignore (Uniform_xor.run m);
      let st = Interp.Machine.create (Interp.Compile.compile_module m) in
      Runtime.attach st;
      let mem = Interp.Machine.memory st in
      let a1 = Interp.Memory.alloc mem ~name:"a1" ~bytes:(4 * max n 1) in
      let a2 = Interp.Memory.alloc mem ~name:"a2" ~bytes:(4 * max n 1) in
      Interp.Memory.write_i32_array mem a1 (Array.init n (fun i -> i));
      let _ =
        Interp.Machine.run st "vcopy_ispc"
          [ Interp.Vvalue.of_ptr a1; Interp.Vvalue.of_ptr a2;
            Interp.Vvalue.of_i32 n ]
      in
      not (Interp.Machine.detections st > 0))

let () =
  Alcotest.run "detectors"
    [
      ( "detect",
        [
          Alcotest.test_case "matches codegen metadata" `Quick
            test_detect_matches_codegen_meta;
          Alcotest.test_case "ignores plain loops" `Quick
            test_detect_ignores_plain_loops;
          Alcotest.test_case "multiple foreach" `Quick
            test_detect_multiple_foreach;
        ] );
      ( "foreach-pass",
        [
          Alcotest.test_case "inserts check block" `Quick
            test_pass_inserts_block;
          Alcotest.test_case "preserves semantics, no false positives"
            `Quick test_pass_preserves_semantics;
        ] );
      ( "runtime",
        [ Alcotest.test_case "Fig 8 invariants" `Quick test_runtime_invariants ]
      );
      ( "fault-injection",
        [
          Alcotest.test_case "fires on control faults" `Quick
            test_detectors_fire_on_control_faults;
          Alcotest.test_case "silent on pure-data faults" `Quick
            test_detectors_silent_on_pure_data;
        ] );
      ( "strengthened-invariant",
        [
          Alcotest.test_case "catches more than Fig 8" `Quick
            test_strengthened_detector_catches_more;
          Alcotest.test_case "no false positives" `Quick
            test_strengthened_no_false_positives;
          Alcotest.test_case "runtime equality check" `Quick
            test_runtime_exact_invariant;
        ] );
      ( "uniform-xor",
        [
          Alcotest.test_case "inserts checks" `Quick test_uniform_xor_inserts;
          Alcotest.test_case "no false positives" `Quick
            test_uniform_xor_no_false_positives;
          Alcotest.test_case "detects broadcast corruption" `Quick
            test_uniform_xor_detects_broadcast_corruption;
        ] );
      ( "source-asserts",
        [
          Alcotest.test_case "clean run silent" `Quick
            test_assert_clean_run_silent;
          Alcotest.test_case "catches injected pure-data faults" `Quick
            test_assert_catches_injected_faults;
          Alcotest.test_case "runtime handler" `Quick
            test_assert_runtime_handler;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "positive and small" `Quick
            test_overhead_positive_and_small;
          Alcotest.test_case "per-iteration costs more" `Quick
            test_overhead_every_iteration_costs_more;
          Alcotest.test_case "zero without detectors" `Quick
            test_overhead_zero_when_no_detectors;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_no_false_positives ] );
    ]
