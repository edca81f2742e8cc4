(* Tests for the VULFI core: instrumentation pass (Figs 4/5), runtime
   injection API, experiment protocol, outcome classification, campaign
   statistics. *)

open Vulfi

let check = Alcotest.check

(* ---------------- helpers ---------------- *)

let vcopy_src =
  "export void vcopy_ispc(uniform int a1[], uniform int a2[], uniform int \
   n) { foreach (i = 0 ... n) { a2[i] = a1[i]; } }"

(* Workload: vcopy over int arrays; input k selects length. *)
let vcopy_workload lengths =
  {
    Workload.w_name = "vcopy";
    w_fn = "vcopy_ispc";
    w_out_tolerance = 0.0;
    w_inputs = List.length lengths;
    w_build =
      (fun target -> Minispc.Driver.compile target vcopy_src);
    w_setup =
      (fun ~input st ->
        let n = List.nth lengths input in
        let mem = Interp.Machine.memory st in
        let a1 = Interp.Memory.alloc mem ~name:"a1" ~bytes:(4 * max n 1) in
        let a2 = Interp.Memory.alloc mem ~name:"a2" ~bytes:(4 * max n 1) in
        Interp.Memory.write_i32_array mem a1
          (Array.init n (fun i -> (i * 37) - 11));
        ( [ Interp.Vvalue.of_ptr a1; Interp.Vvalue.of_ptr a2;
            Interp.Vvalue.of_i32 n ],
          fun () ->
            {
              Outcome.empty_output with
              Outcome.o_i32 = [ Interp.Memory.read_i32_array mem a2 n ];
            } ));
  }

let categories = Analysis.Sites.all_categories

(* ---------------- Instrumentation: semantics preserved ---------------- *)

(* An instrumented program with the runtime in Profile mode must produce
   exactly the output of the uninstrumented program. *)
let test_instrument_preserves_semantics () =
  List.iter
    (fun target ->
      List.iter
        (fun cat ->
          let w = vcopy_workload [ 19 ] in
          let p = Experiment.prepare w target cat in
          let g = Experiment.golden_run p ~input:0 in
          let expected =
            Array.init 19 (fun i -> (i * 37) - 11)
          in
          match g.Experiment.g_output.Outcome.o_i32 with
          | [ out ] ->
            check
              Alcotest.(array int)
              (Printf.sprintf "%s/%s output intact" (Vir.Target.name target)
                 (Analysis.Sites.category_name cat))
              expected out
          | _ -> Alcotest.fail "output shape")
        categories)
    Vir.Target.all

(* Instrumenting all categories of a varied program still verifies and
   preserves semantics. *)
let kitchen_src =
  "export float kitchen(uniform float a[], uniform int idx[], uniform int \
   n) {\n\
   varying float acc = 0.0;\n\
   foreach (i = 0 ... n) {\n\
   float x = a[idx[i]];\n\
   if (x > 0.5) { acc += x * 2.0; } else { acc += x; }\n\
   }\n\
   return reduce_add(acc);\n\
   }"

let kitchen_workload n =
  {
    Workload.w_name = "kitchen";
    w_fn = "kitchen";
    w_out_tolerance = 0.0;
    w_inputs = 1;
    w_build = (fun target -> Minispc.Driver.compile target kitchen_src);
    w_setup =
      (fun ~input:_ st ->
        let mem = Interp.Machine.memory st in
        let a = Interp.Memory.alloc mem ~name:"a" ~bytes:(4 * n) in
        let idx = Interp.Memory.alloc mem ~name:"idx" ~bytes:(4 * n) in
        Interp.Memory.write_f32_array mem a
          (Array.init n (fun i -> float_of_int (i mod 3) *. 0.4));
        Interp.Memory.write_i32_array mem idx
          (Array.init n (fun i -> (i * 7) mod n));
        ( [ Interp.Vvalue.of_ptr a; Interp.Vvalue.of_ptr idx;
            Interp.Vvalue.of_i32 n ],
          fun () -> Outcome.empty_output ));
  }

let test_instrument_kitchen_all_categories () =
  List.iter
    (fun target ->
      (* uninstrumented reference *)
      let w = kitchen_workload 21 in
      let m = w.Workload.w_build target in
      let st = Interp.Machine.create (Interp.Compile.compile_module m) in
      let args, _ = w.Workload.w_setup ~input:0 st in
      let reference =
        match Interp.Machine.run st "kitchen" args with
        | Some v -> Interp.Vvalue.as_float v
        | None -> Alcotest.fail "no return"
      in
      List.iter
        (fun cat ->
          let p = Experiment.prepare w target cat in
          let rt = Runtime.create Runtime.Profile in
          let st = Interp.Machine.create p.Experiment.p_code in
          Runtime.attach rt st;
          let args, _ = w.Workload.w_setup ~input:0 st in
          match Interp.Machine.run st "kitchen" args with
          | Some v ->
            check (Alcotest.float 0.0)
              (Printf.sprintf "%s/%s return value"
                 (Vir.Target.name target)
                 (Analysis.Sites.category_name cat))
              reference
              (Interp.Vvalue.as_float v)
          | None -> Alcotest.fail "no return")
        categories)
    Vir.Target.all

(* ---------------- Instrumentation: Fig 5 shape ---------------- *)

let test_instrument_fig5_shape () =
  (* Instrument the masked-copy module's pure-data sites and check the
     per-lane extract/call/insert chain with mask extraction. *)
  let m = Ir_samples.masked_copy_module Vir.Target.Avx in
  let targets = Analysis.Sites.targets_of_module m in
  let instr = Instrument.run m targets in
  let s = Vir.Pp.module_to_string instr.Instrument.instrumented in
  Alcotest.(check bool) "calls injection API" true
    (Astring_contains.contains s "__vulfi_inject_f32");
  let f = Vir.Vmodule.find_func_exn m "masked_copy" in
  let all = Vir.Func.all_instrs f in
  let count pred = List.length (List.filter pred all) in
  (* 8 lanes x 2 targets (maskload Lvalue + maskstore value operand) *)
  check Alcotest.int "16 injection calls"
    16
    (count (fun (i : Vir.Instr.t) ->
         match i.Vir.Instr.op with
         | Vir.Instr.Call (n, _) -> Fault_model.is_inject_fn n
         | _ -> false));
  (* mask lanes are extracted for each call: 16 mask extracts + 16 value
     extracts = 32 extractelement *)
  check Alcotest.int "32 extractelements" 32
    (count (fun (i : Vir.Instr.t) ->
         match i.Vir.Instr.op with
         | Vir.Instr.Extractelement _ -> true
         | _ -> false));
  check Alcotest.int "16 insertelements" 16
    (count (fun (i : Vir.Instr.t) ->
         match i.Vir.Instr.op with
         | Vir.Instr.Insertelement _ -> true
         | _ -> false));
  check Alcotest.int "site table has 16 sites" 16
    (Instrument.static_site_count instr)

let test_instrument_scalar_module () =
  (* The Fig 3 scalar module instruments with scalar (single-call)
     chains and verifies. *)
  let m, _, _, _, _ = Ir_samples.fig3_foo_module () in
  let targets = Analysis.Sites.targets_of_module m in
  let n_targets = List.length targets in
  let instr = Instrument.run m targets in
  check Alcotest.int "one site per scalar target" n_targets
    (Instrument.static_site_count instr);
  (* instrumented module still runs correctly *)
  let st =
    Interp.Machine.create
      (Interp.Compile.compile_module instr.Instrument.instrumented)
  in
  let rt = Runtime.create Runtime.Profile in
  Runtime.attach rt st;
  let mem = Interp.Machine.memory st in
  let a = Interp.Memory.alloc mem ~name:"a" ~bytes:24 in
  Interp.Memory.write_i32_array mem a (Array.make 6 1);
  let _ =
    Interp.Machine.run st "foo"
      [ Interp.Vvalue.of_ptr a; Interp.Vvalue.of_i32 6;
        Interp.Vvalue.of_i32 2 ]
  in
  check
    Alcotest.(array int)
    "fig3 semantics preserved" [| 2; 2; 3; 5; 8; 12 |]
    (Interp.Memory.read_i32_array mem a 6)

(* ---------------- Instrumentation: pinned output ---------------- *)

(* The printed instrumented module and site table of every cell of the
   study grid ({!Instrumented_grid}), pinned by MD5 in
   instrument_digests.txt ({!Pinned}). Any change to what the
   instrumentor emits — instruction order, register numbering, which
   register a chain reads — shows here. *)
let digest_file = "instrument_digests.txt"

let digest_header =
  "# MD5 of Vir.Pp.module_to_string of the instrumented module, MD5 of\n\
   # its site table, cell (workload/ISA/category/detector arm).\n\
   # Checked by test_vulfi's \"pinned output\" case; re-record only in a\n\
   # change that means to alter the instrumentor's output.\n"

let kind_name = function
  | Analysis.Sites.Lvalue -> "lvalue"
  | Analysis.Sites.Store_value -> "store"
  | Analysis.Sites.Maskstore_value -> "maskstore"

let site_table_string (t : Instrument.t) =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun (si : Instrument.site_info) ->
      let tg = si.Instrument.si_target in
      Printf.bprintf buf "%d %s %s %s %d %s\n" si.Instrument.si_id
        tg.Analysis.Sites.t_func tg.Analysis.Sites.t_block
        (kind_name tg.Analysis.Sites.t_kind)
        si.Instrument.si_lane
        (Vir.Pp.instr_to_string tg.Analysis.Sites.t_instr))
    t.Instrument.site_table;
  Buffer.contents buf

let instrument_digest_rows () =
  let hex s = Digest.to_hex (Digest.string s) in
  let rows = ref [] in
  Instrumented_grid.iter (fun label instr ->
      rows :=
        Printf.sprintf "%s %s %s"
          (hex (Vir.Pp.module_to_string instr.Instrument.instrumented))
          (hex (site_table_string instr))
          label
        :: !rows);
  List.rev !rows

let test_instrument_pinned () =
  let actual = instrument_digest_rows () in
  check Alcotest.int "grid cells" 144 (List.length actual);
  Pinned.check ~file:digest_file ~header:digest_header
    ~what:"instrumented cells" ~label:(Pinned.label_after 2)
    ~expected:(Pinned.read digest_file) actual

(* ---------------- Masked lanes are not live fault sites ------------- *)

let test_masked_lanes_not_counted () =
  let run_with_mask mask_pattern =
    let m = Ir_samples.masked_copy_module Vir.Target.Avx in
    let targets = Analysis.Sites.targets_of_module m in
    let instr = Instrument.run m targets in
    let rt = Runtime.create Runtime.Profile in
    let st =
      Interp.Machine.create
        (Interp.Compile.compile_module instr.Instrument.instrumented)
    in
    Runtime.attach rt st;
    let mem = Interp.Machine.memory st in
    let src = Interp.Memory.alloc mem ~name:"src" ~bytes:32 in
    let dst = Interp.Memory.alloc mem ~name:"dst" ~bytes:32 in
    Interp.Memory.write_f32_array mem src (Array.init 8 float_of_int);
    let mask =
      Interp.Vvalue.I (Vir.Vtype.I1, Interp.Ilanes.of_array mask_pattern)
    in
    let _ =
      Interp.Machine.run st "masked_copy"
        [ Interp.Vvalue.of_ptr src; Interp.Vvalue.of_ptr dst; mask ]
    in
    Interp.Machine.sites st
  in
  (* full mask: 8 lanes x 2 targets = 16 live sites *)
  check Alcotest.int "full mask" 16 (run_with_mask (Array.make 8 1L));
  (* half mask: 4 lanes x 2 targets *)
  check Alcotest.int "half mask" 8
    (run_with_mask (Array.init 8 (fun i -> if i mod 2 = 0 then 1L else 0L)));
  (* empty mask: no live fault site at all *)
  check Alcotest.int "empty mask" 0 (run_with_mask (Array.make 8 0L))

(* ---------------- Injection mechanics ---------------- *)

let test_injection_exactly_one () =
  let w = vcopy_workload [ 16 ] in
  let p = Experiment.prepare w Vir.Target.Avx Analysis.Sites.Pure_data in
  let g = Experiment.golden_run p ~input:0 in
  Alcotest.(check bool) "sites exist" true (g.Experiment.g_dyn_sites > 0);
  let r =
    Experiment.faulty_run p ~golden:g ~dynamic_site:1 ~seed:42
  in
  (match r.Experiment.r_injection with
  | Some inj ->
    Alcotest.(check bool) "bit in range" true
      (inj.Runtime.inj_bit >= 0 && inj.Runtime.inj_bit < 64);
    Alcotest.(check bool) "value changed" false
      (Interp.Vvalue.equal inj.Runtime.inj_before inj.Runtime.inj_after)
  | None -> Alcotest.fail "no injection recorded");
  (* site index beyond the dynamic count -> no injection, benign *)
  let r2 =
    Experiment.faulty_run p ~golden:g
      ~dynamic_site:(g.Experiment.g_dyn_sites + 1000)
      ~seed:1
  in
  Alcotest.(check bool) "no injection" true (r2.Experiment.r_injection = None);
  check Alcotest.string "benign" "benign"
    (Outcome.name r2.Experiment.r_outcome)

let test_injection_deterministic () =
  let w = vcopy_workload [ 24 ] in
  let p = Experiment.prepare w Vir.Target.Sse Analysis.Sites.Pure_data in
  let g = Experiment.golden_run p ~input:0 in
  let r1 = Experiment.faulty_run p ~golden:g ~dynamic_site:5 ~seed:7 in
  let r2 = Experiment.faulty_run p ~golden:g ~dynamic_site:5 ~seed:7 in
  check Alcotest.string "same outcome"
    (Outcome.to_string r1.Experiment.r_outcome)
    (Outcome.to_string r2.Experiment.r_outcome);
  match (r1.Experiment.r_injection, r2.Experiment.r_injection) with
  | Some a, Some b ->
    check Alcotest.int "same bit" a.Runtime.inj_bit b.Runtime.inj_bit
  | _ -> Alcotest.fail "injections missing"

(* Pure-data faults in vcopy flow straight to the output: flipping a
   copied value must yield an SDC, never a crash. *)
let test_pure_data_faults_sdc_or_benign () =
  let w = vcopy_workload [ 16 ] in
  let p = Experiment.prepare w Vir.Target.Avx Analysis.Sites.Pure_data in
  let g = Experiment.golden_run p ~input:0 in
  let outcomes =
    List.init (min 40 g.Experiment.g_dyn_sites) (fun k ->
        (Experiment.faulty_run p ~golden:g ~dynamic_site:(k + 1)
           ~seed:(1000 + k)).Experiment.r_outcome)
  in
  Alcotest.(check bool) "no crashes from pure-data faults" true
    (List.for_all (function Outcome.Crash _ -> false | _ -> true) outcomes);
  Alcotest.(check bool) "some SDCs observed" true
    (List.exists (( = ) Outcome.Sdc) outcomes)

(* Address faults must produce crashes for some sites (bit flips in
   high address bits leave every allocation). *)
let test_address_faults_crash () =
  let w = vcopy_workload [ 32 ] in
  let p = Experiment.prepare w Vir.Target.Avx Analysis.Sites.Address in
  let g = Experiment.golden_run p ~input:0 in
  let crashes = ref 0 in
  let n = min 60 g.Experiment.g_dyn_sites in
  for k = 1 to n do
    match
      (Experiment.faulty_run p ~golden:g ~dynamic_site:k ~seed:(2000 + k))
        .Experiment.r_outcome
    with
    | Outcome.Crash _ -> incr crashes
    | _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "crashes observed (%d/%d)" !crashes n)
    true (!crashes > 0)

(* Control faults can produce hangs, observed as budget-exhaustion
   crashes. Use a loop whose trip count is fault-sensitive. *)
let test_control_fault_hang_detected () =
  let src =
    "export int spin(uniform int n) { uniform int i = 0; uniform int s = \
     0; while (i < n) { s = s + i; i = i + 1; } return s; }"
  in
  let w =
    {
      Workload.w_name = "spin";
      w_fn = "spin";
      w_out_tolerance = 0.0;
      w_inputs = 1;
      w_build = (fun t -> Minispc.Driver.compile t src);
      w_setup =
        (fun ~input:_ _st ->
          ( [ Interp.Vvalue.of_i32 50 ],
            fun () -> Outcome.empty_output ));
    }
  in
  let p = Experiment.prepare w Vir.Target.Avx Analysis.Sites.Control in
  let g = Experiment.golden_run p ~input:0 in
  let hangs = ref 0 and others = ref 0 in
  for k = 1 to min 200 g.Experiment.g_dyn_sites do
    match
      (Experiment.faulty_run p ~golden:g ~dynamic_site:k ~seed:(3000 + k))
        .Experiment.r_outcome
    with
    | Outcome.Crash Interp.Trap.Budget_exhausted -> incr hangs
    | _ -> incr others
  done;
  Alcotest.(check bool)
    (Printf.sprintf "hangs detected (%d)" !hangs)
    true (!hangs > 0)


(* ---------------- extended fault models ---------------- *)

let test_fault_kind_multi_bit () =
  let w = vcopy_workload [ 16 ] in
  let p = Experiment.prepare w Vir.Target.Avx Analysis.Sites.Pure_data in
  let g = Experiment.golden_run p ~input:0 in
  let r =
    Experiment.faulty_run ~fault_kind:(Runtime.Multi_bit_flip 3) p
      ~golden:g ~dynamic_site:3 ~seed:5
  in
  match r.Experiment.r_injection with
  | Some inj ->
    let diff =
      Int64.logxor
        (Interp.Vvalue.lane_bits inj.Runtime.inj_before 0)
        (Interp.Vvalue.lane_bits inj.Runtime.inj_after 0)
    in
    (* population count of the xor must be exactly 3 *)
    let rec popcount x = if x = 0L then 0 else
      popcount (Int64.shift_right_logical x 1) + Int64.to_int (Int64.logand x 1L)
    in
    Alcotest.(check int) "three bits flipped" 3 (popcount diff)
  | None -> Alcotest.fail "no injection"

let test_fault_kind_stuck_at_zero () =
  let w = vcopy_workload [ 16 ] in
  let p = Experiment.prepare w Vir.Target.Avx Analysis.Sites.Pure_data in
  let g = Experiment.golden_run p ~input:0 in
  let r =
    Experiment.faulty_run ~fault_kind:Runtime.Stuck_at_zero p ~golden:g
      ~dynamic_site:2 ~seed:5
  in
  match r.Experiment.r_injection with
  | Some inj ->
    Alcotest.(check bool) "register cleared" true
      (Interp.Vvalue.lane_bits inj.Runtime.inj_after 0 = 0L)
  | None -> Alcotest.fail "no injection"

let test_fault_kind_random_value_changes () =
  let w = vcopy_workload [ 16 ] in
  let p = Experiment.prepare w Vir.Target.Sse Analysis.Sites.Pure_data in
  let g = Experiment.golden_run p ~input:0 in
  for seed = 0 to 9 do
    let r =
      Experiment.faulty_run ~fault_kind:Runtime.Random_value p ~golden:g
        ~dynamic_site:(1 + seed) ~seed
    in
    match r.Experiment.r_injection with
    | Some inj ->
      Alcotest.(check bool) "value changed" false
        (Interp.Vvalue.equal inj.Runtime.inj_before inj.Runtime.inj_after)
    | None -> Alcotest.fail "no injection"
  done

(* The injection record's bit must be the FIRST flipped bit in draw
   order (it used to be the minimum, which is order-nondeterministic in
   spirit and wrong for k > 1 whenever the first draw isn't the
   smallest). Pin it against an oracle replaying the same RNG. *)
let test_multi_bit_records_first_flipped () =
  let width = 32 in
  let expected_first seed k =
    let rng = Random.State.make [| seed |] in
    let rec draw chosen n =
      if n = 0 then List.rev chosen
      else
        let b = Random.State.int rng width in
        if List.mem b chosen then draw chosen n
        else draw (b :: chosen) (n - 1)
    in
    List.hd (draw [] k)
  in
  List.iter
    (fun seed ->
      let t =
        Runtime.create ~seed ~fault_kind:(Runtime.Multi_bit_flip 3)
          (Runtime.Inject { dynamic_site = 1 })
      in
      let v, bit = Runtime.corrupt t (Interp.Vvalue.of_i32 0) in
      check Alcotest.int
        (Printf.sprintf "seed %d records first drawn bit" seed)
        (expected_first seed 3) bit;
      let bits = Interp.Vvalue.lane_bits v 0 in
      Alcotest.(check bool) "recorded bit is flipped" true
        (Int64.logand (Int64.shift_right_logical bits bit) 1L = 1L))
    [ 1; 2; 3; 42; 12345 ]

(* Regression: Random_value drew [Random.State.int64 rng Int64.max_int]
   (63 uniform bits, bit 63 never set) plus a complement coin, and never
   truncated the pattern to the scalar's width. It must instead draw
   [width] independent uniform bits. Pin the exact pattern against an
   oracle replaying the same RNG — the old draw consumed the RNG
   differently, so this fails on it. *)
let test_random_value_draws_width_bits () =
  List.iter
    (fun seed ->
      let t =
        Runtime.create ~seed ~fault_kind:Runtime.Random_value
          (Runtime.Inject { dynamic_site = 1 })
      in
      let v, bit = Runtime.corrupt t (Interp.Vvalue.of_i32 0) in
      let expected =
        Int64.logand
          (Random.State.bits64 (Random.State.make [| seed |]))
          0xFFFF_FFFFL
      in
      (* all chosen seeds draw a nonzero pattern, so no fallback *)
      Alcotest.(check bool) "oracle pattern is nonzero" true (expected <> 0L);
      check Alcotest.int64
        (Printf.sprintf "seed %d: pattern = masked bits64" seed)
        expected
        (Interp.Vvalue.lane_bits v 0);
      check Alcotest.int "whole-register marker" (-1) bit)
    [ 1; 2; 3; 42; 12345 ]

(* Bit 63 of a 64-bit scalar must come up with frequency ~ 1/2 (the old
   63-bit draw reached it only through the complement coin). *)
let test_random_value_bit63_frequency () =
  let n = 2000 in
  let hits = ref 0 in
  for seed = 0 to n - 1 do
    let t =
      Runtime.create ~seed ~fault_kind:Runtime.Random_value
        (Runtime.Inject { dynamic_site = 1 })
    in
    let v, _ = Runtime.corrupt t (Interp.Vvalue.of_i64 0L) in
    if Int64.shift_right_logical (Interp.Vvalue.lane_bits v 0) 63 = 1L then
      incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "bit-63 frequency %.3f in [0.45, 0.55]" freq)
    true
    (freq > 0.45 && freq < 0.55)

(* Narrow scalars must never gain bits above their width. *)
let test_random_value_narrow_width () =
  for seed = 0 to 49 do
    let t =
      Runtime.create ~seed ~fault_kind:Runtime.Random_value
        (Runtime.Inject { dynamic_site = 1 })
    in
    let v, _ = Runtime.corrupt t (Interp.Vvalue.of_bool false) in
    let bits = Interp.Vvalue.lane_bits v 0 in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: only the low bit may be set" seed)
      true
      (Int64.logand bits (Int64.lognot 1L) = 0L)
  done

let test_fault_kind_names () =
  Alcotest.(check string) "single" "single-bit-flip"
    (Runtime.fault_kind_name Runtime.Single_bit_flip);
  Alcotest.(check string) "multi" "4-bit-flip"
    (Runtime.fault_kind_name (Runtime.Multi_bit_flip 4));
  Alcotest.(check string) "random" "random-value"
    (Runtime.fault_kind_name Runtime.Random_value)

(* Regression: a multi-bit flip of k < 1 bits crashed the faulty run
   (k = 0 read the head of an empty draw) or never terminated (k < 0
   could never draw down to zero). The runtime refuses to build one. *)
let test_multi_bit_rejects_k_below_one () =
  List.iter
    (fun k ->
      match
        Runtime.create ~fault_kind:(Runtime.Multi_bit_flip k)
          (Runtime.Inject { dynamic_site = 1 })
      with
      | _ -> Alcotest.failf "Multi_bit_flip %d accepted" k
      | exception Invalid_argument _ -> ())
    [ 0; -1; min_int ];
  ignore
    (Runtime.create ~fault_kind:(Runtime.Multi_bit_flip 1)
       (Runtime.Inject { dynamic_site = 1 }))

(* The command line's [--fault-kind] parser rejects "0bit" and "-1bit"
   with a message, and still reads every other spelling. *)
let test_fault_kind_of_string () =
  List.iter
    (fun s ->
      match Runtime.fault_kind_of_string s with
      | Ok k ->
        Alcotest.failf "%S parsed as %s" s (Runtime.fault_kind_name k)
      | Error _ -> ())
    [ "0bit"; "-1bit"; "bit"; "2bits"; "foo"; "" ];
  List.iter
    (fun (s, k) ->
      match Runtime.fault_kind_of_string s with
      | Ok k' ->
        Alcotest.(check string) s (Runtime.fault_kind_name k)
          (Runtime.fault_kind_name k')
      | Error m -> Alcotest.failf "%S rejected: %s" s m)
    [
      ("single", Runtime.Single_bit_flip);
      ("BitFlip", Runtime.Single_bit_flip);
      ("1bit", Runtime.Multi_bit_flip 1);
      ("4bit", Runtime.Multi_bit_flip 4);
      ("random-value", Runtime.Random_value);
      ("zero", Runtime.Stuck_at_zero);
    ]

(* ---------------- Campaigns ---------------- *)

let tiny_config =
  {
    Campaign.experiments_per_campaign = 10;
    min_campaigns = 3;
    max_campaigns = 4;
    margin_target = 1.0;
    seed = 99;
  }

let test_campaign_runs () =
  let w = vcopy_workload [ 8; 16; 19 ] in
  let r =
    Campaign.run tiny_config w Vir.Target.Avx Analysis.Sites.Pure_data
  in
  check Alcotest.int "experiments" (10 * r.Campaign.c_campaigns)
    r.Campaign.c_totals.Campaign.n_experiments;
  Alcotest.(check bool) "campaign count in range" true
    (r.Campaign.c_campaigns >= 3 && r.Campaign.c_campaigns <= 4);
  let total =
    r.Campaign.c_totals.Campaign.n_sdc
    + r.Campaign.c_totals.Campaign.n_benign
    + r.Campaign.c_totals.Campaign.n_crash
  in
  check Alcotest.int "outcomes partition"
    r.Campaign.c_totals.Campaign.n_experiments total;
  check (Alcotest.float 1e-9) "rates sum to 1" 1.0
    (Campaign.sdc_rate r +. Campaign.benign_rate r +. Campaign.crash_rate r);
  Alcotest.(check bool) "avg dynamic sites positive" true
    (r.Campaign.c_avg_dynamic_sites > 0.0);
  Alcotest.(check bool) "static sites positive" true
    (r.Campaign.c_static_sites > 0)

let test_campaign_deterministic () =
  let w = vcopy_workload [ 8; 16 ] in
  let r1 =
    Campaign.run tiny_config w Vir.Target.Sse Analysis.Sites.Control
  in
  let r2 =
    Campaign.run tiny_config w Vir.Target.Sse Analysis.Sites.Control
  in
  check
    Alcotest.(list (float 0.0))
    "same per-campaign rates" r1.Campaign.c_sdc_rates r2.Campaign.c_sdc_rates

(* ---------------- seed schedule ---------------- *)

(* Regression: all cells of one workload used to share one random
   stream (the RNG was seeded from (seed, workload) only), correlating
   the AVX/SSE and category columns of Tables II/III. Every cell must
   now draw its own input sequence. *)
let test_seed_cells_uncorrelated () =
  let inputs cell =
    List.init 50 (fun e ->
        let ex = Seed.experiment cell ~campaign:0 ~experiment:e in
        Seed.uniform ex.Seed.input_key 1000)
  in
  let cell target category =
    Seed.cell ~seed:Campaign.quick_config.Campaign.seed ~workload:"vcopy"
      ~target ~category
  in
  let avx_data = inputs (cell Vir.Target.Avx Analysis.Sites.Pure_data) in
  let sse_data = inputs (cell Vir.Target.Sse Analysis.Sites.Pure_data) in
  let avx_ctrl = inputs (cell Vir.Target.Avx Analysis.Sites.Control) in
  Alcotest.(check bool) "target decorrelates the stream" false
    (avx_data = sse_data);
  Alcotest.(check bool) "category decorrelates the stream" false
    (avx_data = avx_ctrl)

let test_seed_injective_grid () =
  (* paper-scale grid: 40 campaigns x 100 experiments *)
  let cell =
    Seed.cell ~seed:0xC0FFEE ~workload:"blackscholes" ~target:Vir.Target.Avx
      ~category:Analysis.Sites.Pure_data
  in
  let seen = Hashtbl.create 4096 in
  for c = 0 to 39 do
    for e = 0 to 99 do
      let k = Seed.experiment_key cell ~campaign:c ~experiment:e in
      (match Hashtbl.find_opt seen k with
      | Some (c', e') ->
        Alcotest.failf "key collision: (%d,%d) vs (%d,%d)" c e c' e'
      | None -> ());
      Hashtbl.add seen k (c, e)
    done
  done;
  check Alcotest.int "4000 distinct keys" 4000 (Hashtbl.length seen)

(* ---------------- parallel campaigns ---------------- *)

let result_t : Campaign.result Alcotest.testable =
  Alcotest.testable
    (fun fmt (r : Campaign.result) ->
      Format.fprintf fmt "%s: %d campaigns, %d exps, margin %f"
        r.Campaign.c_workload r.Campaign.c_campaigns
        r.Campaign.c_totals.Campaign.n_experiments r.Campaign.c_margin)
    ( = )

(* The acceptance bar of the seed schedule: fanning experiments across
   4 domains yields a result record equal (totals, per-campaign rates,
   margin, averages) to the sequential run. *)
let test_parallel_matches_sequential () =
  List.iter
    (fun name ->
      let b =
        match Benchmarks.Registry.find name with
        | Some b -> b
        | None -> Alcotest.failf "no benchmark %S" name
      in
      let w = b.Benchmarks.Harness.bench in
      let seq =
        Campaign.run Campaign.quick_config w Vir.Target.Avx
          Analysis.Sites.Pure_data
      in
      let par =
        Campaign.run ~jobs:4 Campaign.quick_config w Vir.Target.Avx
          Analysis.Sites.Pure_data
      in
      check result_t (name ^ ": parallel == sequential") seq par)
    [ "vector copy"; "dot product" ]

(* Same determinism bar with stateful detector hooks attached: the
   hooks factory must isolate detector state per experiment. *)
let test_parallel_matches_sequential_with_detectors () =
  let w = vcopy_workload [ 8; 16; 19 ] in
  let transform =
    Detectors.Overhead.transform Detectors.Overhead.paper_detectors
  in
  let seq =
    Campaign.run ~transform ~hooks:Detectors.Runtime.hooks tiny_config w
      Vir.Target.Avx Analysis.Sites.Control
  in
  let par =
    Campaign.run ~transform ~hooks:Detectors.Runtime.hooks ~jobs:4
      tiny_config w Vir.Target.Avx Analysis.Sites.Control
  in
  check result_t "detector campaign parallel == sequential" seq par

let test_run_cells_matches_run () =
  let w = vcopy_workload [ 8; 16 ] in
  let cells =
    [
      (w, Vir.Target.Avx, Analysis.Sites.Pure_data);
      (w, Vir.Target.Sse, Analysis.Sites.Control);
    ]
  in
  let rs = Campaign.run_cells ~jobs:3 tiny_config cells in
  List.iter2
    (fun (w, t, c) r ->
      check result_t "cell driver == sequential" (Campaign.run tiny_config w t c) r)
    cells rs

(* A cell without an experiment, or without a campaign, has no outcome
   to report: [run] and [run_cells] refuse it instead of returning a
   0 % row, and the sink gets nothing past its header. *)
let test_campaign_rejects_empty_config () =
  let w = vcopy_workload [ 8 ] in
  let cell = (w, Vir.Target.Avx, Analysis.Sites.Pure_data) in
  let rejects what cfg =
    let buf = Buffer.create 64 in
    let sink = Trace.to_buffer buf in
    (match Campaign.run ~sink cfg w Vir.Target.Avx Analysis.Sites.Pure_data with
    | _ -> Alcotest.failf "run accepted %s" what
    | exception Invalid_argument _ -> ());
    (match Campaign.run_cells ~sink ~jobs:2 cfg [ cell ] with
    | _ -> Alcotest.failf "run_cells accepted %s" what
    | exception Invalid_argument _ -> ());
    Trace.close sink;
    check Alcotest.int (what ^ ": header only") 1
      (List.length
         (List.filter (( <> ) "")
            (String.split_on_char '\n' (Buffer.contents buf))))
  in
  rejects "no experiments"
    { tiny_config with Campaign.experiments_per_campaign = 0 };
  rejects "negative experiments"
    { tiny_config with Campaign.experiments_per_campaign = -5 };
  rejects "no campaigns"
    { tiny_config with Campaign.min_campaigns = 0; max_campaigns = 0 }

(* ---------------- pool ---------------- *)

let test_pool_map_order_and_reuse () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let arr = Array.init 100 Fun.id in
      let out = Pool.map pool (fun i -> (i * i) - 7) arr in
      check
        Alcotest.(array int)
        "order preserved" (Array.map (fun i -> (i * i) - 7) arr) out;
      (* the pool survives across batches *)
      let out2 = Pool.map pool string_of_int (Array.init 17 Fun.id) in
      check
        Alcotest.(array string)
        "second batch" (Array.init 17 string_of_int) out2;
      check
        Alcotest.(array int)
        "empty batch" [||]
        (Pool.map pool (fun i -> i) [||]))

let test_pool_map_propagates_exceptions () =
  match
    Pool.with_pool ~jobs:3 (fun pool ->
        Pool.map pool
          (fun i -> if i = 5 then failwith "boom" else i)
          (Array.init 10 Fun.id))
  with
  | _ -> Alcotest.fail "expected exception"
  | exception Failure msg -> check Alcotest.string "exn surfaced" "boom" msg

(* ---------------- Stats ---------------- *)

let test_stats_basics () =
  check (Alcotest.float 1e-9) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 1e-9) "stddev" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 1e-9) "mean empty" 0.0 (Stats.mean []);
  Alcotest.(check bool) "margin infinite for n<2" true
    (Stats.margin_of_error [ 0.5 ] = infinity)

let test_stats_t_table () =
  check (Alcotest.float 1e-3) "t df=1" 12.706 (Stats.t95 ~df:1);
  check (Alcotest.float 1e-3) "t df=19" 2.093 (Stats.t95 ~df:19);
  check (Alcotest.float 1e-3) "t df=1000" 1.980 (Stats.t95 ~df:1000);
  (* t decreases with df *)
  Alcotest.(check bool) "monotone" true
    (Stats.t95 ~df:5 > Stats.t95 ~df:10 && Stats.t95 ~df:10 > Stats.t95 ~df:30)

(* Regression: the coarse buckets above the exact table used the t
   value of their LARGEST df (e.g. 31-40 -> t(40) = 2.021), understating
   the critical value — and hence the margin of error — for every other
   df in the bucket. Each bucket must use its smallest df's t value. *)
let test_stats_t_conservative_buckets () =
  check (Alcotest.float 1e-3) "df=31 bucket" 2.040 (Stats.t95 ~df:31);
  check (Alcotest.float 1e-3) "df=41 bucket" 2.020 (Stats.t95 ~df:41);
  check (Alcotest.float 1e-3) "df=61 bucket" 2.000 (Stats.t95 ~df:61);
  check (Alcotest.float 1e-3) "df=121 bucket" 1.980 (Stats.t95 ~df:121);
  (* never below the true critical value: reference t(40)=2.021,
     t(60)=2.000, t(120)=1.980 at the bucket ends *)
  Alcotest.(check bool) "df=40 not understated" true
    (Stats.t95 ~df:40 >= 2.021);
  Alcotest.(check bool) "df=60 not understated" true
    (Stats.t95 ~df:60 >= 2.000);
  Alcotest.(check bool) "df=120 not understated" true
    (Stats.t95 ~df:120 >= 1.980);
  (* monotone non-increasing across table and buckets *)
  for df = 1 to 299 do
    Alcotest.(check bool)
      (Printf.sprintf "t95 non-increasing at df=%d" df)
      true
      (Stats.t95 ~df >= Stats.t95 ~df:(df + 1))
  done

let test_stats_margin_known () =
  (* n=20 samples, all equal -> margin 0 *)
  check (Alcotest.float 1e-9) "degenerate margin" 0.0
    (Stats.margin_of_error (List.init 20 (fun _ -> 0.3)));
  (* hand-computed: samples 0.4/0.6 x10 each, s=0.10259..., t(19)=2.093 *)
  let xs = List.init 20 (fun i -> if i < 10 then 0.4 else 0.6) in
  let expected = 2.093 *. Stats.stddev xs /. sqrt 20.0 in
  check (Alcotest.float 1e-9) "hand margin" expected
    (Stats.margin_of_error xs)

let test_stats_normality () =
  Alcotest.(check bool) "symmetric sample is near normal" true
    (Stats.near_normal [ 0.1; 0.2; 0.3; 0.2; 0.2; 0.1; 0.3; 0.2 ]);
  Alcotest.(check bool) "tiny sample is not" false
    (Stats.near_normal [ 0.1; 0.2 ]);
  Alcotest.(check bool) "heavily skewed sample is not" false
    (Stats.near_normal
       [ 0.0; 0.0; 0.0; 0.0; 0.0; 0.0; 0.0; 0.0; 0.0; 1.0 ])

(* ---------------- Outcome ---------------- *)

let test_outcome_classify () =
  let golden =
    { Outcome.o_f32 = [ [| 1.0; 2.0 |] ]; o_i32 = []; o_ret = None }
  in
  check Alcotest.string "benign" "benign"
    (Outcome.name (Outcome.classify ~golden ~faulty:(Ok golden) ()));
  let diff =
    { Outcome.o_f32 = [ [| 1.0; 2.5 |] ]; o_i32 = []; o_ret = None }
  in
  check Alcotest.string "sdc" "SDC"
    (Outcome.name (Outcome.classify ~golden ~faulty:(Ok diff) ()));
  check Alcotest.string "crash" "crash"
    (Outcome.name
       (Outcome.classify ~golden
          ~faulty:(Error Interp.Trap.Division_by_zero) ()))

(* Regression: a purely relative tolerance classified golden 0.0 vs a
   faulty denormal-sized 1e-30 as SDC at any [tol]; the absolute floor
   must treat them as equal while keeping real differences SDC. *)
let test_outcome_abs_tolerance_near_zero () =
  let out v = { Outcome.o_f32 = [ [| v |] ]; o_i32 = []; o_ret = None } in
  Alcotest.(check bool) "0.0 vs 1e-30 equal under tol" true
    (Outcome.output_equal ~tol:0.01 (out 0.0) (out 1e-30));
  Alcotest.(check bool) "bit-exact default stays strict" false
    (Outcome.output_equal (out 0.0) (out 1e-30));
  check Alcotest.string "benign near zero" "benign"
    (Outcome.name
       (Outcome.classify ~tol:0.01 ~golden:(out 0.0)
          ~faulty:(Ok (out 1e-30)) ()));
  check Alcotest.string "real difference still SDC" "SDC"
    (Outcome.name
       (Outcome.classify ~tol:0.01 ~golden:(out 0.0) ~faulty:(Ok (out 1.0))
          ()));
  Alcotest.(check bool) "custom floor is honoured" true
    (Outcome.output_equal ~tol:0.01 ~abs_tol:0.5 (out 0.0) (out 0.4))

let test_outcome_nan_bit_compare () =
  (* NaN == NaN bitwise: a NaN-producing fault that yields the same NaN
     pattern is benign, different patterns are SDC. *)
  let g = { Outcome.o_f32 = [ [| Float.nan |] ]; o_i32 = []; o_ret = None } in
  Alcotest.(check bool) "same NaN benign" true
    (Outcome.output_equal g
       { Outcome.o_f32 = [ [| Float.nan |] ]; o_i32 = []; o_ret = None })

(* ---------------- properties ---------------- *)

(* Instrumentation with profile-mode runtime never changes results. *)
let prop_profile_transparent =
  QCheck.Test.make ~name:"profile-mode instrumentation is transparent"
    ~count:25
    QCheck.(pair (int_range 0 30) (oneofl Analysis.Sites.all_categories))
    (fun (n, cat) ->
      let w = vcopy_workload [ n ] in
      let p = Experiment.prepare w Vir.Target.Avx cat in
      let g = Experiment.golden_run p ~input:0 in
      let expected = Array.init n (fun i -> (i * 37) - 11) in
      g.Experiment.g_output.Outcome.o_i32 = [ expected ])

(* A double flip cannot happen: one injection record max. *)
let prop_single_injection =
  QCheck.Test.make ~name:"at most one injection per run" ~count:30
    QCheck.(pair (int_range 1 50) int)
    (fun (site, seed) ->
      let w = vcopy_workload [ 16 ] in
      let p = Experiment.prepare w Vir.Target.Sse Analysis.Sites.Address in
      let g = Experiment.golden_run p ~input:0 in
      let site = 1 + (site mod max 1 g.Experiment.g_dyn_sites) in
      let r = Experiment.faulty_run p ~golden:g ~dynamic_site:site ~seed in
      match r.Experiment.r_injection with
      | Some inj -> inj.Runtime.inj_dynamic_site = site
      | None -> false)


(* Margin of error is monotone-decreasing in the sample count when the
   sample variance is held constant (alternating +/-spread, even sizes:
   m of each sign). *)
let prop_margin_monotone_in_n =
  QCheck.Test.make
    ~name:"margin of error monotone-decreasing in n (constant variance)"
    ~count:100
    QCheck.(triple (int_range 2 40) (int_range 1 40) (float_range 0.01 0.2))
    (fun (n, extra, spread) ->
      let mk m =
        List.init (2 * m) (fun i ->
            0.5 +. (if i mod 2 = 0 then spread else -.spread))
      in
      Stats.margin_of_error (mk (n + extra)) < Stats.margin_of_error (mk n))

(* Seed derivation is injective across (campaign, experiment) pairs
   within a cell. *)
let prop_seed_injective =
  QCheck.Test.make
    ~name:"seed schedule injective across (campaign, experiment)"
    ~count:300
    QCheck.(
      pair
        (pair (int_range 0 200) (int_range 0 1000))
        (pair (int_range 0 200) (int_range 0 1000)))
    (fun (((c1, e1) as p1), ((c2, e2) as p2)) ->
      QCheck.assume (p1 <> p2);
      let cell =
        Seed.cell ~seed:7 ~workload:"w" ~target:Vir.Target.Sse
          ~category:Analysis.Sites.Control
      in
      Seed.experiment_key cell ~campaign:c1 ~experiment:e1
      <> Seed.experiment_key cell ~campaign:c2 ~experiment:e2)

let prop_mean_bounds =
  QCheck.Test.make ~name:"mean lies within the sample range" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (float_range 0.0 1.0))
    (fun xs ->
      let m = Stats.mean xs in
      List.for_all (fun _ -> true) xs
      && m >= List.fold_left min 1.0 xs -. 1e-9
      && m <= List.fold_left max 0.0 xs +. 1e-9)

let () =
  Alcotest.run "vulfi"
    [
      ( "instrument",
        [
          Alcotest.test_case "preserves semantics (vcopy)" `Quick
            test_instrument_preserves_semantics;
          Alcotest.test_case "preserves semantics (kitchen)" `Quick
            test_instrument_kitchen_all_categories;
          Alcotest.test_case "Fig 5 chain shape" `Quick
            test_instrument_fig5_shape;
          Alcotest.test_case "scalar module" `Quick
            test_instrument_scalar_module;
          Alcotest.test_case "pinned output (144 grid cells)" `Quick
            test_instrument_pinned;
        ] );
      ( "mask-awareness",
        [
          Alcotest.test_case "masked lanes not counted" `Quick
            test_masked_lanes_not_counted;
        ] );
      ( "injection",
        [
          Alcotest.test_case "exactly one flip" `Quick
            test_injection_exactly_one;
          Alcotest.test_case "deterministic under seed" `Quick
            test_injection_deterministic;
          Alcotest.test_case "pure-data -> SDC/benign" `Quick
            test_pure_data_faults_sdc_or_benign;
          Alcotest.test_case "address -> crashes" `Quick
            test_address_faults_crash;
          Alcotest.test_case "control -> hang trapped" `Quick
            test_control_fault_hang_detected;
        ] );
      ( "fault-models",
        [
          Alcotest.test_case "multi-bit flip" `Quick test_fault_kind_multi_bit;
          Alcotest.test_case "multi-bit records first flipped bit" `Quick
            test_multi_bit_records_first_flipped;
          Alcotest.test_case "stuck-at-zero" `Quick
            test_fault_kind_stuck_at_zero;
          Alcotest.test_case "random value" `Quick
            test_fault_kind_random_value_changes;
          Alcotest.test_case "random value draws width bits" `Quick
            test_random_value_draws_width_bits;
          Alcotest.test_case "random value bit-63 frequency" `Quick
            test_random_value_bit63_frequency;
          Alcotest.test_case "random value narrow width" `Quick
            test_random_value_narrow_width;
          Alcotest.test_case "names" `Quick test_fault_kind_names;
          Alcotest.test_case "multi-bit rejects k < 1" `Quick
            test_multi_bit_rejects_k_below_one;
          Alcotest.test_case "command-line spelling" `Quick
            test_fault_kind_of_string;
        ] );
      ( "seed-schedule",
        [
          Alcotest.test_case "cells draw uncorrelated streams" `Quick
            test_seed_cells_uncorrelated;
          Alcotest.test_case "injective over the paper grid" `Quick
            test_seed_injective_grid;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "protocol" `Quick test_campaign_runs;
          Alcotest.test_case "deterministic" `Quick
            test_campaign_deterministic;
          Alcotest.test_case "parallel == sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "parallel == sequential (detectors)" `Quick
            test_parallel_matches_sequential_with_detectors;
          Alcotest.test_case "cell driver == sequential" `Quick
            test_run_cells_matches_run;
          Alcotest.test_case "rejects an empty cell" `Quick
            test_campaign_rejects_empty_config;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map order + reuse" `Quick
            test_pool_map_order_and_reuse;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_map_propagates_exceptions;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "t table" `Quick test_stats_t_table;
          Alcotest.test_case "t buckets conservative" `Quick
            test_stats_t_conservative_buckets;
          Alcotest.test_case "margin" `Quick test_stats_margin_known;
          Alcotest.test_case "normality" `Quick test_stats_normality;
        ] );
      ( "outcome",
        [
          Alcotest.test_case "classification" `Quick test_outcome_classify;
          Alcotest.test_case "absolute tolerance near zero" `Quick
            test_outcome_abs_tolerance_near_zero;
          Alcotest.test_case "NaN bitwise compare" `Quick
            test_outcome_nan_bit_compare;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_profile_transparent;
            prop_single_injection;
            prop_margin_monotone_in_n;
            prop_seed_injective;
            prop_mean_bounds;
          ] );
    ]
