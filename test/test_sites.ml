(* Tests for fault sites as interpreter primitives: the allocation-free
   site extern and the hot-path kernel that runs one instrumented
   vector site.

   The kernel is checked against the per-instruction closures it
   replaces. [Machine.run] takes the kernels; the stepped side runs the
   same module under a check due at every extern call, so every site
   kernel defers to its members and the whole run goes one closure per
   instruction. Every dynamic site of small workloads, on both ISAs,
   all categories, both mask policies and all four fault kinds, must
   give the same outputs, trap, counters and injection record either
   way. A budget sweep pins the fuel fallback, a coverage pin keeps the
   kernel from silently turning off, and a host handler registered
   under an inject name must still see every call. *)

let check = Alcotest.check

let kinds =
  [
    Vulfi.Runtime.Single_bit_flip;
    Vulfi.Runtime.Multi_bit_flip 3;
    Vulfi.Runtime.Random_value;
    Vulfi.Runtime.Stuck_at_zero;
  ]

let workloads () =
  [
    Small_workloads.vcopy_workload [ 19 ];
    Small_workloads.copy_twice_workload 19;
    Small_workloads.mscale_workload 13;
  ]

(* Everything a run leaves behind that the kernel could disturb. *)
type run = {
  outcome : (Vulfi.Outcome.output, Interp.Trap.kind) result;
  dyn : int;
  vec : int;
  sites : int;
  injection : Vulfi.Runtime.injection_record option;
}

(* One run of [p] on a fresh machine: on the hot path, or, when
   [stepped], one instruction at a time under a check due at every
   extern call. *)
let exec ?(stepped = false) ?(budget = Interp.Machine.default_budget)
    (p : Vulfi.Experiment.prepared) (rt : Vulfi.Runtime.t) =
  let w = p.Vulfi.Experiment.p_workload in
  let check = if stepped then Some (fun _ _ -> 0) else None in
  let st = Interp.Machine.create ~budget p.Vulfi.Experiment.p_code in
  Vulfi.Runtime.attach rt st;
  let args, read = w.Vulfi.Workload.w_setup ~input:0 st in
  let outcome =
    match Interp.Machine.run ?check st w.Vulfi.Workload.w_fn args with
    | _ -> Ok (read ())
    | exception Interp.Trap.Trap k -> Error k
  in
  {
    outcome;
    dyn = Interp.Machine.dyn_count st;
    vec = Interp.Machine.dyn_vector_count st;
    sites = Interp.Machine.sites st;
    injection = Vulfi.Runtime.injected rt;
  }

let check_same label (a : run) (b : run) =
  check Alcotest.bool (label ^ ": outcome") true
    (compare a.outcome b.outcome = 0);
  check Alcotest.int (label ^ ": dyn_count") a.dyn b.dyn;
  check Alcotest.int (label ^ ": dyn_vector_count") a.vec b.vec;
  check Alcotest.int (label ^ ": sites") a.sites b.sites;
  check Alcotest.bool (label ^ ": injection record") true
    (compare a.injection b.injection = 0)

let label w target category respect what =
  Printf.sprintf "%s %s %s masks=%b %s" w.Vulfi.Workload.w_name
    (Vir.Target.name target)
    (Analysis.Sites.category_name category)
    respect what

(* Kernels vs per-step closures at every dynamic site. *)
let test_kernel_vs_steps () =
  let kernels = ref 0 and runs = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun target ->
          List.iter
            (fun category ->
              let p = Vulfi.Experiment.prepare w target category in
              kernels :=
                !kernels
                + Interp.Compile.site_kernel_count p.Vulfi.Experiment.p_code;
              List.iter
                (fun respect_masks ->
                  let profile () =
                    Vulfi.Runtime.create ~respect_masks Vulfi.Runtime.Profile
                  in
                  let golden = exec p (profile ()) in
                  check_same
                    (label w target category respect_masks "profile")
                    golden
                    (exec ~stepped:true p (profile ()));
                  let budget = (golden.dyn * 10) + 10_000 in
                  List.iter
                    (fun fault_kind ->
                      for site = 1 to golden.sites do
                        let rt () =
                          Vulfi.Runtime.create ~seed:(7000 + site)
                            ~respect_masks ~fault_kind
                            (Vulfi.Runtime.Inject { dynamic_site = site })
                        in
                        let hot = exec ~budget p (rt ()) in
                        check_same
                          (label w target category respect_masks
                             (Printf.sprintf "%s site %d"
                                (Vulfi.Runtime.fault_kind_name fault_kind)
                                site))
                          hot
                          (exec ~stepped:true ~budget p (rt ()));
                        check Alcotest.bool "the armed site fired" true
                          (hot.injection <> None);
                        incr runs
                      done)
                    kinds)
                [ true; false ])
            Analysis.Sites.all_categories)
        Vir.Target.all)
    (workloads ());
  check Alcotest.bool "kernels were compiled" true (!kernels > 0);
  check Alcotest.bool "faulty runs compared" true (!runs > 0)

(* A budget that runs out inside a vector site must trap on the same
   instruction as per-instruction stepping: sweep every budget up to
   the run's length, with a profiling runtime and with one injecting
   inside the swept run. *)
let test_budget_sweep () =
  List.iter
    (fun (w, target) ->
      let p = Vulfi.Experiment.prepare w target Analysis.Sites.Pure_data in
      check Alcotest.bool "the module has site kernels" true
        (Interp.Compile.site_kernel_count p.Vulfi.Experiment.p_code > 0);
      let full = exec p (Vulfi.Runtime.create Vulfi.Runtime.Profile) in
      let traps = ref 0 in
      for budget = 0 to full.dyn do
        List.iter
          (fun mode ->
            let rt () = Vulfi.Runtime.create ~seed:budget mode in
            let hot = exec ~budget p (rt ()) in
            check_same
              (Printf.sprintf "%s %s budget %d" w.Vulfi.Workload.w_name
                 (Vir.Target.name target) budget)
              hot
              (exec ~stepped:true ~budget p (rt ()));
            if hot.outcome = Error Interp.Trap.Budget_exhausted then
              incr traps)
          [
            Vulfi.Runtime.Profile;
            Vulfi.Runtime.Inject { dynamic_site = (full.sites / 2) + 1 };
          ]
      done;
      check Alcotest.int "every budget below the run's length traps"
        (2 * full.dyn) !traps)
    [
      (Small_workloads.vcopy_workload [ 19 ], Vir.Target.Avx);
      (Small_workloads.mscale_workload 13, Vir.Target.Sse);
    ]

(* The vector targets of a site table: one per target, at its lane 0. *)
let vector_targets (instr : Vulfi.Instrument.t) =
  Array.fold_left
    (fun acc (si : Vulfi.Instrument.site_info) ->
      match
        Analysis.Sites.target_value_ty si.Vulfi.Instrument.si_target
      with
      | Vir.Vtype.Vector _ when si.Vulfi.Instrument.si_lane = 0 -> acc + 1
      | _ -> acc)
    0 instr.Vulfi.Instrument.site_table

(* Every vector site the instrumentor emits runs as one kernel, and a
   module without instrumentation has none: a change to [Instrument]
   that breaks the matched shape fails here instead of silently turning
   the kernel off. The modules are the 24 uninstrumented registry
   modules (12 workloads x 2 ISAs) and the 144 cells of the study grid
   ({!Instrumented_grid}), detector arm included. *)
let test_coverage_pin () =
  let modules = ref 0 and total = ref 0 in
  let expect label (m : Vir.Vmodule.t) expected =
    incr modules;
    total := !total + expected;
    check Alcotest.int label expected
      (Interp.Compile.site_kernel_count (Interp.Compile.compile_module m))
  in
  List.iter
    (fun (b : Benchmarks.Harness.benchmark) ->
      let w = b.Benchmarks.Harness.bench in
      List.iter
        (fun target ->
          expect
            (Printf.sprintf "%s/%s/uninstrumented" w.Vulfi.Workload.w_name
               (Vir.Target.name target))
            (w.Vulfi.Workload.w_build target)
            0)
        Vir.Target.all)
    Benchmarks.Registry.all;
  Instrumented_grid.iter (fun label instr ->
      expect label instr.Vulfi.Instrument.instrumented (vector_targets instr));
  check Alcotest.int "modules" 168 !modules;
  check Alcotest.bool "the grid has vector sites" true (!total > 0)

(* A host handler registered under an inject name replaces the site
   extern: the kernels defer to their member instructions, so the host
   sees every call — live or masked-off lane — and the run is otherwise
   the mask-oblivious profiling run. *)
let test_host_fallback () =
  List.iter
    (fun w ->
      List.iter
        (fun target ->
          let p = Vulfi.Experiment.prepare w target Analysis.Sites.Pure_data in
          check Alcotest.bool "the module has site kernels" true
            (Interp.Compile.site_kernel_count p.Vulfi.Experiment.p_code > 0);
          let oblivious =
            exec p
              (Vulfi.Runtime.create ~respect_masks:false Vulfi.Runtime.Profile)
          in
          let calls = ref 0 in
          let st = Interp.Machine.create p.Vulfi.Experiment.p_code in
          List.iter
            (fun (name, _) ->
              Interp.Machine.register_extern st name (fun _ args ->
                  incr calls;
                  match args with
                  | [ v; _; _ ] -> Some v
                  | _ -> Alcotest.fail "inject call with bad arity"))
            Vulfi.Fault_model.all_inject_fns;
          let args, read = w.Vulfi.Workload.w_setup ~input:0 st in
          ignore (Interp.Machine.run st w.Vulfi.Workload.w_fn args);
          let name = w.Vulfi.Workload.w_name ^ " " ^ Vir.Target.name target in
          check Alcotest.int (name ^ ": the host sees every call")
            oblivious.sites !calls;
          check Alcotest.int (name ^ ": no site counted") 0
            (Interp.Machine.sites st);
          check Alcotest.int (name ^ ": dyn_count") oblivious.dyn
            (Interp.Machine.dyn_count st);
          check Alcotest.int (name ^ ": dyn_vector_count") oblivious.vec
            (Interp.Machine.dyn_vector_count st);
          check Alcotest.bool (name ^ ": output") true
            (oblivious.outcome = Ok (read ())))
        Vir.Target.all)
    (workloads ())

let () =
  Alcotest.run "sites"
    [
      ( "site kernels",
        [
          Alcotest.test_case "kernel == per-step at every site" `Quick
            test_kernel_vs_steps;
          Alcotest.test_case "budget sweep across sites" `Quick
            test_budget_sweep;
          Alcotest.test_case "one kernel per vector target" `Quick
            test_coverage_pin;
          Alcotest.test_case "host handler sees every call" `Quick
            test_host_fallback;
        ] );
    ]
