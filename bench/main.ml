(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (§IV).

     table1   Table I  — benchmark inventory + avg dynamic instructions
     fig10    Fig 10   — scalar/vector mix per fault-site category
     fig11    Fig 11   — SDC/Benign/Crash rates per benchmark/ISA/category
     fig12    Fig 12   — detector SDC-detection rates + overhead (micro)
     ablation          — design-choice ablations from DESIGN.md
     speedup           — sequential vs parallel campaign wall-clock
     timing            — Bechamel wall-clock benches

     campaign          throughput of the four executors (legacy,
                       checkpointed, fast-forward, converge-pruned),
                       and the time and allocation of a set-up pass

   Default (no argument): everything at "quick" scale. Flags:
     -j N                     run campaigns on N domains (default 1)
     --trace FILE             JSONL telemetry for every campaign run
     --legacy-executor        paper-literal two-runs-per-experiment protocol
     --ff-executor            fast-forward executor (checkpoint + resume)
     --prune-executor         converge-pruned executor (fast-forward + early
                              termination at golden-state re-convergence)
   The three executor flags conflict pairwise (exit 2); without one,
   campaigns run on the checkpointed executor.
   Environment:
     VULFI_SCALE=paper        paper-scale campaigns (hours)
     VULFI_EXPERIMENTS=N      experiments per campaign override
     VULFI_CAMPAIGNS=N        max campaigns override

   fig11 and fig12 also export their cells to RESULTS_fig11.json /
   RESULTS_fig12.json for machine consumption. *)

let scale_is_paper =
  match Sys.getenv_opt "VULFI_SCALE" with
  | Some s -> String.lowercase_ascii s = "paper"
  | None -> false

(* An unset variable takes the default; a set one must be a positive
   integer (exit 2 otherwise, like -j), so a typo or a 0 never runs a
   sweep of empty rows. *)
let getenv_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | Some _ | None ->
      Printf.eprintf "%s expects a positive integer, got %S\n" name s;
      exit 2)

let campaign_config () =
  let base =
    if scale_is_paper then Vulfi.Campaign.paper_config
    else Vulfi.Campaign.quick_config
  in
  let experiments =
    getenv_int "VULFI_EXPERIMENTS" base.Vulfi.Campaign.experiments_per_campaign
  in
  let campaigns = getenv_int "VULFI_CAMPAIGNS" base.Vulfi.Campaign.max_campaigns in
  {
    base with
    Vulfi.Campaign.experiments_per_campaign = experiments;
    max_campaigns = campaigns;
    min_campaigns = min base.Vulfi.Campaign.min_campaigns campaigns;
  }

(* In quick mode restrict each workload to its smallest input so the
   default bench run completes in minutes. *)
let scale_workload (w : Vulfi.Workload.t) =
  if scale_is_paper then w else { w with Vulfi.Workload.w_inputs = 1 }

(* Worker-domain count (-j N); the seed schedule makes the parallel
   results bit-identical to the sequential ones. *)
let jobs = ref 1

(* Executor selection: --legacy-executor is the paper's literal
   two-runs-per-experiment protocol (fresh profiling run + machine
   before every faulty run); --ff-executor resumes each faulty run from
   a machine-state checkpoint at its injection site;
   --prune-executor additionally terminates a faulty run at the first
   later checkpoint site whose machine state matches the golden run's;
   the default is the checkpointed executor. Output is bit-identical
   across all four; the flags exist for cross-checks and the `campaign`
   throughput comparison. *)
let executor = ref Vulfi.Campaign.Checkpointed

(* Shared telemetry sink (--trace FILE), threaded through every
   campaign the harness runs. *)
let the_sink : Vulfi.Trace.sink option ref = ref None

let campaign_run ?transform ?hooks ?respect_masks ?fault_kind cfg w target
    category =
  Vulfi.Campaign.run ?transform ?hooks ?respect_masks ?fault_kind
    ?sink:!the_sink ~executor:!executor ~jobs:!jobs cfg w target category

(* Machine-readable export of a figure's campaign cells. *)
let write_results_json path ~figure (cfg : Vulfi.Campaign.config)
    (cells : (bool * Vulfi.Campaign.result) list) =
  let json =
    Vulfi.Json.Obj
      [
        ("schema", Vulfi.Json.String "vulfi-results-v1");
        ("figure", Vulfi.Json.String figure);
        ( "config",
          Vulfi.Json.Obj
            [
              ( "experiments_per_campaign",
                Vulfi.Json.Int cfg.Vulfi.Campaign.experiments_per_campaign );
              ("min_campaigns", Vulfi.Json.Int cfg.Vulfi.Campaign.min_campaigns);
              ("max_campaigns", Vulfi.Json.Int cfg.Vulfi.Campaign.max_campaigns);
              ( "margin_target",
                Vulfi.Json.Float cfg.Vulfi.Campaign.margin_target );
              ("seed", Vulfi.Json.Int cfg.Vulfi.Campaign.seed);
              ( "scale",
                Vulfi.Json.String (if scale_is_paper then "paper" else "quick")
              );
              ("jobs", Vulfi.Json.Int !jobs);
            ] );
        ( "cells",
          Vulfi.Json.List
            (List.map
               (fun (detectors, r) ->
                 Vulfi.Campaign.result_json ~detectors r)
               cells) );
      ]
  in
  let oc = open_out path in
  output_string oc (Vulfi.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" path

let header title =
  let line = String.make 72 '=' in
  Printf.printf "\n%s\n%s\n%s\n" line title line

(* ------------------------------------------------------------------ *)
(* Table I                                                             *)

let run_uninstrumented (b : Benchmarks.Harness.benchmark) target input =
  let w = b.Benchmarks.Harness.bench in
  let m = w.Vulfi.Workload.w_build target in
  let st = Interp.Machine.create (Interp.Compile.compile_module m) in
  let args, _ = w.Vulfi.Workload.w_setup ~input st in
  ignore (Interp.Machine.run st w.Vulfi.Workload.w_fn args);
  Interp.Machine.dyn_count st

let table1 () =
  header
    "Table I: benchmarks and average dynamic instruction count (VM \
     instructions; paper ran native x86, so magnitudes differ — the \
     per-benchmark ordering is the comparable shape)";
  Printf.printf "%-18s %-6s %-34s %-4s %14s\n" "Benchmark" "Lang"
    "Test input" "ISA" "Avg dyn instrs";
  List.iter
    (fun (b : Benchmarks.Harness.benchmark) ->
      let w = scale_workload b.Benchmarks.Harness.bench in
      List.iter
        (fun target ->
          let total = ref 0 in
          for input = 0 to w.Vulfi.Workload.w_inputs - 1 do
            total := !total + run_uninstrumented b target input
          done;
          let avg = !total / w.Vulfi.Workload.w_inputs in
          Printf.printf "%-18s %-6s %-34s %-4s %14d\n"
            w.Vulfi.Workload.w_name b.Benchmarks.Harness.language
            b.Benchmarks.Harness.input_desc (Vir.Target.name target) avg)
        Vir.Target.all)
    Benchmarks.Registry.paper_benchmarks

(* ------------------------------------------------------------------ *)
(* Fig 10                                                              *)

let fig10 () =
  header
    "Fig 10: composition of vector and scalar instructions per fault-site \
     category (fraction of fault-target instructions that are vector)";
  Printf.printf "%-18s %-4s %12s %12s %12s\n" "Benchmark" "ISA" "pure-data"
    "control" "address";
  let grand = Hashtbl.create 3 in
  List.iter
    (fun (b : Benchmarks.Harness.benchmark) ->
      let w = b.Benchmarks.Harness.bench in
      List.iter
        (fun target ->
          let m = w.Vulfi.Workload.w_build target in
          let census = Analysis.Instmix.census m in
          let cell cat =
            let mix = List.assoc cat census in
            let old =
              try Hashtbl.find grand cat
              with Not_found -> Analysis.Instmix.empty
            in
            Hashtbl.replace grand cat
              {
                Analysis.Instmix.scalar_count =
                  old.Analysis.Instmix.scalar_count
                  + mix.Analysis.Instmix.scalar_count;
                vector_count =
                  old.Analysis.Instmix.vector_count
                  + mix.Analysis.Instmix.vector_count;
              };
            Printf.sprintf "%5.1f%% vec"
              (100.0 *. Analysis.Instmix.vector_fraction mix)
          in
          Printf.printf "%-18s %-4s %12s %12s %12s\n"
            w.Vulfi.Workload.w_name (Vir.Target.name target)
            (cell Analysis.Sites.Pure_data)
            (cell Analysis.Sites.Control)
            (cell Analysis.Sites.Address))
        Vir.Target.all)
    Benchmarks.Registry.paper_benchmarks;
  (* dynamic counterpart: executed vector-instruction fraction *)
  Printf.printf "\nDynamic vector-instruction fraction (executed, input 0, AVX):\n";
  List.iter
    (fun (b : Benchmarks.Harness.benchmark) ->
      let w = b.Benchmarks.Harness.bench in
      let m = w.Vulfi.Workload.w_build Vir.Target.Avx in
      let st = Interp.Machine.create (Interp.Compile.compile_module m) in
      let args, _ = w.Vulfi.Workload.w_setup ~input:0 st in
      ignore (Interp.Machine.run st w.Vulfi.Workload.w_fn args);
      Printf.printf "  %-18s %5.1f%% (%d of %d)\n" w.Vulfi.Workload.w_name
        (100.0
        *. float_of_int (Interp.Machine.dyn_vector_count st)
        /. float_of_int (max 1 (Interp.Machine.dyn_count st)))
        (Interp.Machine.dyn_vector_count st)
        (Interp.Machine.dyn_count st))
    Benchmarks.Registry.paper_benchmarks;
  Printf.printf
    "\nAverages across benchmarks (paper reports 67%% pure-data and 43%% \
     control vector instructions):\n";
  List.iter
    (fun cat ->
      let mix =
        try Hashtbl.find grand cat
        with Not_found -> Analysis.Instmix.empty
      in
      Printf.printf "  %-10s %5.1f%% vector\n"
        (Analysis.Sites.category_name cat)
        (100.0 *. Analysis.Instmix.vector_fraction mix))
    Analysis.Sites.all_categories

(* ------------------------------------------------------------------ *)
(* Fig 11                                                              *)

let fig11 () =
  let cfg = campaign_config () in
  header
    (Printf.sprintf
       "Fig 11: fault-injection outcomes (%d experiments/campaign, <=%d \
        campaigns/cell%s)"
       cfg.Vulfi.Campaign.experiments_per_campaign
       cfg.Vulfi.Campaign.max_campaigns
       (if scale_is_paper then ", paper scale" else ", quick scale"));
  let cells =
    List.concat_map
      (fun (b : Benchmarks.Harness.benchmark) ->
        let w = scale_workload b.Benchmarks.Harness.bench in
        List.concat_map
          (fun target ->
            List.map (fun cat -> (w, target, cat))
              Analysis.Sites.all_categories)
          Vir.Target.all)
      Benchmarks.Registry.paper_benchmarks
  in
  (* Live progress on stderr; the table itself still goes to stdout one
     row per finished cell, so sequential and -j N outputs diff clean. *)
  let total = List.length cells in
  let t0 = Unix.gettimeofday () in
  let done_cells = ref 0 in
  let done_exps = ref 0 in
  let progress (r : Vulfi.Campaign.result) =
    incr done_cells;
    done_exps :=
      !done_exps + r.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_experiments;
    let dt = Unix.gettimeofday () -. t0 in
    (* Report.progress_line clamps the degenerate ticks (zero cells
       done, zero elapsed) instead of printing inf/nan. *)
    Printf.eprintf "%s\n%!"
      (Vulfi.Report.progress_line ~label:"fig11" ~done_cells:!done_cells
         ~total_cells:total ~done_exps:!done_exps ~elapsed_s:dt)
  in
  let run_cell pool (w, t, c) =
    let r =
      Vulfi.Campaign.run ?sink:!the_sink ~executor:!executor ~pool cfg w t c
    in
    print_endline (Vulfi.Report.fig11_row r);
    progress r;
    r
  in
  (* one domain pool shared by every cell *)
  let results =
    Vulfi.Pool.with_pool ~jobs:!jobs (fun pool ->
        List.map (run_cell pool) cells)
  in
  write_results_json "RESULTS_fig11.json" ~figure:"fig11" cfg
    (List.map (fun r -> (false, r)) results)

(* ------------------------------------------------------------------ *)
(* Fig 12                                                              *)

let fig12 () =
  let cfg = campaign_config () in
  header
    "Fig 12: detector efficacy + overhead on the micro-benchmarks \
     (foreach loop-invariant detectors, checked on loop exit)";
  let results = ref [] in
  List.iter
    (fun (b : Benchmarks.Harness.benchmark) ->
      let w = scale_workload b.Benchmarks.Harness.bench in
      let ov =
        Detectors.Overhead.measure ~set:Detectors.Overhead.paper_detectors
          b.Benchmarks.Harness.bench Vir.Target.Avx ~input:0
      in
      Printf.printf
        "%-16s avg overhead %5.2f%% (dynamic instructions, %d detectors)\n"
        w.Vulfi.Workload.w_name
        (100.0 *. Detectors.Overhead.overhead_fraction ov)
        ov.Detectors.Overhead.detectors_inserted;
      List.iter
        (fun cat ->
          let r =
            campaign_run
              ~transform:
                (Detectors.Overhead.transform Detectors.Overhead.paper_detectors)
              ~hooks:Detectors.Runtime.hooks cfg w Vir.Target.Avx cat
          in
          results := r :: !results;
          print_endline ("  " ^ Vulfi.Report.fig12_row r))
        Analysis.Sites.all_categories)
    Benchmarks.Registry.micro_benchmarks;
  write_results_json "RESULTS_fig12.json" ~figure:"fig12" cfg
    (List.map (fun r -> (true, r)) (List.rev !results))

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let ablation () =
  let cfg = campaign_config () in
  header "Ablation 1: detector placement (exit-only vs every-iteration)";
  List.iter
    (fun (b : Benchmarks.Harness.benchmark) ->
      let w = scale_workload b.Benchmarks.Harness.bench in
      List.iter
        (fun (label, set) ->
          let ov =
            Detectors.Overhead.measure ~set b.Benchmarks.Harness.bench
              Vir.Target.Avx ~input:0
          in
          let r =
            campaign_run
              ~transform:(Detectors.Overhead.transform set)
              ~hooks:Detectors.Runtime.hooks cfg w Vir.Target.Avx
              Analysis.Sites.Control
          in
          Printf.printf
            "%-16s %-16s overhead %6.2f%%  SDC-detection %5.1f%%\n"
            w.Vulfi.Workload.w_name label
            (100.0 *. Detectors.Overhead.overhead_fraction ov)
            (100.0 *. Vulfi.Campaign.sdc_detection_rate r))
        [
          ("exit-only", Detectors.Overhead.paper_detectors);
          ( "every-iteration",
            {
              Detectors.Overhead.with_foreach = true;
              with_uniform = false;
              placement = `Every_iteration;
              strengthen = false;
            } );
        ])
    Benchmarks.Registry.micro_benchmarks;
  header
    "Ablation 2: masked-lane awareness (VULFI skips masked-off lanes; a \
     mask-oblivious injector wastes injections on dead lanes). Workload: \
     vcopy with n = 9, so 7 of 8 partial-block lanes are masked off.";
  let tiny_vcopy =
    {
      Vulfi.Workload.w_name = "vcopy-n9";
      w_fn = "vcopy_ispc";
      w_inputs = 1;
      w_out_tolerance = 0.0;
      w_build =
        (fun t ->
          Minispc.Driver.compile t
            "export void vcopy_ispc(uniform int a1[], uniform int a2[], \
             uniform int n) { foreach (i = 0 ... n) { a2[i] = a1[i]; } }");
      w_setup =
        (fun ~input:_ st ->
          let n = 9 in
          let mem = Interp.Machine.memory st in
          let a1 = Interp.Memory.alloc mem ~name:"a1" ~bytes:(4 * n) in
          let a2 = Interp.Memory.alloc mem ~name:"a2" ~bytes:(4 * n) in
          Interp.Memory.write_i32_array mem a1 (Array.init n (fun i -> i));
          ( [ Interp.Vvalue.of_ptr a1; Interp.Vvalue.of_ptr a2;
              Interp.Vvalue.of_i32 n ],
            fun () ->
              {
                Vulfi.Outcome.empty_output with
                Vulfi.Outcome.o_i32 =
                  [ Interp.Memory.read_i32_array mem a2 n ];
              } ));
    }
  in
  List.iter
    (fun (label, respect) ->
      let r =
        campaign_run ~respect_masks:respect cfg tiny_vcopy Vir.Target.Avx
          Analysis.Sites.Pure_data
      in
      Printf.printf "%-24s SDC %5.1f%%  benign %5.1f%%  crash %5.1f%%\n"
        label
        (100.0 *. Vulfi.Campaign.sdc_rate r)
        (100.0 *. Vulfi.Campaign.benign_rate r)
        (100.0 *. Vulfi.Campaign.crash_rate r))
    [ ("mask-aware (VULFI)", true); ("mask-oblivious", false) ];
  header
    "Ablation 3: uniform-broadcast XOR detector (§III-B — future work in \
     the paper, implemented here). Workload: a scale kernel whose \
     broadcast multiplier feeds every lane (pure-data faults can land in \
     the broadcast register).";
  let scale_w =
    {
      Vulfi.Workload.w_name = "scale";
      w_fn = "scale";
      w_inputs = 1;
      w_out_tolerance = 0.0;
      w_build =
        (fun t ->
          Minispc.Driver.compile t
            "export void scale(uniform float a[], uniform float s, \
             uniform int n) { foreach (i = 0 ... n) { a[i] = a[i] * s; } \
             }");
      w_setup =
        (fun ~input:_ st ->
          let n = 64 in
          let mem = Interp.Machine.memory st in
          let a = Interp.Memory.alloc mem ~name:"a" ~bytes:(4 * n) in
          Interp.Memory.write_f32_array mem a
            (Array.init n (fun i -> float_of_int i *. 0.5));
          ( [ Interp.Vvalue.of_ptr a; Interp.Vvalue.of_f32 2.5;
              Interp.Vvalue.of_i32 n ],
            fun () ->
              {
                Vulfi.Outcome.empty_output with
                Vulfi.Outcome.o_f32 =
                  [ Interp.Memory.read_f32_array mem a n ];
              } ));
    }
  in
  List.iter
    (fun (label, set) ->
      let r =
        campaign_run
          ~transform:(Detectors.Overhead.transform set)
          ~hooks:Detectors.Runtime.hooks cfg scale_w Vir.Target.Avx
          Analysis.Sites.Pure_data
      in
      Printf.printf
        "%-24s flagged %d of %d experiments (SDC-detection %5.1f%%)\n"
        label r.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_detected
        r.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_experiments
        (100.0 *. Vulfi.Campaign.sdc_detection_rate r))
    [
      ("foreach only", Detectors.Overhead.paper_detectors);
      ("foreach + uniform-xor", Detectors.Overhead.all_detectors);
    ];
  header
    "Ablation 4: fault models beyond the paper's single bit flip \
     (Blackscholes, AVX, pure-data)";
  let bs = List.nth Benchmarks.Registry.paper_benchmarks 2 in
  let wbs = scale_workload bs.Benchmarks.Harness.bench in
  List.iter
    (fun kind ->
      let r =
        campaign_run ~fault_kind:kind cfg wbs Vir.Target.Avx
          Analysis.Sites.Pure_data
      in
      Printf.printf "%-16s SDC %5.1f%%  benign %5.1f%%  crash %5.1f%%\n"
        (Vulfi.Runtime.fault_kind_name kind)
        (100.0 *. Vulfi.Campaign.sdc_rate r)
        (100.0 *. Vulfi.Campaign.benign_rate r)
        (100.0 *. Vulfi.Campaign.crash_rate r))
    [
      Vulfi.Runtime.Single_bit_flip;
      Vulfi.Runtime.Multi_bit_flip 2;
      Vulfi.Runtime.Multi_bit_flip 4;
      Vulfi.Runtime.Random_value;
      Vulfi.Runtime.Stuck_at_zero;
    ];
  header
    "Ablation 5: strengthened exit invariant (new_counter == aligned_end \
     on exit, extension) vs the paper's Fig 8 invariants";
  List.iter
    (fun (b : Benchmarks.Harness.benchmark) ->
      let w = scale_workload b.Benchmarks.Harness.bench in
      List.iter
        (fun (label, set) ->
          let r =
            campaign_run
              ~transform:(Detectors.Overhead.transform set)
              ~hooks:Detectors.Runtime.hooks cfg w Vir.Target.Avx
              Analysis.Sites.Control
          in
          Printf.printf "%-16s %-22s SDC-detection %5.1f%% (%d / %d)\n"
            w.Vulfi.Workload.w_name label
            (100.0 *. Vulfi.Campaign.sdc_detection_rate r)
            r.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_detected_sdc
            r.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_sdc)
        [
          ("Fig 8 invariants", Detectors.Overhead.paper_detectors);
          ("strengthened (==)", Detectors.Overhead.strengthened_detectors);
        ])
    Benchmarks.Registry.micro_benchmarks;
  header
    "Ablation 6: manually inserted source-level asserts (the paper's \
     introduction motif) — equality asserts in a checked vector copy \
     catch pure-data faults that no compiler-derived detector sees";
  let checked_src =
    "export void checked_copy(uniform int a1[], uniform int a2[], uniform \
     int n) { foreach (i = 0 ... n) { int v = a1[i]; a2[i] = v; \
     assert(a2[i] == v); } }"
  in
  let plain_src =
    "export void checked_copy(uniform int a1[], uniform int a2[], uniform \
     int n) { foreach (i = 0 ... n) { int v = a1[i]; a2[i] = v; } }"
  in
  let mk_workload src =
    {
      Vulfi.Workload.w_name = "checked_copy";
      w_fn = "checked_copy";
      w_inputs = 1;
      w_out_tolerance = 0.0;
      w_build = (fun t -> Minispc.Driver.compile t src);
      w_setup =
        (fun ~input:_ st ->
          let n = 64 in
          let mem = Interp.Machine.memory st in
          let a1 = Interp.Memory.alloc mem ~name:"a1" ~bytes:(4 * n) in
          let a2 = Interp.Memory.alloc mem ~name:"a2" ~bytes:(4 * n) in
          Interp.Memory.write_i32_array mem a1 (Array.init n (fun i -> i * 3));
          ( [ Interp.Vvalue.of_ptr a1; Interp.Vvalue.of_ptr a2;
              Interp.Vvalue.of_i32 n ],
            fun () ->
              {
                Vulfi.Outcome.empty_output with
                Vulfi.Outcome.o_i32 =
                  [ Interp.Memory.read_i32_array mem a2 n ];
              } ));
    }
  in
  List.iter
    (fun (label, src) ->
      let r =
        campaign_run ~hooks:Detectors.Runtime.hooks cfg
          (mk_workload src) Vir.Target.Avx Analysis.Sites.Pure_data
      in
      Printf.printf "%-24s SDC %5.1f%%  SDC-detection %5.1f%% (%d / %d)\n"
        label
        (100.0 *. Vulfi.Campaign.sdc_rate r)
        (100.0 *. Vulfi.Campaign.sdc_detection_rate r)
        r.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_detected_sdc
        r.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_sdc)
    [ ("with asserts", checked_src); ("without asserts", plain_src) ]

(* ------------------------------------------------------------------ *)
(* Sequential vs parallel campaign wall-clock                          *)

let speedup () =
  let cfg = campaign_config () in
  let par_jobs = max 4 !jobs in
  header
    (Printf.sprintf
       "Campaign speedup: sequential vs -j %d on %d domain(s) of hardware \
        (blackscholes, AVX, pure-data)"
       par_jobs
       (Domain.recommended_domain_count ()));
  let bs = List.nth Benchmarks.Registry.paper_benchmarks 2 in
  let w = scale_workload bs.Benchmarks.Harness.bench in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let run_with jobs =
    time (fun () ->
        Vulfi.Campaign.run ~jobs cfg w Vir.Target.Avx Analysis.Sites.Pure_data)
  in
  let r_seq, t_seq = run_with 1 in
  let r_par, t_par = run_with par_jobs in
  Printf.printf "sequential: %7.2f s   (%d campaigns, SDC %5.1f%%)\n" t_seq
    r_seq.Vulfi.Campaign.c_campaigns
    (100.0 *. Vulfi.Campaign.sdc_rate r_seq);
  Printf.printf "-j %-2d     : %7.2f s   (%d campaigns, SDC %5.1f%%)\n"
    par_jobs t_par r_par.Vulfi.Campaign.c_campaigns
    (100.0 *. Vulfi.Campaign.sdc_rate r_par);
  Printf.printf "speedup   : %6.2fx   results bit-identical: %b\n"
    (t_seq /. t_par) (r_seq = r_par);
  if r_seq <> r_par then begin
    prerr_endline "speedup: -j 1 and -j N results diverge";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* VM throughput: dynamic instructions per second                      *)

(* Aggregate bytes allocated per dynamic instruction of the PR 4
   (pre-destination-passing) interpreter, measured with this harness on
   the same workloads right before the rewrite landed. *)
let baseline_pre_dps_bpi = "78.62"

(* Best-of-[reps] golden run of [w] over [code] on fresh machines
   ([attach] binds the externs): dynamic instructions, seconds per run
   and bytes allocated per run. *)
let time_golden ~reps ?(attach = fun _ -> ()) (w : Vulfi.Workload.t)
    (code : Interp.Code.cmodule) =
  (* Timed region = Machine.run only: the metric is VM execution
     throughput; per-experiment state construction and input
     generation are excluded (identically for every interpreter under
     comparison). Each run still gets a fresh state, like a campaign
     experiment does. *)
  let prepare () =
    let st = Interp.Machine.create code in
    attach st;
    let args, _ = w.Vulfi.Workload.w_setup ~input:0 st in
    (st, args)
  in
  let dyn =
    let st, args = prepare () in
    ignore (Interp.Machine.run st w.Vulfi.Workload.w_fn args);
    Interp.Machine.dyn_count st
  in
  (* Warm-up done. Tiny kernels are batched so a measurement spans well
     above timer resolution; the *fastest* batch is kept: on a
     shared/noisy host the minimum is the only robust estimator of the
     true cost (preemption only ever adds time). *)
  let batch = max 1 (min 512 (1 + (20_000 / max 1 dyn))) in
  let fn = w.Vulfi.Workload.w_fn in
  let best = ref infinity in
  let best_bytes = ref infinity in
  for _ = 1 to reps do
    let prepared = Array.init batch (fun _ -> prepare ()) in
    (* drain the allocation debt of the untimed construction above so
       its minor-GC work cannot land inside the timed window *)
    Gc.minor ();
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    Array.iter
      (fun (st, args) -> ignore (Interp.Machine.run st fn args))
      prepared;
    let t1 = Unix.gettimeofday () in
    (* Allocation across the same timed window. The count is
       deterministic per run; the minimum across reps simply rejects
       any stray allocation from a signal/GC hook. *)
    let db = (Gc.allocated_bytes () -. a0) /. float_of_int batch in
    let dt = (t1 -. t0) /. float_of_int batch in
    if dt < !best then best := dt;
    if db < !best_bytes then best_bytes := db
  done;
  (dyn, !best, !best_bytes)

let per_instr x dyn = if dyn > 0 then x /. float_of_int dyn else 0.0

type interp_row = {
  ir_name : string;
  ir_dyn : int;
  ir_seconds : float;
  ir_bytes : float;  (** per run *)
  ir_inst_dyn : int;  (** the three instrumented runs together *)
  ir_inst_seconds : float;
  ir_inst_bytes : float;
}

(* Measures raw interpreter throughput per benchmark (input 0, AVX) and
   writes BENCH_interp.json so successive PRs can track the perf
   trajectory. Two arms: the uninstrumented program, and its
   instrumented copies — what every campaign run executes — one per
   fault-site category, each golden run under a profiling runtime. The
   instrumented arm reports its time ratio to the uninstrumented one
   (the three category runs against three uninstrumented runs). A
   "fusion_stats" line per benchmark gives the chains the compiler
   fused, their lengths and the member kinds of those it did not.
   VULFI_INTERP_REPS overrides the repetition count (CI smoke runs use
   2). *)
let interp_bench () =
  header
    (Printf.sprintf
       "VM throughput: dynamic instructions / second per benchmark \
        (input 0, AVX, fusion %s), uninstrumented | instrumented \
        golden runs of the three categories"
       (if !Interp.Compile.fusion then "on" else "off"));
  let reps = getenv_int "VULFI_INTERP_REPS" 5 in
  (* VULFI_BENCH_ONLY=substr restricts the table to matching rows: used
     by the profiling recipe in EXPERIMENTS.md to isolate one workload. *)
  let benches =
    match Sys.getenv_opt "VULFI_BENCH_ONLY" with
    | None -> Benchmarks.Registry.all
    | Some pat ->
      List.filter
        (fun (b : Benchmarks.Harness.benchmark) ->
          let name =
            String.lowercase_ascii b.Benchmarks.Harness.bench.Vulfi.Workload.w_name
          in
          let pat = String.lowercase_ascii pat in
          let n = String.length name and p = String.length pat in
          let rec at i = i + p <= n && (String.sub name i p = pat || at (i + 1)) in
          at 0)
        Benchmarks.Registry.all
  in
  let chains_fused = ref 0 in
  let fused_hist : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let unfused : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let add tbl k n =
    Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let rows =
    List.map
      (fun (b : Benchmarks.Harness.benchmark) ->
        let w = (scale_workload b.Benchmarks.Harness.bench) in
        let m = w.Vulfi.Workload.w_build Vir.Target.Avx in
        let code = Interp.Compile.compile_module m in
        let fused = Interp.Compile.fused_chain_count code in
        let hist = Interp.Compile.fused_length_hist code in
        let shapes = Interp.Compile.unfused_shapes code in
        chains_fused := !chains_fused + fused;
        List.iter (fun (l, n) -> add fused_hist l n) hist;
        List.iter (fun (k, n) -> add unfused k n) shapes;
        Printf.printf "fusion_stats %s: %d of %d fused;" w.Vulfi.Workload.w_name
          fused
          (List.fold_left (fun acc (_, n) -> acc + n) fused shapes);
        List.iter (fun (l, n) -> Printf.printf " len%d=%d" l n) hist;
        if shapes <> [] then begin
          print_string "; unfused";
          List.iter (fun (k, n) -> Printf.printf " %s=%d" k n) shapes
        end;
        print_newline ();
        let dyn, best, bytes = time_golden ~reps w code in
        let inst_dyn = ref 0 and inst_best = ref 0.0 and inst_bytes = ref 0.0 in
        List.iter
          (fun category ->
            let p = Vulfi.Experiment.prepare w Vir.Target.Avx category in
            let d, t, b =
              time_golden ~reps
                ~attach:
                  (Vulfi.Runtime.attach
                     (Vulfi.Runtime.create Vulfi.Runtime.Profile))
                w p.Vulfi.Experiment.p_code
            in
            inst_dyn := !inst_dyn + d;
            inst_best := !inst_best +. t;
            inst_bytes := !inst_bytes +. b)
          Analysis.Sites.all_categories;
        let r =
          {
            ir_name = w.Vulfi.Workload.w_name;
            ir_dyn = dyn;
            ir_seconds = best;
            ir_bytes = bytes;
            ir_inst_dyn = !inst_dyn;
            ir_inst_seconds = !inst_best;
            ir_inst_bytes = !inst_bytes;
          }
        in
        let ratio = r.ir_inst_seconds /. (3.0 *. r.ir_seconds) in
        Printf.printf
          "%-18s %10d dyn instrs  %8.3f ms/run  %8.2f M instr/s  %7.2f \
           B/instr | instrumented %9d  %7.2f B/instr  %5.2fx time\n"
          r.ir_name dyn (best *. 1000.0)
          (float_of_int dyn /. best /. 1.0e6)
          (per_instr bytes dyn) r.ir_inst_dyn
          (per_instr r.ir_inst_bytes r.ir_inst_dyn)
          ratio;
        r)
      benches
  in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
  let total_dyn = sum (fun r -> float_of_int r.ir_dyn) in
  let total_dt = sum (fun r -> r.ir_seconds) in
  let agg_mips =
    if total_dt > 0.0 then total_dyn /. total_dt /. 1.0e6 else 0.0
  in
  let agg_bpi =
    if total_dyn > 0.0 then sum (fun r -> r.ir_bytes) /. total_dyn else 0.0
  in
  let inst_dyn = sum (fun r -> float_of_int r.ir_inst_dyn) in
  let agg_inst_bpi =
    if inst_dyn > 0.0 then sum (fun r -> r.ir_inst_bytes) /. inst_dyn else 0.0
  in
  let inst_ratio =
    if total_dt > 0.0 then sum (fun r -> r.ir_inst_seconds) /. (3.0 *. total_dt)
    else 0.0
  in
  Printf.printf "%-18s %33s  %8.2f M instr/s  %7.2f B/instr | instrumented \
                 %7.2f B/instr  %5.2fx time\n"
    "AGGREGATE" "" agg_mips agg_bpi agg_inst_bpi inst_ratio;
  (* Every candidate chain either fuses or runs one closure per member
     under its member kinds. *)
  let unfused_rows =
    Hashtbl.fold (fun k n acc -> (k, n) :: acc) unfused []
    |> List.sort (fun (k1, n1) (k2, n2) -> compare (n2, k1) (n1, k2))
  in
  let chain_candidates =
    List.fold_left (fun acc (_, n) -> acc + n) !chains_fused unfused_rows
  in
  Printf.printf "fused chains: %d of %d candidates\n" !chains_fused
    chain_candidates;
  (* Allocation-regression tripwire for the one workload that used to
     blow the aggregate gate (23 B/instr before the memory fast paths):
     fail loudly right here rather than letting CI bisect the
     aggregate. *)
  List.iter
    (fun r ->
      let bpi = per_instr r.ir_bytes r.ir_dyn in
      if r.ir_name = "ConjugateGradient" && bpi > 12.0 then begin
        Printf.eprintf
          "FAIL: ConjugateGradient allocates %.2f B/instr (> 12.0 \
           regression gate)\n"
          bpi;
        exit 1
      end)
    rows;
  let hist_rows =
    Hashtbl.fold (fun l n acc -> (l, n) :: acc) fused_hist []
    |> List.sort compare
  in
  let oc = open_out "BENCH_interp.json" in
  Printf.fprintf oc "{\n  \"schema\": \"vulfi-interp-bench-v7\",\n";
  Printf.fprintf oc "  \"reps\": %d,\n" reps;
  Printf.fprintf oc "  \"fusion\": %b,\n" !Interp.Compile.fusion;
  Printf.fprintf oc "  \"chain_candidates\": %d,\n" chain_candidates;
  Printf.fprintf oc "  \"chains_fused\": %d,\n" !chains_fused;
  Printf.fprintf oc "  \"chain_length_hist\": [%s],\n"
    (String.concat ", "
       (List.map (fun (l, n) -> Printf.sprintf "[%d, %d]" l n) hist_rows));
  Printf.fprintf oc "  \"unfused_chains\": {%s},\n"
    (String.concat ", "
       (List.map (fun (k, n) -> Printf.sprintf "%S: %d" k n) unfused_rows));
  Printf.fprintf oc "  \"aggregate_minstr_per_s\": %.3f,\n" agg_mips;
  Printf.fprintf oc "  \"aggregate_bytes_per_instr\": %.3f,\n" agg_bpi;
  Printf.fprintf oc "  \"aggregate_instrumented_bytes_per_instr\": %.3f,\n"
    agg_inst_bpi;
  Printf.fprintf oc "  \"instrumented_time_ratio\": %.3f,\n" inst_ratio;
  (* Pre-DPS reference point (PR 4 tree, measured with this very
     harness before the destination-passing rewrite) so the before/after
     of the allocation work stays in the artifact. *)
  Printf.fprintf oc
    "  \"baseline_pre_dps\": {\"aggregate_minstr_per_s\": 26.114, \
     \"aggregate_bytes_per_instr\": %s},\n"
    baseline_pre_dps_bpi;
  (* Pre-fusion reference point (PR 6 tree, same harness, right before
     the peephole fusion backend landed). *)
  Printf.fprintf oc
    "  \"baseline_pre_fusion\": {\"aggregate_minstr_per_s\": 50.095, \
     \"aggregate_bytes_per_instr\": 6.129},\n";
  (* Pre-superblock reference point (PR 8 tree, same harness, right
     before the whole-superblock kernels landed). *)
  Printf.fprintf oc
    "  \"baseline_pre_superblock\": {\"aggregate_minstr_per_s\": 70.325, \
     \"aggregate_bytes_per_instr\": 4.275},\n";
  (* Pre-site-kernel reference point (the tree right before fault
     sites became interpreter primitives, this harness's instrumented
     arm, 50 reps): every lane's fault-site call went through a host
     handler with an argument list. *)
  Printf.fprintf oc
    "  \"baseline_pre_site_kernels\": \
     {\"aggregate_instrumented_bytes_per_instr\": 38.37, \
     \"instrumented_time_ratio\": 6.68},\n";
  Printf.fprintf oc "  \"benchmarks\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"name\": %S, \"dyn_instrs\": %d, \"reps\": %d, \
         \"best_seconds_per_run\": %.9f, \"minstr_per_s\": %.3f, \
         \"bytes_per_instr\": %.3f, \"instrumented_dyn_instrs\": %d, \
         \"instrumented_seconds_per_run\": %.9f, \
         \"instrumented_bytes_per_instr\": %.3f, \
         \"instrumented_time_ratio\": %.3f}%s\n"
        r.ir_name r.ir_dyn reps r.ir_seconds
        (float_of_int r.ir_dyn /. r.ir_seconds /. 1.0e6)
        (per_instr r.ir_bytes r.ir_dyn)
        r.ir_inst_dyn r.ir_inst_seconds
        (per_instr r.ir_inst_bytes r.ir_inst_dyn)
        (r.ir_inst_seconds /. (3.0 *. r.ir_seconds))
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "\nwrote BENCH_interp.json\n"

(* ------------------------------------------------------------------ *)
(* Campaign throughput: the four executors head to head                *)

(* Times set-up passes over the fig11 cells, runs the fig11 cell sweep
   four times — once per executor — over the same shared pool settings,
   cross-checks that results and traces are byte-identical across all
   four, and writes BENCH_campaign.json so
   successive PRs can track end-to-end campaign throughput the way
   BENCH_interp.json tracks raw VM throughput. *)
let campaign_bench () =
  let cfg = campaign_config () in
  header
    (Printf.sprintf
       "Campaign throughput: legacy vs checkpointed vs fast-forward vs \
        converge-pruned executor over the fig11 cell sweep (-j %d)"
       !jobs);
  let cells =
    List.concat_map
      (fun (b : Benchmarks.Harness.benchmark) ->
        let w = scale_workload b.Benchmarks.Harness.bench in
        List.concat_map
          (fun target ->
            List.map (fun cat -> (w, target, cat))
              Analysis.Sites.all_categories)
          Vir.Target.all)
      Benchmarks.Registry.paper_benchmarks
  in
  (* Set-up work, which [Campaign.run_cells] pays once per cell in every
     sweep below: [Experiment.prepare] over every cell. After one
     warm-up pass, the fastest of three passes and the allocation of
     the first (deterministic, so CI can gate it). The allocation
     counters are exact only right after a minor collection. *)
  let prepare_pass () =
    Gc.minor ();
    let a0 = Gc.allocated_bytes () and t0 = Unix.gettimeofday () in
    List.iter
      (fun (w, target, cat) -> ignore (Vulfi.Experiment.prepare w target cat))
      cells;
    let dt = Unix.gettimeofday () -. t0 in
    Gc.minor ();
    (dt, (Gc.allocated_bytes () -. a0) /. 1e6)
  in
  ignore (prepare_pass ());
  let passes = List.init 3 (fun _ -> prepare_pass ()) in
  let prepare_seconds = List.fold_left (fun m (t, _) -> min m t) infinity passes in
  let prepare_alloc_mb = snd (List.hd passes) in
  let sweep executor =
    let buf = Buffer.create (1 lsl 16) in
    let sink = Vulfi.Trace.to_buffer buf in
    let t0 = Unix.gettimeofday () in
    let results =
      Vulfi.Campaign.run_cells ~sink ~executor ~jobs:!jobs cfg cells
    in
    let dt = Unix.gettimeofday () -. t0 in
    Vulfi.Trace.close sink;
    (results, Buffer.contents buf, dt)
  in
  let r_leg, tr_leg, t_leg = sweep Vulfi.Campaign.Legacy in
  let r_ckpt, tr_ckpt, t_ckpt = sweep Vulfi.Campaign.Checkpointed in
  let r_ff, tr_ff, t_ff = sweep Vulfi.Campaign.Fast_forward in
  Vulfi.Experiment.reset_prune_stats ();
  let r_pr, tr_pr, t_pr = sweep Vulfi.Campaign.Converge_pruned in
  let prunes_performed, prune_checks_performed =
    Vulfi.Experiment.prune_stats ()
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 r_ckpt in
  let n_exps =
    sum (fun (r : Vulfi.Campaign.result) ->
        r.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_experiments)
  in
  let golden_runs =
    sum (fun (r : Vulfi.Campaign.result) -> r.Vulfi.Campaign.c_golden_runs)
  in
  let golden_reused =
    sum (fun (r : Vulfi.Campaign.result) -> r.Vulfi.Campaign.c_golden_reused)
  in
  let checkpoints =
    sum (fun (r : Vulfi.Campaign.result) -> r.Vulfi.Campaign.c_checkpoints)
  in
  let ff_resumed =
    sum (fun (r : Vulfi.Campaign.result) -> r.Vulfi.Campaign.c_ff_resumed)
  in
  let pruned =
    sum (fun (r : Vulfi.Campaign.result) -> r.Vulfi.Campaign.c_pruned)
  in
  let prune_checks =
    sum (fun (r : Vulfi.Campaign.result) -> r.Vulfi.Campaign.c_prune_checks)
  in
  let rate dt = if dt > 0.0 then float_of_int n_exps /. dt else 0.0 in
  let speedup = if t_ckpt > 0.0 then t_leg /. t_ckpt else 0.0 in
  let speedup_ff = if t_ff > 0.0 then t_ckpt /. t_ff else 0.0 in
  let speedup_pruned = if t_pr > 0.0 then t_ff /. t_pr else 0.0 in
  let results_identical =
    r_leg = r_ckpt && r_ckpt = r_ff && r_ff = r_pr
  in
  let traces_identical =
    String.equal tr_leg tr_ckpt
    && String.equal tr_ckpt tr_ff
    && String.equal tr_ff tr_pr
  in
  Printf.printf "cells: %d   experiments: %d\n" (List.length cells) n_exps;
  Printf.printf
    "set-up         : %7.3f s per prepare pass (min of 3), %.1f MB \
     allocated\n"
    prepare_seconds prepare_alloc_mb;
  Printf.printf "legacy         : %7.2f s  %8.1f experiments/s\n" t_leg
    (rate t_leg);
  Printf.printf "checkpointed   : %7.2f s  %8.1f experiments/s\n" t_ckpt
    (rate t_ckpt);
  Printf.printf "fast-forward   : %7.2f s  %8.1f experiments/s\n" t_ff
    (rate t_ff);
  Printf.printf "converge-pruned: %7.2f s  %8.1f experiments/s\n" t_pr
    (rate t_pr);
  Printf.printf
    "speedup        : %6.2fx (ckpt/legacy)  %6.2fx (ff/ckpt)  %6.2fx \
     (pruned/ff)\n"
    speedup speedup_ff speedup_pruned;
  Printf.printf
    "golden runs %d (reused %d)   checkpoints %d (resumed %d)   prunable \
     %d (pruned %d, %d of %d checks)\n"
    golden_runs golden_reused checkpoints ff_resumed pruned
    prunes_performed prune_checks_performed prune_checks;
  Printf.printf "results identical: %b   traces identical: %b\n"
    results_identical traces_identical;
  let oc = open_out "BENCH_campaign.json" in
  Printf.fprintf oc "{\n  \"schema\": \"vulfi-campaign-bench-v4\",\n";
  Printf.fprintf oc "  \"scale\": %S,\n"
    (if scale_is_paper then "paper" else "quick");
  Printf.fprintf oc "  \"jobs\": %d,\n" !jobs;
  Printf.fprintf oc "  \"cells\": %d,\n" (List.length cells);
  Printf.fprintf oc "  \"experiments\": %d,\n" n_exps;
  Printf.fprintf oc "  \"golden_runs\": %d,\n" golden_runs;
  Printf.fprintf oc "  \"golden_runs_eliminated\": %d,\n" golden_reused;
  Printf.fprintf oc "  \"checkpoints\": %d,\n" checkpoints;
  Printf.fprintf oc "  \"ff_resumed\": %d,\n" ff_resumed;
  (* schedule-derived pruning opportunity vs what physically pruned *)
  Printf.fprintf oc "  \"prunable_experiments\": %d,\n" pruned;
  Printf.fprintf oc "  \"prune_checks_possible\": %d,\n" prune_checks;
  Printf.fprintf oc "  \"prunes_performed\": %d,\n" prunes_performed;
  Printf.fprintf oc "  \"prune_checks_performed\": %d,\n"
    prune_checks_performed;
  Printf.fprintf oc "  \"prepare_seconds\": %.3f,\n" prepare_seconds;
  Printf.fprintf oc "  \"prepare_alloc_mb\": %.1f,\n" prepare_alloc_mb;
  Printf.fprintf oc "  \"legacy_seconds\": %.3f,\n" t_leg;
  Printf.fprintf oc "  \"checkpointed_seconds\": %.3f,\n" t_ckpt;
  Printf.fprintf oc "  \"fastforward_seconds\": %.3f,\n" t_ff;
  Printf.fprintf oc "  \"pruned_seconds\": %.3f,\n" t_pr;
  Printf.fprintf oc "  \"legacy_experiments_per_s\": %.1f,\n" (rate t_leg);
  Printf.fprintf oc "  \"checkpointed_experiments_per_s\": %.1f,\n"
    (rate t_ckpt);
  Printf.fprintf oc "  \"fastforward_experiments_per_s\": %.1f,\n"
    (rate t_ff);
  Printf.fprintf oc "  \"pruned_experiments_per_s\": %.1f,\n" (rate t_pr);
  Printf.fprintf oc "  \"speedup\": %.3f,\n" speedup;
  Printf.fprintf oc "  \"speedup_fastforward\": %.3f,\n" speedup_ff;
  Printf.fprintf oc "  \"speedup_pruned\": %.3f,\n" speedup_pruned;
  (* Pre-pruning reference point (PR 8 tree, this harness, quick scale,
     right before the converge-pruned executor landed) so the pruning
     before/after stays in the artifact. *)
  Printf.fprintf oc
    "  \"baseline_pre_prune\": {\"legacy_seconds\": 12.022, \
     \"checkpointed_seconds\": 5.524, \"fastforward_seconds\": 3.694, \
     \"speedup_fastforward\": 1.495},\n";
  (* Set-up before the liveness sets and use redirects became linear
     (the parent of that change, this harness, quick scale), so the
     before/after stays in the artifact. *)
  Printf.fprintf oc
    "  \"baseline_pre_linear_setup\": {\"prepare_seconds\": 0.556, \
     \"prepare_alloc_mb\": 598.5},\n";
  (* Set-up before sites were classified by one reachability pass,
     each block's instrumentation spliced once and the verifier's
     tables indexed by register (the parent of that change, this
     harness, quick scale). *)
  Printf.fprintf oc
    "  \"baseline_pre_linear_setup_v2\": {\"prepare_seconds\": 0.258, \
     \"prepare_alloc_mb\": 178.6},\n";
  Printf.fprintf oc "  \"results_identical\": %b,\n" results_identical;
  Printf.fprintf oc "  \"traces_identical\": %b\n" traces_identical;
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "\nwrote BENCH_campaign.json\n";
  if not (results_identical && traces_identical) then begin
    Printf.eprintf
      "campaign bench: executor outputs diverge (results %b, traces %b)\n"
      results_identical traces_identical;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock timing                                          *)

let timing () =
  let open Bechamel in
  let open Toolkit in
  header
    "Wall-clock timing (Bechamel): detector overhead corroboration + VM \
     throughput";
  let run_workload (b : Benchmarks.Harness.benchmark) transform =
    let w = b.Benchmarks.Harness.bench in
    let m = transform (w.Vulfi.Workload.w_build Vir.Target.Avx) in
    let code = Interp.Compile.compile_module m in
    fun () ->
      let st = Interp.Machine.create code in
      Detectors.Runtime.attach st;
      let args, _ = w.Vulfi.Workload.w_setup ~input:0 st in
      ignore (Interp.Machine.run st w.Vulfi.Workload.w_fn args)
  in
  let id_transform m = m in
  let with_detectors m =
    ignore (Detectors.Foreach_invariants.run m);
    m
  in
  let micro = Benchmarks.Registry.micro_benchmarks in
  let tests =
    List.concat_map
      (fun (b : Benchmarks.Harness.benchmark) ->
        let name = b.Benchmarks.Harness.bench.Vulfi.Workload.w_name in
        [
          Test.make ~name:(name ^ " plain")
            (Staged.stage (run_workload b id_transform));
          Test.make
            ~name:(name ^ " +detector")
            (Staged.stage (run_workload b with_detectors));
        ])
      micro
    @ [
        Test.make ~name:"stencil VM throughput"
          (Staged.stage
             (run_workload
                (List.nth Benchmarks.Registry.paper_benchmarks 4)
                id_transform));
      ]
  in
  let test = Test.make_grouped ~name:"vulfi" tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let cfg_b =
    Benchmark.cfg ~limit:5000 ~quota:(Time.second 1.0) ~kde:None ()
  in
  let raw = Benchmark.all cfg_b [ Instance.monotonic_clock ] test in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        match Analyze.OLS.estimates ols with
        | Some [ ns ] -> (name, ns) :: acc
        | _ -> acc)
      results []
  in
  List.iter
    (fun (name, ns) -> Printf.printf "%-44s %14.1f ns/run\n" name ns)
    (List.sort compare rows);
  List.iter
    (fun (b : Benchmarks.Harness.benchmark) ->
      let name = b.Benchmarks.Harness.bench.Vulfi.Workload.w_name in
      let find suffix = List.assoc_opt ("vulfi/" ^ name ^ suffix) rows in
      match (find " plain", find " +detector") with
      | Some p, Some d when p > 0.0 ->
        Printf.printf "%-16s wall-clock detector overhead: %5.2f%%\n" name
          (100.0 *. ((d -. p) /. p))
      | _ -> ())
    micro;
  (* VM throughput: dynamic instructions per second on the stencil *)
  (match List.assoc_opt "vulfi/stencil VM throughput" rows with
  | Some ns when ns > 0.0 ->
    let stencil = List.nth Benchmarks.Registry.paper_benchmarks 4 in
    let dyn =
      run_uninstrumented stencil Vir.Target.Avx 0
    in
    Printf.printf
      "\nVM throughput: %.1f M dynamic instructions / second (stencil, \
       %d instrs in %.2f ms)\n"
      (float_of_int dyn /. ns *. 1000.0)
      dyn (ns /. 1.0e6)
  | _ -> ())

(* ------------------------------------------------------------------ *)

let () =
  (* peel "-j N" / "--trace FILE" off the argument list; the rest are
     experiment names *)
  let trace_path = ref None in
  (* the executor flag seen so far: a second, different one is refused *)
  let executor_flag = ref None in
  let rec parse_args acc = function
    | [] -> List.rev acc
    | "-j" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        jobs := n;
        parse_args acc rest
      | _ ->
        Printf.eprintf "-j expects a positive integer, got %S\n" n;
        exit 2)
    | "-j" :: [] ->
      Printf.eprintf "-j expects a worker count\n";
      exit 2
    | "--trace" :: f :: rest ->
      trace_path := Some f;
      parse_args acc rest
    | "--trace" :: [] ->
      Printf.eprintf "--trace expects a file name\n";
      exit 2
    | ("--legacy-executor" | "--ff-executor" | "--prune-executor") as flag
      :: rest ->
      (match !executor_flag with
      | Some other when other <> flag ->
        Printf.eprintf "%s and %s are mutually exclusive\n" other flag;
        exit 2
      | _ -> ());
      executor_flag := Some flag;
      executor :=
        (match flag with
        | "--legacy-executor" -> Vulfi.Campaign.Legacy
        | "--ff-executor" -> Vulfi.Campaign.Fast_forward
        | _ -> Vulfi.Campaign.Converge_pruned);
      parse_args acc rest
    | "--no-fusion" :: rest ->
      Interp.Compile.fusion := false;
      parse_args acc rest
    | cmd :: rest -> parse_args (cmd :: acc) rest
  in
  let what =
    match
      parse_args []
        (Array.to_list (Array.sub Sys.argv 1 (Array.length Sys.argv - 1)))
    with
    | [] -> [ "table1"; "fig10"; "fig11"; "fig12"; "ablation"; "timing" ]
    | cmds -> cmds
  in
  (* the VULFI_* overrides are checked before any experiment prints *)
  ignore (campaign_config ());
  the_sink := Option.map Vulfi.Trace.to_file !trace_path;
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> Option.iter Vulfi.Trace.close !the_sink)
    (fun () ->
      List.iter
        (fun cmd ->
          match cmd with
          | "table1" -> table1 ()
          | "fig10" -> fig10 ()
          | "fig11" -> fig11 ()
          | "fig12" -> fig12 ()
          | "ablation" -> ablation ()
          | "speedup" -> speedup ()
          | "timing" -> timing ()
          | "interp" -> interp_bench ()
          | "campaign" -> campaign_bench ()
          | other ->
            Printf.eprintf
              "unknown experiment %S (try table1 fig10 fig11 fig12 ablation \
               speedup timing interp campaign)\n"
              other;
            exit 2)
        what);
  Printf.printf "\ntotal harness time: %.1f s\n" (Unix.gettimeofday () -. t0)
