(* vulfi — command-line front end to the fault injector.

   Subcommands:
     list       benchmarks in the registry
     compile    compile a mini-ISPC file and print the VIR
     sites      enumerate fault sites of a benchmark or file
     mix        Fig 10-style instruction composition
     inject     run one fault-injection experiment
     campaign   run a full campaign for one benchmark cell
     report     re-aggregate a --trace JSONL file into the tables
     detect     insert error detectors into a file and print the VIR *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let target_conv =
  let parse s =
    match Vir.Target.of_string s with
    | Some t -> Ok t
    | None -> Error (`Msg (Printf.sprintf "unknown target %S (avx|sse)" s))
  in
  Arg.conv (parse, fun fmt t -> Format.pp_print_string fmt (Vir.Target.name t))

let category_conv =
  let parse s =
    match Analysis.Sites.category_of_string s with
    | Some c -> Ok c
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown category %S (pure-data|control|address)" s))
  in
  Arg.conv
    ( parse,
      fun fmt c ->
        Format.pp_print_string fmt (Analysis.Sites.category_name c) )

(* A count that must be at least 1: anything else is a usage error, so
   nothing runs and no trace is written. *)
let positive_int_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let target_arg =
  Arg.(value & opt target_conv Vir.Target.Avx & info [ "t"; "target" ]
         ~docv:"ISA" ~doc:"Vector target: avx (8 x f32) or sse (4 x f32).")

let category_arg =
  Arg.(value & opt category_conv Analysis.Sites.Pure_data
       & info [ "c"; "category" ] ~docv:"CAT"
           ~doc:"Fault-site category: pure-data, control or address.")

let bench_arg =
  Arg.(required & opt (some string) None & info [ "b"; "bench" ]
         ~docv:"NAME" ~doc:"Benchmark name (see $(b,vulfi list)).")

(* sites/mix accept either a registered benchmark or a source file *)
let bench_or_file_arg =
  Arg.(value & opt (some string) None & info [ "b"; "bench" ]
         ~docv:"NAME" ~doc:"Benchmark name (see $(b,vulfi list)).")

let opt_file_arg =
  Arg.(value & opt (some file) None & info [ "f"; "file" ]
         ~docv:"FILE" ~doc:"mini-ISPC source file to analyse instead.")

let find_bench name =
  match Benchmarks.Registry.find name with
  | Some b -> b
  | None ->
    Printf.eprintf "unknown benchmark %S; try: %s\n" name
      (String.concat ", " Benchmarks.Registry.names);
    exit 2

(* ---------------- list ---------------- *)

let list_cmd =
  let run () =
    Printf.printf "%-18s %-6s %-8s %s\n" "Name" "Lang" "Suite" "Test input";
    List.iter
      (fun (b : Benchmarks.Harness.benchmark) ->
        Printf.printf "%-18s %-6s %-8s %s\n"
          b.Benchmarks.Harness.bench.Vulfi.Workload.w_name
          b.Benchmarks.Harness.language b.Benchmarks.Harness.suite
          b.Benchmarks.Harness.input_desc)
      Benchmarks.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the registered benchmarks")
    Term.(const run $ const ())

(* ---------------- compile ---------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"mini-ISPC source file.")

let compile_cmd =
  let run target file =
    match Minispc.Driver.compile target (read_file file) with
    | m -> print_string (Vir.Pp.module_to_string m)
    | exception Minispc.Driver.Error e ->
      Printf.eprintf "%s: %s\n" file (Minispc.Driver.error_to_string e);
      exit 1
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile a mini-ISPC file and print the generated VIR")
    Term.(const run $ target_arg $ file_arg)

(* ---------------- sites ---------------- *)

let module_of_bench_or_file target name file =
  match (name, file) with
  | Some n, None ->
    (find_bench n).Benchmarks.Harness.bench.Vulfi.Workload.w_build target
  | None, Some f -> (
    match Minispc.Driver.compile target (read_file f) with
    | m -> m
    | exception Minispc.Driver.Error e ->
      Printf.eprintf "%s: %s\n" f (Minispc.Driver.error_to_string e);
      exit 1)
  | _ ->
    Printf.eprintf "pass exactly one of --bench or --file\n";
    exit 2

let sites_cmd =
  let run target name file verbose =
    let m = module_of_bench_or_file target name file in
    let targets = Analysis.Sites.targets_of_module m in
    List.iter
      (fun cat ->
        let sel = Analysis.Sites.select targets cat in
        Printf.printf "%-10s %5d target instructions, %6d scalar fault sites\n"
          (Analysis.Sites.category_name cat)
          (List.length sel)
          (Analysis.Sites.total_sites sel);
        if verbose then
          List.iter
            (fun (t : Analysis.Sites.target) ->
              Printf.printf "    [%s/%s] lanes=%d %s\n"
                t.Analysis.Sites.t_func t.Analysis.Sites.t_block
                t.Analysis.Sites.t_lanes
                (Vir.Pp.instr_to_string t.Analysis.Sites.t_instr))
            sel)
      Analysis.Sites.all_categories
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ]
           ~doc:"Print every fault target instruction.")
  in
  Cmd.v
    (Cmd.info "sites"
       ~doc:"Enumerate and classify the fault sites of a benchmark or file")
    Term.(const run $ target_arg $ bench_or_file_arg $ opt_file_arg
          $ verbose)

(* ---------------- mix ---------------- *)

let mix_cmd =
  let run target name file =
    let m = module_of_bench_or_file target name file in
    let census = Analysis.Instmix.census m in
    List.iter
      (fun (cat, mix) ->
        Printf.printf "%-10s %5.1f%% vector (%d vector / %d total)\n"
          (Analysis.Sites.category_name cat)
          (100.0 *. Analysis.Instmix.vector_fraction mix)
          mix.Analysis.Instmix.vector_count
          (Analysis.Instmix.total mix))
      census;
    (* dynamic mix on input 0 when a registered benchmark was given *)
    match name with
    | None -> ()
    | Some n ->
      let w = (find_bench n).Benchmarks.Harness.bench in
      let m2 = w.Vulfi.Workload.w_build target in
      let st = Interp.Machine.create (Interp.Compile.compile_module m2) in
      let args, _ = w.Vulfi.Workload.w_setup ~input:0 st in
      ignore (Interp.Machine.run st w.Vulfi.Workload.w_fn args);
      Printf.printf "%-10s %5.1f%% vector (%d of %d executed)\n" "dynamic"
        (100.0
        *. float_of_int (Interp.Machine.dyn_vector_count st)
        /. float_of_int (max 1 (Interp.Machine.dyn_count st)))
        (Interp.Machine.dyn_vector_count st)
        (Interp.Machine.dyn_count st)
  in
  Cmd.v
    (Cmd.info "mix"
       ~doc:"Scalar/vector instruction composition per category (Fig 10)")
    Term.(const run $ target_arg $ bench_or_file_arg $ opt_file_arg)

(* ---------------- inject ---------------- *)

let inject_cmd =
  let run target category name input site seed =
    let b = find_bench name in
    let w = b.Benchmarks.Harness.bench in
    let p = Vulfi.Experiment.prepare w target category in
    let g = Vulfi.Experiment.golden_run p ~input in
    Printf.printf "golden run: %d dynamic fault sites, %d instructions\n"
      g.Vulfi.Experiment.g_dyn_sites g.Vulfi.Experiment.g_dyn_instrs;
    let site =
      match site with
      | Some s -> s
      | None -> 1 + Random.int (max 1 g.Vulfi.Experiment.g_dyn_sites)
    in
    let r = Vulfi.Experiment.faulty_run p ~golden:g ~dynamic_site:site ~seed in
    (match r.Vulfi.Experiment.r_injection with
    | Some inj ->
      let t = p.Vulfi.Experiment.p_instr.Vulfi.Instrument.site_table.(inj.Vulfi.Runtime.inj_static_site) in
      Printf.printf
        "injected: dynamic site %d = static site %d (lane %d of %s), bit %d\n"
        site inj.Vulfi.Runtime.inj_static_site
        t.Vulfi.Instrument.si_lane
        (Vir.Pp.instr_to_string
           t.Vulfi.Instrument.si_target.Analysis.Sites.t_instr)
        inj.Vulfi.Runtime.inj_bit;
      Printf.printf "value: %s -> %s\n"
        (Interp.Vvalue.to_string inj.Vulfi.Runtime.inj_before)
        (Interp.Vvalue.to_string inj.Vulfi.Runtime.inj_after)
    | None -> Printf.printf "no injection occurred (site beyond trace)\n");
    Printf.printf "outcome: %s\n"
      (Vulfi.Outcome.to_string r.Vulfi.Experiment.r_outcome)
  in
  let input_arg =
    Arg.(value & opt int 0 & info [ "i"; "input" ] ~docv:"N"
           ~doc:"Input index from the benchmark's predefined set.")
  in
  let site_arg =
    Arg.(value & opt (some int) None & info [ "s"; "site" ] ~docv:"N"
           ~doc:"1-based dynamic fault site (default: random).")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Seed for the bit-position choice.")
  in
  Cmd.v
    (Cmd.info "inject" ~doc:"Run a single fault-injection experiment")
    Term.(const run $ target_arg $ category_arg $ bench_arg $ input_arg
          $ site_arg $ seed_arg)

(* ---------------- campaign ---------------- *)

let fault_kind_conv =
  let parse s =
    Result.map_error (fun m -> `Msg m) (Vulfi.Runtime.fault_kind_of_string s)
  in
  Arg.conv
    ( parse,
      fun fmt k ->
        Format.pp_print_string fmt (Vulfi.Runtime.fault_kind_name k) )

(* Print one campaign cell the way `campaign` does; `report` replays the
   same lines from a trace, so the two outputs diff clean. *)
let print_cell ~detectors (r : Vulfi.Campaign.result) =
  print_endline (Vulfi.Report.fig11_row r);
  if detectors then print_endline (Vulfi.Report.fig12_row r);
  Printf.printf
    "static sites: %d; avg dynamic sites: %.0f; avg dynamic instrs: %.0f\n"
    r.Vulfi.Campaign.c_static_sites r.Vulfi.Campaign.c_avg_dynamic_sites
    r.Vulfi.Campaign.c_avg_dynamic_instrs

let campaign_cmd =
  let run target category name experiments campaigns with_detectors
      fault_kind jobs trace trace_timings legacy ff prune no_fusion =
    if no_fusion then Interp.Compile.fusion := false;
    (* executor flags are mutually exclusive, pairwise *)
    List.iter
      (fun (a, b, msg) ->
        if a && b then begin
          prerr_endline ("vulfi campaign: " ^ msg ^ " are mutually exclusive");
          exit 2
        end)
      [
        (legacy, ff, "--legacy-executor and --ff-executor");
        (legacy, prune, "--legacy-executor and --prune-executor");
        (ff, prune, "--ff-executor and --prune-executor");
      ];
    let b = find_bench name in
    let cfg =
      {
        Vulfi.Campaign.experiments_per_campaign = experiments;
        min_campaigns = min 3 campaigns;
        max_campaigns = campaigns;
        margin_target = 0.03;
        seed = 0xC0FFEE;
      }
    in
    (* The seed schedule makes -j N bit-identical to a sequential run. *)
    let executor =
      if legacy then Vulfi.Campaign.Legacy
      else if ff then Vulfi.Campaign.Fast_forward
      else if prune then Vulfi.Campaign.Converge_pruned
      else Vulfi.Campaign.Checkpointed
    in
    let sink =
      Option.map (fun f -> Vulfi.Trace.to_file ~timings:trace_timings f) trace
    in
    Fun.protect
      ~finally:(fun () -> Option.iter Vulfi.Trace.close sink)
      (fun () ->
        let transform, hooks =
          if with_detectors then
            ( Some
                (Detectors.Overhead.transform
                   Detectors.Overhead.paper_detectors),
              Some Detectors.Runtime.hooks )
          else (None, None)
        in
        let r =
          Vulfi.Campaign.run ?transform ?hooks ~fault_kind ?sink ~executor
            ~jobs cfg b.Benchmarks.Harness.bench target category
        in
        print_cell ~detectors:with_detectors r)
  in
  let experiments_arg =
    Arg.(value & opt positive_int_conv 100 & info [ "n"; "experiments" ]
           ~docv:"N"
           ~doc:"Experiments per campaign (paper: 100).")
  in
  let campaigns_arg =
    Arg.(value & opt positive_int_conv 20 & info [ "campaigns" ] ~docv:"N"
           ~doc:"Maximum campaigns (paper: 20).")
  in
  let detectors_arg =
    Arg.(value & flag & info [ "detectors" ]
           ~doc:"Insert the foreach loop-invariant detectors first.")
  in
  let fault_kind_arg =
    Arg.(value & opt fault_kind_conv Vulfi.Runtime.Single_bit_flip
         & info [ "fault-kind" ] ~docv:"KIND"
             ~doc:"Fault model: single (paper), Nbit, random, zero.")
  in
  let jobs_arg =
    Arg.(value & opt positive_int_conv 1 & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Fan experiments out across $(docv) domains \
                 (deterministic: results are identical to -j 1).")
  in
  let trace_arg =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write one JSONL telemetry record per experiment (plus a \
                 per-cell summary) to $(docv); replay with \
                 $(b,vulfi report).")
  in
  let trace_timings_arg =
    Arg.(value & flag & info [ "trace-timings" ]
           ~doc:"Record per-experiment wall times in the trace (makes the \
                 trace machine-dependent, so sequential and -j N traces \
                 no longer compare byte-for-byte).")
  in
  let legacy_arg =
    Arg.(value & flag & info [ "legacy-executor" ]
           ~doc:"Run the paper's literal two-runs-per-experiment \
                 protocol (a fresh profiling run and machine before \
                 every faulty run) instead of the checkpointed executor \
                 (memoized golden runs + post-setup memory snapshots). \
                 Bit-identical output; exists for cross-checking and \
                 timing comparisons.")
  in
  let ff_arg =
    Arg.(value & flag & info [ "ff-executor" ]
           ~doc:"Run the fast-forward executor: machine-state \
                 checkpoints (memory, live registers, call stack, \
                 counters) laid at the scheduled injection sites during \
                 one golden replay per input; each faulty run resumes \
                 from the nearest checkpoint at or before its site and \
                 executes only the suffix. Bit-identical output.")
  in
  let prune_arg =
    Arg.(value & flag & info [ "prune-executor" ]
           ~doc:"Run the converge-pruned executor: fast-forward resume, \
                 with the suffix on the hot path and a convergence check \
                 fired from its extern calls at every later checkpoint \
                 site (counters, call stack, live registers, the whole \
                 memory image); a faulty run that re-converges with the \
                 golden run terminates immediately and splices the \
                 golden outcome. Bit-identical output.")
  in
  let no_fusion_arg =
    Arg.(value & flag & info [ "no-fusion" ]
           ~doc:"Compile without superblock fusion: every chain runs \
                 one closure per member. Fusion only changes how the \
                 hot path is lowered, never what it computes, so \
                 results and traces are byte-identical either way; the \
                 flag exists for cross-checking and timing comparisons.")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run a statistically sized fault-injection campaign")
    Term.(const run $ target_arg $ category_arg $ bench_arg
          $ experiments_arg $ campaigns_arg $ detectors_arg
          $ fault_kind_arg $ jobs_arg $ trace_arg $ trace_timings_arg
          $ legacy_arg $ ff_arg $ prune_arg $ no_fusion_arg)

(* ---------------- report ---------------- *)

let report_cmd =
  let run file =
    let records =
      let ic = open_in file in
      let rec go acc lineno =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | "" -> go acc (lineno + 1)
        | line -> (
          match Vulfi.Json.of_string line with
          | j -> go (j :: acc) (lineno + 1)
          | exception Vulfi.Json.Parse_error msg ->
            close_in ic;
            Printf.eprintf "%s:%d: %s\n" file lineno msg;
            exit 1)
      in
      let r = go [] 1 in
      close_in ic;
      r
    in
    match Vulfi.Report.replay_of_trace records with
    | Error msg ->
      Printf.eprintf "%s: %s\n" file msg;
      exit 1
    | Ok replays ->
      let ok = ref true in
      List.iter
        (fun (rp : Vulfi.Report.replay) ->
          let r = rp.Vulfi.Report.rp_result in
          match rp.Vulfi.Report.rp_summary with
          | `Match -> print_cell ~detectors:rp.Vulfi.Report.rp_detectors r
          | `Missing ->
            (* A cut trace, as a killed campaign leaves it. Only the
               summary record carries the static-site count and the
               golden averages, so there is no row to print. *)
            Printf.eprintf
              "%s: cell %s %s %s is incomplete: %d experiment records and \
               no summary record\n"
              file r.Vulfi.Campaign.c_workload
              (Vir.Target.name r.Vulfi.Campaign.c_target)
              (Analysis.Sites.category_name r.Vulfi.Campaign.c_category)
              r.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_experiments;
            ok := false
          | `Mismatch fields ->
            print_cell ~detectors:rp.Vulfi.Report.rp_detectors r;
            Printf.eprintf
              "%s: cell %s summary disagrees with the replay on: %s\n" file
              r.Vulfi.Campaign.c_workload fields;
            ok := false)
        replays;
      if not !ok then exit 1
  in
  let trace_file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE"
           ~doc:"JSONL trace written by $(b,--trace).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Re-aggregate a JSONL telemetry trace into the Fig 11/12 tables \
          (byte-identical to the live campaign output)")
    Term.(const run $ trace_file_arg)

(* ---------------- detect ---------------- *)

let detect_cmd =
  let run target file with_uniform =
    match Minispc.Driver.compile target (read_file file) with
    | m ->
      let n = Detectors.Foreach_invariants.run m in
      let n2 = if with_uniform then Detectors.Uniform_xor.run m else 0 in
      Printf.eprintf "; inserted %d foreach detector(s), %d uniform check(s)\n"
        n n2;
      print_string (Vir.Pp.module_to_string m)
    | exception Minispc.Driver.Error e ->
      Printf.eprintf "%s: %s\n" file (Minispc.Driver.error_to_string e);
      exit 1
  in
  let uniform_arg =
    Arg.(value & flag & info [ "uniform" ]
           ~doc:"Also insert the uniform-broadcast XOR detectors.")
  in
  Cmd.v
    (Cmd.info "detect"
       ~doc:"Insert compiler-derived error detectors and print the VIR")
    Term.(const run $ target_arg $ file_arg $ uniform_arg)

(* ---------------- opt ---------------- *)

(* Load a module from either mini-ISPC source (.ispc) or textual VIR
   (.vir / anything starting with "define"/"declare"/";"). *)
let load_module target file =
  let src = read_file file in
  let looks_like_vir =
    let trimmed = String.trim src in
    List.exists
      (fun p ->
        String.length trimmed >= String.length p
        && String.sub trimmed 0 (String.length p) = p)
      [ "define"; "declare"; ";" ]
  in
  if looks_like_vir || Filename.check_suffix file ".vir" then
    try Vir.Parse.parse_module src
    with Vir.Parse.Parse_error (msg, line) ->
      Printf.eprintf "%s:%d: %s\n" file line msg;
      exit 1
  else
    try Minispc.Driver.compile target src
    with Minispc.Driver.Error e ->
      Printf.eprintf "%s: %s\n" file (Minispc.Driver.error_to_string e);
      exit 1

(* The fusion decisions [Interp.Compile] takes on [m]: chains fused,
   their length histogram, and the member kinds of the chains no kernel
   covers. *)
let print_fusion_stats m =
  let cm = Interp.Compile.compile_module m in
  Printf.eprintf "; fused chains: %d\n" (Interp.Compile.fused_chain_count cm);
  List.iter
    (fun (len, n) -> Printf.eprintf ";   chain length %d: %d\n" len n)
    (Interp.Compile.fused_length_hist cm);
  List.iter
    (fun (shape, n) -> Printf.eprintf ";   unfused %s: %d\n" shape n)
    (Interp.Compile.unfused_shapes cm)

let opt_cmd =
  let run target file do_dce do_verify =
    let m = load_module target file in
    if do_dce then
      Printf.eprintf "; dce: %d removed\n" (Vir.Dce.run_module m);
    if do_verify then begin
      match Vir.Verify.verify_module m with
      | [] ->
        Printf.eprintf "; verify: ok\n";
        print_fusion_stats m
      | errs ->
        List.iter
          (fun e -> Printf.eprintf "%s\n" (Vir.Verify.error_to_string e))
          errs;
        exit 1
    end;
    print_string (Vir.Pp.module_to_string m)
  in
  let dce_arg =
    Arg.(value & flag & info [ "dce" ] ~doc:"Run dead-code elimination.")
  in
  let verify_arg =
    Arg.(value & flag & info [ "verify" ]
           ~doc:"Verify and report; a module that verifies is then \
                 compiled and its fusion decisions reported (chains \
                 fused, chain lengths, the shapes of unfused chains).")
  in
  Cmd.v
    (Cmd.info "opt"
       ~doc:
         "Load mini-ISPC source or textual VIR, run passes, print the VIR \
          (an opt-style pipeline)")
    Term.(const run $ target_arg $ file_arg $ dce_arg $ verify_arg)

let () =
  let doc = "vector-oriented LLVM-style fault injector (VULFI reproduction)" in
  let info = Cmd.info "vulfi" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; compile_cmd; sites_cmd; mix_cmd; inject_cmd;
            campaign_cmd; report_cmd; detect_cmd; opt_cmd ]))
