(* Campaign benchmark: one closed-loop batch of a Fig 11/12 sweep on one
   domain, with a converge-pruned executor request, its outputs checked
   cell by cell against the paper-protocol executor.

     main.exe --workload W --seed N --seconds S --trace 0|1
              [--write-reference]

   --trace 0 prints the end-to-end metrics; --trace 1 replays the sweep
   once more with in-memory spans around every public stage and prints
   the per-layer metrics. The last stdout line is the JSON result.
   README.md describes the metrics and workloads. *)

open Perfbench

let default_seed = 0xC0FFEE
let requested = Vulfi.Campaign.Converge_pruned
let setup_passes = 3
let reference_dir = Filename.concat "perfbench" "reference"

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let now = Unix.gettimeofday

(* Campaign.quick_config, except that every cell runs exactly its
   minimum of campaigns. The stopping rule otherwise runs 4 to 8
   campaigns per cell depending on the seed, and that mix alone moved
   exps_per_s by up to 20% between seeds. *)
let config seed =
  let q = Vulfi.Campaign.quick_config in
  { q with Vulfi.Campaign.seed; max_campaigns = q.Vulfi.Campaign.min_campaigns }

let experiments results =
  List.fold_left
    (fun acc (r : Vulfi.Campaign.result) ->
      acc + r.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_experiments)
    0 results

(* One untraced sweep through Campaign.run_cells, as a user runs it. *)
type sweep = {
  results : Vulfi.Campaign.result list;
  digests : Reference.cell list;
  seconds : float;
  trace_bytes : int;
}

let sweep ?(executor = requested) ?(jobs = 1) (wl : Workloads.t) cfg =
  let buf = Buffer.create (1 lsl 21) in
  let sink = Vulfi.Trace.to_buffer buf in
  let t0 = now () in
  let results =
    Vulfi.Campaign.run_cells ?transform:wl.transform ?hooks:wl.hooks ~sink
      ~executor ~jobs cfg wl.cells
  in
  let seconds = now () -. t0 in
  Vulfi.Trace.close sink;
  let trace = Buffer.contents buf in
  {
    results;
    digests =
      Reference.of_sweep ~detectors:(Workloads.detectors wl) wl.cells results
        ~trace;
    seconds;
    trace_bytes = String.length trace;
  }

let reference_path (wl : Workloads.t) =
  Filename.concat reference_dir (wl.name ^ ".txt")

(* The paper-protocol digests for [seed]: stored for the default seed,
   otherwise built here with the Legacy executor after the timed phase,
   on both cores (results are identical at any -j). *)
let reference (wl : Workloads.t) cfg seed =
  if seed = default_seed then
    (Reference.read (reference_path wl), "stored legacy reference")
  else
    ( (sweep ~executor:Vulfi.Campaign.Legacy ~jobs:2 wl cfg).digests,
      "legacy reference built for this seed" )

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* ------------------------------------------------------------------ *)
(* Metric output                                                       *)

type value = Count of int | Real of float

let print_metric (name, unit_, v) =
  match v with
  | Count n -> Printf.printf "  %-34s %14d %s\n" name n unit_
  | Real x -> Printf.printf "  %-34s %14.6g %s\n" name x unit_

let result_line ~correct ~attempted ~failed metrics =
  let value = function
    | Count n -> Vulfi.Json.Int n
    | Real x when Float.is_finite x -> Vulfi.Json.Float x
    | Real _ -> Vulfi.Json.Null
  in
  Vulfi.Json.to_string
    (Vulfi.Json.Obj
       [
         ("correct", Vulfi.Json.Bool correct);
         ("attempted", Vulfi.Json.Int attempted);
         ("failed", Vulfi.Json.Int failed);
         ( "metrics",
           Vulfi.Json.Obj
             (List.map
                (fun (name, unit_, v) ->
                  ( name,
                    Vulfi.Json.Obj
                      [
                        ("value", value v); ("unit", Vulfi.Json.String unit_);
                      ] ))
                metrics) );
       ])

let finish ~correct ~attempted ~failed metrics =
  Printf.printf "failed_frac: %d / %d cells = %g\n" failed attempted
    (float_of_int failed /. float_of_int (max 1 attempted));
  print_endline (result_line ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Untraced run: end-to-end metrics                                    *)

let setup_seconds (wl : Workloads.t) =
  List.init setup_passes (fun _ ->
      let t0 = now () in
      List.iter
        (fun (w, target, cat) ->
          ignore (Vulfi.Experiment.prepare ?transform:wl.transform w target cat))
        wl.cells;
      now () -. t0)

let rate s = float_of_int (experiments s.results) /. s.seconds

let untraced (wl : Workloads.t) cfg seed ~seconds =
  let setups = setup_seconds wl in
  let t0 = now () in
  let first = sweep wl cfg in
  let second = sweep wl cfg in
  (* The high-water mark after exactly two sweeps: the first sweep's peak
     depends on where major collections happen to fall, the second one
     settles into the heap the first left. A fixed count keeps it
     independent of how many sweeps fit into the time budget. *)
  let heap = peak_heap_mb () in
  let rec more acc =
    if now () -. t0 < seconds then more (sweep wl cfg :: acc) else List.rev acc
  in
  let sweeps = first :: second :: more [] in
  let expected, source = reference wl cfg seed in
  let failed =
    List.fold_left
      (fun acc s -> acc + Reference.mismatches ~expected ~actual:s.digests)
      0 sweeps
  in
  let attempted = List.length sweeps * List.length wl.cells in
  Printf.printf
    "%d sweeps of %d cells, %d experiments each, checked against %s\n"
    (List.length sweeps) (List.length wl.cells)
    (experiments first.results) source;
  Printf.printf "sweep rates: %s experiments/s\n"
    (String.concat " "
       (List.map (fun s -> Printf.sprintf "%.1f" (rate s)) sweeps));
  let metrics =
    [
      ("exps_per_s", "1/s", Real (Stats.median (List.map rate sweeps)));
      ("setup_s", "s", Real (Stats.median setups));
      ("peak_heap_mb", "MB", Real heap);
    ]
  in
  List.iter print_metric metrics;
  finish ~correct:(failed = 0) ~attempted ~failed metrics

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer metrics                                       *)

(* (input, site key) of each experiment in a cell's first [campaigns]
   campaigns, in schedule order. *)
let draws cfg (w, target, category) ~campaigns =
  let key =
    Vulfi.Seed.cell ~seed:cfg.Vulfi.Campaign.seed
      ~workload:w.Vulfi.Workload.w_name ~target ~category
  in
  List.concat_map
    (fun campaign ->
      List.init cfg.Vulfi.Campaign.experiments_per_campaign (fun experiment ->
          let ex = Vulfi.Seed.experiment key ~campaign ~experiment in
          ( Vulfi.Seed.uniform ex.Vulfi.Seed.input_key
              w.Vulfi.Workload.w_inputs,
            ex.Vulfi.Seed.site_key )))
    (List.init campaigns Fun.id)

(* The inputs whose golden runs a cell that ran [campaigns] campaigns
   performed. *)
let drawn_inputs cfg cell ~campaigns =
  List.sort_uniq compare (List.map fst (draws cfg cell ~campaigns))

(* The checkpoint plan of one input: every site the full schedule draws
   for it, as Experiment.checkpoint_plan thins them. *)
let plan_for cfg cell ~input ~dyn_sites =
  if dyn_sites <= 0 then [||]
  else
    draws cfg cell ~campaigns:cfg.Vulfi.Campaign.max_campaigns
    |> List.filter_map (fun (i, site_key) ->
           if i = input then Some (1 + Vulfi.Seed.uniform site_key dyn_sites)
           else None)
    |> Vulfi.Experiment.checkpoint_plan

(* Counters the traced pass accumulates over all cells. *)
type counts = {
  mutable static_sites : int;
  mutable chains_fused : int;
  mutable golden_runs : int;
  mutable golden_instrs : int;
  mutable checkpoints : int;
  mutable checkpoint_words : int;
  mutable setup_alloc : float;  (** bytes: prepare + golden + laying *)
  mutable golden_alloc : float;
  mutable campaign_alloc : float;
  mutable prunes : int;
  mutable prune_checks : int;
  mutable prunable : int;
  mutable experiments : int;
  mutable walls_ms : float list;
  mutable campaign_self : float;
}

let allocating f =
  let a0 = Gc.allocated_bytes () in
  let v = f () in
  (v, Gc.allocated_bytes () -. a0)

let wall_times records =
  List.filter_map
    (fun j ->
      match Vulfi.Json.member "type" j with
      | Some (Vulfi.Json.String "experiment") ->
        Option.bind (Vulfi.Json.member "wall_s" j) Vulfi.Json.get_float
      | _ -> None)
    records

let mismatch fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: traced run diverges: " ^ s);
      exit 1)
    fmt

(* One cell of the traced pass. Experiment.prepare runs in full, then
   its public stages are re-run on the side to split it; the golden
   runs and checkpoint plans the campaign will perform are replayed on
   the side the same way; then Campaign.run_cells runs the cell with a
   timings sink, whose per-experiment wall times are the faulty runs. *)
let traced_cell sp (wl : Workloads.t) cfg ~uses_ff n cell
    (untraced : Vulfi.Campaign.result) =
  let w, target, cat = cell in
  let span name f = Spans.record sp name f in
  let side = ref 0.0 in
  let timed_side name f =
    let t0 = now () in
    let v = span name f in
    side := !side +. (now () -. t0);
    v
  in
  let p, a =
    allocating (fun () ->
        timed_side "experiment.prepare" (fun () ->
            Vulfi.Experiment.prepare ?transform:wl.transform w target cat))
  in
  n.setup_alloc <- n.setup_alloc +. a;
  let m = span "minispc.build" (fun () -> w.Vulfi.Workload.w_build target) in
  (* Without detectors this stage is prepare's identity transform. *)
  let m =
    span "detectors.transform" (fun () ->
        (Option.value wl.transform ~default:Fun.id) m)
  in
  let instr =
    span "instrument.run" (fun () ->
        Vulfi.Instrument.run m
          (Analysis.Sites.select (Analysis.Sites.targets_of_module m) cat))
  in
  n.static_sites <- n.static_sites + Vulfi.Instrument.static_site_count instr;
  let code =
    span "interp.compile" (fun () ->
        Interp.Compile.compile_module
          p.Vulfi.Experiment.p_instr.Vulfi.Instrument.instrumented)
  in
  n.chains_fused <- n.chains_fused + Interp.Compile.fused_chain_count code;
  let inputs =
    drawn_inputs cfg cell ~campaigns:untraced.Vulfi.Campaign.c_campaigns
  in
  if List.length inputs <> untraced.Vulfi.Campaign.c_golden_runs then
    mismatch "%s: %d drawn inputs, campaign reports %d golden runs"
      (Workloads.label cell) (List.length inputs)
      untraced.Vulfi.Campaign.c_golden_runs;
  let laid = ref 0 and cell_words = ref 0 in
  List.iter
    (fun input ->
      let hooks () = Option.map (fun f -> f ()) wl.hooks in
      let pi, a =
        allocating (fun () ->
            timed_side "experiment.prepare_input" (fun () ->
                Vulfi.Experiment.prepare_input ?hooks:(hooks ()) p ~input))
      in
      let g = pi.Vulfi.Experiment.pi_golden in
      n.golden_runs <- n.golden_runs + 1;
      n.golden_instrs <- n.golden_instrs + g.Vulfi.Experiment.g_dyn_instrs;
      n.golden_alloc <- n.golden_alloc +. a;
      n.setup_alloc <- n.setup_alloc +. a;
      (* An executor that does not resume lays nothing: its plan is
         empty, which lay_checkpoints answers without a replay. *)
      let plan =
        if uses_ff then
          plan_for cfg cell ~input ~dyn_sites:g.Vulfi.Experiment.g_dyn_sites
        else [||]
      in
      let ff, a =
        allocating (fun () ->
            timed_side "experiment.lay_checkpoints" (fun () ->
                Vulfi.Experiment.lay_checkpoints ?hooks:(hooks ()) p ~pi ~plan))
      in
      n.setup_alloc <- n.setup_alloc +. a;
      laid := !laid + Array.length ff.Vulfi.Experiment.ff_checkpoints;
      (* Words reachable from the checkpoints but not from the prepared
         input (which owns the machine they alias). *)
      if uses_ff then
        span "bench.heap_census" (fun () ->
            cell_words :=
              !cell_words
              + Obj.reachable_words (Obj.repr (pi, ff))
              - Obj.reachable_words (Obj.repr pi)))
    inputs;
  (* A campaign holds all of a cell's checkpoints at once and drops them
     with the cell, so the largest cell's set is what the heap peak sees. *)
  n.checkpoint_words <- max n.checkpoint_words !cell_words;
  if uses_ff && !laid <> untraced.Vulfi.Campaign.c_checkpoints then
    mismatch "%s: laid %d checkpoints, campaign reports %d"
      (Workloads.label cell) !laid untraced.Vulfi.Campaign.c_checkpoints;
  n.checkpoints <- n.checkpoints + !laid;
  Vulfi.Experiment.reset_prune_stats ();
  let buf = Buffer.create (1 lsl 18) in
  let sink = Vulfi.Trace.to_buffer ~timings:true buf in
  let t0 = now () in
  let results, a =
    allocating (fun () ->
        span "campaign.run" (fun () ->
            Vulfi.Campaign.run_cells ?transform:wl.transform ?hooks:wl.hooks
              ~sink ~executor:requested ~jobs:1 cfg [ cell ]))
  in
  let campaign_s = now () -. t0 in
  Vulfi.Trace.close sink;
  n.campaign_alloc <- n.campaign_alloc +. a;
  let prunes, checks = Vulfi.Experiment.prune_stats () in
  n.prunes <- n.prunes + prunes;
  n.prune_checks <- n.prune_checks + checks;
  let r = match results with [ r ] -> r | _ -> assert false in
  if compare r untraced <> 0 then
    mismatch "%s: Campaign.result differs from the untraced run"
      (Workloads.label cell);
  n.prunable <- n.prunable + r.Vulfi.Campaign.c_pruned;
  n.experiments <-
    n.experiments + r.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_experiments;
  let records, replay =
    span "report.replay" (fun () ->
        let records =
          String.split_on_char '\n' (Buffer.contents buf)
          |> List.filter (fun l -> l <> "")
          |> List.map Vulfi.Json.of_string
        in
        (records, Vulfi.Report.replay_of_trace records))
  in
  (match replay with
  | Ok [ { Vulfi.Report.rp_summary = `Match; _ } ] -> ()
  | Ok _ -> mismatch "%s: replayed trace disagrees" (Workloads.label cell)
  | Error e -> mismatch "%s: trace replay failed: %s" (Workloads.label cell) e);
  let walls = wall_times records in
  n.walls_ms <- List.rev_append (List.map (fun s -> s *. 1e3) walls) n.walls_ms;
  (* Campaign.run's children are the stages re-run on the side above
     (standing for the in-run prepare, golden runs and checkpoint laying)
     and the faulty runs, which execute one after another on one domain. *)
  n.campaign_self <-
    n.campaign_self +. campaign_s -. !side -. List.fold_left ( +. ) 0.0 walls

let traced (wl : Workloads.t) cfg seed =
  let detectors = Workloads.detectors wl in
  let effective = Vulfi.Campaign.effective_executor ~detectors requested in
  let uses_ff =
    match effective with
    | Vulfi.Campaign.Fast_forward | Converge_pruned -> true
    | Legacy | Checkpointed -> false
  in
  let u = sweep wl cfg in
  let expected, source = reference wl cfg seed in
  let failed = Reference.mismatches ~expected ~actual:u.digests in
  let n =
    {
      static_sites = 0; chains_fused = 0; golden_runs = 0; golden_instrs = 0;
      checkpoints = 0; checkpoint_words = 0; setup_alloc = 0.0;
      golden_alloc = 0.0; campaign_alloc = 0.0; prunes = 0; prune_checks = 0;
      prunable = 0; experiments = 0; walls_ms = []; campaign_self = 0.0;
    }
  in
  let sp = Spans.create () in
  Spans.record sp "traced" (fun () ->
      List.iter2
        (fun cell r ->
          Spans.record sp "cell" (fun () ->
              traced_cell sp wl cfg ~uses_ff n cell r))
        wl.cells u.results);
  let spans = Spans.spans sp in
  let root = List.find (fun s -> s.Spans.name = "traced") spans in
  (* Time inside the traced pass that no stage span accounts for: the
     self time of the root and of each cell span. *)
  let glue =
    List.fold_left
      (fun acc s ->
        if s.Spans.name = "traced" || s.Spans.name = "cell" then
          acc +. Spans.self_time s (Spans.children spans s)
        else acc)
      0.0 spans
  in
  let wall = Spans.duration root in
  if glue > 0.05 *. wall then
    mismatch "stage spans cover only %.1f%% of the %.2f s traced wall time"
      (100.0 *. (1.0 -. (glue /. wall)))
      wall;
  let total = Spans.total_named spans in
  let prepare_s = total "experiment.prepare" in
  let walls = Stats.sorted n.walls_ms in
  let n_walls = Array.length walls in
  let tail =
    match Stats.tail_percentile ~n:n_walls with
    | Some pm -> pm
    | None -> mismatch "only %d faulty-run samples" n_walls
  in
  if tail < 990 then
    mismatch "%d faulty-run samples cannot support a p99" n_walls;
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let golden_instrs = float_of_int n.golden_instrs in
  let metrics =
    [
      ("minispc.build_s", "s", Real (total "minispc.build"));
      ("detectors.transform_s", "s", Real (total "detectors.transform"));
      ("instrument.run_s", "s", Real (total "instrument.run"));
      ("instrument.static_sites", "count", Count n.static_sites);
      ("interp.compile_s", "s", Real (total "interp.compile"));
      ("interp.chains_fused", "count", Count n.chains_fused);
      ("experiment.prepare_s", "s", Real prepare_s);
      ( "passes.self_s", "s",
        Real
          (prepare_s -. total "minispc.build" -. total "detectors.transform"
          -. total "instrument.run" -. total "interp.compile") );
      ("experiment.prepare_input_s", "s", Real (total "experiment.prepare_input"));
      ("experiment.golden_runs", "count", Count n.golden_runs);
      ( "interp.golden_minstr_per_s", "Minstr/s",
        Real (golden_instrs /. total "experiment.prepare_input" /. 1e6) );
      ("interp.alloc_bytes_per_instr", "B/instr", Real (n.golden_alloc /. golden_instrs));
      ( "experiment.lay_checkpoints_s", "s",
        Real (total "experiment.lay_checkpoints") );
      ("experiment.checkpoints_laid", "count", Count n.checkpoints);
      ( "experiment.checkpoint_heap_mb", "MB",
        Real (float_of_int (n.checkpoint_words * (Sys.word_size / 8)) /. 1e6) );
      ("experiment.faulty_runs", "count", Count n_walls);
      ("experiment.faulty_run_ms.p50", "ms", Real (Stats.percentile walls 500));
      ("experiment.faulty_run_ms.p99", "ms", Real (Stats.percentile walls 990));
      ( "experiment.alloc_bytes_per_exp", "B/exp",
        Real ((n.campaign_alloc -. n.setup_alloc) /. float_of_int n.experiments)
      );
      ("experiment.prunes", "count", Count n.prunes);
      ("experiment.prune_checks", "count", Count n.prune_checks);
      ("experiment.prune_yield", "ratio", Real (ratio n.prunes n.prune_checks));
      ("experiment.prune_coverage", "ratio", Real (ratio n.prunes n.prunable));
      ("campaign.self_s", "s", Real n.campaign_self);
      ( "trace.bytes_per_exp", "B/exp",
        Real (float_of_int u.trace_bytes /. float_of_int n.experiments) );
      ("report.replay_s", "s", Real (total "report.replay"));
    ]
  in
  Printf.printf "traced pass: %.3f s wall, %.1f%% covered by stage spans; \
                 checked against %s\n"
    wall (100.0 *. (1.0 -. (glue /. wall))) source;
  Printf.printf "faulty runs: p50 %.4f ms, %s %.4f ms (n = %d)\n"
    (Stats.percentile walls 500) (Stats.percentile_name tail)
    (Stats.percentile walls tail) n_walls;
  Printf.printf
    "tracing overhead: Campaign.run %.3f s traced vs %.3f s untraced sweep\n"
    (total "campaign.run") u.seconds;
  List.iter print_metric metrics;
  finish ~correct:(failed = 0) ~attempted:(List.length wl.cells) ~failed
    metrics

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref None and seed = ref default_seed and seconds = ref 10.0 in
  let trace = ref false and write_reference = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      workload := Some w;
      parse rest
    | "--seed" :: s :: rest -> (
      match int_of_string_opt s with
      | Some n ->
        seed := n;
        parse rest
      | None -> fail "--seed expects an integer, got %S" s)
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some x when x > 0.0 ->
        seconds := x;
        parse rest
      | _ -> fail "--seconds expects a positive number, got %S" s)
    | "--trace" :: ("0" | "1" as t) :: rest ->
      trace := t = "1";
      parse rest
    | "--write-reference" :: rest ->
      write_reference := true;
      parse rest
    | arg :: _ -> fail "unexpected argument %S" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  let wl =
    match !workload with
    | None -> fail "--workload is required"
    | Some name -> (
      match Workloads.find name with
      | Some wl -> wl
      | None ->
        fail "unknown workload %S (known: %s)" name
          (String.concat ", "
             (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)))
  in
  let cfg = config !seed in
  let effective =
    Vulfi.Campaign.effective_executor ~detectors:(Workloads.detectors wl)
      requested
  in
  Printf.printf "workload %s, seed %d: %d cells, executor %s (requested %s)\n%!"
    wl.name !seed (List.length wl.cells)
    (Vulfi.Campaign.executor_name effective)
    (Vulfi.Campaign.executor_name requested);
  if !write_reference then begin
    if !seed <> default_seed then fail "references are stored for the default seed only";
    let s = sweep ~executor:Vulfi.Campaign.Legacy wl cfg in
    Reference.write (reference_path wl) s.digests;
    Printf.printf "wrote %s (%d cells)\n" (reference_path wl)
      (List.length s.digests)
  end
  else if !trace then traced wl cfg !seed
  else untraced wl cfg !seed ~seconds:!seconds
