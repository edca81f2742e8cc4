(** Campaign telemetry: one structured JSONL record per experiment plus
    a per-cell summary record, written through an ordered sink.

    Determinism contract: with [timings] off (the default) every record
    is a pure function of the campaign configuration and the seed
    schedule, so the trace [Campaign.run] produces is byte-identical at
    any [jobs]. The driver guarantees ordering — workers buffer their
    results and the (sequential) protocol loop emits them in experiment
    order. Per-experiment wall time is inherently nondeterministic, so
    it is an opt-in sink feature ([timings:true]) rather than a default
    field. *)

(* v2 added the checkpointing counters [golden_runs]/[golden_reused] to
   the summary record; v3 added the fast-forward counters
   [checkpoints]/[ff_resumed]; v4 adds the convergence-pruning counters
   [pruned]/[prune_checks]. Older v4 writers also stamped an optional
   [executor] header field when detectors degraded the requested
   executor; readers ignore it.
   All six counters are derived from the seed schedule (distinct inputs
   drawn, scheduled injection sites), not from physical cache or
   executor behaviour, so all executors write identical traces.
   [report] accepts v1 through v4. *)
let schema = "vulfi-trace-v4"

let schema_v1 = "vulfi-trace-v1"

let schema_v2 = "vulfi-trace-v2"

let schema_v3 = "vulfi-trace-v3"

type sink = {
  s_emit : Json.t -> unit;
  s_close : unit -> unit;
  s_timings : bool;
}

let emit s j = s.s_emit j
let close s = s.s_close ()
let timings s = s.s_timings

let header_record =
  Json.Obj [ ("type", Json.String "header"); ("schema", Json.String schema) ]

let make ?(timings = false) ~emit:e ~close:c () =
  let s = { s_emit = e; s_close = c; s_timings = timings } in
  e header_record;
  s

let to_file ?timings path =
  let oc = open_out path in
  make ?timings
    ~emit:(fun j ->
      output_string oc (Json.to_string j);
      output_char oc '\n')
    ~close:(fun () -> close_out oc)
    ()

let to_buffer ?timings buf =
  make ?timings
    ~emit:(fun j ->
      Buffer.add_string buf (Json.to_string j);
      Buffer.add_char buf '\n')
    ~close:(fun () -> ())
    ()

(* JSON has no non-finite numbers; the margin is [infinity] until a
   second campaign exists. *)
let num f = if Float.is_finite f then Json.Float f else Json.Null

let experiment_record ~workload ~target ~category ~campaign ~experiment
    ~input ~golden_sites ~(result : Experiment.run_result) ?wall_s () :
    Json.t =
  let outcome_fields =
    match result.Experiment.r_outcome with
    | Outcome.Crash k ->
      [
        ("outcome", Json.String "crash");
        ("trap", Json.String (Interp.Trap.to_string k));
      ]
    | o -> [ ("outcome", Json.String (Outcome.name o)) ]
  in
  let injection_fields =
    match result.Experiment.r_injection with
    | None ->
      [
        ("static_site", Json.Null);
        ("dynamic_site", Json.Null);
        ("bit", Json.Null);
      ]
    | Some inj ->
      [
        ("static_site", Json.Int inj.Runtime.inj_static_site);
        ("dynamic_site", Json.Int inj.Runtime.inj_dynamic_site);
        (* -1 marks whole-register fault kinds (random value, stuck-at) *)
        ("bit", Json.Int inj.Runtime.inj_bit);
      ]
  in
  Json.Obj
    ([
       ("type", Json.String "experiment");
       ("workload", Json.String workload);
       ("target", Json.String (Vir.Target.name target));
       ("category", Json.String (Analysis.Sites.category_name category));
       ("campaign", Json.Int campaign);
       ("experiment", Json.Int experiment);
       ("input", Json.Int input);
       ("golden_sites", Json.Int golden_sites);
     ]
    @ outcome_fields @ injection_fields
    @ [
        ("detected", Json.Bool result.Experiment.r_detected);
        ("dyn_instrs", Json.Int result.Experiment.r_dyn_instrs);
      ]
    @ match wall_s with None -> [] | Some w -> [ ("wall_s", num w) ])

let summary_record ~workload ~target ~category ~detectors ~campaigns
    ~sdc_rates ~n_experiments ~n_sdc ~n_benign ~n_crash ~n_detected
    ~n_detected_sdc ~margin ~near_normal ~static_sites ~avg_dyn_sites
    ~avg_dyn_instrs ~golden_runs ~golden_reused ~checkpoints ~ff_resumed
    ~pruned ~prune_checks : Json.t =
  Json.Obj
    [
      ("type", Json.String "summary");
      ("workload", Json.String workload);
      ("target", Json.String (Vir.Target.name target));
      ("category", Json.String (Analysis.Sites.category_name category));
      (* were detector hooks attached? (`vulfi report` needs this to
         know whether to print a Fig 12 row even when nothing fired) *)
      ("detectors", Json.Bool detectors);
      ("campaigns", Json.Int campaigns);
      ("experiments", Json.Int n_experiments);
      ("sdc", Json.Int n_sdc);
      ("benign", Json.Int n_benign);
      ("crash", Json.Int n_crash);
      ("detected", Json.Int n_detected);
      ("detected_sdc", Json.Int n_detected_sdc);
      ("sdc_rates", Json.List (List.map (fun r -> Json.Float r) sdc_rates));
      ("margin", num margin);
      ("near_normal", Json.Bool near_normal);
      ("static_sites", Json.Int static_sites);
      ("avg_dyn_sites", Json.Float avg_dyn_sites);
      ("avg_dyn_instrs", Json.Float avg_dyn_instrs);
      (* distinct inputs the schedule drew (= golden runs any executor
         must perform) and experiments that reused a cached golden *)
      ("golden_runs", Json.Int golden_runs);
      ("golden_reused", Json.Int golden_reused);
      (* checkpoints the fast-forward plan lays and experiments it
         resumes — again schedule-derived, not executor behaviour *)
      ("checkpoints", Json.Int checkpoints);
      ("ff_resumed", Json.Int ff_resumed);
      (* convergence-pruning opportunity counts (experiments with a
         later plan site, and how many such sites in total) — schedule-
         derived upper bounds; the physical prune count is bench-only *)
      ("pruned", Json.Int pruned);
      ("prune_checks", Json.Int prune_checks);
    ]
