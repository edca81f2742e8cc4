(** Campaign telemetry: JSONL records written through an ordered sink.

    A trace is one [header] record, then one [experiment] record per
    injection experiment in (cell, campaign, experiment) order, and one
    [summary] record per cell. With [timings] off (the default) every
    record is a pure function of the configuration and seed schedule,
    so sequential and [-j N] runs produce byte-identical traces;
    [timings:true] adds a nondeterministic [wall_s] field to each
    experiment record. *)

(** Schema identifier stamped into the header record
    (["vulfi-trace-v4"]; v2 added schedule-derived [golden_runs] /
    [golden_reused] counters to the summary record, v3 added the
    fast-forward [checkpoints] / [ff_resumed] counters, v4 adds the
    convergence-pruning [pruned] / [prune_checks] counters; older v4
    writers also stamped an optional [executor] header field, which
    readers ignore). *)
val schema : string

(** Previous schema identifiers, still accepted by [vulfi report]. *)
val schema_v1 : string

val schema_v2 : string

val schema_v3 : string

type sink

(** [make ~emit ~close ()] builds a sink over arbitrary output and
    immediately emits the header record. *)
val make :
  ?timings:bool -> emit:(Json.t -> unit) -> close:(unit -> unit) -> unit ->
  sink

(** Sink writing to a fresh file; [close] closes it. *)
val to_file : ?timings:bool -> string -> sink

(** Sink accumulating lines in a buffer (used by tests). *)
val to_buffer : ?timings:bool -> Buffer.t -> sink

val emit : sink -> Json.t -> unit
val close : sink -> unit

(** Whether this sink wants per-experiment wall times. *)
val timings : sink -> bool

(** One experiment record. [golden_sites] is the fault-free run's
    dynamic site count N; [wall_s] is included only when given (the
    drivers pass it only for [timings] sinks). *)
val experiment_record :
  workload:string ->
  target:Vir.Target.t ->
  category:Analysis.Sites.category ->
  campaign:int ->
  experiment:int ->
  input:int ->
  golden_sites:int ->
  result:Experiment.run_result ->
  ?wall_s:float ->
  unit ->
  Json.t

(** One per-cell summary record mirroring [Campaign.result]
    field-by-field ([sdc_rates] in campaign order; a non-finite
    [margin] becomes [null]). [detectors] records whether detector
    hooks were attached, so a replay knows to render a Fig 12 row even
    for a cell where no detector fired. *)
val summary_record :
  workload:string ->
  target:Vir.Target.t ->
  category:Analysis.Sites.category ->
  detectors:bool ->
  campaigns:int ->
  sdc_rates:float list ->
  n_experiments:int ->
  n_sdc:int ->
  n_benign:int ->
  n_crash:int ->
  n_detected:int ->
  n_detected_sdc:int ->
  margin:float ->
  near_normal:bool ->
  static_sites:int ->
  avg_dyn_sites:float ->
  avg_dyn_instrs:float ->
  golden_runs:int ->
  golden_reused:int ->
  checkpoints:int ->
  ff_resumed:int ->
  pruned:int ->
  prune_checks:int ->
  Json.t
