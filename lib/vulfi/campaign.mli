(** Fault-injection campaigns (paper §IV-D): repeated batches of
    experiments with t-based convergence of the SDC-rate estimate. *)

type config = {
  experiments_per_campaign : int;  (** 100 in the paper *)
  min_campaigns : int;
  max_campaigns : int;
  margin_target : float;  (** stop when the 95% margin falls below *)
  seed : int;  (** master seed: campaigns are fully reproducible *)
}

(** The paper's protocol: 100-experiment campaigns, at least 20, ±3%
    margin at 95% confidence. *)
val paper_config : config

(** A scaled-down configuration for quick harness runs. *)
val quick_config : config

type totals = {
  n_experiments : int;
  n_sdc : int;
  n_benign : int;
  n_crash : int;
  n_detected : int;  (** runs flagged by a detector *)
  n_detected_sdc : int;  (** SDC runs flagged by a detector *)
}

type result = {
  c_workload : string;
  c_target : Vir.Target.t;
  c_category : Analysis.Sites.category;
  c_campaigns : int;
  c_sdc_rates : float list;  (** one sample per campaign *)
  c_totals : totals;
  c_margin : float;  (** final 95% margin of error on the SDC rate *)
  c_near_normal : bool;  (** sample distribution near normal? *)
  c_static_sites : int;
  c_avg_dynamic_sites : float;
  c_avg_dynamic_instrs : float;
  c_golden_runs : int;
      (** distinct inputs the schedule drew — the golden runs any
          executor must perform at least once *)
  c_golden_reused : int;
      (** experiments that reused a cached golden run. Both counters
          are functions of the seed schedule alone, so they are
          identical between the legacy and checkpointed executors,
          sequential or [-j N]. *)
  c_checkpoints : int;
      (** machine-state checkpoints the fast-forward executor lays for
          this cell (summed over the distinct scheduled inputs) *)
  c_ff_resumed : int;
      (** experiments whose injection site is at or past the first
          checkpoint of its input's plan — the runs the fast-forward
          executor resumes rather than replays. Like the golden
          counters, both are pure functions of the seed schedule (not
          of what any executor physically did), so every executor
          reports the same values and traces stay byte-identical
          across executors. *)
  c_pruned : int;
      (** experiments with at least one plan checkpoint site strictly
          after their injection site — the runs the converge-pruned
          executor can terminate early (the physical prune count is
          bench-only telemetry, {!Experiment.prune_stats}) *)
  c_prune_checks : int;
      (** total (experiment, plan site) pairs with the site strictly
          after the injection site — the convergence comparisons the
          converge-pruned executor can at most perform. Both are pure
          functions of the seed schedule, reported identically by all
          four executors. *)
}

(** JSON view of a result: the per-cell summary record of a trace, and
    the cell entry of the RESULTS_*.json exports (see {!Trace}).
    [detectors] (default false) records whether detector hooks were
    attached during the campaign. *)
val result_json : ?detectors:bool -> result -> Json.t

val sdc_rate : result -> float
val benign_rate : result -> float
val crash_rate : result -> float

(** Fraction of SDC-producing experiments that a detector flagged — the
    paper's "SDC detection rate" (Fig 12). *)
val sdc_detection_rate : result -> float

(** The campaign machinery builds the hooks for each machine it sets up
    through a factory. *)
type hooks_factory = unit -> Experiment.hooks

(** The four executors a campaign can run on. All produce bit-identical
    results, digests and traces; they differ only in how much work each
    experiment repeats.

    - [Legacy] is the paper's §IV-B protocol taken literally: every
      experiment performs its own fault-free profiling run on a freshly
      built machine before the faulty run.
    - [Checkpointed] runs [w_setup] once per (cell, input), snapshots
      the post-setup memory image and executes the golden run once;
      every further experiment on that input restores the snapshot and
      reuses the machine.
    - [Fast_forward] additionally lays machine-state checkpoints
      (memory image, live registers, call stack, dynamic counters) at
      the scheduled injection sites during one instrumented golden
      replay per (cell, input), and resumes every faulty run from the
      nearest checkpoint at or before its injection site, executing
      only the post-injection suffix.
    - [Converge_pruned] rides the fast-forward machinery and runs each
      faulty suffix on the same hot-path engine with a check armed:
      the machine's extern calls fire it at each later checkpoint
      site's site-count threshold, where it compares the machine —
      counters, call stack, live registers and the whole memory image
      — against the golden state captured there
      ({!Interp.Machine.state_equal}); on a match it terminates
      immediately and splices the golden outcome, which is provably
      identical to running the suffix out (DESIGN.md, convergence
      soundness).

    Every executor runs a campaign's experiments in schedule order.

    Detector cells run on every executor: detector firings are a
    machine counter ({!Interp.Machine.detections}) that checkpoints
    save and convergence checks compare. *)
type executor = Legacy | Checkpointed | Fast_forward | Converge_pruned

(** CLI/report-facing name of an executor ("legacy", "checkpointed",
    "fast-forward", "converge-pruned"). *)
val executor_name : executor -> string

(** [effective_executor ~detectors e] is the executor the drivers will
    actually use: always [e], with or without detectors. *)
val effective_executor : detectors:bool -> executor -> executor

(** [run cfg w target category] executes the campaign protocol for one
    (workload, ISA, site-category) cell. [transform] pre-processes the
    module (e.g. detector insertion); [hooks] builds per-run extra
    runtime; [respect_masks]/[fault_kind] select ablation variants. All
    randomness follows the pure {!Seed} schedule: each experiment's
    input, fault site and flipped bit are functions of
    (cfg.seed, workload, target, category, campaign, experiment).

    Each campaign's experiments fan out across a domain pool: [pool]
    when given (amortising domain spawning across cells), else a fresh
    pool of [jobs] workers (default 1, which spawns no domain and runs
    on the calling one). The seed schedule makes the result
    bit-identical at any [jobs]. Every worker binds the executor once
    per input it meets and keeps that input's machines to itself —
    machines cannot cross domains — while the shared golden table stays
    schedule-deterministic; checkpoint plans are pure functions of the
    schedule, so every worker lays identical checkpoints.

    [sink] receives one telemetry record per experiment — in
    (campaign, experiment) order, emitted from the protocol loop while
    workers only buffer — plus the cell's summary record; with a
    default (no-timings) sink the trace is byte-identical at any
    [jobs].

    [executor] (default [Checkpointed]) selects the {!executor}; all
    four are bit-identical — results, digests and traces — because
    golden runs are deterministic per (cell, input) and checkpoint
    placement is a pure function of the seed schedule.

    @raise Invalid_argument if [cfg.experiments_per_campaign] or
    [cfg.max_campaigns] is below 1. *)
val run :
  ?transform:(Vir.Vmodule.t -> Vir.Vmodule.t) ->
  ?hooks:hooks_factory ->
  ?respect_masks:bool ->
  ?fault_kind:Runtime.fault_kind ->
  ?pool:Pool.t ->
  ?sink:Trace.sink ->
  ?executor:executor ->
  ?jobs:int ->
  config ->
  Workload.t ->
  Vir.Target.t ->
  Analysis.Sites.category ->
  result

(** [run_cells ~jobs cfg cells] runs a list of
    (workload, target, category) cells over one shared domain pool —
    the shape of a Fig 11 / Table II sweep — returning results in cell
    order, each bit-identical to a one-job [run] of that cell.
    @raise Invalid_argument as {!run} does, before any cell runs. *)
val run_cells :
  ?transform:(Vir.Vmodule.t -> Vir.Vmodule.t) ->
  ?hooks:hooks_factory ->
  ?respect_masks:bool ->
  ?fault_kind:Runtime.fault_kind ->
  ?sink:Trace.sink ->
  ?executor:executor ->
  jobs:int ->
  config ->
  (Workload.t * Vir.Target.t * Analysis.Sites.category) list ->
  result list
