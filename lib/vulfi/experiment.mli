(** One fault-injection experiment = two executions of the instrumented
    program on the same input (paper §IV-B): a fault-free profiling run
    and a faulty run with a single corruption at a chosen dynamic site. *)

(** Extra runtime surface (e.g. error detectors) attached to machines.
    Detectors record their firings in the machine's detection counter
    ({!Interp.Machine.detections}), so hooks hold no state. *)
type hooks = { h_attach : Interp.Machine.state -> unit }

(** Hooks that attach nothing. *)
val no_hooks : hooks

(** A workload built, instrumented for one site category, verified and
    compiled; ready for experiments. *)
type prepared = {
  p_workload : Workload.t;
  p_target : Vir.Target.t;
  p_category : Analysis.Sites.category;
  p_code : Interp.Code.cmodule;
  p_instr : Instrument.t;
}

(** [prepare ?transform w target category] builds the workload module,
    applies [transform] (e.g. detector insertion), selects the fault
    sites of [category], instruments and compiles (fusing chains per
    {!Interp.Compile.fusion}). *)
val prepare :
  ?transform:(Vir.Vmodule.t -> Vir.Vmodule.t) ->
  Workload.t ->
  Vir.Target.t ->
  Analysis.Sites.category ->
  prepared

(** Result of the fault-free profiling run. *)
type golden = {
  g_input : int;
  g_output : Outcome.output;
  g_dyn_sites : int;  (** dynamic fault sites N *)
  g_dyn_instrs : int;  (** dynamic instructions, for budget + Table I *)
  g_detected : bool;  (** a detector fired during the fault-free run *)
}

(** Raised when the fault-free run itself traps (a workload bug). *)
exception Golden_run_failed of string

(** Fault-free profiling run on input [input]. [respect_masks:false]
    reproduces a mask-oblivious injector for the ablation study. The
    record's counters — sites, instructions, detections — are read off
    the machine at the end of the run. *)
val golden_run :
  ?hooks:hooks -> ?respect_masks:bool -> prepared -> input:int -> golden

(** A (cell, input) pair prepared for checkpointed execution: a machine
    with [w_setup] already applied, a snapshot of the post-setup memory
    image, and the golden-run results. Faulty runs restore the snapshot
    and re-arm the machine instead of rebuilding both — eliminating the
    golden half of every experiment after the first on each input. *)
type prepared_input = {
  pi_golden : golden;
  pi_machine : Interp.Machine.state;
  pi_snapshot : Interp.Memory.snapshot;  (** post-setup memory image *)
  pi_args : Interp.Vvalue.t list;
  pi_read_output : unit -> Outcome.output;
}

(** One-time per (cell, input) stage: build a machine, run [w_setup],
    snapshot, execute the golden run. The golden record is read by the
    same code as {!golden_run}'s.
    @raise Golden_run_failed when the fault-free run traps. *)
val prepare_input :
  ?hooks:hooks ->
  ?respect_masks:bool ->
  prepared ->
  input:int ->
  prepared_input

type run_result = {
  r_outcome : Outcome.t;
  r_injection : Runtime.injection_record option;
  r_detected : bool;
      (** a detector flagged the run: the machine's detection counter is
          positive at the end of it (on every executor) *)
  r_dyn_instrs : int;  (** dynamic instructions of the faulty run *)
}

(** Dynamic-instruction budget of a faulty run: ten times the
    fault-free execution plus slack for tiny kernels, so a
    fault-induced loop terminates as an observable hang. The single
    definition shared by every executor. *)
val fault_budget : golden -> int

(** Faulty run corrupting the value at 1-based [dynamic_site]; [seed]
    fixes the bit/pattern choice, making experiments reproducible. *)
val faulty_run :
  ?hooks:hooks ->
  ?respect_masks:bool ->
  ?fault_kind:Runtime.fault_kind ->
  prepared ->
  golden:golden ->
  dynamic_site:int ->
  seed:int ->
  run_result

(** {1 Fast-forward execution}

    Machine-state checkpoints at scheduled injection sites, laid
    during one instrumented golden replay; faulty runs resume from the
    nearest checkpoint at or before their site so only the
    post-injection suffix executes. Placement is a pure function of
    the seed schedule, preserving sequential/parallel determinism. *)

(** Default cap on checkpoints per (cell, input). *)
val default_max_checkpoints : int

(** [checkpoint_plan sites] is the ascending array of distinct
    positive scheduled sites, thinned to at most [max_checkpoints]
    (default {!default_max_checkpoints}) by keeping the rightmost site
    of each equal slice. Pure function of its input. *)
val checkpoint_plan : ?max_checkpoints:int -> int list -> int array

(** A prepared input plus its machine-state checkpoints, as
    [(site, checkpoint)] pairs sorted by site ascending. The
    checkpoints alias the prepared input's machine. *)
type ff_input = {
  ff_pi : prepared_input;
  ff_checkpoints : (int * Interp.Machine.checkpoint) array;
}

(** One instrumented golden replay over [pi]'s machine capturing a
    checkpoint for each planned site [s] at the first extern call where
    {!Interp.Machine.sites} reads [s - 1]: at or a few extern calls
    before the inject call of site [s], all of which re-execute on
    resume. The replay runs on the hot path and stops checking after
    the last planned site. An empty [plan] skips the replay entirely
    and lays nothing.
    @raise Golden_run_failed when the replay traps. *)
val lay_checkpoints :
  ?hooks:hooks ->
  ?respect_masks:bool ->
  prepared ->
  pi:prepared_input ->
  plan:int array ->
  ff_input

(** Faulty run against a prepared input and its checkpoints: resumes
    from the nearest checkpoint at or before [dynamic_site], or, when
    none lies that early (always, for an empty plan), restores [pi]'s
    post-setup snapshot and re-arms its machine instead of rebuilding
    them. Bit-identical to {!faulty_run} on the same (input,
    dynamic_site, seed). {!faulty_run_pruned} runs through the same
    faulty-run body. *)
val faulty_run_ff :
  ?hooks:hooks ->
  ?respect_masks:bool ->
  ?fault_kind:Runtime.fault_kind ->
  prepared ->
  ff:ff_input ->
  dynamic_site:int ->
  seed:int ->
  run_result

(** {1 Convergence-pruned execution}

    The fast-forward path skips the pre-injection prefix but runs every
    post-injection suffix to completion; most faults are masked long
    before that. {!faulty_run_pruned} runs the suffix under a check,
    compares the machine against the golden checkpoint at
    each post-injection checkpoint site
    ({!Interp.Machine.state_equal}: counters, call stack, live
    registers, the whole memory image), and on a match
    terminates immediately, splicing the golden outcome — Benign, the
    golden dynamic-instruction count and the golden run's final
    detector flag — which is byte-identical to running the suffix out
    (DESIGN.md, convergence soundness). *)

(** Converge-pruned variant of {!faulty_run_ff}: same resume point and
    classification, with early termination at the first post-injection
    checkpoint site whose state matches the golden run's. A site is
    compared at the position {!lay_checkpoints} captured it, found from
    the machine's site counter alone. Bit-identical to {!faulty_run} on
    the same (input, dynamic_site, seed). Runs exactly as
    {!faulty_run_ff} when no checkpoint site lies after
    [dynamic_site]. *)
val faulty_run_pruned :
  ?hooks:hooks ->
  ?respect_masks:bool ->
  ?fault_kind:Runtime.fault_kind ->
  prepared ->
  ff:ff_input ->
  dynamic_site:int ->
  seed:int ->
  run_result

(** Physical pruning telemetry (runs actually cut short, state
    comparisons performed) since the last {!reset_prune_stats}. Not
    part of campaign results or traces — those are pure functions of
    the seed schedule; this feeds the bench harness only. Thread-safe. *)
val prune_stats : unit -> int * int

val reset_prune_stats : unit -> unit
