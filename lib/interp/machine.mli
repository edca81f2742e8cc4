(** The VIR virtual machine: executes a compiled module with
    bounds-checked memory, a dynamic-instruction budget (a fault-induced
    endless loop becomes an observable hang trap), and a pluggable
    extern mechanism through which the VULFI runtime and benchmark I/O
    are wired in. *)

type state

(** Default budget: 200M dynamic instructions. *)
val default_budget : int

(** Fresh machine over compiled code. [budget] bounds dynamic
    instructions (exceeding it raises {!Interp.Trap.Budget_exhausted});
    [max_depth] bounds the call stack. *)
val create : ?budget:int -> ?max_depth:int -> Code.cmodule -> state

(** Re-arm an existing machine for another run: resets the fuel budget
    (to [budget] when given, else to the machine's current budget) and
    the dynamic counters (detections and fault sites included), while
    keeping the compiled code, memory, frame pool and extern
    registrations. Memory {e contents} are not touched — pair with
    {!Memory.restore} to roll those back. *)
val reset : ?budget:int -> state -> unit

(** Register (or replace) a host handler for calls to an undefined
    function. The handler receives the arguments as borrowed aliases of
    register buffers, valid only during the call, and returns [None]
    for void functions. *)
val register_extern :
  state -> string -> (state -> Vvalue.t list -> Vvalue.t option) -> unit

(** A fault-site extern [f(value, mask, site_id)], run by the
    interpreter itself with no argument list and no host round trip.
    A call on a live lane — its mask is true, or any lane when
    [respect_masks] is [false] — adds one to {!sites}. The call that
    brings {!sites} to [armed] returns [fire site_id value], where
    [value] is a borrowed alias of the value register and [fire] must
    return a private value; every other call returns [value]. An
    [armed <= 0] never fires.

    A vector fault site, the per-lane extract → call → insert chain the
    instrumentor emits, runs on the hot path as one kernel with the
    same dynamic counts, fuel charges and {!sites} total as its member
    instructions. The kernel defers to the members when fuel runs out
    inside the chain, or when [armed] or an armed {!check}'s threshold
    falls among its live lanes. *)
type site = Code.site = {
  respect_masks : bool;
  armed : int;
  fire : int -> Vvalue.t -> Vvalue.t;
}

(** Register (or replace) a fault-site extern under [name]. *)
val register_site : state -> string -> site -> unit

(** The machine's memory, for setting up inputs / reading outputs. *)
val memory : state -> Memory.t

(** Dynamic instructions executed so far. *)
val dyn_count : state -> int

(** Executed vector instructions (at least one vector operand or
    result) — the dynamic counterpart of the paper's Fig 10 census. *)
val dyn_vector_count : state -> int

(** Detector firings recorded since the machine was created or last
    {!reset}. A dynamic counter like {!dyn_count}: a {!checkpoint}
    saves it, {!resume} restores it and {!state_equal} compares it. *)
val detections : state -> int

(** Record one detector firing; detector extern handlers call this on
    the machine they are invoked with. *)
val record_detection : state -> unit

(** Live dynamic fault sites counted since the machine was created or
    last {!reset}: each call on a {!site} extern bumps it once per live
    lane. A dynamic counter like {!detections}: a {!checkpoint} saves
    it, {!resume} restores it and {!state_equal} compares it, so a
    resumed run counts on from its prefix's sites. *)
val sites : state -> int

(** Record one live fault site from host code. *)
val record_site : state -> unit

(** {1 Runs, checks, full-machine checkpoints and convergence checks}

    Every run executes on one engine, the hot path with its fused and
    site kernels. A run may arm a {!check}: every extern call, before
    it executes, compares {!sites} with the check's threshold, and the
    first call at or past it fires the check with the activation stack.
    A check reads whatever it needs off the machine (its {!sites}
    counter above all) and can capture a {!checkpoint} there (memory
    image, the live registers of each activation, call stack
    positions, dynamic counters) — the checkpoint-laying golden replay
    — or compare the machine against a golden checkpoint with
    {!state_equal} and raise to terminate the run — convergence
    pruning. Faulty runs {!resume} from the nearest checkpoint at or
    before their injection site, so only the post-injection suffix
    executes. *)

(** A machine-state checkpoint. It aliases the frame pool of the
    machine that captured it: resume it only on that machine. Its
    representation is exposed for white-box tests only. *)
type checkpoint = Code.checkpoint

(** The activation stack at a check: the position of the extern call
    that fired it, which with the machine names every activation;
    opaque outside {!checkpoint} and {!state_equal}, and valid only
    during the check. *)
type stack_view

(** Callback fired by an extern call, before the call executes, with
    the machine and the stack. It is due at the first extern call of
    the run; it answers the {!sites} count from which it is due next,
    [max_int] for never again, and may terminate the run by raising.
    As {!sites} rises by at most one per extern call, a check that
    answers [n] fires at the first later call where {!sites} reads
    [n] (or at the next call, when it already does). A check that
    neither raises nor changes the machine changes nothing the run
    computes. *)
type check = state -> stack_view -> int

(** Run function [name] with the given arguments, with [check] armed
    when given; returns its value ([None] for void). The machine drops
    the check when the run ends.
    @raise Trap.Trap on crash (bounds, division, budget, ...).
    @raise Invalid_argument if the argument count does not match the
      function's parameter count. *)
val run :
  ?check:check -> state -> string -> Vvalue.t list -> Vvalue.t option

(** [checkpoint st stack] captures the machine inside a {!check}: the
    checkpoint sits before the pending extern call, which therefore
    re-executes on {!resume}. Of each activation's register frame it
    saves only the registers live at that position — the same sets
    {!state_equal} compares. *)
val checkpoint : state -> stack_view -> checkpoint

(** [state_equal st stack ck] — exact equality of the running
    machine against checkpoint [ck] (captured by the same machine):
    dynamic counters (detections and fault sites included),
    call-stack positions, the live registers of each interrupted
    activation, and the whole memory image ({!Memory.equal}). A
    [true] answer implies the continuation from here is bit-identical
    to the golden run's continuation from [ck]. *)
val state_equal : state -> stack_view -> checkpoint -> bool

(** Resume from a checkpoint captured by this machine: memory,
    counters and live registers roll back (every other frame slot is
    written before it is read), the recorded call stack is
    re-entered, and execution continues from the checkpointed extern
    call. [budget] re-arms the fuel epoch with the checkpoint's prefix
    already charged against it: {!dyn_count} afterwards reads prefix +
    suffix, exactly what a fresh run under [budget] would report, and
    traps exactly where that run would. [check] is armed as for {!run}.
    Returns a deep copy of the function result, like {!run}.
    @raise Trap.Trap on a crash in the resumed suffix. *)
val resume :
  ?check:check -> budget:int -> state -> checkpoint -> Vvalue.t option
