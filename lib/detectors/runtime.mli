(** Runtime side of the compiler-derived error detectors. Detection is
    recorded rather than aborting, so an experiment reports both the
    outcome and whether a detector flagged it (as Fig 12 measures). A
    violated check bumps the machine's detection counter
    ({!Interp.Machine.detections}); the handlers themselves are
    stateless. *)

(** Extern name of the Fig 8 foreach-invariant check. *)
val check_foreach_name : string

(** Extern name of the strengthened exit-equality check (extension). *)
val check_foreach_exact_name : string

(** Extern name of the uniform-broadcast lane-equality check (§III-B). *)
val check_uniform_name : string

(** Extern name of the source-level [assert] lowering. *)
val assert_name : string

(** [checkInvariantsForeachFullBody(new_counter, aligned_end, Vl)]:
    Fig 8's three loop invariants, validated on loop exit. *)
val handle_check_foreach :
  Interp.Machine.state -> Interp.Vvalue.t list -> Interp.Vvalue.t option

(** Strengthened exit invariant: [new_counter == aligned_end]. *)
val handle_check_foreach_exact :
  Interp.Machine.state -> Interp.Vvalue.t list -> Interp.Vvalue.t option

(** Uniform-broadcast check: a non-zero OR-reduced XOR means some lane
    differed. *)
val handle_check_uniform :
  Interp.Machine.state -> Interp.Vvalue.t list -> Interp.Vvalue.t option

(** Source-level assert: the argument is an all-lanes-ok flag. *)
val handle_assert :
  Interp.Machine.state -> Interp.Vvalue.t list -> Interp.Vvalue.t option

(** Register all detector externs on a machine. *)
val attach : Interp.Machine.state -> unit

(** The detector externs packaged as experiment hooks. *)
val hooks : unit -> Vulfi.Experiment.hooks
