(** Runtime side of the compiler-derived error detectors.

    The detector passes splice calls to these externs into the IR; at
    run time a violated invariant bumps the machine's detection counter
    ({!Interp.Machine.record_detection}). The handlers hold no state of
    their own, so checkpoints carry detections like any other dynamic
    counter. Detection is recorded rather than aborting, so an
    experiment can report both the outcome (SDC/benign/crash) and
    whether a detector flagged it — exactly the measurement Fig 12
    makes.

    Extern arguments are borrowed aliases of the interpreter's pinned
    register buffers: they are only valid for the duration of the call.
    These handlers read scalar lanes immediately and retain nothing, so
    no copies are needed; a handler that stores a value must
    [Interp.Vvalue.copy] it (see the VULFI injection runtime). *)

let check_foreach_name = "__vulfi_check_foreach"

let check_foreach_exact_name = "__vulfi_check_foreach_exact"

let check_uniform_name = "__vulfi_check_uniform"

let assert_name = "__vulfi_assert"

(* checkInvariantsForeachFullBody(new_counter, aligned_end, Vl):
   Fig 8's three loop invariants, checked on loop exit. *)
let handle_check_foreach st (args : Interp.Vvalue.t list) =
  (match args with
  | [ nc; ae; vl ] ->
    let nc = Interp.Vvalue.as_int nc in
    let ae = Interp.Vvalue.as_int ae in
    let vl = Interp.Vvalue.as_int vl in
    let ok =
      Int64.compare nc 0L >= 0        (* Invariant 1: new_counter >= 0 *)
      && Int64.compare nc ae <= 0     (* Invariant 2: <= aligned_end *)
      && (Int64.equal vl 0L |> not)
      && Int64.equal (Int64.rem nc vl) 0L  (* Invariant 3: % Vl == 0 *)
    in
    if not ok then Interp.Machine.record_detection st
  | _ -> invalid_arg "__vulfi_check_foreach: bad arity");
  None

(* Strengthened exit invariant (an extension beyond the paper's Fig 8):
   on the normal exit path new_counter does not merely satisfy
   new_counter <= aligned_end — it must EQUAL aligned_end, which also
   traps fault-induced early exits that Fig 8's invariants admit. *)
let handle_check_foreach_exact st (args : Interp.Vvalue.t list) =
  (match args with
  | [ nc; ae ] ->
    if not (Int64.equal (Interp.Vvalue.as_int nc) (Interp.Vvalue.as_int ae))
    then Interp.Machine.record_detection st
  | _ -> invalid_arg "__vulfi_check_foreach_exact: bad arity");
  None

(* checkUniformBroadcast(or_reduced_xor): non-zero means some lane of a
   broadcast vector differed from lane 0 (§III-B). *)
let handle_check_uniform st (args : Interp.Vvalue.t list) =
  (match args with
  | [ diff ] ->
    if not (Int64.equal (Interp.Vvalue.as_int diff) 0L) then
      Interp.Machine.record_detection st
  | _ -> invalid_arg "__vulfi_check_uniform: bad arity");
  None

(* Source-level assert (mini-ISPC [assert(cond);]): argument is an
   all-active-lanes-ok flag; false flags the run. *)
let handle_assert st (args : Interp.Vvalue.t list) =
  (match args with
  | [ ok ] ->
    if not (Interp.Vvalue.as_bool ok) then
      Interp.Machine.record_detection st
  | _ -> invalid_arg "__vulfi_assert: bad arity");
  None

let attach (st : Interp.Machine.state) =
  Interp.Machine.register_extern st check_foreach_name handle_check_foreach;
  Interp.Machine.register_extern st check_foreach_exact_name
    handle_check_foreach_exact;
  Interp.Machine.register_extern st check_uniform_name handle_check_uniform;
  Interp.Machine.register_extern st assert_name handle_assert

(* Hooks for the experiment/campaign machinery. *)
let hooks () : Vulfi.Experiment.hooks = { Vulfi.Experiment.h_attach = attach }
