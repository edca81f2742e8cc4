(** The optimisation pass pipeline: an ordered registry of named passes
    with per-pass statistics and verification.

    {!optimizing} — [constfold] then [fuse] — is the "-O" pipeline for
    the CLI [opt] flow and the differential fuzzers. Constant folding
    rewrites the IR (fewer dynamic instructions), so it is never applied
    inside fault-injection campaigns; campaigns run only the fusion
    annotator, directly from [Experiment.prepare]. *)

type pass = {
  p_name : string;
  p_run : Vir.Vmodule.t -> int;  (** returns a rewrite/annotation count *)
}

val constfold : pass
val fuse : pass

val optimizing : pass list

(** Run the passes in order, verifying the module after each one
    ([verify] defaults to [true]); returns [(pass name, count)] per
    pass, in execution order.
    @raise Vir.Verify.Invalid_ir if a pass breaks the module. *)
val run :
  ?verify:bool -> passes:pass list -> Vir.Vmodule.t -> (string * int) list
