(** Two-stage lowering of VIR for the interpreter, and the engine that
    runs the result: stage 1 turns a module into register form, stage 2
    threads every instruction into a pre-specialized closure over
    pinned register buffers, with each instrumented vector fault site
    ({!Site_kernels}) lowered to one kernel on the hot path. Every run,
    checked or resumed, runs on that hot path. The compiled code and
    the machine state are the types of {!Code}. *)

(** {1 Lowering} *)

(** Lower every function of the module, resolving each call to a
    direct call, an intrinsic closure or a dense extern slot. *)
val compile_module : Vir.Vmodule.t -> Code.cmodule

(** Always 0: the interpreter fuses no chains. It remains only because
    perfbench's traced pass reads it for the per-layer count
    [interp.chains_fused]; the change that retires that metric deletes
    it. *)
val fused_chain_count : Code.cmodule -> int

(** How many instrumented vector fault sites run as site kernels. *)
val site_kernel_count : Code.cmodule -> int

(** The shared template value of register slots without a static
    definition. Frames alias it instead of copying it, and nothing
    ever writes it. *)
val default_value : Vvalue.t

(** {1 Execution} *)

(** The pinned-buffer register frame for the function at the state's
    current call depth, instantiated from its template on first use
    and reused, without clearing, ever after. *)
val frame_for : Code.state -> Code.cfunc -> Vvalue.t array

(** Run one function body over a prepared frame. Extern calls fire the
    machine's check once [sites] reaches [check_at]. The result aliases
    a frame buffer (or a shared immediate): copy it before the frame
    runs again. *)
val exec_cfunc : Code.state -> Code.cfunc -> Vvalue.t array -> Vvalue.t option

(** Resume from a checkpoint with the fuel epoch re-armed under
    [budget]: restore, unwind the recorded stack, run the rest of each
    interrupted block one closure per instruction, and every later
    block as {!exec_cfunc} does. *)
val exec_resumable :
  Code.state -> budget:int -> Code.checkpoint -> Vvalue.t option

(** Checkpoint the machine inside a check fired at the given extern
    call: memory, counters, the positions and the live registers of
    every activation. *)
val capture : Code.state -> Code.pos -> Code.checkpoint

(** Exact comparison of the machine, inside a check fired at the given
    extern call, against a checkpoint over what can influence the
    continuation: counters, positions, live registers, and the whole
    memory image. *)
val state_equal : Code.state -> Code.pos -> Code.checkpoint -> bool

(** The registers, ascending, a continuation from the pending call at
    [step] of [block] can read: live before the call for the innermost
    activation, live after it minus its destination for an outer one. *)
val pending_live :
  Code.cfunc -> block:int -> step:int -> innermost:bool -> int array

(** The successor block indices of a terminator. *)
val block_succs : Code.cterm -> int list
