(* The interpreter's compiled code and the machine state it runs in:
   the register form ({!Compile}'s stage 1), the threaded code and
   extern slots (stage 2), the call positions checks see, checkpoints,
   and the closure helpers that the lowering and both kernel families
   ({!Fusion}, {!Site_kernels}) build on. *)

(* ------------------------------------------------------------------ *)
(* Stage-1 (register form) representation: register operands index a
   per-frame register file, constants are pre-evaluated values, block
   labels are indices. *)

type coperand =
  | Creg of int
  | Cimm of Vvalue.t

type cinstr = {
  src : Vir.Instr.t;  (** original instruction, for reporting *)
  dst : int;          (** destination register slot; [-1] if void *)
  ops : coperand array;
  cvec : bool;        (** vector instruction (pre-computed for dynamic
                          instruction-mix profiling) *)
}

type cphi = {
  pdst : int;
  (* incoming value per predecessor block index *)
  incoming : (int * coperand) array;
}

type cterm =
  | Tbr of int
  | Tcondbr of coperand * int * int
  | Tret of coperand option
  | Tunreachable

type cblock = {
  clabel : string;
  cphis : cphi array;
  body : cinstr array;  (** non-phi, non-terminator instructions *)
  term : cterm;
  term_src : Vir.Instr.t;
}

(* ------------------------------------------------------------------ *)
(* Stage-2 (threaded) representation and the machine state it runs in.
   The types are mutually recursive: threaded closures take the state,
   the state holds the compiled module, the module holds the threaded
   functions. *)

type cfunc = {
  cf : Vir.Func.t;
  cblocks : cblock array;
  nregs : int;
  nparams : int;
  func_id : int;  (** dense module-wide index, keys the frame pool *)
  alloca_name : string;  (** "<fname>.alloca", precomputed *)
  mutable reg_tmpl : Vvalue.t array;
      (** per-register buffer template, shaped from each register's
          static SSA type; the threading stage may append scratch slots
          for hazardous phi moves. Frames are instantiated as deep
          copies, so the template's values are never written and are
          safe to share across machines and domains. *)
  mutable tblocks : tblock array;  (** threaded code; filled by stage 2 *)
  mutable live_in : int array array;
      (** per block, the registers live at its entry (before the phi
          moves), as a word bitset ([Sys.int_size] registers a word);
          filled by stage 2 with the threaded code and never written
          after. [Compile.pending_live] derives every checkpoint's
          saved set from it. *)
}

and tblock = {
  (* Per-predecessor parallel phi move, indexed by [pred_index + 1]
     (entry comes in as predecessor -1). Empty array = block has no
     phis. *)
  t_phis : texec array;
  (* The whole straight-line body as one composed closure (see
     [compose_body]): every indirect call site inside it has a single
     target, so the branch predictor resolves the dispatch that a
     closure-per-slot loop would mispredict. *)
  t_body : texec;
  t_term : tterm;
  (* The same body closures, one per instruction. Only a resume
     ([Compile.exec_resumable]) reads this array, for the rest of the
     block it restarts in; the hot path ([t_body]) never does. *)
  t_steps : texec array;
}

and texec = state -> unit

and tgetter = Vvalue.t array -> Vvalue.t

and tterm =
  | Ct_br of int
  | Ct_condbr_reg of int * int * int  (** condition straight from a register *)
  | Ct_condbr of tgetter * int * int
  | Ct_ret of tgetter
  | Ct_ret_void
  | Ct_unreachable

and cmodule = {
  cm : Vir.Vmodule.t;
  cfuncs : (string, cfunc) Hashtbl.t;
  n_funcs : int;  (** bound on [func_id]s, sizes frame-pool rows *)
  (* Callee names that resolve neither to a module function nor to an
     intrinsic, mapped to a dense slot index; the per-state extern
     handler table is indexed by these slots. *)
  extern_index : (string, int) Hashtbl.t;
  n_extern_slots : int;
  mutable n_fused_chains : int;
      (** fusion chains ([Fusion.chain_length]) lowered with at least
          one fused kernel *)
  fused_hist : (int, int) Hashtbl.t;
      (** chain length -> count over the fused chains *)
  unfused : (string, int) Hashtbl.t;
      (** member kinds (["fbinop+select"]) -> count over the chains no
          kernel covers, which run one closure per member *)
  mutable n_site_kernels : int;
      (** instrumented vector fault sites lowered to one hot-path
          kernel each (see [Site_kernels.thread_site_chain]); not
          counted in [n_fused_chains] *)
}

and state = {
  code : cmodule;
  mem : Memory.t;
  mutable budget0 : int;
      (** initial budget; executed = budget0 - fuel. Mutable only so
          [Machine.reset] can re-arm a reused machine. *)
  mutable fuel : int;  (** remaining dynamic instructions; <0 = trap *)
  mutable dyn_vector : int;  (** executed vector instructions *)
  mutable detections : int;
      (** detector firings, bumped by the detector extern handlers. A
          dynamic counter like the two above: checkpoints save it,
          resumes restore it and convergence checks compare it. *)
  mutable sites : int;
      (** live dynamic fault sites, bumped by calls on [Site] extern
          slots and by the vector site kernels; a dynamic counter like
          [detections] *)
  mutable depth : int;  (** current call depth; reset per [run] *)
  mutable regs : Vvalue.t array;
      (** register frame of the running activation. Threaded closures
          take only [state] (a one-argument application is a direct
          code-pointer call, where two arguments would go through the
          runtime's generic apply); [Compile.exec_cfunc] points this
          at the frame on entry and call sites restore it on return. *)
  frames : Vvalue.t array array array;
      (** per-(depth, func_id) register-frame pool: [frames.(d).(f)] is
          the pinned-buffer frame for function [f] at call depth [d],
          instantiated from the function's [reg_tmpl] on first use and
          reused (without clearing) forever after. Reuse is sound: the
          IR is verified SSA, so every register read is dominated by a
          write in the same activation — stale lanes from a finished
          call are never observable. Two live activations can never
          share a frame because a nested call always runs one depth
          deeper. *)
  extern_slots : extern_slot array;
  max_depth : int;
  mutable check : check;  (** the armed check; [no_check] when none is *)
  mutable check_at : int;
      (** the [sites] count from which extern calls fire [check];
          [max_int] when no check is armed *)
  calls : pos option array;
      (** per depth, the direct call that activation waits on, written
          by the call before it descends. With the position of the
          extern call that fires a check, it names every activation of
          the stack the check sees. *)
}

(* A call's static position: body step [p_step] of block [p_block] of
   [p_func]. Every direct and extern call closure holds its own. *)
and pos = { p_func : cfunc; p_block : int; p_step : int }

(* Fired by an extern call, before it charges, once [sites] reaches
   [check_at], with the call's position; answers the next [check_at]
   ([max_int]: never again). The call itself then runs. *)
and check = state -> pos -> int

and extern_fn = state -> Vvalue.t list -> Vvalue.t option

(* What a call on an extern slot runs. [Host] handlers take the
   arguments as a list of borrowed register aliases; [Site] is the
   fault-injection primitive, run by the interpreter itself without
   building an argument list (see [Compile.site_call]). *)
and extern_slot =
  | Unbound
  | Host of extern_fn
  | Site of site

(* A fault-site extern [f(value, mask, site_id)]: a call on a live lane
   (any lane when [respect_masks] is off) bumps [sites]; the call that
   brings [sites] to [armed] returns [fire site_id value] instead of
   [value]. [fire] receives a borrowed alias of the value register and
   must return a private value. [armed <= 0] never fires. *)
and site = {
  respect_masks : bool;
  armed : int;
  fire : int -> Vvalue.t -> Vvalue.t;
}

let no_check : check = fun _ _ -> max_int

(* ------------------------------------------------------------------ *)
(* Checkpoints ([Compile.capture] describes them). *)

type frame_ckpt = {
  fc_func : cfunc;
  fc_block : int;
  fc_instr : int;
      (** body step of the activation's pending call: an extern call
          that has NOT executed (innermost), or a direct call that has
          not returned (outer) *)
  fc_frame : Vvalue.t array;
      (** the live pool frame, aliased — a checkpoint is bound to the
          machine that captured it *)
  fc_live : int array;
      (** the registers a continuation from this position can read
          ([Compile.pending_live]), ascending *)
  fc_saved : Vvalue.t array;
      (** deep copies of the [fc_live] registers, index for index *)
}

type checkpoint = {
  ck_mem : Memory.snapshot;
  ck_stack : frame_ckpt array;  (** outermost activation first *)
  ck_spent : int;  (** [budget0 - fuel] at capture *)
  ck_vec : int;  (** [dyn_vector] at capture *)
  ck_detections : int;  (** [detections] at capture *)
  ck_sites : int;  (** [sites] at capture *)
}

(* ------------------------------------------------------------------ *)
(* Closure helpers                                                     *)

(* The executed-instruction count is derived ([budget0 - fuel]) so the
   per-instruction prologue is a single decrement + branch. *)
let charge st =
  st.fuel <- st.fuel - 1;
  if st.fuel < 0 then Trap.raise_ Trap.Budget_exhausted

let charge_vec st =
  st.fuel <- st.fuel - 1;
  if st.fuel < 0 then Trap.raise_ Trap.Budget_exhausted;
  st.dyn_vector <- st.dyn_vector + 1

let getter : coperand -> tgetter = function
  | Creg r -> fun regs -> Array.unsafe_get regs r
  | Cimm v -> fun _ -> v

(* A hand-rolled destination-passing lane map: results go straight into
   the destination buffer, no closure capture or Array.init dispatch on
   the dynamic path, no allocation. Safe indexing on the operands keeps
   the original failure mode on a shape-confused value. *)
let map2_float_into (f : float -> float -> float) (a : float array)
    (b : float array) (o : float array) : unit =
  for i = 0 to Array.length o - 1 do
    Array.unsafe_set o i (f a.(i) b.(i))
  done

(* Static element kind of an operand, for pre-specialization. The
   verifier guarantees runtime values match their static types; the
   threaded closures still match the value constructor (operands and
   destination buffer alike) so a kind-confused extern result fails
   loudly instead of corrupting. *)
let op_scalar (i : Vir.Instr.t) n =
  Vir.Vtype.elem (Vir.Instr.operand_ty (List.nth (Vir.Instr.operands i) n))

(* [mark] applied to every register operand of an instruction (a
   terminator), once per occurrence. *)
let instr_uses (ci : cinstr) (mark : int -> unit) : unit =
  Array.iter (function Creg r -> mark r | Cimm _ -> ()) ci.ops

let term_uses (t : cterm) (mark : int -> unit) : unit =
  match t with
  | Tcondbr (Creg r, _, _) -> mark r
  | Tret (Some (Creg r)) -> mark r
  | Tbr _ | Tcondbr (Cimm _, _, _) | Tret _ | Tunreachable -> ()

let nop_exec : texec = fun _ -> ()

(* Compose a block body into one closure. Runs of up to 8 instructions
   become a single closure with one *dedicated* (hence predictable)
   indirect call site per instruction; longer bodies become a balanced
   tree of such runs. *)
let rec compose_body (body : texec array) lo hi : texec =
  match hi - lo with
  | 0 -> nop_exec
  | 1 -> body.(lo)
  | 2 ->
    let f0 = body.(lo) and f1 = body.(lo + 1) in
    fun st ->
      f0 st;
      f1 st
  | 3 ->
    let f0 = body.(lo) and f1 = body.(lo + 1) and f2 = body.(lo + 2) in
    fun st ->
      f0 st;
      f1 st;
      f2 st
  | 4 ->
    let f0 = body.(lo)
    and f1 = body.(lo + 1)
    and f2 = body.(lo + 2)
    and f3 = body.(lo + 3) in
    fun st ->
      f0 st;
      f1 st;
      f2 st;
      f3 st
  | 5 ->
    let f0 = body.(lo)
    and f1 = body.(lo + 1)
    and f2 = body.(lo + 2)
    and f3 = body.(lo + 3)
    and f4 = body.(lo + 4) in
    fun st ->
      f0 st;
      f1 st;
      f2 st;
      f3 st;
      f4 st
  | 6 ->
    let f0 = body.(lo)
    and f1 = body.(lo + 1)
    and f2 = body.(lo + 2)
    and f3 = body.(lo + 3)
    and f4 = body.(lo + 4)
    and f5 = body.(lo + 5) in
    fun st ->
      f0 st;
      f1 st;
      f2 st;
      f3 st;
      f4 st;
      f5 st
  | 7 ->
    let f0 = body.(lo)
    and f1 = body.(lo + 1)
    and f2 = body.(lo + 2)
    and f3 = body.(lo + 3)
    and f4 = body.(lo + 4)
    and f5 = body.(lo + 5)
    and f6 = body.(lo + 6) in
    fun st ->
      f0 st;
      f1 st;
      f2 st;
      f3 st;
      f4 st;
      f5 st;
      f6 st
  | 8 ->
    let f0 = body.(lo)
    and f1 = body.(lo + 1)
    and f2 = body.(lo + 2)
    and f3 = body.(lo + 3)
    and f4 = body.(lo + 4)
    and f5 = body.(lo + 5)
    and f6 = body.(lo + 6)
    and f7 = body.(lo + 7) in
    fun st ->
      f0 st;
      f1 st;
      f2 st;
      f3 st;
      f4 st;
      f5 st;
      f6 st;
      f7 st
  | n ->
    let mid = lo + (n / 2) in
    let a = compose_body body lo mid and b = compose_body body mid hi in
    fun st ->
      a st;
      b st
