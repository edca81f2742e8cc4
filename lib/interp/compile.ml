(** Two-stage lowering of VIR for the interpreter.

    Stage 1 (register form): operand lookups become O(1) — register
    operands become indices into a per-frame register file, constants
    become pre-evaluated {!Vvalue.t}s, block labels become indices.

    Stage 2 (closure threading, destination-passing): every instruction
    is lowered once, at [compile_module] time, into a pre-specialized
    [state -> unit] closure that has already matched on the opcode, the
    scalar kind, and the operand shape (register vs immediate).

    Register slots are *pinned buffers*: each frame carries one mutable
    {!Vvalue.t} per dense register slot, shaped from the register's
    static SSA type at compile time, and kernels write their result
    lanes in place into the destination register's buffer — the steady
    state allocates nothing. In-place writes are sound because the IR
    is verified SSA: a destination register is distinct from every
    operand register (its definition strictly dominates all uses), so a
    kernel never reads a buffer it is writing. The two places where
    that argument needs more care are handled explicitly:

    - phi resolution is a *parallel copy* into the phi registers' own
      buffers at block entry ({!thread_phis}: when one phi's source is
      another phi's destination, reads are materialized into fresh
      copies before any write);
    - every value that escapes the register file — call arguments and
      returns crossing frames, extern-call arguments and results, the
      top-level [run] result — is copied at the boundary, and shared
      immediates ([Cimm]) are only ever copied *from*, never handed
      out as writable buffers.

    Calls are pre-resolved into direct calls (the callee's compiled
    function captured), specialized intrinsic closures, or extern
    *slots* — the string-keyed hash lookups of the old interpreter
    happen once per module instead of once per dynamic call. A slot
    bound as a fault site runs inside the interpreter, and each
    instrumented vector fault site runs on the hot path as one kernel
    (see "Fault-site kernels" below). The campaign semantics (fuel,
    dyn_count/dyn_vector accounting, traps, extern hook surface) are
    preserved exactly. *)

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
          after. [pending_live] derives every checkpoint's saved set
          from it. *)
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
  (* The same body closures, one per instruction, annotated with the
     call structure ([skind]). Only the resumable driver
     ([exec_resumable]) walks this array; the hot path ([t_body]) never
     does. *)
  t_steps : tstep array;
}

and tstep = { s_exec : texec; s_kind : skind }

(* What a body instruction does to the call structure. [Kplain] covers
   everything that stays within the current activation (including
   intrinsics and arity-mismatched direct calls, which raise without
   entering the callee); [Kcall] is a resolved direct call, carrying
   enough of the call-site shape to re-enter the callee under position
   tracking; [Kextern] is an extern-slot call, the only place a fault
   can be injected and hence the only checkpoint site. The registers a
   checkpoint saves at a [Kcall] or [Kextern] step come from
   [pending_live]. *)
and skind =
  | Kplain
  | Kcall of {
      k_target : cfunc;
      k_gs : tgetter array;
      k_dst : int;
      k_chg : state -> unit;
    }
  | Kextern

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
      (** fusion chains ([chain_length]) lowered with at least one
          fused kernel *)
  fused_hist : (int, int) Hashtbl.t;
      (** chain length -> count over the fused chains *)
  unfused : (string, int) Hashtbl.t;
      (** member kinds (["fbinop+select"]) -> count over the chains no
          kernel covers, which run one closure per member *)
  mutable n_site_kernels : int;
      (** instrumented vector fault sites lowered to one hot-path
          kernel each (see [thread_site_chain]); not counted in
          [n_fused_chains] *)
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
          runtime's generic apply); [exec_cfunc] points this at the
          frame on entry and call sites restore it on return. *)
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
}

and extern_fn = state -> Vvalue.t list -> Vvalue.t option

(* What a call on an extern slot runs. [Host] handlers take the
   arguments as a list of borrowed register aliases; [Site] is the
   fault-injection primitive, run by the interpreter itself without
   building an argument list (see [site_call]). *)
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

(* ------------------------------------------------------------------ *)
(* Stage 1: register form                                              *)

let compile_operand (o : Vir.Instr.operand) =
  match o with
  | Vir.Instr.Reg (r, _) -> Creg r
  | Vir.Instr.Imm c -> Cimm (Vvalue.of_const c)

(* Shared template filler for register slots without a static def
   (unreachable under verified SSA). Frames copy the template, so the
   shared value itself is never written. *)
let default_value = Vvalue.I (Vir.Vtype.I32, Ilanes.make 1 0L)

let compile_func ~(func_id : int) (f : Vir.Func.t) : cfunc =
  let blocks = Array.of_list f.Vir.Func.blocks in
  let index_of = Hashtbl.create (Array.length blocks) in
  Array.iteri
    (fun i b -> Hashtbl.replace index_of b.Vir.Block.label i)
    blocks;
  let block_index label =
    match Hashtbl.find_opt index_of label with
    | Some i -> i
    | None -> invalid_arg ("Compile: unknown label %" ^ label)
  in
  let compile_block (b : Vir.Block.t) : cblock =
    let phis = ref [] and body = ref [] and term = ref None in
    List.iter
      (fun (i : Vir.Instr.t) ->
        match i.Vir.Instr.op with
        | Vir.Instr.Phi incoming ->
          phis :=
            {
              pdst = i.Vir.Instr.id;
              incoming =
                Array.of_list
                  (List.map
                     (fun (l, v) -> (block_index l, compile_operand v))
                     incoming);
            }
            :: !phis
        | Vir.Instr.Br l -> term := Some (Tbr (block_index l), i)
        | Vir.Instr.Condbr (c, l1, l2) ->
          term :=
            Some
              ( Tcondbr (compile_operand c, block_index l1, block_index l2),
                i )
        | Vir.Instr.Ret v ->
          term := Some (Tret (Option.map compile_operand v), i)
        | Vir.Instr.Unreachable -> term := Some (Tunreachable, i)
        | _ ->
          body :=
            {
              src = i;
              dst = (if Vir.Instr.defines i then i.Vir.Instr.id else -1);
              ops =
                Array.of_list
                  (List.map compile_operand (Vir.Instr.operands i));
              cvec = Vir.Instr.is_vector_instr i;
            }
            :: !body)
      b.Vir.Block.instrs;
    let term, term_src =
      match !term with
      | Some (t, i) -> (t, i)
      | None ->
        invalid_arg
          (Printf.sprintf "Compile: block %%%s has no terminator"
             b.Vir.Block.label)
    in
    {
      clabel = b.Vir.Block.label;
      cphis = Array.of_list (List.rev !phis);
      body = Array.of_list (List.rev !body);
      term;
      term_src;
    }
  in
  let nregs = f.Vir.Func.next_reg in
  (* Buffer template: one zeroed value per register slot, shaped from
     the slot's static SSA type (parameter types for params, result
     types for defining instructions — phis included). *)
  let reg_tmpl = Array.make nregs default_value in
  List.iter
    (fun (p : Vir.Func.param) ->
      reg_tmpl.(p.Vir.Func.preg) <- Vvalue.zero_of_ty p.Vir.Func.pty)
    f.Vir.Func.params;
  List.iter
    (fun (b : Vir.Block.t) ->
      List.iter
        (fun (i : Vir.Instr.t) ->
          if Vir.Instr.defines i then
            reg_tmpl.(i.Vir.Instr.id) <- Vvalue.zero_of_ty i.Vir.Instr.ty)
        b.Vir.Block.instrs)
    f.Vir.Func.blocks;
  {
    cf = f;
    cblocks = Array.map compile_block blocks;
    nregs;
    nparams = List.length f.Vir.Func.params;
    func_id;
    alloca_name = f.Vir.Func.fname ^ ".alloca";
    reg_tmpl;
    tblocks = [||];
    live_in = [||];
  }

(* ------------------------------------------------------------------ *)
(* Per-register liveness over the register-form CFG. The convergence
   executor compares frames only over the live-in registers of each
   interrupted position: pooled frames are reused across runs without
   clearing, so dead slots hold garbage from unrelated experiments —
   comparing them would be sound but would make convergence near-never
   fire. Restricting to live registers stays exact: a register is live
   at p iff the continuation from p can read its current value, so
   equal live registers (plus memory and counters) imply an identical
   continuation. Standard backward dataflow; phi uses are attributed to
   the predecessor edge and phi defs kill at the successor's entry.

   Sets are word bitsets over a function's register slots,
   [Sys.int_size] slots a word. Only block live-ins are stored (per
   function, by [thread_func]); the set a checkpoint saves is derived
   from them on demand by [pending_live]. *)

let instr_uses (ci : cinstr) (mark : int -> unit) : unit =
  Array.iter (function Creg r -> mark r | Cimm _ -> ()) ci.ops

let term_uses (t : cterm) (mark : int -> unit) : unit =
  match t with
  | Tcondbr (Creg r, _, _) -> mark r
  | Tret (Some (Creg r)) -> mark r
  | Tbr _ | Tcondbr (Cimm _, _, _) | Tret _ | Tunreachable -> ()

let block_succs (t : cterm) : int list =
  match t with
  | Tbr l -> [ l ]
  | Tcondbr (_, l1, l2) -> [ l1; l2 ]
  | Tret _ | Tunreachable -> []

let bits_words nregs = (nregs + Sys.int_size - 1) / Sys.int_size

let bits_add (s : int array) r =
  let w = r / Sys.int_size in
  s.(w) <- s.(w) lor (1 lsl (r mod Sys.int_size))

let bits_remove (s : int array) r =
  let w = r / Sys.int_size in
  s.(w) <- s.(w) land lnot (1 lsl (r mod Sys.int_size))

(* The members of [s], ascending. *)
let bits_to_array (s : int array) : int array =
  let count = ref 0 in
  Array.iter
    (fun w ->
      let w = ref w in
      while !w <> 0 do
        w := !w land (!w - 1);
        incr count
      done)
    s;
  let out = Array.make !count 0 and j = ref 0 in
  Array.iteri
    (fun wi w ->
      if w <> 0 then
        for b = 0 to Sys.int_size - 1 do
          if (w lsr b) land 1 <> 0 then begin
            out.(!j) <- (wi * Sys.int_size) + b;
            incr j
          end
        done)
    s;
  out

(* Step backwards over body instruction [ci]: kill its destination,
   then add its uses. A plain loop: [capture] walks many steps, and a
   closure per step would allocate. *)
let step_back (live : int array) (ci : cinstr) : unit =
  if ci.dst >= 0 then bits_remove live ci.dst;
  for j = 0 to Array.length ci.ops - 1 do
    match ci.ops.(j) with Creg r -> bits_add live r | Cimm _ -> ()
  done

(* Live-out of block [bi] into [live]: every successor's live-in (which
   already excludes its phi defs) plus the phi sources those successors
   draw from this edge (first-match semantics, like [thread_phis]). *)
let live_out_into (cf : cfunc) (live_in : int array array) (bi : int)
    (blk : cblock) (live : int array) : unit =
  List.iter
    (fun s ->
      let sin = live_in.(s) in
      for w = 0 to Array.length sin - 1 do
        live.(w) <- live.(w) lor sin.(w)
      done;
      Array.iter
        (fun (p : cphi) ->
          match
            Array.find_opt (fun (pred, _) -> pred = bi) p.incoming
          with
          | Some (_, Creg r) -> bits_add live r
          | Some (_, Cimm _) | None -> ())
        cf.cblocks.(s).cphis)
    (block_succs blk.term)

(* Live-in (at block entry, before the phi moves) per block: the least
   fixpoint, by a worklist that re-queues a block's predecessors
   whenever its live-in grows. *)
let live_in_sets (cf : cfunc) : int array array =
  let nb = Array.length cf.cblocks in
  let words = bits_words cf.nregs in
  let live_in = Array.init nb (fun _ -> Array.make words 0) in
  let preds = Array.make nb [] in
  Array.iteri
    (fun bi (blk : cblock) ->
      List.iter (fun s -> preds.(s) <- bi :: preds.(s)) (block_succs blk.term))
    cf.cblocks;
  (* a stack of queued blocks, last block on top *)
  let work = Array.init nb Fun.id and top = ref nb in
  let queued = Array.make nb true in
  let live = Array.make words 0 in
  while !top > 0 do
    decr top;
    let bi = work.(!top) in
    queued.(bi) <- false;
    let blk = cf.cblocks.(bi) in
    Array.fill live 0 words 0;
    live_out_into cf live_in bi blk live;
    term_uses blk.term (bits_add live);
    for k = Array.length blk.body - 1 downto 0 do
      step_back live blk.body.(k)
    done;
    Array.iter (fun (p : cphi) -> bits_remove live p.pdst) blk.cphis;
    if live <> live_in.(bi) then begin
      Array.blit live 0 live_in.(bi) 0 words;
      List.iter
        (fun p ->
          if not queued.(p) then begin
            queued.(p) <- true;
            work.(!top) <- p;
            incr top
          end)
        preds.(bi)
    end
  done;
  live_in

(* The registers a continuation from pending call step [step] of block
   [block] can read, ascending: the frame slots a checkpoint saves and
   a convergence check compares (pooled frames are never cleared, so
   dead slots hold unrelated garbage and must be skipped). The walk
   starts from the block's live-out and goes backwards over the steps
   after the pending one. The innermost activation resumes at its
   pending extern call, which re-executes: live before the call, its
   destination killed and its arguments added. An outer activation
   resumes past its pending direct call, whose destination the
   callee's return value overwrites (itself determined by the compared
   callee state): live after the call minus the destination. *)
let pending_live (cf : cfunc) ~(block : int) ~(step : int) ~(innermost : bool)
    : int array =
  (match (cf.tblocks.(block).t_steps.(step).s_kind, innermost) with
  | Kextern, true | Kcall _, false -> ()
  | _ -> invalid_arg "Compile.pending_live: not at a pending call");
  let blk = cf.cblocks.(block) in
  let live = Array.make (bits_words cf.nregs) 0 in
  live_out_into cf cf.live_in block blk live;
  term_uses blk.term (bits_add live);
  for k = Array.length blk.body - 1 downto step + 1 do
    step_back live blk.body.(k)
  done;
  let ci = blk.body.(step) in
  if innermost then step_back live ci
  else if ci.dst >= 0 then bits_remove live ci.dst;
  bits_to_array live

(* ------------------------------------------------------------------ *)
(* Execution engine                                                    *)

(* The executed-instruction count is derived ([budget0 - fuel]) so the
   per-instruction prologue is a single decrement + branch. *)
let charge st =
  st.fuel <- st.fuel - 1;
  if st.fuel < 0 then Trap.raise_ Trap.Budget_exhausted

let charge_vec st =
  st.fuel <- st.fuel - 1;
  if st.fuel < 0 then Trap.raise_ Trap.Budget_exhausted;
  st.dyn_vector <- st.dyn_vector + 1

(* The pinned-buffer frame for [cf] at the state's current depth,
   instantiated from the template on first use and cached forever. *)
let frame_for (st : state) (cf : cfunc) : Vvalue.t array =
  let depth = st.depth in
  let row = Array.unsafe_get st.frames depth in
  let row =
    if Array.length row > 0 then row
    else begin
      let fresh = Array.make (max st.code.n_funcs 1) [||] in
      st.frames.(depth) <- fresh;
      fresh
    end
  in
  let fr = Array.unsafe_get row cf.func_id in
  if Array.length fr > 0 then fr
  else begin
    (* Gap slots (register numbers of void instructions) share the
       template's default value instead of getting a private buffer: no
       kernel ever writes a slot without a defining instruction, and
       under verified SSA none reads one either. *)
    let fresh =
      Array.map
        (fun v -> if v == default_value then v else Vvalue.copy v)
        cf.reg_tmpl
    in
    row.(cf.func_id) <- fresh;
    fresh
  end

(* Run one threaded function body over a prepared register file. A
   [Ct_ret] result is an *alias* of a frame buffer (or a shared
   immediate): callers must copy it out before the frame can run
   again — direct-call sites do so in [store_ret], and [Machine.run]
   deep-copies the value it hands to the host. *)
let exec_cfunc (st : state) (cf : cfunc) (regs : Vvalue.t array) :
    Vvalue.t option =
  st.regs <- regs;
  let blocks = cf.tblocks in
  let rec go prev cur =
    let b = Array.unsafe_get blocks cur in
    if Array.length b.t_phis <> 0 then b.t_phis.(prev + 1) st;
    b.t_body st;
    charge st;
    match b.t_term with
    | Ct_br next -> go cur next
    | Ct_condbr_reg (r, l1, l2) -> (
      match Array.unsafe_get regs r with
      | Vvalue.I (_, ba) -> if Ilanes.unsafe_get ba 0 <> 0L then go cur l1 else go cur l2
      | v -> if Vvalue.as_bool v then go cur l1 else go cur l2)
    | Ct_condbr (c, l1, l2) ->
      if Vvalue.as_bool (c regs) then go cur l1 else go cur l2
    | Ct_ret g -> Some (g regs)
    | Ct_ret_void -> None
    | Ct_unreachable -> Trap.raise_ Trap.Unreachable_executed
  in
  go (-1) 0

(* ------------------------------------------------------------------ *)
(* The resumable tracked driver, machine-state checkpoints and
   convergence checks.

   [exec_resumable] is the one execution path besides the hot
   [exec_cfunc]. It runs the same threaded closures, but while the run
   is *attached* it walks [t_steps] one instruction at a time,
   maintaining a shadow call stack of (function, block, instruction)
   positions, and offers every extern call — before it executes — to a
   caller-supplied [check] together with that stack. A check may
   [capture] a checkpoint there (the checkpoint-laying replay), or
   compare the machine against one with [state_equal] and raise to
   terminate the run (the converge-pruned executor).

   [check] returns whether a future call can still matter. The first
   [false] *detaches* the run: tracking stops, the interrupted block
   finishes through its per-step closures, and every later block — of
   this activation and of every enclosing one — runs through the
   composed [t_body] closures at full speed (per-step tracking forgoes
   the fused superblock kernels, so a suffix that can no longer check
   would otherwise pay the tracked-interpreter tax for nothing). A run
   without a [check] starts detached.

   A run starts either fresh, entering a function at block 0, or from
   a checkpoint: memory, counters and live registers roll back, then
   the recorded call stack unwinds innermost-first. The innermost frame
   restarts at its saved step — the checked extern call, which
   therefore re-executes, so an injection planted at that site happens
   naturally on resume — and each outer frame consumes its callee's
   return value and continues just past its pending call instruction. *)

type tracked_frame = {
  tf_func : cfunc;
  tf_regs : Vvalue.t array;
  mutable tf_block : int;
  mutable tf_instr : int;
}

type frame_ckpt = {
  fc_func : cfunc;
  fc_block : int;
  fc_instr : int;  (** index into [t_steps]; the step has NOT executed *)
  fc_frame : Vvalue.t array;
      (** the live pool frame, aliased — a checkpoint is bound to the
          machine that captured it *)
  fc_live : int array;
      (** the registers a continuation from this position can read
          ([pending_live]), ascending *)
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

(* Fired before each extern call of an attached run with the shadow
   stack (innermost activation first); [false] detaches the run. *)
type check = state -> tracked_frame list -> bool

(* The machine state at the position [stack] describes: the memory
   image (through {!Memory.snapshot}'s dirty-span machinery), deep
   copies of the live registers of every activation, the call-stack
   positions, and the dynamic counters. Taken inside a [check], it sits
   before the pending extern call, which a resume re-executes.

   Only live registers are saved, by the argument [state_equal] rests
   on: under verified SSA a continuation reads a register slot only if
   the slot is live at the position it resumes from, and every other
   slot is written before it is read. [pending_live] computes that set
   for each frame: live before the extern call for the innermost
   activation, which resumes at the call itself; live after the
   pending call minus its destination for an outer one, which resumes
   past it. A resume that restores these registers and leaves every
   other slot holding whatever the pool frame last held is therefore
   indistinguishable from one that restores the whole frame. *)
let capture (st : state) (stack : tracked_frame list) : checkpoint =
  let save ~innermost tf =
    let live =
      pending_live tf.tf_func ~block:tf.tf_block ~step:tf.tf_instr ~innermost
    in
    {
      fc_func = tf.tf_func;
      fc_block = tf.tf_block;
      fc_instr = tf.tf_instr;
      fc_frame = tf.tf_regs;
      fc_live = live;
      fc_saved = Array.map (fun r -> Vvalue.copy tf.tf_regs.(r)) live;
    }
  in
  let frames =
    match stack with
    | [] -> invalid_arg "Compile.capture: empty call stack"
    | inner :: outer ->
      save ~innermost:true inner :: List.map (save ~innermost:false) outer
  in
  {
    ck_mem = Memory.snapshot st.mem;
    ck_stack = Array.of_list (List.rev frames);
    ck_spent = st.budget0 - st.fuel;
    ck_vec = st.dyn_vector;
    ck_detections = st.detections;
    ck_sites = st.sites;
  }

(* Exact machine-state comparison against a checkpoint, restricted to
   what can influence the continuation: the dynamic counters (detector
   firings and fault sites included), the call stack's (function,
   block, instruction) positions, the live registers of each
   interrupted position — the ones [capture] saved; dead slots of
   pooled frames hold garbage from unrelated runs — and memory over
   the union of the golden run's accumulated dirty spans [since] and
   the faulty run's own live dirty spans (every byte outside both is
   untouched since the shared post-setup image). Equality here implies
   the two executions complete identically: the continuation reads
   only live registers, compared memory, and the counters — and fault
   injectors past the injection site never modify values or draw
   randomness. *)
let state_equal (st : state) (stack : tracked_frame list)
    (ck : checkpoint) ~(since : Memory.spans) : bool =
  st.budget0 - st.fuel = ck.ck_spent
  && st.dyn_vector = ck.ck_vec
  && st.detections = ck.ck_detections
  && st.sites = ck.ck_sites
  &&
  let frame_eq (tf : tracked_frame) (fc : frame_ckpt) =
    tf.tf_func == fc.fc_func
    && tf.tf_block = fc.fc_block
    && tf.tf_instr = fc.fc_instr
    &&
    let live = fc.fc_live and saved = fc.fc_saved in
    let rec regs_eq j =
      j < 0
      || Vvalue.equal tf.tf_regs.(live.(j)) saved.(j) && regs_eq (j - 1)
    in
    regs_eq (Array.length live - 1)
  in
  (* [stack] is innermost-first; [ck_stack] outermost-first. Equal
     depths and positions imply equal live sets. *)
  let rec frames_eq i = function
    | [] -> i < 0
    | tf :: rest ->
      i >= 0 && frame_eq tf ck.ck_stack.(i) && frames_eq (i - 1) rest
  in
  frames_eq (Array.length ck.ck_stack - 1) stack
  && Memory.equal_since st.mem ck.ck_mem ~since

(* Where an [exec_resumable] run starts. [Resume]'s [budget] re-arms
   the fuel epoch exactly like [Machine.reset ~budget] before a fresh
   run would: [dyn_count] after the resume reads prefix + suffix. *)
type entry =
  | Fresh of cfunc * Vvalue.t array
      (** enter the function at block 0 over its prepared frame *)
  | Resume of { ck : checkpoint; budget : int }

(* A callee's result (frame-buffer alias or extern-produced value) is
   copied into the caller's destination buffer: nothing escaping a
   frame is ever shared. *)
let store_ret (regs : Vvalue.t array) dst (r : Vvalue.t option) =
  match r with
  | Some v when dst >= 0 -> Vvalue.copy_into ~dst:(Array.unsafe_get regs dst) v
  | Some _ | None -> ()

let exec_resumable (st : state) ?(check : check option) (entry : entry) :
    Vvalue.t option =
  (* the detach latch, shared by every activation of the run *)
  let live = ref (Option.is_some check) in
  let check = Option.value check ~default:(fun _ _ -> false) in
  let stack = ref [] in
  (* Run activation [tf] to its return: from block 0 when [at < 0],
     else from step [at] of its current block (no phi moves). *)
  let rec activation (tf : tracked_frame) ~(at : int) : Vvalue.t option =
    let blocks = tf.tf_func.tblocks and regs = tf.tf_regs in
    st.regs <- regs;
    (* Steps [k0..] of block [cur]: tracked while attached, the rest
       (after a detach, or all of them when detached) through the
       plain step closures. *)
    let walk cur b k0 =
      tf.tf_block <- cur;
      let steps = b.t_steps in
      let n = Array.length steps in
      let k = ref k0 in
      while !live && !k < n do
        tf.tf_instr <- !k;
        let s = Array.unsafe_get steps !k in
        (match s.s_kind with
        | Kplain -> s.s_exec st
        | Kextern ->
          if not (check st !stack) then live := false;
          s.s_exec st
        | Kcall { k_target; k_gs; k_dst; k_chg; _ } ->
          (* Mirrors the direct-call closure built by [thread_call]
             step for step, with the callee run under tracking. *)
          k_chg st;
          st.depth <- st.depth + 1;
          if st.depth > st.max_depth then Trap.raise_ Trap.Stack_overflow_vm;
          let regs' = frame_for st k_target in
          for a = 0 to Array.length k_gs - 1 do
            Vvalue.copy_into
              ~dst:(Array.unsafe_get regs' a)
              ((Array.unsafe_get k_gs a) regs)
          done;
          let callee =
            { tf_func = k_target; tf_regs = regs'; tf_block = 0; tf_instr = 0 }
          in
          stack := callee :: !stack;
          let r = activation callee ~at:(-1) in
          stack := List.tl !stack;
          st.regs <- regs;
          st.depth <- st.depth - 1;
          store_ret regs k_dst r);
        incr k
      done;
      for j = !k to n - 1 do
        (Array.unsafe_get steps j).s_exec st
      done
    in
    let rec enter prev cur =
      let b = Array.unsafe_get blocks cur in
      if Array.length b.t_phis <> 0 then b.t_phis.(prev + 1) st;
      if !live then walk cur b 0 else b.t_body st;
      leave cur b
    and leave cur b =
      charge st;
      match b.t_term with
      | Ct_br next -> enter cur next
      | Ct_condbr_reg (r, l1, l2) -> (
        match Array.unsafe_get regs r with
        | Vvalue.I (_, ba) ->
          if Ilanes.unsafe_get ba 0 <> 0L then enter cur l1 else enter cur l2
        | v -> if Vvalue.as_bool v then enter cur l1 else enter cur l2)
      | Ct_condbr (c, l1, l2) ->
        if Vvalue.as_bool (c regs) then enter cur l1 else enter cur l2
      | Ct_ret g -> Some (g regs)
      | Ct_ret_void -> None
      | Ct_unreachable -> Trap.raise_ Trap.Unreachable_executed
    in
    if at < 0 then enter (-1) 0
    else begin
      let cur = tf.tf_block in
      let b = Array.unsafe_get blocks cur in
      walk cur b at;
      leave cur b
    end
  in
  match entry with
  | Fresh (cf, regs) ->
    let tf = { tf_func = cf; tf_regs = regs; tf_block = 0; tf_instr = 0 } in
    stack := [ tf ];
    activation tf ~at:(-1)
  | Resume { ck; budget } ->
    let n = Array.length ck.ck_stack in
    if n = 0 then invalid_arg "Compile.exec_resumable: empty checkpoint stack";
    Memory.restore st.mem ck.ck_mem;
    st.budget0 <- budget;
    st.fuel <- budget - ck.ck_spent;
    st.dyn_vector <- ck.ck_vec;
    st.detections <- ck.ck_detections;
    st.sites <- ck.ck_sites;
    let tfs =
      Array.map
        (fun fc ->
          (* live registers only: see [capture] *)
          Array.iteri
            (fun j r -> Vvalue.copy_into ~dst:fc.fc_frame.(r) fc.fc_saved.(j))
            fc.fc_live;
          { tf_func = fc.fc_func; tf_regs = fc.fc_frame;
            tf_block = fc.fc_block; tf_instr = fc.fc_instr })
        ck.ck_stack
    in
    stack := Array.fold_left (fun inner tf -> tf :: inner) [] tfs;
    let rec unwind level ret =
      let tf = tfs.(level) in
      st.depth <- level;
      let at =
        if level = n - 1 then tf.tf_instr
        else begin
          (match
             tf.tf_func.tblocks.(tf.tf_block).t_steps.(tf.tf_instr).s_kind
           with
          | Kcall { k_dst; _ } -> store_ret tf.tf_regs k_dst ret
          | _ -> assert false);
          tf.tf_instr + 1
        end
      in
      let r = activation tf ~at in
      stack := List.tl !stack;
      if level = 0 then r else unwind (level - 1) r
    in
    unwind (n - 1) None

(* A call on a [Site] slot: the value and mask lanes are read straight
   from their registers and the result is written into [dst] — no
   argument list, no option, no host round trip. Exactly the protocol
   the [site] type documents; [gsite] is read only when the site fires. *)
let site_call (st : state) (s : site) (regs : Vvalue.t array) dst
    (v : Vvalue.t) (mask : Vvalue.t) (gsite : Vvalue.t array -> Vvalue.t) =
  let live =
    (not s.respect_masks)
    ||
    (* [Vvalue.as_bool] without boxing the lane *)
    match mask with
    | Vvalue.I (_, m) when Ilanes.length m = 1 -> Ilanes.unsafe_get m 0 <> 0L
    | _ -> Vvalue.as_bool mask
  in
  let fired =
    live
    &&
    let n = st.sites + 1 in
    st.sites <- n;
    n = s.armed
  in
  if fired then
    store_ret regs dst
      (Some (s.fire (Int64.to_int (Vvalue.as_int (gsite regs))) v))
  else if dst >= 0 then
    match (Array.unsafe_get regs dst, v) with
    | Vvalue.I (_, d), Vvalue.I (_, x)
      when Ilanes.length d = 1 && Ilanes.length x = 1 ->
      Ilanes.unsafe_set d 0 (Ilanes.unsafe_get x 0)
    | Vvalue.F (_, d), Vvalue.F (_, x)
      when Array.length d = 1 && Array.length x = 1 ->
      Array.unsafe_set d 0 (Array.unsafe_get x 0)
    | d, _ -> Vvalue.copy_into ~dst:d v

(* ------------------------------------------------------------------ *)
(* Stage 2: closure threading                                          *)

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

(* Threading of one non-phi, non-terminator instruction. [chg] is the
   fuel-accounting prologue (scalar or vector variant), pre-selected.
   Every kernel writes its result into the destination register's
   pinned buffer ([regs.(dst)]); under SSA the destination register is
   distinct from every operand register, so the writes never clobber an
   operand being read. *)
let rec thread_instr (cm : cmodule) (cf : cfunc) (ci : cinstr) : texec =
  let i = ci.src in
  let ops = ci.ops in
  let dst = ci.dst in
  let chg = if ci.cvec then charge_vec else charge in
  match i.Vir.Instr.op with
  | Vir.Instr.Ibinop (k, _, _) -> (
    let ik = Eval.ibinop_into_fn k (Vir.Vtype.elem i.Vir.Instr.ty) in
    let bad () = invalid_arg "Machine: ibinop on floats" in
    if Vir.Vtype.lanes i.Vir.Instr.ty = 1 then
      (* Scalar loop arithmetic is the single hottest instruction class;
         specialize on operand shape (register vs pre-extracted
         immediate payload) to drop the getter indirection. *)
      match (ops.(0), ops.(1)) with
      | Creg ra, Creg rb ->
        fun st ->
        let regs = st.regs in
          st.fuel <- st.fuel - 1;
          if st.fuel < 0 then Trap.raise_ Trap.Budget_exhausted;
          (match
             ( Array.unsafe_get regs ra,
               Array.unsafe_get regs rb,
               Array.unsafe_get regs dst )
           with
          | Vvalue.I (_, a), Vvalue.I (_, b), Vvalue.I (_, o) -> ik a b o
          | _ -> bad ())
      | Creg ra, Cimm (Vvalue.I (_, __imm)) when Ilanes.length __imm = 1 ->
        (* The immediate payload lives in its own 1-lane buffer so the
           kernel sees only flat buffers: no per-call boxing. *)
        let ib = Ilanes.copy __imm in
        fun st ->
        let regs = st.regs in
          st.fuel <- st.fuel - 1;
          if st.fuel < 0 then Trap.raise_ Trap.Budget_exhausted;
          (match (Array.unsafe_get regs ra, Array.unsafe_get regs dst) with
          | Vvalue.I (_, a), Vvalue.I (_, o) -> ik a ib o
          | _ -> bad ())
      | Cimm (Vvalue.I (_, __imm)), Creg rb when Ilanes.length __imm = 1 ->
        let ia = Ilanes.copy __imm in
        fun st ->
        let regs = st.regs in
          st.fuel <- st.fuel - 1;
          if st.fuel < 0 then Trap.raise_ Trap.Budget_exhausted;
          (match (Array.unsafe_get regs rb, Array.unsafe_get regs dst) with
          | Vvalue.I (_, b), Vvalue.I (_, o) -> ik ia b o
          | _ -> bad ())
      | o1, o2 ->
        let ga = getter o1 and gb = getter o2 in
        fun st ->
        let regs = st.regs in
          st.fuel <- st.fuel - 1;
          if st.fuel < 0 then Trap.raise_ Trap.Budget_exhausted;
          (match (ga regs, gb regs, Array.unsafe_get regs dst) with
          | Vvalue.I (_, a), Vvalue.I (_, b), Vvalue.I (_, o) -> ik a b o
          | _ -> bad ())
    else
      let ga = getter ops.(0) and gb = getter ops.(1) in
      fun st ->
        let regs = st.regs in
        st.fuel <- st.fuel - 1;
        if st.fuel < 0 then Trap.raise_ Trap.Budget_exhausted;
        st.dyn_vector <- st.dyn_vector + 1;
        (match (ga regs, gb regs, Array.unsafe_get regs dst) with
        | Vvalue.I (_, a), Vvalue.I (_, b), Vvalue.I (_, o) -> ik a b o
        | _ -> bad ()))
  | Vir.Instr.Fbinop (k, _, _) -> (
    let s = Vir.Vtype.elem i.Vir.Instr.ty in
    let f = Eval.fbinop_fn k s in
    let bad () = invalid_arg "Machine: fbinop on ints" in
    if Vir.Vtype.lanes i.Vir.Instr.ty = 1 then
      match (ops.(0), ops.(1)) with
      | Creg ra, Creg rb ->
        fun st ->
        let regs = st.regs in
          st.fuel <- st.fuel - 1;
          if st.fuel < 0 then Trap.raise_ Trap.Budget_exhausted;
          (match
             ( Array.unsafe_get regs ra,
               Array.unsafe_get regs rb,
               Array.unsafe_get regs dst )
           with
          | Vvalue.F (_, a), Vvalue.F (_, b), Vvalue.F (_, o) ->
            Array.unsafe_set o 0
              (f (Array.unsafe_get a 0) (Array.unsafe_get b 0))
          | _ -> bad ())
      | Creg ra, Cimm (Vvalue.F (_, [| bv |])) ->
        fun st ->
        let regs = st.regs in
          st.fuel <- st.fuel - 1;
          if st.fuel < 0 then Trap.raise_ Trap.Budget_exhausted;
          (match (Array.unsafe_get regs ra, Array.unsafe_get regs dst) with
          | Vvalue.F (_, a), Vvalue.F (_, o) ->
            Array.unsafe_set o 0 (f (Array.unsafe_get a 0) bv)
          | _ -> bad ())
      | Cimm (Vvalue.F (_, [| av |])), Creg rb ->
        fun st ->
        let regs = st.regs in
          st.fuel <- st.fuel - 1;
          if st.fuel < 0 then Trap.raise_ Trap.Budget_exhausted;
          (match (Array.unsafe_get regs rb, Array.unsafe_get regs dst) with
          | Vvalue.F (_, b), Vvalue.F (_, o) ->
            Array.unsafe_set o 0 (f av (Array.unsafe_get b 0))
          | _ -> bad ())
      | o1, o2 ->
        let ga = getter o1 and gb = getter o2 in
        fun st ->
        let regs = st.regs in
          st.fuel <- st.fuel - 1;
          if st.fuel < 0 then Trap.raise_ Trap.Budget_exhausted;
          (match (ga regs, gb regs, Array.unsafe_get regs dst) with
          | Vvalue.F (_, a), Vvalue.F (_, b), Vvalue.F (_, o) ->
            o.(0) <- f a.(0) b.(0)
          | _ -> bad ())
    else
      let ga = getter ops.(0) and gb = getter ops.(1) in
      let vmap =
        match Eval.fbinop_vec_into_fn k s with
        | Some vf -> vf
        | None -> map2_float_into f
      in
      fun st ->
        let regs = st.regs in
        st.fuel <- st.fuel - 1;
        if st.fuel < 0 then Trap.raise_ Trap.Budget_exhausted;
        st.dyn_vector <- st.dyn_vector + 1;
        (match (ga regs, gb regs, Array.unsafe_get regs dst) with
        | Vvalue.F (_, a), Vvalue.F (_, b), Vvalue.F (_, o) -> vmap a b o
        | _ -> bad ()))
  | Vir.Instr.Icmp (p, _, _) -> (
    let s = op_scalar i 0 in
    let ick = Eval.icmp_into_fn p s in
    let bad () = invalid_arg "Machine: icmp on floats" in
    let lanes =
      Vir.Vtype.lanes
        (Vir.Instr.operand_ty (List.hd (Vir.Instr.operands i)))
    in
    if lanes = 1 then
      match (ops.(0), ops.(1)) with
      | Creg ra, Creg rb ->
        fun st ->
        let regs = st.regs in
          st.fuel <- st.fuel - 1;
          if st.fuel < 0 then Trap.raise_ Trap.Budget_exhausted;
          (match
             ( Array.unsafe_get regs ra,
               Array.unsafe_get regs rb,
               Array.unsafe_get regs dst )
           with
          | Vvalue.I (_, a), Vvalue.I (_, b), Vvalue.I (_, o) -> ick a b o
          | _ -> bad ())
      | Creg ra, Cimm (Vvalue.I (_, __imm)) when Ilanes.length __imm = 1 ->
        let ib = Ilanes.copy __imm in
        fun st ->
        let regs = st.regs in
          st.fuel <- st.fuel - 1;
          if st.fuel < 0 then Trap.raise_ Trap.Budget_exhausted;
          (match (Array.unsafe_get regs ra, Array.unsafe_get regs dst) with
          | Vvalue.I (_, a), Vvalue.I (_, o) -> ick a ib o
          | _ -> bad ())
      | o1, o2 ->
        let ga = getter o1 and gb = getter o2 in
        fun st ->
        let regs = st.regs in
          st.fuel <- st.fuel - 1;
          if st.fuel < 0 then Trap.raise_ Trap.Budget_exhausted;
          (match (ga regs, gb regs, Array.unsafe_get regs dst) with
          | Vvalue.I (_, a), Vvalue.I (_, b), Vvalue.I (_, o) -> ick a b o
          | _ -> bad ())
    else
      let ga = getter ops.(0) and gb = getter ops.(1) in
      fun st ->
        let regs = st.regs in
        st.fuel <- st.fuel - 1;
        if st.fuel < 0 then Trap.raise_ Trap.Budget_exhausted;
        st.dyn_vector <- st.dyn_vector + 1;
        (match (ga regs, gb regs, Array.unsafe_get regs dst) with
        | Vvalue.I (_, a), Vvalue.I (_, b), Vvalue.I (_, o) -> ick a b o
        | _ -> bad ()))
  | Vir.Instr.Fcmp (p, _, _) -> (
    let fck = Eval.fcmp_into_fn p in
    let bad () = invalid_arg "Machine: fcmp on ints" in
    let lanes =
      Vir.Vtype.lanes
        (Vir.Instr.operand_ty (List.hd (Vir.Instr.operands i)))
    in
    if lanes = 1 then
      let ga = getter ops.(0) and gb = getter ops.(1) in
      fun st ->
        let regs = st.regs in
        st.fuel <- st.fuel - 1;
        if st.fuel < 0 then Trap.raise_ Trap.Budget_exhausted;
        (match (ga regs, gb regs, Array.unsafe_get regs dst) with
        | Vvalue.F (_, a), Vvalue.F (_, b), Vvalue.I (_, o) -> fck a b o
        | _ -> bad ())
    else
      let ga = getter ops.(0) and gb = getter ops.(1) in
      fun st ->
        let regs = st.regs in
        st.fuel <- st.fuel - 1;
        if st.fuel < 0 then Trap.raise_ Trap.Budget_exhausted;
        st.dyn_vector <- st.dyn_vector + 1;
        (match (ga regs, gb regs, Array.unsafe_get regs dst) with
        | Vvalue.F (_, a), Vvalue.F (_, b), Vvalue.I (_, o) -> fck a b o
        | _ -> bad ()))
  | Vir.Instr.Select _ ->
    let gc = getter ops.(0)
    and gx = getter ops.(1)
    and gy = getter ops.(2) in
    let cond_lanes =
      Vir.Vtype.lanes
        (Vir.Instr.operand_ty (List.hd (Vir.Instr.operands i)))
    in
    if cond_lanes = 1 then
      fun st ->
        let regs = st.regs in
        chg st;
        Vvalue.copy_into
          ~dst:(Array.unsafe_get regs dst)
          (if Vvalue.as_bool (gc regs) then gx regs else gy regs)
    else
      fun st ->
        let regs = st.regs in
        chg st;
        (match gc regs with
        | Vvalue.I (_, c) ->
          (match (gx regs, gy regs, Array.unsafe_get regs dst) with
          | Vvalue.I (_, a), Vvalue.I (_, b), Vvalue.I (_, o) ->
            for ix = 0 to Ilanes.length o - 1 do
              Ilanes.unsafe_set o ix
                (if Ilanes.unsafe_get c ix <> 0L then Ilanes.unsafe_get a ix
                 else Ilanes.unsafe_get b ix)
            done
          | Vvalue.F (_, a), Vvalue.F (_, b), Vvalue.F (_, o) ->
            for ix = 0 to Array.length o - 1 do
              o.(ix) <-
                (if Ilanes.unsafe_get c ix <> 0L then a.(ix) else b.(ix))
            done
          | _ -> invalid_arg "Machine: select arm kind mismatch")
        | Vvalue.F _ -> invalid_arg "Machine: select on float mask")
  | Vir.Instr.Cast (k, _) ->
    let f =
      Eval.cast_into_fn k ~src:(op_scalar i 0) ~dst_ty:i.Vir.Instr.ty
    in
    let g = getter ops.(0) in
    fun st ->
        let regs = st.regs in
      chg st;
      f (g regs) (Array.unsafe_get regs dst)
  | Vir.Instr.Alloca (elt, count) ->
    let bytes = Vir.Vtype.size_bytes elt * count in
    let name = cf.alloca_name in
    fun st ->
        let regs = st.regs in
      chg st;
      (match Array.unsafe_get regs dst with
      | Vvalue.I (_, o) ->
        Ilanes.unsafe_set o 0 (Memory.alloc st.mem ~name ~bytes)
      | _ -> invalid_arg "Machine: alloca destination kind mismatch")
  | Vir.Instr.Load _ -> (
    let ld = Memory.loader_into i.Vir.Instr.ty in
    match ops.(0) with
    | Creg rp ->
      fun st ->
        let regs = st.regs in
        chg st;
        let addr =
          match Array.unsafe_get regs rp with
          | Vvalue.I (_, ia) -> Ilanes.unsafe_get ia 0
          | v -> Vvalue.as_int v
        in
        ld st.mem addr (Array.unsafe_get regs dst)
    | o ->
      let g = getter o in
      fun st ->
        let regs = st.regs in
        chg st;
        ld st.mem (Vvalue.as_int (g regs)) (Array.unsafe_get regs dst))
  | Vir.Instr.Store _ -> (
    let stv =
      Memory.storer
        (Vir.Instr.operand_ty (List.hd (Vir.Instr.operands i)))
    in
    match (ops.(0), ops.(1)) with
    | Creg rv, Creg rp ->
      fun st ->
        let regs = st.regs in
        chg st;
        let addr =
          match Array.unsafe_get regs rp with
          | Vvalue.I (_, ia) -> Ilanes.unsafe_get ia 0
          | v -> Vvalue.as_int v
        in
        stv st.mem (Array.unsafe_get regs rv) addr
    | o1, o2 ->
      let gv = getter o1 and gp = getter o2 in
      fun st ->
        let regs = st.regs in
        chg st;
        stv st.mem (gv regs) (Vvalue.as_int (gp regs)))
  | Vir.Instr.Gep (_, _, elem_bytes) -> (
    let eb = Int64.of_int elem_bytes in
    let bad () = invalid_arg "Machine: gep destination kind mismatch" in
    match (ops.(0), ops.(1)) with
    | Creg rb, Creg ri ->
      fun st ->
        let regs = st.regs in
        chg st;
        let base =
          match Array.unsafe_get regs rb with
          | Vvalue.I (_, ia) -> Ilanes.unsafe_get ia 0
          | v -> Vvalue.as_int v
        and idx =
          match Array.unsafe_get regs ri with
          | Vvalue.I (_, ia) -> Ilanes.unsafe_get ia 0
          | v -> Vvalue.as_int v
        in
        (match Array.unsafe_get regs dst with
        | Vvalue.I (_, o) ->
          Ilanes.unsafe_set o 0 (Int64.add base (Int64.mul idx eb))
        | _ -> bad ())
    | Creg rb, Cimm iv ->
      let off = Int64.mul (Vvalue.as_int iv) eb in
      fun st ->
        let regs = st.regs in
        chg st;
        let base =
          match Array.unsafe_get regs rb with
          | Vvalue.I (_, ia) -> Ilanes.unsafe_get ia 0
          | v -> Vvalue.as_int v
        in
        (match Array.unsafe_get regs dst with
        | Vvalue.I (_, o) -> Ilanes.unsafe_set o 0 (Int64.add base off)
        | _ -> bad ())
    | o1, o2 ->
      let gb = getter o1 and gi = getter o2 in
      fun st ->
        let regs = st.regs in
        chg st;
        let p =
          Int64.add (Vvalue.as_int (gb regs))
            (Int64.mul (Vvalue.as_int (gi regs)) eb)
        in
        (match Array.unsafe_get regs dst with
        | Vvalue.I (_, o) -> Ilanes.unsafe_set o 0 p
        | _ -> bad ()))
  | Vir.Instr.Extractelement _ ->
    let gv = getter ops.(0) and gi = getter ops.(1) in
    fun st ->
        let regs = st.regs in
      chg st;
      let v = gv regs in
      let ix = Int64.to_int (Vvalue.as_int (gi regs)) in
      if ix < 0 || ix >= Vvalue.lanes v then Trap.raise_ (Trap.Invalid_lane ix)
      else (
        (* [ix] is in bounds for [v]: unchecked lane access, so an
           integer lane moves as an unboxed int64 *)
        match (v, Array.unsafe_get regs dst) with
        | Vvalue.I (_, a), Vvalue.I (_, o) ->
          Ilanes.unsafe_set o 0 (Ilanes.unsafe_get a ix)
        | Vvalue.F (_, a), Vvalue.F (_, o) -> o.(0) <- Array.unsafe_get a ix
        | _ -> invalid_arg "Machine: extractelement kind mismatch")
  | Vir.Instr.Insertelement _ ->
    let s = Vir.Vtype.elem i.Vir.Instr.ty in
    let gv = getter ops.(0) and ge = getter ops.(1) and gi = getter ops.(2) in
    fun st ->
        let regs = st.regs in
      chg st;
      let v = gv regs in
      let e = ge regs in
      let ix = Int64.to_int (Vvalue.as_int (gi regs)) in
      if ix < 0 || ix >= Vvalue.lanes v then Trap.raise_ (Trap.Invalid_lane ix)
      else (
        (* [ix] is in bounds for [v], and the guards give [o] the same
           lane count: unchecked lane writes *)
        match (v, e, Array.unsafe_get regs dst) with
        | Vvalue.I (_, a), Vvalue.I (_, e), Vvalue.I (_, o)
          when Ilanes.length a = Ilanes.length o ->
          Ilanes.blit a 0 o 0 (Ilanes.length o);
          Ilanes.unsafe_set o ix (Bits.truncate s (Ilanes.unsafe_get e 0))
        | Vvalue.F (_, a), Vvalue.F (_, [| x |]), Vvalue.F (_, o)
          when Array.length a = Array.length o ->
          Array.blit a 0 o 0 (Array.length o);
          Array.unsafe_set o ix (Bits.round_float s x)
        | _ -> invalid_arg "Vvalue.insert: kind mismatch")
  | Vir.Instr.Shufflevector (_, _, mask) ->
    let ga = getter ops.(0) and gb = getter ops.(1) in
    (* The verifier bounds every mask index by the operand lane counts,
       so validate once here against the static operand type and run
       the per-lane loop on unchecked accesses. *)
    let src_lanes =
      Vir.Vtype.lanes
        (Vir.Instr.operand_ty (List.hd (Vir.Instr.operands i)))
    in
    Array.iter
      (fun ix ->
        if ix < 0 || ix >= 2 * src_lanes then
          invalid_arg "Machine: shufflevector mask out of bounds")
      mask;
    fun st ->
        let regs = st.regs in
      chg st;
      (match (ga regs, gb regs, Array.unsafe_get regs dst) with
      | Vvalue.I (_, xa), Vvalue.I (_, xb), Vvalue.I (_, o) ->
        let n = Ilanes.length xa in
        for j = 0 to Ilanes.length o - 1 do
          let ix = Array.unsafe_get mask j in
          Ilanes.unsafe_set o j
            (if ix < n then Ilanes.unsafe_get xa ix
             else Ilanes.unsafe_get xb (ix - n))
        done
      | Vvalue.F (_, xa), Vvalue.F (_, xb), Vvalue.F (_, o) ->
        let n = Array.length xa in
        for j = 0 to Array.length o - 1 do
          let ix = Array.unsafe_get mask j in
          o.(j) <- (if ix < n then xa.(ix) else xb.(ix - n))
        done
      | _ -> assert false)
  | Vir.Instr.Call (callee, _) -> thread_call cm ci callee chg
  | Vir.Instr.Phi _ | Vir.Instr.Br _ | Vir.Instr.Condbr _ | Vir.Instr.Ret _
  | Vir.Instr.Unreachable ->
    assert false (* handled by the block structure *)

(* Pre-resolve a call site: module function (direct), intrinsic
   (specialized closure) or extern (slot). Resolution order matches the
   old per-dynamic-call lookup chain exactly. *)
and thread_call (cm : cmodule) (ci : cinstr) (callee : string)
    (chg : state -> unit) : texec =
  let i = ci.src in
  let ops = ci.ops in
  let dst = ci.dst in
  let gs = Array.map getter ops in
  let nargs = Array.length gs in
  (* Shared arg-list builder for [Host] extern handlers. The list holds
     *aliases* of register buffers: handlers consume them during the
     call and must copy anything they retain (see DESIGN.md). *)
  let mk_args : Vvalue.t array -> Vvalue.t list =
    match gs with
    | [||] -> fun _ -> []
    | [| g0 |] -> fun regs -> [ g0 regs ]
    | [| g0; g1 |] -> fun regs -> [ g0 regs; g1 regs ]
    | [| g0; g1; g2 |] -> fun regs -> [ g0 regs; g1 regs; g2 regs ]
    | gs -> fun regs -> Array.to_list (Array.map (fun g -> g regs) gs)
  in
  match Hashtbl.find_opt cm.cfuncs callee with
  | Some target ->
    if nargs <> target.nparams then
      fun st ->
        chg st;
        invalid_arg
          (Printf.sprintf
             "Machine: call to @%s with %d argument(s), expects %d" callee
             nargs target.nparams)
    else
      fun st ->
        let regs = st.regs in
        chg st;
        st.depth <- st.depth + 1;
        if st.depth > st.max_depth then Trap.raise_ Trap.Stack_overflow_vm;
        let regs' = frame_for st target in
        for a = 0 to nargs - 1 do
          Vvalue.copy_into
            ~dst:(Array.unsafe_get regs' a)
            ((Array.unsafe_get gs a) regs)
        done;
        let r = exec_cfunc st target regs' in
        st.regs <- regs;
        st.depth <- st.depth - 1;
        store_ret regs dst r
  | None -> (
    match Vir.Intrinsics.lookup callee with
    | Some { Vir.Intrinsics.kind = Vir.Intrinsics.Math m; _ } -> (
      let bad () =
        invalid_arg ("Machine: bad math intrinsic args for " ^ m)
      in
      (* An unknown math name keeps raising at run time, like the old
         per-call dispatch did. *)
      let fn = try Some (Eval.math_fn m) with Invalid_argument _ -> None in
      match (fn, gs) with
      | None, _ ->
        fun st ->
          chg st;
          invalid_arg ("Machine: unknown math intrinsic " ^ m)
      | Some (Eval.Unary f), [| g0 |] ->
        fun st ->
        let regs = st.regs in
          chg st;
          (match (g0 regs, Array.unsafe_get regs dst) with
          | Vvalue.F (s, lanes), Vvalue.F (_, o) ->
            for ix = 0 to Array.length o - 1 do
              o.(ix) <- Bits.round_float s (f lanes.(ix))
            done
          | _ -> bad ())
      | Some (Eval.Binary f), [| g0; g1 |] ->
        fun st ->
        let regs = st.regs in
          chg st;
          (match (g0 regs, g1 regs, Array.unsafe_get regs dst) with
          | Vvalue.F (s, a), Vvalue.F (_, b), Vvalue.F (_, o) ->
            for ix = 0 to Array.length o - 1 do
              o.(ix) <- Bits.round_float s (f a.(ix) b.(ix))
            done
          | _ -> bad ())
      | _ ->
        fun st ->
          chg st;
          bad ())
    | Some { Vir.Intrinsics.kind = Vir.Intrinsics.Reduce r; _ } -> (
      let bad () = invalid_arg ("Machine: bad reduce intrinsic " ^ r) in
      let is_float =
        nargs = 1
        && Vir.Vtype.is_float_scalar (op_scalar i 0)
      in
      match (r, gs) with
      | "add", [| g0 |] when is_float ->
        fun st ->
        let regs = st.regs in
          chg st;
          (match (g0 regs, Array.unsafe_get regs dst) with
          | Vvalue.F (s, lanes), Vvalue.F (_, o) ->
            o.(0) <- Eval.reduce_fadd s lanes
          | _ -> bad ())
      | "add", [| g0 |] ->
        fun st ->
        let regs = st.regs in
          chg st;
          (match (g0 regs, Array.unsafe_get regs dst) with
          | Vvalue.I (s, lanes), Vvalue.I (_, o) ->
            Ilanes.unsafe_set o 0 (Eval.reduce_iadd s lanes)
          | _ -> bad ())
      | "or", [| g0 |] when not is_float ->
        fun st ->
        let regs = st.regs in
          chg st;
          (match (g0 regs, Array.unsafe_get regs dst) with
          | Vvalue.I (_, lanes), Vvalue.I (_, o) ->
            Ilanes.unsafe_set o 0 (Eval.reduce_or lanes)
          | _ -> bad ())
      | "min", [| g0 |] when is_float ->
        fun st ->
        let regs = st.regs in
          chg st;
          (match (g0 regs, Array.unsafe_get regs dst) with
          | Vvalue.F (_, lanes), Vvalue.F (_, o) ->
            o.(0) <- Eval.reduce_fmin lanes
          | _ -> bad ())
      | "max", [| g0 |] when is_float ->
        fun st ->
        let regs = st.regs in
          chg st;
          (match (g0 regs, Array.unsafe_get regs dst) with
          | Vvalue.F (_, lanes), Vvalue.F (_, o) ->
            o.(0) <- Eval.reduce_fmax lanes
          | _ -> bad ())
      | "min", [| g0 |] ->
        fun st ->
        let regs = st.regs in
          chg st;
          (match (g0 regs, Array.unsafe_get regs dst) with
          | Vvalue.I (_, lanes), Vvalue.I (_, o) ->
            Ilanes.unsafe_set o 0 (Eval.reduce_imin lanes)
          | _ -> bad ())
      | "max", [| g0 |] ->
        fun st ->
        let regs = st.regs in
          chg st;
          (match (g0 regs, Array.unsafe_get regs dst) with
          | Vvalue.I (_, lanes), Vvalue.I (_, o) ->
            Ilanes.unsafe_set o 0 (Eval.reduce_imax lanes)
          | _ -> bad ())
      | _ ->
        fun st ->
          chg st;
          bad ())
    | Some { Vir.Intrinsics.kind = Vir.Intrinsics.Maskload; _ } ->
      if nargs <> 2 then
        fun st ->
          chg st;
          invalid_arg ("Machine: maskload arity @" ^ callee)
      else
        let ty = i.Vir.Instr.ty in
        let gp = gs.(0) and gm = gs.(1) in
        fun st ->
        let regs = st.regs in
          chg st;
          Memory.masked_load_into st.mem ty
            (Vvalue.as_int (gp regs))
            ~mask:(gm regs)
            (Array.unsafe_get regs dst)
    | Some { Vir.Intrinsics.kind = Vir.Intrinsics.Maskstore; _ } ->
      if nargs <> 3 then
        fun st ->
          chg st;
          invalid_arg ("Machine: maskstore arity @" ^ callee)
      else
        let gp = gs.(0) and gm = gs.(1) and gv = gs.(2) in
        fun st ->
        let regs = st.regs in
          chg st;
          Memory.store ~mask:(gm regs) st.mem (gv regs)
            (Vvalue.as_int (gp regs))
    | None -> (
      let slot = Hashtbl.find cm.extern_index callee in
      let unbound () = Trap.raise_ (Trap.Unknown_function callee) in
      match gs with
      | [| gv; gm; gsite |] ->
        fun st ->
          let regs = st.regs in
          chg st;
          (match Array.unsafe_get st.extern_slots slot with
          | Site s -> site_call st s regs dst (gv regs) (gm regs) gsite
          | Host handler -> store_ret regs dst (handler st (mk_args regs))
          | Unbound -> unbound ())
      | _ ->
        fun st ->
          let regs = st.regs in
          chg st;
          (match Array.unsafe_get st.extern_slots slot with
          | Host handler -> store_ret regs dst (handler st (mk_args regs))
          | Site _ ->
            invalid_arg
              (Printf.sprintf
                 "Machine: fault-site extern @%s called with %d argument(s), \
                  expects 3"
                 callee nargs)
          | Unbound -> unbound ())))

(* Call-structure annotation for [t_steps], resolved with exactly the
   same chain as [thread_call] (module functions, then intrinsics, then
   extern slots) so the resumable driver enters precisely the calls the
   fast closures enter. Arity-mismatched direct calls and intrinsics
   stay [Kplain]: their closures never run callee code under a deeper
   frame, so position tracking has nothing to record. *)
let step_kind (cm : cmodule) (ci : cinstr) : skind =
  match ci.src.Vir.Instr.op with
  | Vir.Instr.Call (callee, _) -> (
    match Hashtbl.find_opt cm.cfuncs callee with
    | Some target ->
      if Array.length ci.ops <> target.nparams then Kplain
      else
        Kcall
          {
            k_target = target;
            k_gs = Array.map getter ci.ops;
            k_dst = ci.dst;
            k_chg = (if ci.cvec then charge_vec else charge);
          }
    | None -> (
      match Vir.Intrinsics.lookup callee with
      | Some _ -> Kplain
      | None -> Kextern))
  | _ -> Kplain

(* Per-predecessor parallel phi move: each phi charges one dynamic
   instruction during its read (like the old interpreter). With pinned
   buffers the move is a lane copy into each phi register's own buffer.
   When no phi's source register is another phi's destination (the
   overwhelmingly common case, detected at threading time) the copies
   can run in sequence directly; otherwise the reads are staged through
   *frame-pinned scratch slots* appended to the function's register
   template, preserving the parallel-copy semantics for swap/rotation
   cycles across a back edge without allocating (real loops hit this:
   conjugate gradient's x/r/p recurrences form exactly such a cycle).
   A predecessor with no incoming edge for a phi raises when (and only
   when) that phi's read is reached. *)
let thread_phis (cf : cfunc) (blk : cblock) (nblocks : int) : texec array =
  let phis = blk.cphis in
  let n = Array.length phis in
  if n = 0 then [||]
  else
    Array.init (nblocks + 1) (fun pi ->
        let prev = pi - 1 in
        (* first-match semantics of the old List.find *)
        let src_of (p : cphi) : coperand option =
          Option.map snd
            (Array.find_opt (fun (pred, _) -> pred = prev) p.incoming)
        in
        let read_of (p : cphi) : tgetter =
          match src_of p with
          | Some v -> getter v
          | None ->
            fun _ ->
              invalid_arg
                (Printf.sprintf "Machine: phi in %%%s has no edge from #%d"
                   blk.clabel prev)
        in
        let reads = Array.map read_of phis in
        let dsts = Array.map (fun p -> p.pdst) phis in
        if n = 1 then
          let g = reads.(0) and d = dsts.(0) in
          fun st ->
        let regs = st.regs in
            charge st;
            Vvalue.copy_into ~dst:(Array.unsafe_get regs d) (g regs)
        else
          let hazardous =
            Array.exists
              (fun (p : cphi) ->
                match src_of p with
                | Some (Creg r) ->
                  Array.exists (fun d -> d = r && d <> p.pdst) dsts
                | _ -> false)
              phis
          in
          if not hazardous then
            fun st ->
        let regs = st.regs in
              for k = 0 to n - 1 do
                charge st;
                Vvalue.copy_into
                  ~dst:(Array.unsafe_get regs (Array.unsafe_get dsts k))
                  ((Array.unsafe_get reads k) regs)
              done
          else begin
            (* One scratch slot per phi, shaped like its destination,
               appended to the frame template: the reads land in
               scratch before any destination is written. Scratch
               registers have no defining instruction so they can never
               alias an operand. *)
            let scratch_base = Array.length cf.reg_tmpl in
            cf.reg_tmpl <-
              Array.append cf.reg_tmpl
                (Array.map (fun d -> Vvalue.copy cf.reg_tmpl.(d)) dsts);
            fun st ->
              let regs = st.regs in
              for k = 0 to n - 1 do
                charge st;
                Vvalue.copy_into
                  ~dst:(Array.unsafe_get regs (scratch_base + k))
                  ((Array.unsafe_get reads k) regs)
              done;
              for k = 0 to n - 1 do
                Vvalue.copy_into
                  ~dst:(Array.unsafe_get regs (Array.unsafe_get dsts k))
                  (Array.unsafe_get regs (scratch_base + k))
              done
          end)

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

(* ------------------------------------------------------------------ *)
(* Fusion chains.

   [hot_body] finds them itself. A chain is a maximal run of adjacent
   body instructions, each linked to the next ([links]):
   - the producer's result has exactly one use in the whole function,
     and that use is the next member (so [a * a] never links: it reads
     the register twice);
   - a gep feeds only the access it addresses, and a load's address
     comes only from a gep (an address in a plain register is read
     straight from the register file: nothing to fuse);
   - a store links through its value (through its pointer only from a
     gep) and ends the chain, as does a [reduce_*] intrinsic;
   - allocas, lane shuffles and other calls are never members
     ([member_kind]), so a chain can neither swallow a fault site nor
     reorder an allocation.

   [thread_superblock] lowers a chain into fused kernels. The legality
   argument:

   - every intermediate register is single-use (its only reader is the
     next chain member), so skipping — or keeping, for load/store
     members — its buffer write is unobservable; fused kernels pass
     pure intermediates as OCaml locals instead;
   - fuel is still charged ONCE PER MEMBER, through the member's own
     scalar/vector variant, so [dyn_count]/[dyn_vector] and the
     [Budget_exhausted] trap point are bit-identical to unfused
     execution;
   - when the producer can trap (loads, the integer divide family),
     charges stay strictly interleaved with member execution so a trap
     leaves the same fuel as unfused stepping. Pure producers allow
     grouping the charges up front: the only state a reordered trap
     could expose is a partial register write, which is unobservable;
   - the resumable driver uses [t_steps], which is NEVER fused — fault
     sites and checkpoint positions stay per original instruction.

   The kernels check every structural assumption (operand positions,
   lane counts, value kinds) and return [None] when anything is off; a
   chain no kernel covers runs one closure per member, which is always
   correct, and is counted under its member kinds ([unfused_shapes]). *)

let divlike = function
  | Vir.Instr.Sdiv | Vir.Instr.Srem | Vir.Instr.Udiv | Vir.Instr.Urem -> true
  | Vir.Instr.Add | Vir.Instr.Sub | Vir.Instr.Mul | Vir.Instr.And
  | Vir.Instr.Or | Vir.Instr.Xor | Vir.Instr.Shl | Vir.Instr.Lshr
  | Vir.Instr.Ashr ->
    false

let as_int_slot (v : Vvalue.t) : int64 =
  match v with
  | Vvalue.I (_, a) when Ilanes.length a = 1 -> Ilanes.unsafe_get a 0
  | v -> Vvalue.as_int v

let uses_creg (o : coperand) (r : int) =
  match o with Creg r' -> r' = r | Cimm _ -> false

(* Whether [hot_body] fuses chains. Fusion changes how the hot path is
   lowered, never what it computes: with it cleared before
   [compile_module] every chain runs one closure per member. Site
   kernels are unaffected. *)
let fusion = ref true

(* [ci]'s kind as a chain member; [None] = never a member. *)
let member_kind (ci : cinstr) : string option =
  match ci.src.Vir.Instr.op with
  | Vir.Instr.Ibinop _ -> Some "ibinop"
  | Vir.Instr.Fbinop _ -> Some "fbinop"
  | Vir.Instr.Icmp _ -> Some "icmp"
  | Vir.Instr.Fcmp _ -> Some "fcmp"
  | Vir.Instr.Select _ -> Some "select"
  | Vir.Instr.Cast _ -> Some "cast"
  | Vir.Instr.Gep _ -> Some "gep"
  | Vir.Instr.Load _ -> Some "load"
  | Vir.Instr.Store _ -> Some "store"
  | Vir.Instr.Call (callee, [ _ ]) -> (
    match Vir.Intrinsics.lookup callee with
    | Some { Vir.Intrinsics.kind = Vir.Intrinsics.Reduce _; _ } ->
      Some "reduce"
    | _ -> None)
  | _ -> None

(* May member [p] and the next member [c] be consecutive chain members
   (the rules above)? [uses] holds whole-function use counts. *)
let links (uses : int array) (p : cinstr) (c : cinstr) =
  let r = p.dst in
  r >= 0
  && uses.(r) = 1
  && Array.exists (fun o -> uses_creg o r) c.ops
  &&
  match (p.src.Vir.Instr.op, c.src.Vir.Instr.op) with
  | (Vir.Instr.Store _ | Vir.Instr.Call _), _ -> false
  | Vir.Instr.Gep _, Vir.Instr.Load _ -> uses_creg c.ops.(0) r
  | Vir.Instr.Gep _, Vir.Instr.Store _ ->
    uses_creg c.ops.(1) r && not (uses_creg c.ops.(0) r)
  | Vir.Instr.Gep _, _ -> false
  | _, Vir.Instr.Load _ -> false
  | _, Vir.Instr.Store _ -> uses_creg c.ops.(0) r
  | _, _ -> true

(* Members of the maximal chain starting at [body.(k)]; 1 when
   [body.(k)] links to nothing. *)
let chain_length (uses : int array) (body : cinstr array) (k : int) : int =
  let n = Array.length body in
  let j = ref k in
  while
    !j + 1 < n
    && member_kind body.(!j) <> None
    && member_kind body.(!j + 1) <> None
    && links uses body.(!j) body.(!j + 1)
  do
    incr j
  done;
  !j - k + 1

(* An in-place binop kernel for the chain members that keep their
   destination buffer (the binop of load→op, op→store and
   load→op→store chains). *)
let binop_kernel (ci : cinstr) : (Vvalue.t -> Vvalue.t -> Vvalue.t -> unit)
    option =
  let i = ci.src in
  let scalar = Vir.Vtype.lanes i.Vir.Instr.ty = 1 in
  match i.Vir.Instr.op with
  | Vir.Instr.Ibinop (k, _, _) ->
    let ik = Eval.ibinop_into_fn k (Vir.Vtype.elem i.Vir.Instr.ty) in
    Some
      (fun va vb vo ->
        match (va, vb, vo) with
        | Vvalue.I (_, a), Vvalue.I (_, b), Vvalue.I (_, o) -> ik a b o
        | _ -> invalid_arg "Machine: fused ibinop kind mismatch")
  | Vir.Instr.Fbinop (k, _, _) ->
    let s = Vir.Vtype.elem i.Vir.Instr.ty in
    let f = Eval.fbinop_fn k s in
    let vmap =
      match Eval.fbinop_vec_into_fn k s with
      | Some vf -> vf
      | None -> map2_float_into f
    in
    Some
      (fun va vb vo ->
        match (va, vb, vo) with
        | Vvalue.F (_, a), Vvalue.F (_, b), Vvalue.F (_, o) ->
          if scalar then o.(0) <- f a.(0) b.(0) else vmap a b o
        | _ -> invalid_arg "Machine: fused fbinop kind mismatch")
  | _ -> None

let thread_chain (body : cinstr array) (s : int) (len : int) : texec option =
  let p = body.(s) and c = body.(s + 1) in
  let pi = p.src and ci = c.src in
  let chg1 = if p.cvec then charge_vec else charge in
  let chg2 = if c.cvec then charge_vec else charge in
  (* Which consumer operand reads the producer's register; exactly one
     must (two occurrences would mean two uses — not a legal chain). *)
  let puse k = k < Array.length c.ops && uses_creg c.ops.(k) p.dst in
  if len = 3 then (
    (* load → binop → store, buffers kept for the trappy endpoints *)
    let st3 = body.(s + 2) in
    let chg3 = if st3.cvec then charge_vec else charge in
    match (pi.Vir.Instr.op, st3.src.Vir.Instr.op, binop_kernel c) with
    | Vir.Instr.Load _, Vir.Instr.Store _, Some bk
      when (puse 0 || puse 1)
           && not (puse 0 && puse 1)
           && uses_creg st3.ops.(0) c.dst
           && not (uses_creg st3.ops.(1) c.dst) ->
      let ld = Memory.loader_into pi.Vir.Instr.ty in
      let stv =
        Memory.storer
          (Vir.Instr.operand_ty (List.hd (Vir.Instr.operands st3.src)))
      in
      let gp = getter p.ops.(0) in
      let g0 = getter c.ops.(0) and g1 = getter c.ops.(1) in
      let gsp = getter st3.ops.(1) in
      Some
        (fun st ->
          let regs = st.regs in
          chg1 st;
          ld st.mem (as_int_slot (gp regs)) (Array.unsafe_get regs p.dst);
          chg2 st;
          bk (g0 regs) (g1 regs) (Array.unsafe_get regs c.dst);
          chg3 st;
          stv st.mem (Array.unsafe_get regs c.dst) (as_int_slot (gsp regs)))
    | _ -> None)
  else
    let lanes_match =
      Vir.Vtype.lanes pi.Vir.Instr.ty = Vir.Vtype.lanes ci.Vir.Instr.ty
    in
    match (pi.Vir.Instr.op, ci.Vir.Instr.op) with
    | Vir.Instr.Fbinop (k1, _, _), Vir.Instr.Fbinop (k2, _, _)
      when (puse 0 || puse 1) && not (puse 0 && puse 1) && lanes_match -> (
      (* Only the op/kind combinations with a specialized allocation-free
         fused kernel are worth fusing; the generic closure-composed
         form boxes floats per lane and would regress both time and the
         allocation gate. *)
      match
        Eval.fbinop_fused_vec_into_fn
          (Vir.Vtype.elem ci.Vir.Instr.ty)
          ~k1 ~k2 ~first:(puse 0)
      with
      | None -> None
      | Some fk ->
        let ga = getter p.ops.(0) and gb = getter p.ops.(1) in
        let go = getter c.ops.(if puse 0 then 1 else 0) in
        let bad () = invalid_arg "Machine: fused fbinop kind mismatch" in
        Some
          (fun st ->
            let regs = st.regs in
            chg1 st;
            chg2 st;
            match (ga regs, gb regs, go regs, Array.unsafe_get regs c.dst) with
            | ( Vvalue.F (_, a),
                Vvalue.F (_, b),
                Vvalue.F (_, cc),
                Vvalue.F (_, o) ) ->
              fk a b cc o
            | _ -> bad ()))
    | Vir.Instr.Ibinop (k1, _, _), Vir.Instr.Ibinop (k2, _, _)
      when (puse 0 || puse 1) && not (puse 0 && puse 1) && lanes_match ->
      (* Both members run through their specialized destination-passing
         kernels, with the producer's own (single-use) register buffer
         as the intermediate -- the write there is unobservable, and no
         lane value ever crosses a closure boundary. *)
      let ik1 = Eval.ibinop_into_fn k1 (Vir.Vtype.elem pi.Vir.Instr.ty) in
      let ik2 = Eval.ibinop_into_fn k2 (Vir.Vtype.elem ci.Vir.Instr.ty) in
      let ga = getter p.ops.(0) and gb = getter p.ops.(1) in
      let go = getter c.ops.(if puse 0 then 1 else 0) in
      let first = puse 0 in
      let bad () = invalid_arg "Machine: fused ibinop kind mismatch" in
      if Vir.Vtype.lanes ci.Vir.Instr.ty = 1 then
        (* Interleaved charges: a trapping divide in the producer must
           leave the same fuel as unfused stepping. *)
        Some
          (fun st ->
            let regs = st.regs in
            chg1 st;
            match (ga regs, gb regs, Array.unsafe_get regs p.dst) with
            | Vvalue.I (_, a), Vvalue.I (_, b), Vvalue.I (_, t) -> (
              ik1 a b t;
              chg2 st;
              match (go regs, Array.unsafe_get regs c.dst) with
              | Vvalue.I (_, oo), Vvalue.I (_, o) ->
                if first then ik2 t oo o else ik2 oo t o
              | _ -> bad ())
            | _ -> bad ())
      else if divlike k1 then None
      else
        Some
          (fun st ->
            let regs = st.regs in
            chg1 st;
            chg2 st;
            match
              ( ga regs,
                gb regs,
                go regs,
                Array.unsafe_get regs p.dst,
                Array.unsafe_get regs c.dst )
            with
            | ( Vvalue.I (_, a),
                Vvalue.I (_, b),
                Vvalue.I (_, oo),
                Vvalue.I (_, t),
                Vvalue.I (_, o) ) ->
              ik1 a b t;
              if first then ik2 t oo o else ik2 oo t o
            | _ -> bad ())
    | Vir.Instr.Icmp (pr, _, _), Vir.Instr.Select _
      when puse 0 && not (puse 1) && not (puse 2) ->
      (* The compare runs through its specialized kernel into the
         producer's (single-use) register buffer; the select then reads
         the mask lanes straight out of that buffer. *)
      let ick = Eval.icmp_into_fn pr (op_scalar pi 0) in
      let ga = getter p.ops.(0) and gb = getter p.ops.(1) in
      let gx = getter c.ops.(1) and gy = getter c.ops.(2) in
      let bad () = invalid_arg "Machine: fused icmp kind mismatch" in
      if Vir.Vtype.lanes pi.Vir.Instr.ty = 1 then
        Some
          (fun st ->
            let regs = st.regs in
            chg1 st;
            match (ga regs, gb regs, Array.unsafe_get regs p.dst) with
            | Vvalue.I (_, a), Vvalue.I (_, b), Vvalue.I (_, t) ->
              ick a b t;
              chg2 st;
              Vvalue.copy_into
                ~dst:(Array.unsafe_get regs c.dst)
                (if Ilanes.unsafe_get t 0 <> 0L then gx regs else gy regs)
            | _ -> bad ())
      else
        Some
          (fun st ->
            let regs = st.regs in
            chg1 st;
            chg2 st;
            match (ga regs, gb regs, Array.unsafe_get regs p.dst) with
            | Vvalue.I (_, a), Vvalue.I (_, b), Vvalue.I (_, t) -> (
              ick a b t;
              match (gx regs, gy regs, Array.unsafe_get regs c.dst) with
              | Vvalue.I (_, x), Vvalue.I (_, y), Vvalue.I (_, o) ->
                for i = 0 to Ilanes.length o - 1 do
                  Ilanes.unsafe_set o i
                    (if Ilanes.unsafe_get t i <> 0L then Ilanes.unsafe_get x i
                     else Ilanes.unsafe_get y i)
                done
              | Vvalue.F (_, x), Vvalue.F (_, y), Vvalue.F (_, o) ->
                for i = 0 to Array.length o - 1 do
                  o.(i) <-
                    (if Ilanes.unsafe_get t i <> 0L then x.(i) else y.(i))
                done
              | _ -> invalid_arg "Machine: fused select arm kind mismatch")
            | _ -> bad ())
    | Vir.Instr.Fcmp (pr, _, _), Vir.Instr.Select _
      when puse 0 && not (puse 1) && not (puse 2) ->
      let fck = Eval.fcmp_into_fn pr in
      let ga = getter p.ops.(0) and gb = getter p.ops.(1) in
      let gx = getter c.ops.(1) and gy = getter c.ops.(2) in
      let bad () = invalid_arg "Machine: fused fcmp kind mismatch" in
      if Vir.Vtype.lanes pi.Vir.Instr.ty = 1 then
        Some
          (fun st ->
            let regs = st.regs in
            chg1 st;
            match (ga regs, gb regs, Array.unsafe_get regs p.dst) with
            | Vvalue.F (_, a), Vvalue.F (_, b), Vvalue.I (_, t) ->
              fck a b t;
              chg2 st;
              Vvalue.copy_into
                ~dst:(Array.unsafe_get regs c.dst)
                (if Ilanes.unsafe_get t 0 <> 0L then gx regs else gy regs)
            | _ -> bad ())
      else
        Some
          (fun st ->
            let regs = st.regs in
            chg1 st;
            chg2 st;
            match (ga regs, gb regs, Array.unsafe_get regs p.dst) with
            | Vvalue.F (_, a), Vvalue.F (_, b), Vvalue.I (_, t) -> (
              fck a b t;
              match (gx regs, gy regs, Array.unsafe_get regs c.dst) with
              | Vvalue.I (_, x), Vvalue.I (_, y), Vvalue.I (_, o) ->
                for i = 0 to Ilanes.length o - 1 do
                  Ilanes.unsafe_set o i
                    (if Ilanes.unsafe_get t i <> 0L then Ilanes.unsafe_get x i
                     else Ilanes.unsafe_get y i)
                done
              | Vvalue.F (_, x), Vvalue.F (_, y), Vvalue.F (_, o) ->
                for i = 0 to Array.length o - 1 do
                  o.(i) <-
                    (if Ilanes.unsafe_get t i <> 0L then x.(i) else y.(i))
                done
              | _ -> invalid_arg "Machine: fused select arm kind mismatch")
            | _ -> bad ())
    | Vir.Instr.Cast (k, _), (Vir.Instr.Ibinop _ | Vir.Instr.Fbinop _)
      when (puse 0 || puse 1) && not (puse 0 && puse 1) && lanes_match -> (
      (* The conversion runs through its specialized destination-passing
         kernel into the producer's (single-use) register buffer; the
         consumer's binop kernel then reads that register through its
         ordinary operand getter. Works at any lane count now that both
         halves are allocation-free. *)
      match binop_kernel c with
      | None -> None
      | Some bk ->
        let ck =
          Eval.cast_into_fn k ~src:(op_scalar pi 0) ~dst_ty:pi.Vir.Instr.ty
        in
        let gsrc = getter p.ops.(0) in
        let g0 = getter c.ops.(0) and g1 = getter c.ops.(1) in
        Some
          (fun st ->
            let regs = st.regs in
            chg1 st;
            chg2 st;
            ck (gsrc regs) (Array.unsafe_get regs p.dst);
            bk (g0 regs) (g1 regs) (Array.unsafe_get regs c.dst)))
    | Vir.Instr.Gep (_, _, elem_bytes), Vir.Instr.Load _ when puse 0 -> (
      let eb = Int64.of_int elem_bytes in
      let ld = Memory.loader_into ci.Vir.Instr.ty in
      (* Operand matches inlined like the unfused gep arm, so the
         address arithmetic never leaves int64 locals; the gep result
         register is skipped entirely. *)
      match (p.ops.(0), p.ops.(1)) with
      | Creg rb, Creg ri ->
        Some
          (fun st ->
            let regs = st.regs in
            chg1 st;
            chg2 st;
            let base =
              match Array.unsafe_get regs rb with
              | Vvalue.I (_, ia) -> Ilanes.unsafe_get ia 0
              | v -> Vvalue.as_int v
            and idx =
              match Array.unsafe_get regs ri with
              | Vvalue.I (_, ia) -> Ilanes.unsafe_get ia 0
              | v -> Vvalue.as_int v
            in
            ld st.mem
              (Int64.add base (Int64.mul idx eb))
              (Array.unsafe_get regs c.dst))
      | Creg rb, Cimm iv ->
        let off = Int64.mul (Vvalue.as_int iv) eb in
        Some
          (fun st ->
            let regs = st.regs in
            chg1 st;
            chg2 st;
            let base =
              match Array.unsafe_get regs rb with
              | Vvalue.I (_, ia) -> Ilanes.unsafe_get ia 0
              | v -> Vvalue.as_int v
            in
            ld st.mem (Int64.add base off) (Array.unsafe_get regs c.dst))
      | _ -> None)
    | Vir.Instr.Gep (_, _, elem_bytes), Vir.Instr.Store _
      when puse 1 && not (puse 0) -> (
      let eb = Int64.of_int elem_bytes in
      let stv =
        Memory.storer
          (Vir.Instr.operand_ty (List.hd (Vir.Instr.operands ci)))
      in
      let gv = getter c.ops.(0) in
      match (p.ops.(0), p.ops.(1)) with
      | Creg rb, Creg ri ->
        Some
          (fun st ->
            let regs = st.regs in
            chg1 st;
            chg2 st;
            let base =
              match Array.unsafe_get regs rb with
              | Vvalue.I (_, ia) -> Ilanes.unsafe_get ia 0
              | v -> Vvalue.as_int v
            and idx =
              match Array.unsafe_get regs ri with
              | Vvalue.I (_, ia) -> Ilanes.unsafe_get ia 0
              | v -> Vvalue.as_int v
            in
            stv st.mem (gv regs) (Int64.add base (Int64.mul idx eb)))
      | Creg rb, Cimm iv ->
        let off = Int64.mul (Vvalue.as_int iv) eb in
        Some
          (fun st ->
            let regs = st.regs in
            chg1 st;
            chg2 st;
            let base =
              match Array.unsafe_get regs rb with
              | Vvalue.I (_, ia) -> Ilanes.unsafe_get ia 0
              | v -> Vvalue.as_int v
            in
            stv st.mem (gv regs) (Int64.add base off))
      | _ -> None)
    | Vir.Instr.Load _, (Vir.Instr.Ibinop _ | Vir.Instr.Fbinop _)
      when (puse 0 || puse 1) && not (puse 0 && puse 1) -> (
      match binop_kernel c with
      | None -> None
      | Some bk ->
        let ld = Memory.loader_into pi.Vir.Instr.ty in
        let gp = getter p.ops.(0) in
        let g0 = getter c.ops.(0) and g1 = getter c.ops.(1) in
        Some
          (fun st ->
            let regs = st.regs in
            chg1 st;
            ld st.mem (as_int_slot (gp regs)) (Array.unsafe_get regs p.dst);
            chg2 st;
            bk (g0 regs) (g1 regs) (Array.unsafe_get regs c.dst)))
    | (Vir.Instr.Ibinop _ | Vir.Instr.Fbinop _), Vir.Instr.Store _
      when puse 0 && not (puse 1) -> (
      match binop_kernel p with
      | None -> None
      | Some bk ->
        let stv =
          Memory.storer
            (Vir.Instr.operand_ty (List.hd (Vir.Instr.operands ci)))
        in
        let g0 = getter p.ops.(0) and g1 = getter p.ops.(1) in
        let gp = getter c.ops.(1) in
        Some
          (fun st ->
            let regs = st.regs in
            chg1 st;
            bk (g0 regs) (g1 regs) (Array.unsafe_get regs p.dst);
            chg2 st;
            stv st.mem (Array.unsafe_get regs p.dst) (as_int_slot (gp regs))))
    | _ -> None

(* The fused reduction tail: an elementwise float binop whose (single
   use) result feeds a [reduce_add] intrinsic, lowered as ONE
   accumulate loop with no intermediate vector ([Eval.
   fbinop_reduce_fadd_fn] replicates the unfused rounding exactly).
   Both members are pure and non-trapping, so the charges group up
   front like the other pure pair kernels. *)
let reduce_tail_kernel (p : cinstr) (c : cinstr) : texec option =
  let pi = p.src and ci = c.src in
  match (pi.Vir.Instr.op, ci.Vir.Instr.op) with
  | Vir.Instr.Fbinop (k1, _, _), Vir.Instr.Call (callee, [ _ ])
    when Array.length c.ops = 1
         && uses_creg c.ops.(0) p.dst
         && c.dst >= 0
         && (match Vir.Intrinsics.lookup callee with
            | Some { Vir.Intrinsics.kind = Vir.Intrinsics.Reduce "add"; _ }
              ->
              true
            | _ -> false)
         && Vir.Vtype.is_float_scalar (Vir.Vtype.elem pi.Vir.Instr.ty) -> (
    match
      Eval.fbinop_reduce_fadd_fn (Vir.Vtype.elem pi.Vir.Instr.ty) k1
    with
    | None -> None
    | Some rk ->
      let chg1 = if p.cvec then charge_vec else charge in
      let chg2 = if c.cvec then charge_vec else charge in
      let ga = getter p.ops.(0) and gb = getter p.ops.(1) in
      Some
        (fun st ->
          let regs = st.regs in
          chg1 st;
          chg2 st;
          match (ga regs, gb regs, Array.unsafe_get regs c.dst) with
          | Vvalue.F (_, a), Vvalue.F (_, b), Vvalue.F (_, o) ->
            o.(0) <- rk a b
          | _ -> invalid_arg "Machine: fused reduce tail kind mismatch"))
  | _ -> None

(* Generalized superblock lowering: an arbitrary-length chain is walked
   left to right and collapsed segment by segment — the three-member
   load→binop→store kernel first, then the fused reduction tail, then
   any two-member peephole kernel ([thread_chain]); members no merged
   kernel covers keep their ordinary per-instruction closure
   ([body_tx]), which still stages the intermediate through the
   member's own register slot. The segments communicate ONLY through
   the frame's register buffers ([regs.(dst)]): a fused kernel may be
   shared by every machine (and every campaign pool domain) running
   this module, so the scratch an intermediate stages through must live
   in per-frame state, never in closure-captured buffers.

   Returns [None] when no segment merged — composing unmodified
   closures would only add dispatch layers over what [compose_body]
   already does. *)
let thread_superblock (body_tx : texec array) (body : cinstr array) (s : int)
    (len : int) : texec option =
  let e = s + len in
  let steps = ref [] in
  let merged = ref false in
  let k = ref s in
  while !k < e do
    let push fx n =
      steps := fx :: !steps;
      merged := true;
      k := !k + n
    in
    let try3 = if !k + 3 <= e then thread_chain body !k 3 else None in
    match try3 with
    | Some fx -> push fx 3
    | None -> (
      let try2 =
        if !k + 2 <= e then
          match reduce_tail_kernel body.(!k) body.(!k + 1) with
          | Some fx -> Some fx
          | None -> thread_chain body !k 2
        else None
      in
      match try2 with
      | Some fx -> push fx 2
      | None ->
        steps := body_tx.(!k) :: !steps;
        incr k)
  done;
  if not !merged then None
  else
    let arr = Array.of_list (List.rev !steps) in
    Some (compose_body arr 0 (Array.length arr))

let thread_term (t : cterm) : tterm =
  match t with
  | Tbr n -> Ct_br n
  | Tcondbr (Creg r, l1, l2) -> Ct_condbr_reg (r, l1, l2)
  | Tcondbr (c, l1, l2) -> Ct_condbr (getter c, l1, l2)
  | Tret (Some v) -> Ct_ret (getter v)
  | Tret None -> Ct_ret_void
  | Tunreachable -> Ct_unreachable

(* ------------------------------------------------------------------ *)
(* Fault-site kernels.

   [Instrument] splices one chain per vector fault site. For lanes
   j = 0 .. n-1, contiguous in one block:

     %e_j = extractelement %v_j, j
     %m_j = extractelement %mask, j          (masked sites only)
     %c_j = call @inject(%e_j, %m_j, site_j)  (an immediate mask else)
     %v_(j+1) = insertelement %v_j, %c_j, j

   where %v_0 is the site's vector value and %v_n the instrumented one.
   [match_site_chain] recognises the chain on the compiled body: every
   call on one extern slot, and every intermediate read only inside
   the chain (its whole-function use count equals its in-chain count).
   [thread_site_chain] lowers it into one hot-path kernel. The kernel
   charges the chain's fuel and vector count in one step and adds its
   live lanes to [sites]. Lane j of %v_j is lane j of %v_0, and a call
   that does not fire returns its value unchanged. So the kernel writes
   %v_n's buffer straight from %v_0, each lane normalised exactly as
   [insertelement] normalises it.

   The kernel leaves the intermediates unwritten. Nothing can observe
   that. SSA confines their reads to the chain, which the kernel
   replaces as a whole. Only the resumable driver stops inside a chain,
   and it walks [t_steps], which keep one closure per instruction. The
   kernel runs the member closures instead, exact by construction,
   whenever it could differ from them:
   - [fuel] is below the member count, so a budget trap lands on the
     member that runs out;
   - the slot is not a [Site]: a host handler sees every call, and an
     unbound slot traps at its first call;
   - [armed] falls among this execution's live lanes, so [fire] runs
     from the lane's own call;
   - a value is not shaped as its static type says. *)

type site_chain = {
  sc_len : int;  (** members *)
  sc_lanes : int;
  sc_elem : Vir.Vtype.scalar;
  sc_src : coperand;  (** the site's vector value, [%v_0] *)
  sc_mask : coperand option;
      (** the mask vector the calls' mask lanes are extracted from;
          [None] when every call takes an immediate mask *)
  sc_imm_live : int;
      (** with [sc_mask = None]: the calls whose immediate mask is on *)
  sc_slot : int;
  sc_dst : int;  (** the last insert's register, [%v_n] *)
  sc_nvec : int;  (** members that count as vector instructions *)
}

let same_operand a b =
  match (a, b) with
  | Creg x, Creg y -> x = y
  | Cimm x, Cimm y -> Vvalue.equal x y
  | Creg _, Cimm _ | Cimm _, Creg _ -> false

let imm_int_is (o : coperand) (j : int) =
  match o with
  | Cimm (Vvalue.I (_, a)) ->
    Ilanes.length a = 1 && Ilanes.unsafe_get a 0 = Int64.of_int j
  | Cimm (Vvalue.F _) | Creg _ -> false

(* Per-register use counts over a whole function: phi incomings,
   body operands and terminators. *)
let use_counts (cf : cfunc) : int array =
  let uses = Array.make (max cf.nregs 1) 0 in
  let mark r = uses.(r) <- uses.(r) + 1 in
  Array.iter
    (fun (blk : cblock) ->
      Array.iter
        (fun (p : cphi) ->
          Array.iter
            (function _, Creg r -> mark r | _, Cimm _ -> ())
            p.incoming)
        blk.cphis;
      Array.iter (fun ci -> instr_uses ci mark) blk.body;
      term_uses blk.term mark)
    cf.cblocks;
  uses

(* The vector site chain starting at [body.(k)], if any (see above). *)
let match_site_chain (cm : cmodule) (uses : int array) (body : cinstr array)
    (k : int) : site_chain option =
  let nb = Array.length body in
  let get p = if p < nb then body.(p) else raise Exit in
  let require b = if not b then raise Exit in
  let ty_is (ci : cinstr) t =
    require (ci.dst >= 0 && ci.src.Vir.Instr.ty = t)
  in
  (* the vector operand of an extract of constant lane [j] *)
  let extract_src (ci : cinstr) j =
    match ci.src.Vir.Instr.op with
    | Vir.Instr.Extractelement _ ->
      require (imm_int_is ci.ops.(1) j);
      ci.ops.(0)
    | _ -> raise Exit
  in
  try
    let e0 = get k in
    let n, elem =
      match e0.src.Vir.Instr.op with
      | Vir.Instr.Extractelement (v, _) -> (
        match Vir.Instr.operand_ty v with
        | Vir.Vtype.Vector (n, s) -> (n, s)
        | _ -> raise Exit)
      | _ -> raise Exit
    in
    let vec_ty = Vir.Vtype.Vector (n, elem) in
    let masked =
      match (get (k + 1)).src.Vir.Instr.op with
      | Vir.Instr.Extractelement _ -> true
      | _ -> false
    in
    let per_lane = if masked then 4 else 3 in
    let mask = ref None and imm_live = ref 0 and slot = ref (-1) in
    let nvec = ref 0 and cur = ref e0.ops.(0) in
    for j = 0 to n - 1 do
      let p = k + (j * per_lane) in
      let e = get p in
      require (same_operand (extract_src e j) !cur);
      ty_is e (Vir.Vtype.Scalar elem);
      let c = get (p + per_lane - 2) and ins = get (p + per_lane - 1) in
      require (Array.length c.ops = 3);
      if masked then begin
        let m = get (p + 1) in
        let mv = extract_src m j in
        (match !mask with
        | None -> mask := Some mv
        | Some mv0 -> require (same_operand mv mv0));
        ty_is m Vir.Vtype.bool_ty;
        require (uses.(m.dst) = 1 && same_operand c.ops.(1) (Creg m.dst))
      end
      else begin
        match c.ops.(1) with
        | Cimm (Vvalue.I (_, b)) when Ilanes.length b = 1 ->
          if Ilanes.unsafe_get b 0 <> 0L then incr imm_live
        | _ -> raise Exit
      end;
      (match c.src.Vir.Instr.op with
      | Vir.Instr.Call (callee, _) ->
        let s =
          if Hashtbl.mem cm.cfuncs callee then raise Exit
          else
            match Hashtbl.find_opt cm.extern_index callee with
            | Some s -> s
            | None -> raise Exit
        in
        require (!slot < 0 || !slot = s);
        slot := s
      | _ -> raise Exit);
      ty_is c (Vir.Vtype.Scalar elem);
      require (same_operand c.ops.(0) (Creg e.dst) && uses.(e.dst) = 1);
      (match ins.src.Vir.Instr.op with
      | Vir.Instr.Insertelement _ ->
        require
          (same_operand ins.ops.(0) !cur
          && same_operand ins.ops.(1) (Creg c.dst)
          && imm_int_is ins.ops.(2) j)
      | _ -> raise Exit);
      ty_is ins vec_ty;
      require (uses.(c.dst) = 1);
      (* %v_(j+1) feeds lane j+1's extract and insert, and nothing else *)
      if j < n - 1 then require (uses.(ins.dst) = 2);
      for q = p to p + per_lane - 1 do
        if body.(q).cvec then incr nvec
      done;
      cur := Creg ins.dst
    done;
    Some
      {
        sc_len = n * per_lane;
        sc_lanes = n;
        sc_elem = elem;
        sc_src = e0.ops.(0);
        sc_mask = !mask;
        sc_imm_live = !imm_live;
        sc_slot = !slot;
        sc_dst = (match !cur with Creg r -> r | Cimm _ -> raise Exit);
        sc_nvec = !nvec;
      }
  with Exit -> None

(* The kernel of one matched chain; [slow] runs its member closures. *)
let thread_site_chain (sc : site_chain) (slow : texec) : texec =
  let n = sc.sc_lanes and len = sc.sc_len and nvec = sc.sc_nvec in
  let slot = sc.sc_slot and dst = sc.sc_dst and elem = sc.sc_elem in
  let gsrc = getter sc.sc_src in
  (* The live lanes of this execution, or -1 when the mask vector is
     not shaped as the member extracts expect. *)
  let live_lanes : bool -> Vvalue.t array -> int =
    match sc.sc_mask with
    | None ->
      let imm = sc.sc_imm_live in
      fun respect _ -> if respect then imm else n
    | Some m ->
      let gm = getter m in
      fun respect regs ->
        match gm regs with
        | Vvalue.I (_, ml) when Ilanes.length ml = n ->
          if not respect then n
          else begin
            let c = ref 0 in
            for j = 0 to n - 1 do
              if Ilanes.unsafe_get ml j <> 0L then incr c
            done;
            !c
          end
        | _ -> -1
  in
  (* Charge the whole chain and count its live sites, unless one of the
     fallbacks applies; [true] = charged. *)
  let commit st (s : site) regs =
    let live = live_lanes s.respect_masks regs in
    let s0 = st.sites in
    if live < 0 || (s.armed > s0 && s.armed <= s0 + live) then false
    else begin
      st.fuel <- st.fuel - len;
      st.dyn_vector <- st.dyn_vector + nvec;
      st.sites <- s0 + live;
      true
    end
  in
  let is_float = Vir.Vtype.is_float_scalar elem in
  fun st ->
    match Array.unsafe_get st.extern_slots slot with
    | Site s when st.fuel >= len -> (
      let regs = st.regs in
      match (gsrc regs, Array.unsafe_get regs dst) with
      | Vvalue.I (_, a), Vvalue.I (_, o)
        when (not is_float) && Ilanes.length a = n && Ilanes.length o = n ->
        if commit st s regs then
          for j = 0 to n - 1 do
            Ilanes.unsafe_set o j (Bits.truncate elem (Ilanes.unsafe_get a j))
          done
        else slow st
      | Vvalue.F (_, a), Vvalue.F (_, o)
        when is_float && Array.length a = n && Array.length o = n ->
        if commit st s regs then
          for j = 0 to n - 1 do
            Array.unsafe_set o j (Bits.round_float elem (Array.unsafe_get a j))
          done
        else slow st
      | _ -> slow st)
    | Site _ | Host _ | Unbound -> slow st

let bump (tbl : ('a, int) Hashtbl.t) (key : 'a) =
  Hashtbl.replace tbl key
    (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* Hot-path body: fusion chains lowered to fused kernels, then the
   instrumented vector sites to site kernels. Site-chain instructions
   are never chain members, so the two cannot compete for a position.
   The per-instruction closures ([body]) always exist — they back
   [t_steps] and every kernel's fallback — so a chain no kernel covers
   simply stays per-instruction. *)
let hot_body (cm : cmodule) (uses : int array) (blk : cblock)
    (body : texec array) : texec array =
  let n = Array.length blk.body in
  let out = ref [] in
  let k = ref 0 in
  let emit fx l =
    out := fx :: !out;
    k := !k + l
  in
  while !k < n do
    let s = !k in
    let l = if !fusion then chain_length uses blk.body s else 1 in
    if l >= 2 then (
      match thread_superblock body blk.body s l with
      | Some fx ->
        cm.n_fused_chains <- cm.n_fused_chains + 1;
        bump cm.fused_hist l;
        emit fx l
      | None ->
        let kind j = Option.get (member_kind blk.body.(s + j)) in
        bump cm.unfused (String.concat "+" (List.init l kind));
        for j = s to s + l - 1 do
          emit body.(j) 1
        done)
    else
      match match_site_chain cm uses blk.body s with
      | Some sc ->
        cm.n_site_kernels <- cm.n_site_kernels + 1;
        emit
          (thread_site_chain sc (compose_body body s (s + sc.sc_len)))
          sc.sc_len
      | None -> emit body.(s) 1
  done;
  Array.of_list (List.rev !out)

let thread_func (cm : cmodule) (cf : cfunc) : unit =
  let nblocks = Array.length cf.cblocks in
  let uses = use_counts cf in
  cf.live_in <- live_in_sets cf;
  cf.tblocks <-
    Array.map
      (fun (blk : cblock) ->
        let body = Array.map (thread_instr cm cf) blk.body in
        let hot = hot_body cm uses blk body in
        {
          t_phis = thread_phis cf blk nblocks;
          t_body = compose_body hot 0 (Array.length hot);
          t_term = thread_term blk.term;
          t_steps =
            Array.mapi
              (fun k ex -> { s_exec = ex; s_kind = step_kind cm blk.body.(k) })
              body;
        })
      cf.cblocks

(* ------------------------------------------------------------------ *)

let compile_module (m : Vir.Vmodule.t) : cmodule =
  let cfuncs = Hashtbl.create 16 in
  let n_funcs = ref 0 in
  List.iter
    (fun f ->
      Hashtbl.replace cfuncs f.Vir.Func.fname
        (compile_func ~func_id:!n_funcs f);
      incr n_funcs)
    m.Vir.Vmodule.funcs;
  (* Collect extern call targets (neither module functions nor
     intrinsics) into dense slots. *)
  let extern_index = Hashtbl.create 8 in
  let n_extern_slots = ref 0 in
  List.iter
    (fun (f : Vir.Func.t) ->
      List.iter
        (fun (b : Vir.Block.t) ->
          List.iter
            (fun (ins : Vir.Instr.t) ->
              match ins.Vir.Instr.op with
              | Vir.Instr.Call (callee, _)
                when (not (Hashtbl.mem cfuncs callee))
                     && Vir.Intrinsics.lookup callee = None
                     && not (Hashtbl.mem extern_index callee) ->
                Hashtbl.replace extern_index callee !n_extern_slots;
                incr n_extern_slots
              | _ -> ())
            b.Vir.Block.instrs)
        f.Vir.Func.blocks)
    m.Vir.Vmodule.funcs;
  let cm =
    {
      cm = m;
      cfuncs;
      n_funcs = !n_funcs;
      extern_index;
      n_extern_slots = !n_extern_slots;
      n_fused_chains = 0;
      fused_hist = Hashtbl.create 8;
      unfused = Hashtbl.create 8;
      n_site_kernels = 0;
    }
  in
  Hashtbl.iter (fun _ cf -> thread_func cm cf) cfuncs;
  cm

(* How many chains the threading stage fused, for the fusion report
   and the bench coverage counters. *)
let fused_chain_count (cm : cmodule) : int = cm.n_fused_chains

(* (chain length, count) over the fused chains, ascending by length —
   the chain-length histogram of the fusion report. *)
let fused_length_hist (cm : cmodule) : (int * int) list =
  Hashtbl.fold (fun l n acc -> (l, n) :: acc) cm.fused_hist []
  |> List.sort compare

(* (member kinds, count) over the chains no kernel covers, most
   frequent first: why a candidate chain did not fuse. *)
let unfused_shapes (cm : cmodule) : (string * int) list =
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) cm.unfused []
  |> List.sort (fun (k1, n1) (k2, n2) -> compare (n2, k1) (n1, k2))

(* How many instrumented vector fault sites the threading stage lowered
   to site kernels, for tests and the bench coverage counters. *)
let site_kernel_count (cm : cmodule) : int = cm.n_site_kernels
