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
      buffers at block entry ([thread_phis]: when one phi's source is
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
    ({!Site_kernels}), as does each fusion chain a kernel covers
    ({!Fusion}). The campaign semantics (fuel, dyn_count/dyn_vector
    accounting, traps, extern hook surface) are preserved exactly.

    The representation of both stages, the machine state and the
    closure helpers the kernel families share are in {!Code}. *)

open Code

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

(* A callee's result (frame-buffer alias or extern-produced value) is
   copied into the caller's destination buffer: nothing escaping a
   frame is ever shared. *)
let store_ret (regs : Vvalue.t array) dst (r : Vvalue.t option) =
  match r with
  | Some v when dst >= 0 -> Vvalue.copy_into ~dst:(Array.unsafe_get regs dst) v
  | Some _ | None -> ()

(* The block loop of one activation over [regs]: enter block [cur]
   from [prev] (phi moves, then the composed body), and [leave] it
   through its terminator. A [Ct_ret] result is an *alias* of a frame
   buffer (or a shared immediate): callers must copy it out before the
   frame can run again — direct-call sites do so in [store_ret], and
   [Machine.run] deep-copies the value it hands to the host. *)
let rec enter (st : state) blocks (regs : Vvalue.t array) prev cur :
    Vvalue.t option =
  let b = Array.unsafe_get blocks cur in
  if Array.length b.t_phis <> 0 then b.t_phis.(prev + 1) st;
  b.t_body st;
  leave st blocks regs cur b

and leave st blocks regs cur b =
  charge st;
  match b.t_term with
  | Ct_br next -> enter st blocks regs cur next
  | Ct_condbr_reg (r, l1, l2) -> (
    match Array.unsafe_get regs r with
    | Vvalue.I (_, ba) ->
      if Ilanes.unsafe_get ba 0 <> 0L then enter st blocks regs cur l1
      else enter st blocks regs cur l2
    | v ->
      if Vvalue.as_bool v then enter st blocks regs cur l1
      else enter st blocks regs cur l2)
  | Ct_condbr (c, l1, l2) ->
    if Vvalue.as_bool (c regs) then enter st blocks regs cur l1
    else enter st blocks regs cur l2
  | Ct_ret g -> Some (g regs)
  | Ct_ret_void -> None
  | Ct_unreachable -> Trap.raise_ Trap.Unreachable_executed

(* Run one threaded function body over a prepared register file. *)
let exec_cfunc (st : state) (cf : cfunc) (regs : Vvalue.t array) :
    Vvalue.t option =
  st.regs <- regs;
  enter st cf.tblocks regs (-1) 0

(* ------------------------------------------------------------------ *)
(* Checks, machine-state checkpoints and resume.

   A check is armed on the machine ([Machine.run ?check],
   [Machine.resume ?check]). Every extern call compares [sites] with
   [check_at] before it charges, and the first one at or past it fires
   the check with its own static position; the check answers the next
   threshold. [sites] rises by at most one per extern call, so that
   call is the first whose [sites] equals the threshold. A site kernel
   whose live lanes reach [check_at] runs its member closures, so the
   check fires from the lane's own call; fused chains hold no calls.
   Checks therefore run on the hot path, over fused and site kernels.
   A check may [capture] a checkpoint there (the checkpoint-laying
   replay), or compare the machine against one with [state_equal] and
   raise to terminate the run (the converge-pruned executor).

   The stack a check sees is the firing call's position over
   [st.regs], and below it, per depth, the direct call each enclosing
   activation waits on ([st.calls]) over that depth's pool frame.

   A resume restores memory, counters and live registers, then unwinds
   the recorded call stack innermost-first. The innermost frame
   restarts at its saved step — the checked extern call, which
   therefore re-executes, so an injection planted at that site happens
   naturally on resume — and each outer frame consumes its callee's
   return value and continues just past its pending call instruction.
   The rest of an interrupted block runs on [t_steps]; every later
   block runs on the hot path. *)

(* Depth [d]'s activation at a check: its pending call and its frame. *)
let frame_at (st : state) (here : pos) d : pos * Vvalue.t array =
  if d = st.depth then (here, st.regs)
  else
    let p = Option.get st.calls.(d) in
    (p, st.frames.(d).(p.p_func.func_id))

(* The machine state at a check fired at [here]: the memory image
   ({!Memory.snapshot}), deep copies of the live registers of every
   activation, the call-stack positions, and the dynamic counters. It
   sits before the pending extern call, which a resume re-executes.

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
let capture (st : state) (here : pos) : checkpoint =
  let save d =
    let p, regs = frame_at st here d in
    let live =
      pending_live p.p_func ~block:p.p_block ~step:p.p_step
        ~innermost:(d = st.depth)
    in
    {
      fc_func = p.p_func;
      fc_block = p.p_block;
      fc_instr = p.p_step;
      fc_frame = regs;
      fc_live = live;
      fc_saved = Array.map (fun r -> Vvalue.copy regs.(r)) live;
    }
  in
  {
    ck_mem = Memory.snapshot st.mem;
    ck_stack = Array.init (st.depth + 1) save;
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
   pooled frames hold garbage from unrelated runs — and the whole
   memory image ({!Memory.equal}). Equality here implies the two
   executions complete identically: the continuation reads only live
   registers, memory and the counters — and fault injectors past the
   injection site never modify values or draw randomness. *)
let state_equal (st : state) (here : pos) (ck : checkpoint) : bool =
  st.budget0 - st.fuel = ck.ck_spent
  && st.dyn_vector = ck.ck_vec
  && st.detections = ck.ck_detections
  && st.sites = ck.ck_sites
  && Array.length ck.ck_stack = st.depth + 1
  &&
  (* equal depths and positions imply equal live sets *)
  let frame_eq d =
    let p, regs = frame_at st here d and fc = ck.ck_stack.(d) in
    p.p_func == fc.fc_func
    && p.p_block = fc.fc_block
    && p.p_step = fc.fc_instr
    &&
    let live = fc.fc_live and saved = fc.fc_saved in
    let rec regs_eq j =
      j < 0 || (Vvalue.equal regs.(live.(j)) saved.(j) && regs_eq (j - 1))
    in
    regs_eq (Array.length live - 1)
  in
  let rec frames_eq d = d < 0 || (frame_eq d && frames_eq (d - 1)) in
  frames_eq st.depth && Memory.equal st.mem ck.ck_mem

(* Resume from [ck] with the fuel epoch re-armed under [budget], exactly
   like [Machine.reset ~budget] before a fresh run: [dyn_count] after
   the resume reads prefix + suffix. *)
let exec_resumable (st : state) ~(budget : int) (ck : checkpoint) :
    Vvalue.t option =
  let n = Array.length ck.ck_stack in
  if n = 0 then invalid_arg "Compile.exec_resumable: empty checkpoint stack";
  Memory.restore st.mem ck.ck_mem;
  st.budget0 <- budget;
  st.fuel <- budget - ck.ck_spent;
  st.dyn_vector <- ck.ck_vec;
  st.detections <- ck.ck_detections;
  st.sites <- ck.ck_sites;
  Array.iteri
    (fun d fc ->
      (* live registers only: see [capture] *)
      Array.iteri
        (fun j r -> Vvalue.copy_into ~dst:fc.fc_frame.(r) fc.fc_saved.(j))
        fc.fc_live;
      let { fc_func = p_func; fc_block = p_block; fc_instr = p_step; _ } = fc in
      if d < n - 1 then st.calls.(d) <- Some { p_func; p_block; p_step })
    ck.ck_stack;
  let rec unwind d ret =
    let fc = ck.ck_stack.(d) in
    let cf = fc.fc_func and regs = fc.fc_frame in
    st.depth <- d;
    st.regs <- regs;
    let at =
      if d = n - 1 then fc.fc_instr
      else begin
        store_ret regs cf.cblocks.(fc.fc_block).body.(fc.fc_instr).dst ret;
        fc.fc_instr + 1
      end
    in
    let b = cf.tblocks.(fc.fc_block) in
    for k = at to Array.length b.t_steps - 1 do
      (Array.unsafe_get b.t_steps k) st
    done;
    let r = leave st cf.tblocks regs fc.fc_block b in
    if d = 0 then r else unwind (d - 1) r
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

(* Threading of one non-phi, non-terminator instruction. [chg] is the
   fuel-accounting prologue (scalar or vector variant), pre-selected.
   Every kernel writes its result into the destination register's
   pinned buffer ([regs.(dst)]); under SSA the destination register is
   distinct from every operand register, so the writes never clobber an
   operand being read. *)
let rec thread_instr (cm : cmodule) (cf : cfunc) ~block ~step (ci : cinstr) :
    texec =
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
  | Vir.Instr.Call (callee, _) ->
    thread_call cm ci callee chg { p_func = cf; p_block = block; p_step = step }
  | Vir.Instr.Phi _ | Vir.Instr.Br _ | Vir.Instr.Condbr _ | Vir.Instr.Ret _
  | Vir.Instr.Unreachable ->
    assert false (* handled by the block structure *)

(* Pre-resolve a call site at position [here]: module function
   (direct), intrinsic (specialized closure) or extern (slot).
   Resolution order matches the old per-dynamic-call lookup chain
   exactly. A direct call records [here] for its depth before it
   descends; an extern call fires a due check before it charges. *)
and thread_call (cm : cmodule) (ci : cinstr) (callee : string)
    (chg : state -> unit) (here : pos) : texec =
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
      let here = Some here in
      fun st ->
        let regs = st.regs in
        chg st;
        st.calls.(st.depth) <- here;
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
          if st.sites >= st.check_at then st.check_at <- st.check st here;
          let regs = st.regs in
          chg st;
          (match Array.unsafe_get st.extern_slots slot with
          | Site s -> site_call st s regs dst (gv regs) (gm regs) gsite
          | Host handler -> store_ret regs dst (handler st (mk_args regs))
          | Unbound -> unbound ())
      | _ ->
        fun st ->
          if st.sites >= st.check_at then st.check_at <- st.check st here;
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

let thread_term (t : cterm) : tterm =
  match t with
  | Tbr n -> Ct_br n
  | Tcondbr (Creg r, l1, l2) -> Ct_condbr_reg (r, l1, l2)
  | Tcondbr (c, l1, l2) -> Ct_condbr (getter c, l1, l2)
  | Tret (Some v) -> Ct_ret (getter v)
  | Tret None -> Ct_ret_void
  | Tunreachable -> Ct_unreachable

let bump (tbl : ('a, int) Hashtbl.t) (key : 'a) =
  Hashtbl.replace tbl key
    (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* Whether [hot_body] fuses chains. Fusion changes how the hot path is
   lowered, never what it computes: with it cleared before
   [compile_module] every chain runs one closure per member. Site
   kernels are unaffected. *)
let fusion = ref true

(* Hot-path body: fusion chains lowered to fused kernels, then the
   instrumented vector sites to site kernels. Site-chain instructions
   are never chain members, so the two cannot compete for a position.
   The per-instruction closures ([body]) always exist — they are
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
    let l = if !fusion then Fusion.chain_length uses blk.body s else 1 in
    if l >= 2 then (
      match Fusion.thread_superblock body blk.body s l with
      | Some fx ->
        cm.n_fused_chains <- cm.n_fused_chains + 1;
        bump cm.fused_hist l;
        emit fx l
      | None ->
        let kind j = Option.get (Fusion.member_kind blk.body.(s + j)) in
        bump cm.unfused (String.concat "+" (List.init l kind));
        for j = s to s + l - 1 do
          emit body.(j) 1
        done)
    else
      match Site_kernels.match_site_chain cm uses blk.body s with
      | Some sc ->
        let len = Site_kernels.length sc in
        cm.n_site_kernels <- cm.n_site_kernels + 1;
        emit
          (Site_kernels.thread_site_chain sc (compose_body body s (s + len)))
          len
      | None -> emit body.(s) 1
  done;
  Array.of_list (List.rev !out)

let thread_func (cm : cmodule) (cf : cfunc) : unit =
  let nblocks = Array.length cf.cblocks in
  let uses = Site_kernels.use_counts cf in
  cf.live_in <- live_in_sets cf;
  cf.tblocks <-
    Array.mapi
      (fun block (blk : cblock) ->
        let body =
          Array.mapi
            (fun step ci -> thread_instr cm cf ~block ~step ci)
            blk.body
        in
        let hot = hot_body cm uses blk body in
        {
          t_phis = thread_phis cf blk nblocks;
          t_body = compose_body hot 0 (Array.length hot);
          t_term = thread_term blk.term;
          t_steps = body;
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
