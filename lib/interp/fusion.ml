(* Fusion chains.

   [Compile.hot_body] finds them ([chain_length]). A chain is a maximal
   run of adjacent body instructions, each linked to the next
   ([links]):
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

   [thread_superblock] lowers a chain pair by pair into fused kernels,
   one for each pair shape a product module forms (DESIGN.md,
   "Specialized kernel arms"). The legality argument:

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
   - a chain holds no call, so no check fires inside one, and a resume
     restarts mid-block on [t_steps], which is NEVER fused: checkpoint
     positions stay per original instruction.

   The kernels check every structural assumption (operand positions,
   lane counts, value kinds) and return [None] when anything is off; a
   chain no kernel covers runs one closure per member, which is always
   correct, and is counted under its member kinds
   ([Compile.unfused_shapes]). *)

open Code

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

(* An in-place binop kernel for the consumer of a load→op or cast→op
   pair. *)
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

(* The fused kernel of the pair at [body.(s)], [body.(s + 1)], if one
   covers it: fbinop+fbinop, ibinop+ibinop, cast+binop, gep+load,
   gep+store or load+binop. *)
let thread_pair (body : cinstr array) (s : int) : texec option =
  let p = body.(s) and c = body.(s + 1) in
  let pi = p.src and ci = c.src in
  let chg1 = if p.cvec then charge_vec else charge in
  let chg2 = if c.cvec then charge_vec else charge in
  (* Which consumer operand reads the producer's register; exactly one
     must (two occurrences would mean two uses — not a legal chain). *)
  let puse k = k < Array.length c.ops && uses_creg c.ops.(k) p.dst in
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
    (* Both members run through their destination-passing kernels,
       with the producer's own (single-use) register buffer as the
       intermediate -- the write there is unobservable. *)
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
  | Vir.Instr.Cast (k, _), (Vir.Instr.Ibinop _ | Vir.Instr.Fbinop _)
    when (puse 0 || puse 1) && not (puse 0 && puse 1) && lanes_match -> (
    (* The conversion runs through its destination-passing kernel
       into the producer's (single-use) register buffer; the
       consumer's binop kernel then reads that register through its
       ordinary operand getter, at any lane count. *)
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
  | _ -> None

(* Superblock lowering: a chain of any length is walked left to right
   and collapsed pair by pair ([thread_pair]); members no pair kernel
   covers keep their ordinary per-instruction closure ([body_tx]),
   which still stages the intermediate through the member's own
   register slot. The segments communicate ONLY through the frame's
   register buffers ([regs.(dst)]): a fused kernel may be shared by
   every machine (and every campaign pool domain) running this module,
   so the scratch an intermediate stages through must live in
   per-frame state, never in closure-captured buffers.

   Returns [None] when no pair merged — composing unmodified closures
   would only add dispatch layers over what [compose_body] already
   does. *)
let thread_superblock (body_tx : texec array) (body : cinstr array) (s : int)
    (len : int) : texec option =
  let e = s + len in
  let steps = ref [] in
  let merged = ref false in
  let k = ref s in
  while !k < e do
    match if !k + 2 <= e then thread_pair body !k else None with
    | Some fx ->
      steps := fx :: !steps;
      merged := true;
      k := !k + 2
    | None ->
      steps := body_tx.(!k) :: !steps;
      incr k
  done;
  if not !merged then None
  else
    let arr = Array.of_list (List.rev !steps) in
    Some (compose_body arr 0 (Array.length arr))
