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
   replaces as a whole; a check inside the chain fires only from the
   member closures (below), and a resume restarts on [t_steps], one
   closure per instruction. The kernel runs the member closures
   instead, exact by construction, whenever it could differ from them:
   - [fuel] is below the member count, so a budget trap lands on the
     member that runs out;
   - the slot is not a [Site]: a host handler sees every call, and an
     unbound slot traps at its first call;
   - [armed] falls among this execution's live lanes, so [fire] runs
     from the lane's own call;
   - the machine's [check_at] is at most [sites] plus the live lanes,
     so a due check fires from the lane's own call, at the machine
     state of per-instruction execution;
   - a value is not shaped as its static type says. *)

open Code

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

let length sc = sc.sc_len

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
    if
      live < 0
      || (s.armed > s0 && s.armed <= s0 + live)
      || st.check_at <= s0 + live
    then false
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
