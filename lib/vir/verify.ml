(** Module verifier: structural SSA checks plus an instruction typing
    pass. Passes run the verifier after rewriting IR; tests assert both
    acceptance of well-formed IR and rejection of malformed IR. *)

type error = { in_func : string; in_block : string; msg : string }

let error_to_string e =
  Printf.sprintf "%s/%%%s: %s" e.in_func e.in_block e.msg

(* Dominator sets by iterative dataflow over block indices: dom.(i).(j)
   holds iff block j dominates block i. [index_of] maps a label to its
   block's index. *)
let dominators (blocks : Block.t array) index_of =
  let n = Array.length blocks in
  let preds = Array.make n [] in
  Array.iteri
    (fun i b ->
      List.iter
        (fun s ->
          match Hashtbl.find_opt index_of s with
          | Some j -> preds.(j) <- i :: preds.(j)
          | None -> ())
        (Block.successors b))
    blocks;
  (* the entry is dominated only by itself; the others start full *)
  let dom =
    Array.init n (fun i ->
        if i = 0 then Array.init n (fun j -> j = 0) else Array.make n true)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      let inter = Array.make n (preds.(i) <> []) in
      List.iter
        (fun p -> Array.iteri (fun j v -> inter.(j) <- v && dom.(p).(j)) inter)
        preds.(i);
      inter.(i) <- true;
      if inter <> dom.(i) then (
        dom.(i) <- inter;
        changed := true)
    done
  done;
  dom

(* The defining block of a register no one defines, and of a
   parameter, which dominates every use. *)
let undefined = -1

let param = -2

let verify_func (m : Vmodule.t) (f : Func.t) : error list =
  let errors = ref [] in
  let err block msg =
    errors := { in_func = f.Func.fname; in_block = block; msg } :: !errors
  in
  if f.Func.blocks = [] then err "" "function has no blocks";
  let blocks = Array.of_list f.Func.blocks in
  let index_of = Hashtbl.create (Array.length blocks) in
  Array.iteri
    (fun bi b ->
      if Hashtbl.mem index_of b.Block.label then
        err b.Block.label "duplicate block label"
      else Hashtbl.replace index_of b.Block.label bi)
    blocks;
  (* Register-indexed tables: the type of each register's definition
     and the index of its defining block. They are sized by the largest
     id that occurs, which malformed input may put at or past
     [next_reg]; a negative id is never defined. *)
  let nregs =
    let top = ref (f.Func.next_reg - 1) in
    let see r = if r > !top then top := r in
    List.iter (fun p -> see p.Func.preg) f.Func.params;
    let see_operand = function Instr.Reg (r, _) -> see r | Instr.Imm _ -> () in
    Array.iter
      (fun b ->
        List.iter
          (fun (i : Instr.t) ->
            if Instr.defines i then see i.Instr.id;
            Instr.iter_operands see_operand i)
          b.Block.instrs)
      blocks;
    !top + 1
  in
  let def_ty = Array.make nregs Vtype.Void in
  let def_block = Array.make nregs undefined in
  let defined r = r >= 0 && def_block.(r) <> undefined in
  (* Definitions: params then instruction results, each exactly once;
     the last definition of a register is the one uses are checked
     against. *)
  List.iter
    (fun p ->
      let r = p.Func.preg in
      if r >= 0 then begin
        def_ty.(r) <- p.Func.pty;
        def_block.(r) <- param
      end)
    f.Func.params;
  Array.iteri
    (fun bi b ->
      List.iter
        (fun (i : Instr.t) ->
          let r = i.Instr.id in
          if Instr.defines i && r >= 0 then begin
            if defined r then
              err b.Block.label
                (Printf.sprintf "register %%r%d defined twice" r);
            def_ty.(r) <- i.Instr.ty;
            def_block.(r) <- bi
          end)
        b.Block.instrs)
    blocks;
  (* Block shape: exactly one terminator, at the end; phis first. *)
  Array.iter
    (fun b ->
      (match b.Block.instrs with
      | [] -> err b.Block.label "empty block"
      | instrs ->
        if Block.terminator b = None then
          err b.Block.label "block does not end in a terminator";
        let rec middle = function
          | [] | [ _ ] -> ()
          | i :: rest ->
            if Instr.is_terminator i then
              err b.Block.label "terminator in the middle of a block";
            middle rest
        in
        middle instrs);
      let seen_non_phi = ref false in
      List.iter
        (fun i ->
          if Instr.is_phi i then begin
            if !seen_non_phi then
              err b.Block.label "phi after non-phi instruction"
          end
          else seen_non_phi := true)
        b.Block.instrs)
    blocks;
  (* Branch targets exist. *)
  Array.iter
    (fun b ->
      List.iter
        (fun s ->
          if not (Hashtbl.mem index_of s) then
            err b.Block.label ("branch to unknown label %" ^ s))
        (Block.successors b))
    blocks;
  (* Operand typing: register operands must match their definition. *)
  Array.iter
    (fun b ->
      List.iter
        (Instr.iter_operands (function
          | Instr.Reg (r, ty) ->
            if not (defined r) then
              err b.Block.label
                (Printf.sprintf "use of undefined register %%r%d" r)
            else if not (Vtype.equal def_ty.(r) ty) then
              err b.Block.label
                (Printf.sprintf
                   "register %%r%d used at type %s but defined at %s" r
                   (Vtype.to_string ty)
                   (Vtype.to_string def_ty.(r)))
          | Instr.Imm _ -> ()))
        b.Block.instrs)
    blocks;
  (* Instruction-specific typing rules. *)
  let check_instr b (i : Instr.t) =
    let ity = i.Instr.ty in
    let e msg = err b.Block.label (Pp.instr_to_string i ^ ": " ^ msg) in
    let ty_of = Instr.operand_ty in
    match i.Instr.op with
    | Instr.Ibinop (_, a, bb) ->
      if not (Vtype.is_int (ty_of a)) then e "integer binop on non-int";
      if not (Vtype.equal (ty_of a) (ty_of bb)) then e "operand type mismatch";
      if not (Vtype.equal ity (ty_of a)) then e "result type mismatch"
    | Instr.Fbinop (_, a, bb) ->
      if not (Vtype.is_float (ty_of a)) then e "float binop on non-float";
      if not (Vtype.equal (ty_of a) (ty_of bb)) then e "operand type mismatch";
      if not (Vtype.equal ity (ty_of a)) then e "result type mismatch"
    | Instr.Icmp (_, a, bb) ->
      if not (Vtype.is_int (ty_of a) || Vtype.is_ptr (ty_of a)) then
        e "icmp on non-int";
      if not (Vtype.equal (ty_of a) (ty_of bb)) then e "operand type mismatch";
      if not
           (Vtype.equal ity
              (Vtype.with_lanes (Vtype.lanes (ty_of a)) Vtype.bool_ty))
      then e "icmp result must be i1 with matching lanes"
    | Instr.Fcmp (_, a, bb) ->
      if not (Vtype.is_float (ty_of a)) then e "fcmp on non-float";
      if not (Vtype.equal (ty_of a) (ty_of bb)) then e "operand type mismatch";
      if not
           (Vtype.equal ity
              (Vtype.with_lanes (Vtype.lanes (ty_of a)) Vtype.bool_ty))
      then e "fcmp result must be i1 with matching lanes"
    | Instr.Select (c, a, bb) ->
      let cty = ty_of c in
      if Vtype.elem cty <> Vtype.I1 then e "select condition must be i1";
      if
        Vtype.is_vector cty
        && Vtype.lanes cty <> Vtype.lanes (ty_of a)
      then e "select mask lane mismatch";
      if not (Vtype.equal (ty_of a) (ty_of bb)) then e "select arm mismatch";
      if not (Vtype.equal ity (ty_of a)) then e "select result mismatch"
    | Instr.Cast (k, a) -> (
      let aty = ty_of a in
      if Vtype.lanes aty <> Vtype.lanes ity then e "cast changes lane count";
      let bits t = Vtype.scalar_bits (Vtype.elem t) in
      (* trunc and fptrunc narrow, the extensions widen, as in LLVM *)
      let narrows () =
        if bits aty <= bits ity then e (Instr.cast_name k ^ " must narrow")
      and widens () =
        if bits aty >= bits ity then e (Instr.cast_name k ^ " must widen")
      in
      match k with
      | Instr.Trunc | Instr.Zext | Instr.Sext ->
        if not (Vtype.is_int aty && Vtype.is_int ity) then
          e "int cast on non-int"
        else if k = Instr.Trunc then narrows ()
        else widens ()
      | Instr.Fptosi ->
        if not (Vtype.is_float aty && Vtype.is_int ity) then
          e "fptosi type error"
      | Instr.Sitofp ->
        if not (Vtype.is_int aty && Vtype.is_float ity) then
          e "sitofp type error"
      | Instr.Fptrunc | Instr.Fpext ->
        if not (Vtype.is_float aty && Vtype.is_float ity) then
          e "float cast on non-float"
        else if k = Instr.Fptrunc then narrows ()
        else widens ()
      | Instr.Ptrtoint ->
        if not (Vtype.is_ptr aty && Vtype.is_int ity) then
          e "ptrtoint type error"
      | Instr.Inttoptr ->
        if not (Vtype.is_int aty && Vtype.is_ptr ity) then
          e "inttoptr type error"
      | Instr.Bitcast ->
        if Vtype.is_void aty || Vtype.is_void ity then
          e "bitcast size mismatch"
        else if Vtype.is_ptr aty || Vtype.is_ptr ity then
          e "bitcast of a pointer"
        else if
          Vtype.lanes aty * bits aty <> Vtype.lanes ity * bits ity
        then e "bitcast size mismatch")
    | Instr.Alloca _ ->
      if not (Vtype.is_ptr ity) then e "alloca must yield ptr"
    | Instr.Load p ->
      if not (Vtype.is_ptr (ty_of p)) then e "load from non-ptr";
      if Vtype.is_void ity then e "load of void"
    | Instr.Store (v, p) ->
      if not (Vtype.is_ptr (ty_of p)) then e "store to non-ptr";
      if Vtype.is_void (ty_of v) then e "store of void";
      if not (Vtype.is_void ity) then e "store has a result"
    | Instr.Gep (base, ix, sz) ->
      if not (Vtype.is_ptr (ty_of base)) then e "gep base must be ptr";
      if not (Vtype.is_int (ty_of ix)) then e "gep index must be int";
      if Vtype.is_vector (ty_of ix) then e "gep index must be scalar";
      if sz <= 0 then e "gep element size must be positive";
      if not (Vtype.is_ptr ity) then e "gep must yield ptr"
    | Instr.Extractelement (v, ix) ->
      if not (Vtype.is_vector (ty_of v)) then e "extractelement on scalar";
      if not (Vtype.is_int (ty_of ix)) then e "lane index must be int";
      if not (Vtype.equal ity (Vtype.scalar_of (ty_of v))) then
        e "extractelement result type mismatch"
    | Instr.Insertelement (v, el, ix) ->
      if not (Vtype.is_vector (ty_of v)) then e "insertelement on scalar";
      if not (Vtype.is_int (ty_of ix)) then e "lane index must be int";
      if not (Vtype.equal (ty_of el) (Vtype.scalar_of (ty_of v))) then
        e "inserted element type mismatch";
      if not (Vtype.equal ity (ty_of v)) then
        e "insertelement result type mismatch"
    | Instr.Shufflevector (a, bb, mask) ->
      if not (Vtype.is_vector (ty_of a)) then e "shuffle of scalar";
      if not (Vtype.equal (ty_of a) (ty_of bb)) then
        e "shuffle operand mismatch";
      let lanes = Vtype.lanes (ty_of a) in
      Array.iter
        (fun ix ->
          if ix < 0 || ix >= 2 * lanes then e "shuffle mask out of range")
        mask;
      if
        not
          (Vtype.equal ity
             (Vtype.with_lanes (Array.length mask)
                (Vtype.scalar_of (ty_of a))))
      then e "shuffle result type mismatch"
    | Instr.Call (callee, args) -> (
      let check_sig arg_tys ret =
        if List.length arg_tys <> List.length args then
          e "call arity mismatch"
        else
          List.iter2
            (fun want got ->
              if not (Vtype.equal want (Instr.operand_ty got)) then
                e
                  (Printf.sprintf "call argument type mismatch (%s vs %s)"
                     (Vtype.to_string want)
                     (Vtype.to_string (Instr.operand_ty got))))
            arg_tys args;
        if not (Vtype.equal ret ity) then e "call result type mismatch"
      in
      match Vmodule.find_func m callee with
      | Some g ->
        check_sig (List.map (fun p -> p.Func.pty) g.Func.params) g.Func.ret_ty
      | None -> (
        match Vmodule.find_extern m callee with
        | Some ext -> check_sig ext.Vmodule.arg_tys ext.Vmodule.ret
        | None ->
          if not (Intrinsics.is_intrinsic_name callee) then
            e ("call to unknown function @" ^ callee)))
    | Instr.Phi incoming ->
      List.iter
        (fun (_, v) ->
          if not (Vtype.equal (Instr.operand_ty v) ity) then
            e "phi incoming type mismatch")
        incoming
    | Instr.Condbr (c, _, _) ->
      if not (Vtype.equal (ty_of c) Vtype.bool_ty) then
        e "condbr condition must be scalar i1"
    | Instr.Ret v -> (
      match (v, f.Func.ret_ty) with
      | None, rt when Vtype.is_void rt -> ()
      | None, _ -> e "ret void in non-void function"
      | Some _, rt when Vtype.is_void rt -> e "ret value in void function"
      | Some v, rt ->
        if not (Vtype.equal (Instr.operand_ty v) rt) then
          e "ret type mismatch")
    | Instr.Br _ | Instr.Unreachable -> ()
  in
  Array.iter (fun b -> List.iter (check_instr b) b.Block.instrs) blocks;
  (* Phi incoming labels must exactly cover the block's predecessors. *)
  let preds = Func.predecessors f in
  Array.iter
    (fun b ->
      let ps =
        lazy
          (try List.sort_uniq compare (Hashtbl.find preds b.Block.label)
           with Not_found -> [])
      in
      List.iter
        (fun (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Phi incoming ->
            let labels = List.sort_uniq compare (List.map fst incoming) in
            let ps = Lazy.force ps in
            if labels <> ps then
              err b.Block.label
                (Printf.sprintf "phi %%r%d incoming {%s} != preds {%s}"
                   i.Instr.id (String.concat "," labels)
                   (String.concat "," ps))
          | _ -> ())
        b.Block.instrs)
    blocks;
  (* Dominance: every use is dominated by its definition. Uses in phi
     operands are checked at the end of the incoming block instead.
     [seen.(r)] is the index of the block whose walk has passed [r]'s
     definition. *)
  if blocks <> [||] && !errors = [] then begin
    let dom = dominators blocks index_of in
    let dominates d u = d = param || dom.(u).(d) in
    let seen = Array.make nregs undefined in
    Array.iteri
      (fun bi b ->
        List.iter
          (fun (i : Instr.t) ->
            (match i.Instr.op with
            | Instr.Phi incoming ->
              List.iter
                (fun (from, v) ->
                  match v with
                  | Instr.Reg (r, _) when defined r ->
                    let ok =
                      match Hashtbl.find_opt index_of from with
                      | Some u -> dominates def_block.(r) u
                      | None -> def_block.(r) = param
                    in
                    if not ok then
                      err b.Block.label
                        (Printf.sprintf
                           "phi use of %%r%d not dominated via %%%s" r from)
                  | Instr.Reg _ | Instr.Imm _ -> ())
                incoming
            | _ ->
              Instr.iter_operands
                (function
                  | Instr.Reg (r, _) when defined r ->
                    let d = def_block.(r) in
                    let ok =
                      if d = bi then seen.(r) = bi else dominates d bi
                    in
                    if not ok then
                      err b.Block.label
                        (Printf.sprintf
                           "use of %%r%d not dominated by its definition" r)
                  | Instr.Reg _ | Instr.Imm _ -> ())
                i);
            if Instr.defines i && i.Instr.id >= 0 then seen.(i.Instr.id) <- bi)
          b.Block.instrs)
      blocks
  end;
  List.rev !errors

let verify_module (m : Vmodule.t) : error list =
  List.concat_map (verify_func m) m.Vmodule.funcs

(* Raise [Invalid_argument] with a readable report if verification
   fails; convenience for pass pipelines. *)
let check_module m =
  match verify_module m with
  | [] -> ()
  | errs ->
    let report = String.concat "\n" (List.map error_to_string errs) in
    invalid_arg ("Verify.check_module:\n" ^ report)
