(** VIR functions: parameters, an entry-first list of basic blocks, and a
    register-id allocator shared by all passes that add instructions. *)

type param = { pname : string; pty : Vtype.t; preg : Instr.reg }

(* Structured metadata recorded by the mini-ISPC code generator for each
   lowered [foreach] loop, consumed (and cross-checked) by the detector
   synthesis pass. *)
type foreach_meta = {
  fm_full_body : string;      (** label of the [foreach_full_body] block *)
  fm_exit : string;           (** label the full body exits to *)
  fm_new_counter : Instr.reg; (** register holding [new_counter] *)
  fm_aligned_end : Instr.reg; (** register holding [aligned_end] *)
  fm_vl : int;                (** vector length of the lowering *)
}

type t = {
  fname : string;
  params : param list;
  ret_ty : Vtype.t;
  mutable blocks : Block.t list;  (** entry block first *)
  mutable next_reg : Instr.reg;
  mutable next_label : int;
  mutable foreach_meta : foreach_meta list;
}

let create ~name ~params ~ret_ty =
  let plist =
    List.mapi (fun i (pname, pty) -> { pname; pty; preg = i }) params
  in
  {
    fname = name;
    params = plist;
    ret_ty;
    blocks = [];
    next_reg = List.length plist;
    next_label = 0;
    foreach_meta = [];
  }

let fresh_reg f =
  let r = f.next_reg in
  f.next_reg <- r + 1;
  r

let fresh_label f base =
  let n = f.next_label in
  f.next_label <- n + 1;
  Printf.sprintf "%s%d" base n

let entry f =
  match f.blocks with
  | [] -> invalid_arg ("Func.entry: empty function " ^ f.fname)
  | b :: _ -> b

let find_block f label =
  match List.find_opt (fun b -> b.Block.label = label) f.blocks with
  | Some b -> b
  | None ->
    invalid_arg (Printf.sprintf "Func.find_block: %%%s in %s" label f.fname)

let add_block f b = f.blocks <- f.blocks @ [ b ]

let iter_instrs f g =
  List.iter (fun b -> List.iter (g b) b.Block.instrs) f.blocks

let fold_instrs f g acc =
  List.fold_left
    (fun acc b -> List.fold_left (fun acc i -> g acc b i) acc b.Block.instrs)
    acc f.blocks

(* All instructions, in block order. *)
let all_instrs f =
  List.concat_map (fun b -> b.Block.instrs) f.blocks

(* Map register id -> defining instruction. *)
let def_table f =
  let tbl = Hashtbl.create 64 in
  iter_instrs f (fun _ i ->
      if Instr.defines i then Hashtbl.replace tbl i.Instr.id i);
  tbl

(* Map block label -> predecessor labels. *)
let predecessors f =
  let tbl = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace tbl b.Block.label []) f.blocks;
  List.iter
    (fun b ->
      List.iter
        (fun succ ->
          let old = try Hashtbl.find tbl succ with Not_found -> [] in
          Hashtbl.replace tbl succ (b.Block.label :: old))
        (Block.successors b))
    f.blocks;
  tbl

(* Type of register [r]: a parameter or an instruction result. *)
let reg_ty f r =
  match List.find_opt (fun p -> p.preg = r) f.params with
  | Some p -> Some p.pty
  | None ->
    fold_instrs f
      (fun acc _ i ->
        if Instr.defines i && i.Instr.id = r then Some i.Instr.ty else acc)
      None
