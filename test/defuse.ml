(* Def-use chains over a VIR function: the index the forward slices of
   {!Slice} walk. Tests only; the product classifier, Analysis.Sites,
   marks every register in one reverse-reachability pass instead. *)

type use_site = {
  u_block : string;
  u_instr : Vir.Instr.t;
}

type t = {
  func : Vir.Func.t;
  defs : (Vir.Instr.reg, Vir.Instr.t) Hashtbl.t;
  uses : (Vir.Instr.reg, use_site list) Hashtbl.t;
}

let build (f : Vir.Func.t) : t =
  let defs = Hashtbl.create 64 in
  let uses = Hashtbl.create 64 in
  Vir.Func.iter_instrs f (fun b i ->
      if Vir.Instr.defines i then Hashtbl.replace defs i.Vir.Instr.id i;
      List.iter
        (fun r ->
          let site = { u_block = b.Vir.Block.label; u_instr = i } in
          let old = try Hashtbl.find uses r with Not_found -> [] in
          Hashtbl.replace uses r (site :: old))
        (Vir.Instr.uses i));
  { func = f; defs; uses }

let def t r = Hashtbl.find_opt t.defs r

let uses_of t r = try Hashtbl.find t.uses r with Not_found -> []
