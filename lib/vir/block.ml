(** Basic blocks: a label plus an instruction sequence ending in exactly
    one terminator. The instruction list is mutable so that passes
    (instrumentation, detector insertion) can rewrite it in place. *)

type t = {
  label : string;
  mutable instrs : Instr.t list;
}

let create ?(instrs = []) label = { label; instrs }

let terminator b =
  let rec last = function
    | [] -> None
    | [ i ] -> if Instr.is_terminator i then Some i else None
    | _ :: rest -> last rest
  in
  last b.instrs

let successors b =
  match terminator b with
  | Some t -> Instr.successors t
  | None -> []

(* Insert [news] immediately after the instruction with id [after]. *)
let insert_after b ~after news =
  let rec go = function
    | [] -> []
    | i :: rest when i.Instr.id = after && Instr.defines i ->
      i :: (news @ rest)
    | i :: rest -> i :: go rest
  in
  b.instrs <- go b.instrs

(* Insert [news] just before the block terminator. *)
let insert_before_terminator b news =
  match List.rev b.instrs with
  | last :: rev_rest when Instr.is_terminator last ->
    b.instrs <- List.rev rev_rest @ news @ [ last ]
  | _ -> b.instrs <- b.instrs @ news

(* Apply [f] to every instruction, in place. *)
let map_instrs b f = b.instrs <- List.map f b.instrs

(* Retarget branch labels with [f] (used when splitting edges). *)
let retarget b f =
  let rewrite i =
    match i.Instr.op with
    | Instr.Br l -> { i with Instr.op = Instr.Br (f l) }
    | Instr.Condbr (c, l1, l2) ->
      { i with Instr.op = Instr.Condbr (c, f l1, f l2) }
    | _ -> i
  in
  map_instrs b rewrite
