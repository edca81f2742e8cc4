(* Forward slices over def-use chains, the oracle the tests check the
   site classifier (Analysis.Sites) against.

   The forward slice of a register is the set of instructions reachable
   by following def-use edges from it, including the instructions that
   use it directly. The VULFI fault-site taxonomy (§II-C) is defined on
   these slices: a slice containing a [getelementptr] marks an address
   site, one containing conditional control flow marks a control site. *)

(* Forward slice of register [r]: every instruction that (transitively)
   consumes the value. The defining instruction itself is included,
   matching the intuition that a bit flip in a gep's Lvalue is an
   address-site fault even before the address is consumed. *)
let forward_slice (du : Defuse.t) (r : Vir.Instr.reg) : Vir.Instr.t list =
  let seen_regs = Hashtbl.create 16 in
  (* Dedup by physical identity: instruction records are shared with
     the def-use index, and all void instructions carry id = -1, so a
     structural key would make two identical stores (or branches) in
     different blocks collide and drop one from the slice. Slices are
     small; a linear [memq] scan is fine. *)
  let result = ref [] in
  let add_instr (i : Vir.Instr.t) =
    if List.memq i !result then false
    else begin
      result := i :: !result;
      true
    end
  in
  let rec visit_reg r =
    if not (Hashtbl.mem seen_regs r) then begin
      Hashtbl.replace seen_regs r ();
      (match Defuse.def du r with
      | Some i -> ignore (add_instr i)
      | None -> () (* function parameter *));
      List.iter
        (fun (u : Defuse.use_site) ->
          let i = u.Defuse.u_instr in
          if add_instr i then
            if Vir.Instr.defines i then visit_reg i.Vir.Instr.id)
        (Defuse.uses_of du r)
    end
  in
  visit_reg r;
  !result

(* Forward slice seeded at an instruction: for defining instructions the
   slice of their Lvalue; for stores, just the store itself (the value
   escapes to memory, which intra-procedural slicing does not track). *)
let forward_slice_of_instr (du : Defuse.t) (i : Vir.Instr.t) :
    Vir.Instr.t list =
  if Vir.Instr.defines i then forward_slice du i.Vir.Instr.id else [ i ]

let contains_gep slice = List.exists Vir.Instr.is_gep slice

let contains_control_flow slice =
  List.exists Vir.Instr.is_control_flow slice
