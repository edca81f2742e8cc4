(** Fault-site enumeration and classification (paper §II-B, §II-C).

    A fault *target* is the Lvalue of a defining instruction, or the
    value operand of a (possibly masked) store. A vector target of
    length Vl contributes Vl scalar fault *sites*, one per lane.

    Each target is classified by its forward slice:
    - pure-data: no [getelementptr] and no control-flow instruction;
    - control: at least one control-flow instruction;
    - address: at least one [getelementptr].
    Control and address overlap (Fig 2); pure-data excludes both. The
    classes of all targets of a function come from one pass of reverse
    reachability over def-use edges ([marks]), which reaches a register
    iff its slice holds the instruction the class names. *)

type category = Pure_data | Control | Address

let category_name = function
  | Pure_data -> "pure-data"
  | Control -> "control"
  | Address -> "address"

let category_of_string s =
  match String.lowercase_ascii s with
  | "pure-data" | "puredata" | "data" -> Some Pure_data
  | "control" | "ctrl" -> Some Control
  | "address" | "addr" -> Some Address
  | _ -> None

let all_categories = [ Pure_data; Control; Address ]

type target_kind =
  | Lvalue            (** result register of a defining instruction *)
  | Store_value       (** value operand of a [store] *)
  | Maskstore_value   (** value operand of a masked-store intrinsic *)

type target = {
  t_func : string;
  t_block : string;
  t_instr : Vir.Instr.t;
  t_kind : target_kind;
  t_lanes : int;          (** scalar fault sites contributed *)
  t_is_vector : bool;     (** vector instruction per the paper's defn *)
  t_is_control : bool;
  t_is_address : bool;
}

let is_pure_data t = (not t.t_is_control) && not t.t_is_address

let in_category t = function
  | Pure_data -> is_pure_data t
  | Control -> t.t_is_control
  | Address -> t.t_is_address

(* The type whose lanes are perturbed for a target. *)
let target_value_ty (t : target) =
  match t.t_kind with
  | Lvalue -> t.t_instr.Vir.Instr.ty
  | Store_value -> (
    match t.t_instr.Vir.Instr.op with
    | Vir.Instr.Store (v, _) -> Vir.Instr.operand_ty v
    | _ -> assert false)
  | Maskstore_value -> (
    match t.t_instr.Vir.Instr.op with
    | Vir.Instr.Call (name, args) -> (
      match Vir.Intrinsics.value_operand name with
      | Some ix -> Vir.Instr.operand_ty (List.nth args ix)
      | None -> assert false)
    | _ -> assert false)

(* Runtime functions injected by the instrumentor, and instructions
   synthesised by the detector passes (named "__det_*"), are not
   themselves fault targets: they are measurement/protection machinery,
   not program state. *)
let is_vulfi_runtime_call (i : Vir.Instr.t) =
  String.starts_with ~prefix:"__det_" i.Vir.Instr.name
  ||
  match i.Vir.Instr.op with
  | Vir.Instr.Call (name, _) -> String.starts_with ~prefix:"__vulfi_" name
  | _ -> false

(* Marks of a register: the classes its forward slice reaches. *)
let control_mark = 1

let address_mark = 2

(* Stands in for the defining instruction of a register that has none
   (a parameter, or an id no instruction defines). *)
let no_def =
  { Vir.Instr.id = -1; name = ""; ty = Vir.Vtype.Void; op = Vir.Instr.Unreachable }

(* The marks of every register of [f], by one reverse-reachability
   pass. A register's forward slice holds a [condbr] (a
   [getelementptr]) iff the register reaches, along def-use edges, a
   register some [condbr] reads (the result of some gep, the gep being
   in its own slice). So the marks start there and flow backwards along
   those edges: from a register to each register operand of its
   defining instruction, phi incomings included. Every instruction is a
   graph node, runtime calls and detector code too, exactly as every
   instruction is a slice member. The tables are register-indexed and
   sized by the largest id that occurs; each register enters the
   worklist at most once per mark. *)
let marks (f : Vir.Func.t) : Bytes.t =
  let n = ref f.Vir.Func.next_reg in
  let see = function
    | Vir.Instr.Reg (r, _) -> if r >= !n then n := r + 1
    | Vir.Instr.Imm _ -> ()
  in
  Vir.Func.iter_instrs f (fun _ i ->
      if Vir.Instr.defines i && i.Vir.Instr.id >= !n then
        n := i.Vir.Instr.id + 1;
      Vir.Instr.iter_operands see i);
  let n = !n in
  let def = Array.make n no_def in
  let mark = Bytes.make n '\000' in
  let stack = Array.make (2 * n) 0 and top = ref 0 in
  let add bits r =
    if r >= 0 then begin
      let old = Bytes.get_uint8 mark r in
      if old lor bits <> old then begin
        Bytes.set_uint8 mark r (old lor bits);
        stack.(!top) <- r;
        incr top
      end
    end
  in
  let add_control = function
    | Vir.Instr.Reg (r, _) -> add control_mark r
    | Vir.Instr.Imm _ -> ()
  in
  Vir.Func.iter_instrs f (fun _ i ->
      if Vir.Instr.defines i && i.Vir.Instr.id >= 0 then
        def.(i.Vir.Instr.id) <- i;
      if Vir.Instr.is_control_flow i then Vir.Instr.iter_operands add_control i;
      if Vir.Instr.is_gep i && Vir.Instr.defines i then
        add address_mark i.Vir.Instr.id);
  while !top > 0 do
    decr top;
    let r = stack.(!top) in
    let bits = Bytes.get_uint8 mark r in
    Vir.Instr.iter_operands
      (function Vir.Instr.Reg (x, _) -> add bits x | Vir.Instr.Imm _ -> ())
      def.(r)
  done;
  mark

(* Enumerate all fault targets of [f], classified by [marks]. *)
let targets_of_func (f : Vir.Func.t) : target list =
  let mark = marks f in
  let marked bit (i : Vir.Instr.t) =
    i.Vir.Instr.id >= 0 && Bytes.get_uint8 mark i.Vir.Instr.id land bit <> 0
  in
  (* A store's value gets no class of its own: the value escapes to
     memory, which intra-procedural slicing does not track, so its
     slice is the store alone. *)
  let acc = ref [] in
  Vir.Func.iter_instrs f (fun b i ->
      if not (is_vulfi_runtime_call i) then begin
        if Vir.Instr.defines i then begin
          let lanes = max 1 (Vir.Vtype.lanes i.Vir.Instr.ty) in
          acc :=
            {
              t_func = f.Vir.Func.fname;
              t_block = b.Vir.Block.label;
              t_instr = i;
              t_kind = Lvalue;
              t_lanes = lanes;
              t_is_vector = Vir.Instr.is_vector_instr i;
              t_is_control = marked control_mark i;
              t_is_address = marked address_mark i;
            }
            :: !acc
        end;
        match i.Vir.Instr.op with
        | Vir.Instr.Store (v, _) ->
          let lanes = max 1 (Vir.Vtype.lanes (Vir.Instr.operand_ty v)) in
          acc :=
            {
              t_func = f.Vir.Func.fname;
              t_block = b.Vir.Block.label;
              t_instr = i;
              t_kind = Store_value;
              t_lanes = lanes;
              t_is_vector = Vir.Instr.is_vector_instr i;
              t_is_control = false;
              t_is_address = false;
            }
            :: !acc
        | Vir.Instr.Call (name, args)
          when Vir.Intrinsics.value_operand name <> None ->
          let ix = Option.get (Vir.Intrinsics.value_operand name) in
          let vty = Vir.Instr.operand_ty (List.nth args ix) in
          acc :=
            {
              t_func = f.Vir.Func.fname;
              t_block = b.Vir.Block.label;
              t_instr = i;
              t_kind = Maskstore_value;
              t_lanes = max 1 (Vir.Vtype.lanes vty);
              t_is_vector = true;
              t_is_control = false;
              t_is_address = false;
            }
            :: !acc
        | _ -> ()
      end);
  List.rev !acc

let targets_of_module (m : Vir.Vmodule.t) : target list =
  List.concat_map targets_of_func m.Vir.Vmodule.funcs

(* Restrict to one category, optionally to a set of functions. *)
let select ?(funcs : string list option) (targets : target list)
    (cat : category) =
  List.filter
    (fun t ->
      in_category t cat
      && match funcs with None -> true | Some fs -> List.mem t.t_func fs)
    targets

(* Total scalar fault sites in a target list. *)
let total_sites targets =
  List.fold_left (fun n t -> n + t.t_lanes) 0 targets
