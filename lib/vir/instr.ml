(** VIR instructions.

    Instructions form an SSA register machine: every non-void instruction
    defines a fresh register identified by an integer id. Operands are
    either registers or constants. Registers carry their type inline so
    that passes can query operand types without an environment; the
    verifier checks consistency against the defining instruction. *)

type reg = int

type operand =
  | Reg of reg * Vtype.t
  | Imm of Const.t

let operand_ty = function
  | Reg (_, t) -> t
  | Imm c -> Const.ty c

type ibinop =
  | Add | Sub | Mul | Sdiv | Srem | Udiv | Urem
  | And | Or | Xor | Shl | Lshr | Ashr

type fbinop = Fadd | Fsub | Fmul | Fdiv | Frem

type icmp_pred = Ieq | Ine | Islt | Isle | Isgt | Isge | Iult | Iule | Iugt | Iuge

type fcmp_pred = Foeq | Fone | Folt | Fole | Fogt | Foge | Ford | Funo

type cast_op =
  | Trunc | Zext | Sext
  | Fptosi | Sitofp | Fptrunc | Fpext
  | Bitcast | Ptrtoint | Inttoptr

type op =
  | Ibinop of ibinop * operand * operand
  | Fbinop of fbinop * operand * operand
  | Icmp of icmp_pred * operand * operand
  | Fcmp of fcmp_pred * operand * operand
  | Select of operand * operand * operand
      (** [Select (cond, a, b)]: cond is i1 (scalar select) or
          <n x i1> (lane-wise blend). *)
  | Cast of cast_op * operand
  | Alloca of Vtype.t * int
      (** [Alloca (elt, count)] reserves [count] elements of [elt] and
          yields their base pointer. *)
  | Load of operand
      (** Load this instruction's result type from a [ptr] operand. *)
  | Store of operand * operand  (** [Store (value, ptr)]; void. *)
  | Gep of operand * operand * int
      (** [Gep (base, index, elem_bytes)]: address arithmetic
          [base + index * elem_bytes]. Index may be any int scalar. *)
  | Extractelement of operand * operand  (** vector, i32 index *)
  | Insertelement of operand * operand * operand
      (** vector, scalar value, i32 index *)
  | Shufflevector of operand * operand * int array
      (** two vectors and a constant lane-selection mask, as in LLVM *)
  | Call of string * operand list
      (** Direct call to a module function, an extern, or an intrinsic
          (names starting with ["llvm."]). *)
  | Phi of (string * operand) list  (** [(incoming block label, value)] *)
  | Br of string
  | Condbr of operand * string * string  (** cond, then-label, else-label *)
  | Ret of operand option
  | Unreachable

type t = {
  id : reg;         (** SSA register defined; [-1] when [ty] is void *)
  name : string;    (** textual register name, for printing/debugging *)
  ty : Vtype.t;     (** result type; [Void] for stores and terminators *)
  op : op;
}

let defines i = not (Vtype.is_void i.ty)

let operands i =
  match i.op with
  | Ibinop (_, a, b) | Fbinop (_, a, b) | Icmp (_, a, b) | Fcmp (_, a, b) ->
    [ a; b ]
  | Select (c, a, b) -> [ c; a; b ]
  | Cast (_, a) | Load a -> [ a ]
  | Store (v, p) -> [ v; p ]
  | Gep (b, i', _) -> [ b; i' ]
  | Extractelement (v, i') -> [ v; i' ]
  | Insertelement (v, e, i') -> [ v; e; i' ]
  | Shufflevector (a, b, _) -> [ a; b ]
  | Call (_, args) -> args
  | Phi incoming -> List.map snd incoming
  | Condbr (c, _, _) -> [ c ]
  | Ret (Some v) -> [ v ]
  | Alloca _ | Br _ | Ret None | Unreachable -> []

(* [List.iter f (operands i)] without building the list. *)
let iter_operands f i =
  match i.op with
  | Ibinop (_, a, b) | Fbinop (_, a, b) | Icmp (_, a, b) | Fcmp (_, a, b) ->
    f a;
    f b
  | Select (c, a, b) ->
    f c;
    f a;
    f b
  | Cast (_, a) | Load a -> f a
  | Store (v, p) ->
    f v;
    f p
  | Gep (b, i', _) ->
    f b;
    f i'
  | Extractelement (v, i') ->
    f v;
    f i'
  | Insertelement (v, e, i') ->
    f v;
    f e;
    f i'
  | Shufflevector (a, b, _) ->
    f a;
    f b
  | Call (_, args) -> List.iter f args
  | Phi incoming -> List.iter (fun (_, v) -> f v) incoming
  | Condbr (c, _, _) -> f c
  | Ret (Some v) -> f v
  | Alloca _ | Br _ | Ret None | Unreachable -> ()

(* Registers read by this instruction. *)
let uses i =
  List.filter_map
    (function Reg (r, _) -> Some r | Imm _ -> None)
    (operands i)

let is_terminator i =
  match i.op with
  | Br _ | Condbr _ | Ret _ | Unreachable -> true
  | Ibinop _ | Fbinop _ | Icmp _ | Fcmp _ | Select _ | Cast _ | Alloca _
  | Load _ | Store _ | Gep _ | Extractelement _ | Insertelement _
  | Shufflevector _ | Call _ | Phi _ -> false

let is_phi i = match i.op with Phi _ -> true | _ -> false

(* Successor labels of a terminator (empty for non-terminators). *)
let successors i =
  match i.op with
  | Br l -> [ l ]
  | Condbr (_, l1, l2) -> [ l1; l2 ]
  | Ret _ | Unreachable -> []
  | _ -> []

(* Is this a control-flow instruction in the sense of the VULFI
   fault-site taxonomy (conditional transfer of control)? *)
let is_control_flow i =
  match i.op with
  | Condbr _ -> true
  | Br _ | Ret _ | Unreachable -> false
  | _ -> false

let is_gep i = match i.op with Gep _ -> true | _ -> false

(* A vector instruction per the paper's definition: at least one vector
   type operand, or a vector result. *)
let is_vector_instr i =
  Vtype.is_vector i.ty
  || List.exists (fun o -> Vtype.is_vector (operand_ty o)) (operands i)

(* Rewrite every operand with [f]. *)
let map_operands f i =
  let op =
    match i.op with
    | Ibinop (k, a, b) -> Ibinop (k, f a, f b)
    | Fbinop (k, a, b) -> Fbinop (k, f a, f b)
    | Icmp (k, a, b) -> Icmp (k, f a, f b)
    | Fcmp (k, a, b) -> Fcmp (k, f a, f b)
    | Select (c, a, b) -> Select (f c, f a, f b)
    | Cast (k, a) -> Cast (k, f a)
    | Alloca _ as o -> o
    | Load a -> Load (f a)
    | Store (v, p) -> Store (f v, f p)
    | Gep (b, ix, sz) -> Gep (f b, f ix, sz)
    | Extractelement (v, ix) -> Extractelement (f v, f ix)
    | Insertelement (v, e, ix) -> Insertelement (f v, f e, f ix)
    | Shufflevector (a, b, m) -> Shufflevector (f a, f b, m)
    | Call (callee, args) -> Call (callee, List.map f args)
    | Phi incoming -> Phi (List.map (fun (l, v) -> (l, f v)) incoming)
    | Br _ as o -> o
    | Condbr (c, l1, l2) -> Condbr (f c, l1, l2)
    | Ret (Some v) -> Ret (Some (f v))
    | Ret None as o -> o
    | Unreachable as o -> o
  in
  { i with op }

let ibinop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Sdiv -> "sdiv"
  | Srem -> "srem" | Udiv -> "udiv" | Urem -> "urem" | And -> "and"
  | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Lshr -> "lshr"
  | Ashr -> "ashr"

let fbinop_name = function
  | Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"
  | Frem -> "frem"

let icmp_name = function
  | Ieq -> "eq" | Ine -> "ne" | Islt -> "slt" | Isle -> "sle"
  | Isgt -> "sgt" | Isge -> "sge" | Iult -> "ult" | Iule -> "ule"
  | Iugt -> "ugt" | Iuge -> "uge"

let fcmp_name = function
  | Foeq -> "oeq" | Fone -> "one" | Folt -> "olt" | Fole -> "ole"
  | Fogt -> "ogt" | Foge -> "oge" | Ford -> "ord" | Funo -> "uno"

let cast_name = function
  | Trunc -> "trunc" | Zext -> "zext" | Sext -> "sext"
  | Fptosi -> "fptosi" | Sitofp -> "sitofp" | Fptrunc -> "fptrunc"
  | Fpext -> "fpext" | Bitcast -> "bitcast" | Ptrtoint -> "ptrtoint"
  | Inttoptr -> "inttoptr"
