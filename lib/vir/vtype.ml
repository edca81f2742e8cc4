(** Types of the VIR intermediate representation.

    VIR mirrors the slice of the LLVM type system that the VULFI paper
    manipulates: scalar integers ([i1], [i8], [i32], [i64]), IEEE floats
    ([f32], [f64]), opaque byte pointers, and fixed-length vectors of
    those scalars. *)

type scalar =
  | I1   (** 1-bit boolean / mask lane *)
  | I8   (** 8-bit integer *)
  | I32  (** 32-bit integer *)
  | I64  (** 64-bit integer *)
  | F32  (** single-precision float *)
  | F64  (** double-precision float *)
  | Ptr  (** byte pointer, 64-bit in the VM *)

type t =
  | Void                  (** no value; type of stores and terminators *)
  | Scalar of scalar
  | Vector of int * scalar
      (** [Vector (n, s)] is [<n x s>]; [n >= 2] in verified IR *)

let scalar s = Scalar s

let vector n s = Vector (n, s)

let bool_ty = Scalar I1

let i8 = Scalar I8

let i32 = Scalar I32

let i64 = Scalar I64

let f32 = Scalar F32

let f64 = Scalar F64

let ptr = Scalar Ptr

(* Number of lanes: 1 for scalars, n for vectors. *)
let lanes = function
  | Void -> 0
  | Scalar _ -> 1
  | Vector (n, _) -> n

let elem = function
  | Void -> invalid_arg "Vtype.elem: void"
  | Scalar s | Vector (_, s) -> s

let is_vector = function Vector _ -> true | Void | Scalar _ -> false

let is_void = function Void -> true | Scalar _ | Vector _ -> false

let is_int_scalar = function
  | I1 | I8 | I32 | I64 -> true
  | F32 | F64 | Ptr -> false

let is_float_scalar = function
  | F32 | F64 -> true
  | I1 | I8 | I32 | I64 | Ptr -> false

let is_int t = (not (is_void t)) && is_int_scalar (elem t)

let is_float t = (not (is_void t)) && is_float_scalar (elem t)

let is_ptr t = (not (is_void t)) && elem t = Ptr

(* Bit width of one scalar element. *)
let scalar_bits = function
  | I1 -> 1
  | I8 -> 8
  | I32 | F32 -> 32
  | I64 | F64 | Ptr -> 64

(* Storage footprint in bytes of one scalar element (i1 stored as a byte). *)
let scalar_bytes = function
  | I1 | I8 -> 1
  | I32 | F32 -> 4
  | I64 | F64 | Ptr -> 8

let size_bytes = function
  | Void -> 0
  | Scalar s -> scalar_bytes s
  | Vector (n, s) -> n * scalar_bytes s

(* Replace the lane count, turning a scalar into itself. *)
let with_lanes n t =
  match t with
  | Void -> invalid_arg "Vtype.with_lanes: void"
  | Scalar s | Vector (_, s) -> if n = 1 then Scalar s else Vector (n, s)

let scalar_of t =
  match t with
  | Void -> invalid_arg "Vtype.scalar_of: void"
  | Scalar s | Vector (_, s) -> Scalar s

let scalar_name = function
  | I1 -> "i1"
  | I8 -> "i8"
  | I32 -> "i32"
  | I64 -> "i64"
  | F32 -> "float"
  | F64 -> "double"
  | Ptr -> "ptr"

let to_string = function
  | Void -> "void"
  | Scalar s -> scalar_name s
  | Vector (n, s) -> Printf.sprintf "<%d x %s>" n (scalar_name s)

let pp fmt t = Format.pp_print_string fmt (to_string t)

let equal (a : t) (b : t) = a = b
