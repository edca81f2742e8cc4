(** Types of the VIR intermediate representation: the slice of the LLVM
    type system the VULFI paper manipulates — scalar integers, IEEE
    floats, opaque byte pointers, and fixed-length vectors thereof. *)

type scalar =
  | I1   (** 1-bit boolean / mask lane *)
  | I8   (** 8-bit integer *)
  | I32  (** 32-bit integer *)
  | I64  (** 64-bit integer *)
  | F32  (** single-precision float *)
  | F64  (** double-precision float *)
  | Ptr  (** byte pointer, 64-bit in the VM *)

type t =
  | Void  (** no value; type of stores and terminators *)
  | Scalar of scalar
  | Vector of int * scalar  (** [<n x s>] *)

val scalar : scalar -> t
val vector : int -> scalar -> t

val bool_ty : t
val i8 : t
val i32 : t
val i64 : t
val f32 : t
val f64 : t
val ptr : t

(** Number of lanes: 1 for scalars, n for vectors, 0 for void. *)
val lanes : t -> int

(** Element scalar of a scalar or vector type.
    @raise Invalid_argument on [Void]. *)
val elem : t -> scalar

val is_vector : t -> bool
val is_void : t -> bool
val is_int_scalar : scalar -> bool
val is_float_scalar : scalar -> bool

(** Integer-elemented (i1/i8/i32/i64), non-void. *)
val is_int : t -> bool

(** Float-elemented (f32/f64), non-void. *)
val is_float : t -> bool

val is_ptr : t -> bool

(** Bit width of one scalar element (i1 = 1). *)
val scalar_bits : scalar -> int

(** Storage footprint in bytes of one element (i1 stored as a byte). *)
val scalar_bytes : scalar -> int

(** Total storage of the type in bytes. *)
val size_bytes : t -> int

(** Replace the lane count ([with_lanes 1] yields the scalar type).
    @raise Invalid_argument on [Void]. *)
val with_lanes : int -> t -> t

(** The element type as a scalar type. *)
val scalar_of : t -> t

val scalar_name : scalar -> string

(** LLVM-style rendering: ["<8 x float>"], ["i32"], ["void"]. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
