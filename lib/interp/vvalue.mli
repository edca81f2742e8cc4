(** Runtime values of the VM: a typed array of lanes (scalars are
    1-lane). Integers (booleans, pointers) are sign-normalised [int64]s
    packed 8-bytes-per-lane in a flat {!Ilanes.t} buffer — lane writes
    are single stores with no boxing and no GC write barrier; floats are
    OCaml floats with F32 lanes kept rounded to single precision. *)

type t =
  | I of Vir.Vtype.scalar * Ilanes.t  (** I1/I8/I32/I64/Ptr lanes *)
  | F of Vir.Vtype.scalar * float array  (** F32/F64 lanes *)

val lanes : t -> int
val scalar_kind : t -> Vir.Vtype.scalar

(** Scalar constructors. *)

val of_bool : bool -> t
val of_i32 : int -> t
val of_i64 : int64 -> t
val of_ptr : int64 -> t
val of_f32 : float -> t
val of_f64 : float -> t

(** Lane accessors. *)

val int_lane : t -> int -> int64
val float_lane : t -> int -> float
val as_int : t -> int64
val as_float : t -> float
val as_bool : t -> bool
val is_true_lane : t -> int -> bool

(** Build from a VIR constant ([undef] becomes deterministic zeros). *)
val of_const : Vir.Const.t -> t

val zero_of_ty : Vir.Vtype.t -> t

(** Non-destructive lane extraction / replacement. *)

val extract : t -> int -> t
val insert : t -> int -> t -> t

(** Raw bit pattern of a lane (floats via their IEEE encoding). *)
val lane_bits : t -> int -> int64

(** Flip one bit of one lane — the core fault-injection primitive. *)
val flip_bit : t -> lane:int -> bit:int -> t

(** Buffer discipline of the destination-passing interpreter: register
    slots hold pinned mutable values whose lane buffers kernels rewrite
    in place. A value escaping the register file must be copied. *)

(** Deep copy: fresh lane buffer, same kind and contents. *)
val copy : t -> t

(** Blit [src]'s lanes into [dst]'s own buffer (the destination keeps
    its constructor; only the payload moves).
    @raise Invalid_argument on a lane-count or int/float mismatch. *)
val copy_into : dst:t -> t -> unit

(** In-place single-lane mutation, for buffers the caller owns (the
    fault-injection runtime applies these to a private {!copy}). *)

val flip_bit_inplace : t -> lane:int -> bit:int -> unit
val set_lane_bits_inplace : t -> lane:int -> bits:int64 -> unit

(** Bitwise equality (NaN payloads compare equal to themselves). *)
val equal : t -> t -> bool

val to_string : t -> string
