(** Lane-level arithmetic of the VIR VM, as factories that match the
    opcode and scalar kind once: {!Compile} and {!Fusion} hoist all
    dispatch out of the dynamic path.

    Each family has a lane-semantics closure ([ibinop_fn], [fbinop_fn],
    [icmp_fn], [fcmp_fn], [cast_lane_fn]), the single source of truth
    for its semantics and the tests' lane reference, and a
    destination-passing kernel that writes every lane into the
    destination register's pinned buffer. The kernel runs a generic
    loop over the closure, with an unboxed loop only for the arms the
    study modules select; both give bit-identical lanes and traps. *)

(** {1 Integer binary operations} *)

(** Per-lane semantics on sign-normalised lanes, truncated to the
    scalar's width. Division by zero, and [min_int / -1] at i64, trap
    [Division_by_zero]; shift amounts are masked to the width. *)
val ibinop_fn : Vir.Instr.ibinop -> Vir.Vtype.scalar -> int64 -> int64 -> int64

(** [ibinop_into_fn k s a b o] writes [ibinop_fn k s] of every lane of
    [a] and [b] into [o]; the lane count is [o]'s. *)
val ibinop_into_fn :
  Vir.Instr.ibinop -> Vir.Vtype.scalar -> Ilanes.t -> Ilanes.t -> Ilanes.t -> unit

(** {1 Float binary operations} *)

(** Per-lane semantics; f32 results are rounded to single precision. *)
val fbinop_fn : Vir.Instr.fbinop -> Vir.Vtype.scalar -> float -> float -> float

(** The whole-vector kernel of an op, if it has one (the f32 [fadd],
    [fsub], [fmul] and [fdiv] C kernels); [None] means the caller maps
    [fbinop_fn] over the lanes. Lane count is the destination's. *)
val fbinop_vec_into_fn :
  Vir.Instr.fbinop ->
  Vir.Vtype.scalar ->
  (float array -> float array -> float array -> unit) option

(** [fbinop_fused_vec_into_fn s ~k1 ~k2 ~first a b c o] computes
    [k2 (k1 a b) c] lane-wise into [o] ([k2 c (k1 a b)] unless
    [first]), rounding after each op exactly as the two unfused kernels
    do; [o] must not alias an operand. [None] for pairs without
    whole-vector kernels, which stay unfused. *)
val fbinop_fused_vec_into_fn :
  Vir.Vtype.scalar ->
  k1:Vir.Instr.fbinop ->
  k2:Vir.Instr.fbinop ->
  first:bool ->
  (float array -> float array -> float array -> float array -> unit) option

(** {1 Comparisons} (results are 0/1 i1 lanes) *)

val icmp_fn : Vir.Instr.icmp_pred -> Vir.Vtype.scalar -> int64 -> int64 -> int64

val icmp_into_fn :
  Vir.Instr.icmp_pred -> Vir.Vtype.scalar -> Ilanes.t -> Ilanes.t -> Ilanes.t -> unit

(** Ordered predicates are false, [uno] true, when a lane is NaN. *)
val fcmp_fn : Vir.Instr.fcmp_pred -> float -> float -> int64

val fcmp_into_fn :
  Vir.Instr.fcmp_pred -> float array -> float array -> Ilanes.t -> unit

(** {1 Casts} *)

(** A per-lane conversion, by value-kind signature. *)
type lane_conv =
  | Cii of (int64 -> int64)
  | Cfi of (float -> int64)
  | Cif of (int64 -> float)
  | Cff of (float -> float)

(** Per-lane semantics of a cast from [src] to [dst] lanes. [fptosi]
    out of range or of NaN gives the x86 "integer indefinite" value.
    @raise Invalid_argument for a bitcast between kinds of different
    widths or between two float kinds. *)
val cast_lane_fn :
  Vir.Instr.cast_op -> src:Vir.Vtype.scalar -> dst:Vir.Vtype.scalar -> lane_conv

(** [cast_into_fn k ~src ~dst_ty v out] writes the converted lanes of
    [v] into [out]. A cast [cast_lane_fn] rejects, or values of the
    wrong kinds, raise [Invalid_argument] when the kernel runs. *)
val cast_into_fn :
  Vir.Instr.cast_op ->
  src:Vir.Vtype.scalar ->
  dst_ty:Vir.Vtype.t ->
  Vvalue.t ->
  Vvalue.t ->
  unit

(** {1 Math intrinsics} *)

type math = Unary of (float -> float) | Binary of (float -> float -> float)

(** The lane function of [llvm.<name>] ([sqrt], [exp], [log], [sin],
    [cos], [fabs], [floor], [pow], [min], [max]); [min]/[max] order NaN
    below every float.
    @raise Invalid_argument on any other name. *)
val math_fn : string -> math

(** {1 Cross-lane reductions} *)

(** Sequential sum from 0.0, rounded after every step at f32. *)
val reduce_fadd : Vir.Vtype.scalar -> float array -> float

(** Sequential sum truncated to the scalar's width after every step. *)
val reduce_iadd : Vir.Vtype.scalar -> Ilanes.t -> int64

val reduce_or : Ilanes.t -> int64

(** Float min/max by [Float.compare]: [min] is NaN as soon as a lane
    is, [max] only when every lane is. *)
val reduce_fmin : float array -> float

val reduce_fmax : float array -> float
val reduce_imin : Ilanes.t -> int64
val reduce_imax : Ilanes.t -> int64
