(** Bounds-checked flat memory. Allocations live at distinct bases with
    large guard gaps, so a bit flip in an address register most often
    lands outside every allocation and traps — reproducing the paper's
    observation that address-site faults predominantly crash, while
    low-order flips stay in-bounds and silently corrupt. *)

type t

val create : unit -> t

(** Allocate [bytes] (zero-initialised); returns the base address.
    [name] is kept for debugging. *)
val alloc : t -> name:string -> bytes:int -> int64

(** Checkpointing. [snapshot] captures the allocation state (region
    list, bump pointer) plus a copy of every region's bytes; [restore]
    copies every saved region back and rolls the allocation state back,
    so allocations made after the snapshot are dropped and replay at
    identical addresses. Any snapshot of the memory can be restored,
    any number of times, in any order. *)

type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit

(** [equal m snap] — [m] holds exactly [snap]'s image: the same region
    list, the same bump pointer and every byte equal. A region
    allocated after [snap] that is still live makes it [false]. *)
val equal : t -> snapshot -> bool

(** Load a (possibly vector) value of [ty] from contiguous memory.
    @raise Trap.Trap on out-of-bounds access. *)
val load : t -> Vir.Vtype.t -> int64 -> Vvalue.t

(** Store a value contiguously; [mask] (lane booleans) disables lanes,
    matching AVX maskstore semantics. *)
val store : ?mask:Vvalue.t -> t -> Vvalue.t -> int64 -> unit

(** Pre-specialized access routines for a statically known access type;
    the closure-threading stage builds one per load/store site. For f32
    and i32 accesses the per-access work is region lookup plus raw
    byte moves, with the type dispatch done once at compile time; other
    types go through [load] and [store]. Semantics identical to [load]
    and unmasked [store]. *)

val storer : Vir.Vtype.t -> t -> Vvalue.t -> int64 -> unit

(** Destination-passing load: writes the loaded lanes into the given
    value's own buffer (the destination register's pinned buffer). A
    trapping access leaves the destination untouched.
    @raise Invalid_argument if the destination shape does not match. *)
val loader_into : Vir.Vtype.t -> t -> int64 -> Vvalue.t -> unit

(** Destination-passing masked vector load: every destination lane is
    written, so no stale lane survives. Disabled lanes read as zero
    without touching memory (AVX maskload semantics — a masked-off lane
    may point out of bounds without trapping); an enabled lane out of
    bounds traps with its own address.
    @raise Invalid_argument if the destination shape does not match. *)
val masked_load_into :
  t -> Vir.Vtype.t -> int64 -> mask:Vvalue.t -> Vvalue.t -> unit

(** Typed bulk accessors for benchmark harnesses. *)

val write_i32_array : t -> int64 -> int array -> unit
val read_i32_array : t -> int64 -> int -> int array
val write_f32_array : t -> int64 -> float array -> unit
val read_f32_array : t -> int64 -> int -> float array
