(** Flat, unboxed integer lane buffers.

    A plain [int64 array] stores one boxed [Int64.t] pointer per
    element, so every lane write allocates a 24-byte box and runs the
    GC write barrier ([caml_modify]) — profiled at up to a quarter of
    interpreter time on integer-heavy workloads. Packing the lanes
    into a [Bytes.t] (8 bytes per lane, native byte order) makes reads
    and writes single machine loads/stores through the compiler's
    unboxed 64-bit primitives: no allocation, no barrier, and
    whole-value copies become [memcpy]. *)

type t = Bytes.t

external b_get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external b_set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] length (t : t) = Bytes.length t lsr 3
let[@inline] unsafe_get (t : t) i : int64 = b_get t (i lsl 3)
let[@inline] unsafe_set (t : t) i (x : int64) = b_set t (i lsl 3) x

let get (t : t) i : int64 =
  if i < 0 || i >= length t then invalid_arg "Ilanes.get";
  unsafe_get t i

let set (t : t) i (x : int64) =
  if i < 0 || i >= length t then invalid_arg "Ilanes.set";
  unsafe_set t i x

let make n (x : int64) : t =
  let t = Bytes.create (n lsl 3) in
  for i = 0 to n - 1 do
    unsafe_set t i x
  done;
  t

let init n f : t =
  let t = Bytes.create (n lsl 3) in
  for i = 0 to n - 1 do
    unsafe_set t i (f i)
  done;
  t

let copy : t -> t = Bytes.copy

let blit (src : t) spos (dst : t) dpos len =
  Bytes.blit src (spos lsl 3) dst (dpos lsl 3) (len lsl 3)

let of_array (a : int64 array) : t =
  init (Array.length a) (Array.unsafe_get a)

let to_array (t : t) : int64 array =
  Array.init (length t) (unsafe_get t)

let iteri f (t : t) =
  for i = 0 to length t - 1 do
    f i (unsafe_get t i)
  done

