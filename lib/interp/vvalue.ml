(** Runtime values of the VM.

    A value is a typed array of lanes: scalars are 1-lane values, vectors
    are [Vl]-lane values. Integers (including booleans and pointers) are
    stored as sign-normalised [int64]s packed 8-bytes-per-lane in a flat
    {!Ilanes.t} buffer (no per-lane boxing, no GC write barrier on lane
    stores); floats as OCaml floats, with F32 lanes kept rounded to
    single precision. *)

type t =
  | I of Vir.Vtype.scalar * Ilanes.t  (** I1/I8/I32/I64/Ptr lanes *)
  | F of Vir.Vtype.scalar * float array  (** F32/F64 lanes *)

let lanes = function I (_, a) -> Ilanes.length a | F (_, a) -> Array.length a

let scalar_kind = function I (s, _) -> s | F (s, _) -> s

let of_bool b = I (I1, Ilanes.make 1 (if b then 1L else 0L))

let of_i32 x = I (I32, Ilanes.make 1 (Bits.truncate I32 (Int64.of_int x)))

let of_i64 x = I (I64, Ilanes.make 1 x)

let of_ptr x = I (Ptr, Ilanes.make 1 x)

let of_f32 x = F (F32, [| Bits.round_float F32 x |])

let of_f64 x = F (F64, [| x |])

(* Lane accessors; [lane] defaults to 0 for scalars. *)
let int_lane v i =
  match v with
  | I (_, a) -> Ilanes.get a i
  | F _ -> invalid_arg "Vvalue.int_lane: float value"

let float_lane v i =
  match v with
  | F (_, a) -> a.(i)
  | I _ -> invalid_arg "Vvalue.float_lane: int value"

let as_int v =
  match v with
  | I (_, a) when Ilanes.length a = 1 -> Ilanes.unsafe_get a 0
  | I _ -> invalid_arg "Vvalue.as_int: vector"
  | F _ -> invalid_arg "Vvalue.as_int: float"

let as_float v =
  match v with
  | F (_, [| x |]) -> x
  | F _ -> invalid_arg "Vvalue.as_float: vector"
  | I _ -> invalid_arg "Vvalue.as_float: int"

let as_bool v = as_int v <> 0L

let is_true_lane v i =
  match v with
  | I (_, a) -> Ilanes.get a i <> 0L
  | F (_, a) -> a.(i) <> 0.0

(* Build from a VIR constant. [undef] becomes zeros, which is
   deterministic and keeps fault-free runs reproducible. *)
let rec of_const (c : Vir.Const.t) =
  match c with
  | Vir.Const.Cint (s, x) -> I (s, Ilanes.make 1 (Bits.truncate s x))
  | Vir.Const.Cfloat (s, x) -> F (s, [| Bits.round_float s x |])
  | Vir.Const.Cundef t -> zero_of_ty t
  | Vir.Const.Cvec elems ->
    let first = of_const elems.(0) in
    let n = Array.length elems in
    (match first with
    | I (s, _) ->
      I (s, Ilanes.init n (fun i ->
          match of_const elems.(i) with
          | I (_, a) when Ilanes.length a = 1 -> Ilanes.unsafe_get a 0
          | _ -> invalid_arg "Vvalue.of_const: mixed vector"))
    | F (s, _) ->
      F (s, Array.init n (fun i ->
          match of_const elems.(i) with
          | F (_, [| x |]) -> x
          | _ -> invalid_arg "Vvalue.of_const: mixed vector")))

and zero_of_ty (t : Vir.Vtype.t) =
  match t with
  | Vir.Vtype.Void -> invalid_arg "Vvalue.zero_of_ty: void"
  | Vir.Vtype.Scalar s | Vir.Vtype.Vector (_, s) ->
    let n = Vir.Vtype.lanes t in
    if Vir.Vtype.is_float_scalar s then F (s, Array.make n 0.0)
    else I (s, Ilanes.make n 0L)

let extract v i =
  match v with
  | I (s, a) -> I (s, Ilanes.make 1 (Ilanes.get a i))
  | F (s, a) -> F (s, [| a.(i) |])

let insert v i e =
  match (v, e) with
  | I (s, a), I (_, e) when Ilanes.length e = 1 ->
    let a' = Ilanes.copy a in
    Ilanes.set a' i (Bits.truncate s (Ilanes.unsafe_get e 0));
    I (s, a')
  | F (s, a), F (_, [| x |]) ->
    let a' = Array.copy a in
    a'.(i) <- Bits.round_float s x;
    F (s, a')
  | _ -> invalid_arg "Vvalue.insert: kind mismatch"

(* Raw bit pattern of a lane (floats via their IEEE encoding). *)
let lane_bits v lane =
  match v with
  | I (s, a) -> Bits.to_unsigned s (Ilanes.get a lane)
  | F (s, a) -> Bits.bits_of_float s a.(lane)

(* Flip one bit of one lane; the core fault-injection primitive. *)
let flip_bit v ~lane ~bit =
  match v with
  | I (s, a) ->
    let a' = Ilanes.copy a in
    Ilanes.set a' lane (Bits.flip_int s ~bit (Ilanes.get a lane));
    I (s, a')
  | F (s, a) ->
    let a' = Array.copy a in
    a'.(lane) <- Bits.flip_float s ~bit a.(lane);
    F (s, a')

(* ------------------------------------------------------------------ *)
(* Buffer discipline (destination-passing interpreter back end).

   The threaded interpreter pins one mutable value per register slot
   and lets kernels write lanes in place. Everything that leaves the
   register file must go through [copy] (fresh buffers) or [copy_into]
   (lane blit into a buffer the caller owns); see DESIGN.md. *)

(* Deep copy: fresh lane buffer, same kind and contents. *)
let copy = function
  | I (s, a) -> I (s, Ilanes.copy a)
  | F (s, a) -> F (s, Array.copy a)

(* Blit [src]'s lanes into [dst]'s buffer. The destination keeps its
   own constructor; only the payload moves. Shape mismatches (lane
   count or int/float kind) raise rather than silently reinterpreting —
   they can only come from a kind-confused extern result. *)
let copy_into ~(dst : t) (src : t) =
  match (dst, src) with
  | I (_, d), I (_, s) when Ilanes.length d = Ilanes.length s ->
    Ilanes.blit s 0 d 0 (Ilanes.length d)
  | F (_, d), F (_, s) when Array.length d = Array.length s ->
    Array.blit s 0 d 0 (Array.length d)
  | _ -> invalid_arg "Vvalue.copy_into: shape mismatch"

(* In-place fault-injection primitives: mutate one lane of a buffer the
   caller owns (the VULFI runtime applies them to a private [copy], so
   multi-bit fault kinds pay one allocation total instead of one per
   flipped bit). *)
let flip_bit_inplace v ~lane ~bit =
  match v with
  | I (s, a) -> Ilanes.set a lane (Bits.flip_int s ~bit (Ilanes.get a lane))
  | F (s, a) -> a.(lane) <- Bits.flip_float s ~bit a.(lane)

let set_lane_bits_inplace v ~lane ~bits =
  match v with
  | I (s, a) -> Ilanes.set a lane (Bits.truncate s bits)
  | F (s, a) -> a.(lane) <- Bits.float_of_bits s bits

let equal a b =
  match (a, b) with
  | I (sa, xa), I (sb, xb) ->
    sa = sb
    && Ilanes.length xa = Ilanes.length xb
    && (let ok = ref true in
        Ilanes.iteri
          (fun i x ->
            if not (Int64.equal x (Ilanes.unsafe_get xb i)) then ok := false)
          xa;
        !ok)
  | F (sa, xa), F (sb, xb) ->
    sa = sb
    && Array.length xa = Array.length xb
    && (let ok = ref true in
        Array.iteri
          (fun i x ->
            if Int64.bits_of_float x <> Int64.bits_of_float xb.(i) then
              ok := false)
          xa;
        !ok)
  | I _, F _ | F _, I _ -> false

let to_string v =
  let body =
    match v with
    | I (_, a) ->
      String.concat ", "
        (Array.to_list (Array.map Int64.to_string (Ilanes.to_array a)))
    | F (_, a) ->
      String.concat ", "
        (Array.to_list (Array.map (Printf.sprintf "%.6g") a))
  in
  if lanes v = 1 then body else "<" ^ body ^ ">"
