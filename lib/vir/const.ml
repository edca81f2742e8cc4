(** Compile-time constants appearing as instruction operands. *)

type t =
  | Cint of Vtype.scalar * int64
      (** Integer (or pointer) constant; the payload is truncated to the
          scalar's width when evaluated. *)
  | Cfloat of Vtype.scalar * float  (** [F32] payloads are pre-rounded. *)
  | Cvec of t array                 (** Vector of scalar constants. *)
  | Cundef of Vtype.t               (** LLVM-style [undef]. *)

let rec ty = function
  | Cint (s, _) -> Vtype.Scalar s
  | Cfloat (s, _) -> Vtype.Scalar s
  | Cundef t -> t
  | Cvec elems ->
    let n = Array.length elems in
    if n = 0 then invalid_arg "Const.ty: empty vector"
    else Vtype.with_lanes n (ty elems.(0))

(* Round a float to its storable precision. *)
let round_float s x =
  match s with
  | Vtype.F32 -> Int32.float_of_bits (Int32.bits_of_float x)
  | _ -> x

let i1 b = Cint (I1, if b then 1L else 0L)

let i8 x = Cint (I8, Int64.of_int x)

let i32 x = Cint (I32, Int64.of_int x)

let i64 x = Cint (I64, x)

let f32 x = Cfloat (F32, round_float F32 x)

let f64 x = Cfloat (F64, x)

(* Vector whose lanes are all [c]. *)
let splat n c = Cvec (Array.make n c)

(* The <0, 1, ..., n-1> index vector used by foreach lowering. *)
let iota s n = Cvec (Array.init n (fun i -> Cint (s, Int64.of_int i)))

let zero s =
  if Vtype.is_float_scalar s then Cfloat (s, 0.0) else Cint (s, 0L)

let zero_of_ty t =
  match t with
  | Vtype.Void -> invalid_arg "Const.zero_of_ty: void"
  | Vtype.Scalar s -> zero s
  | Vtype.Vector (n, s) -> splat n (zero s)

let rec to_string = function
  | Cint (I1, v) -> if v = 0L then "false" else "true"
  | Cint (_, v) -> Int64.to_string v
  | Cfloat (_, x) -> Printf.sprintf "%h" x
  | Cundef _ -> "undef"
  | Cvec elems ->
    let parts = Array.to_list (Array.map to_string elems) in
    "<" ^ String.concat ", " parts ^ ">"

let rec equal a b =
  match (a, b) with
  | Cint (sa, va), Cint (sb, vb) -> sa = sb && Int64.equal va vb
  | Cfloat (sa, xa), Cfloat (sb, xb) ->
    sa = sb && Int64.equal (Int64.bits_of_float xa) (Int64.bits_of_float xb)
  | Cundef ta, Cundef tb -> Vtype.equal ta tb
  | Cvec ea, Cvec eb ->
    Array.length ea = Array.length eb
    && (let ok = ref true in
        Array.iteri (fun i x -> if not (equal x eb.(i)) then ok := false) ea;
        !ok)
  | (Cint _ | Cfloat _ | Cundef _ | Cvec _), _ -> false
