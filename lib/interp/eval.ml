(** Lane-level arithmetic of the VIR VM.

    Every operation comes as a *factory*: [ibinop_fn k s] matches the
    opcode and scalar kind once and returns a monomorphic per-lane
    closure, so the closure-threaded back end ({!Compile}) can hoist all
    dispatch out of the dynamic path. The destination-passing kernels
    run a generic loop over these lane closures, plus an unboxed loop
    for each arm the study modules select, so the semantics live in
    exactly one place. *)

(* ------------------------------------------------------------------ *)
(* Integer binary operations                                           *)

(* The truncation to the scalar's width is pre-selected per factory
   call: full-width (i64/ptr) operations skip it entirely and i32 gets
   the inline unboxed int32 round-trip, so the per-lane closure does no
   width dispatch. Semantics identical to [Bits.truncate]. *)
let ibinop_fn (k : Vir.Instr.ibinop) (s : Vir.Vtype.scalar) :
    int64 -> int64 -> int64 =
  let bits = Vir.Vtype.scalar_bits s in
  let shift_mask = bits - 1 in
  (* x86 idiv overflow (min_int / -1 at full width) raises #DE: a crash.
     At narrower widths the truncation absorbs the overflow. *)
  let div_overflows = s = Vir.Vtype.I64 in
  let full_width = match s with
    | Vir.Vtype.I64 | Vir.Vtype.Ptr -> true
    | _ -> false
  in
  if full_width then
    match k with
    | Vir.Instr.Add -> Int64.add
    | Vir.Instr.Sub -> Int64.sub
    | Vir.Instr.Mul -> Int64.mul
    | Vir.Instr.Sdiv ->
      fun a b ->
        if b = 0L then Trap.raise_ Trap.Division_by_zero
        else if div_overflows && a = Int64.min_int && b = -1L then
          Trap.raise_ Trap.Division_by_zero
        else Int64.div a b
    | Vir.Instr.Srem ->
      fun a b ->
        if b = 0L then Trap.raise_ Trap.Division_by_zero
        else if div_overflows && a = Int64.min_int && b = -1L then
          Trap.raise_ Trap.Division_by_zero
        else Int64.rem a b
    | Vir.Instr.Udiv ->
      fun a b ->
        if b = 0L then Trap.raise_ Trap.Division_by_zero
        else Int64.unsigned_div a b
    | Vir.Instr.Urem ->
      fun a b ->
        if b = 0L then Trap.raise_ Trap.Division_by_zero
        else Int64.unsigned_rem a b
    | Vir.Instr.And -> Int64.logand
    | Vir.Instr.Or -> Int64.logor
    | Vir.Instr.Xor -> Int64.logxor
    | Vir.Instr.Shl ->
      fun a b -> Int64.shift_left a (Int64.to_int b land 63)
    | Vir.Instr.Lshr ->
      fun a b -> Int64.shift_right_logical a (Int64.to_int b land 63)
    | Vir.Instr.Ashr ->
      fun a b -> Int64.shift_right a (Int64.to_int b land 63)
  else if s = Vir.Vtype.I32 then
    let t x = Int64.of_int32 (Int64.to_int32 x) in
    let u x = Int64.logand x 0xFFFFFFFFL in
    match k with
    | Vir.Instr.Add -> fun a b -> t (Int64.add a b)
    | Vir.Instr.Sub -> fun a b -> t (Int64.sub a b)
    | Vir.Instr.Mul -> fun a b -> t (Int64.mul a b)
    | Vir.Instr.Sdiv ->
      fun a b ->
        if b = 0L then Trap.raise_ Trap.Division_by_zero
        else t (Int64.div a b)
    | Vir.Instr.Srem ->
      fun a b ->
        if b = 0L then Trap.raise_ Trap.Division_by_zero
        else t (Int64.rem a b)
    | Vir.Instr.Udiv ->
      fun a b ->
        if b = 0L then Trap.raise_ Trap.Division_by_zero
        else t (Int64.unsigned_div (u a) (u b))
    | Vir.Instr.Urem ->
      fun a b ->
        if b = 0L then Trap.raise_ Trap.Division_by_zero
        else t (Int64.unsigned_rem (u a) (u b))
    | Vir.Instr.And -> fun a b -> Int64.logand a b
    | Vir.Instr.Or -> fun a b -> Int64.logor a b
    | Vir.Instr.Xor -> fun a b -> Int64.logxor a b
    | Vir.Instr.Shl ->
      fun a b -> t (Int64.shift_left a (Int64.to_int b land 31))
    | Vir.Instr.Lshr ->
      fun a b -> Int64.shift_right_logical (u a) (Int64.to_int b land 31)
    | Vir.Instr.Ashr -> fun a b -> Int64.shift_right a (Int64.to_int b land 31)
  else
    let t x = Bits.truncate s x in
    match k with
    | Vir.Instr.Add -> fun a b -> t (Int64.add a b)
    | Vir.Instr.Sub -> fun a b -> t (Int64.sub a b)
    | Vir.Instr.Mul -> fun a b -> t (Int64.mul a b)
    | Vir.Instr.Sdiv ->
      fun a b ->
        if b = 0L then Trap.raise_ Trap.Division_by_zero
        else t (Int64.div a b)
    | Vir.Instr.Srem ->
      fun a b ->
        if b = 0L then Trap.raise_ Trap.Division_by_zero
        else t (Int64.rem a b)
    | Vir.Instr.Udiv ->
      fun a b ->
        if b = 0L then Trap.raise_ Trap.Division_by_zero
        else
          t (Int64.unsigned_div (Bits.to_unsigned s a) (Bits.to_unsigned s b))
    | Vir.Instr.Urem ->
      fun a b ->
        if b = 0L then Trap.raise_ Trap.Division_by_zero
        else
          t (Int64.unsigned_rem (Bits.to_unsigned s a) (Bits.to_unsigned s b))
    | Vir.Instr.And -> fun a b -> t (Int64.logand a b)
    | Vir.Instr.Or -> fun a b -> t (Int64.logor a b)
    | Vir.Instr.Xor -> fun a b -> t (Int64.logxor a b)
    | Vir.Instr.Shl ->
      (* x86 semantics: shift amount masked to the operand width. *)
      fun a b -> t (Int64.shift_left a (Int64.to_int b land shift_mask))
    | Vir.Instr.Lshr ->
      fun a b ->
        t
          (Int64.shift_right_logical (Bits.to_unsigned s a)
             (Int64.to_int b land shift_mask))
    | Vir.Instr.Ashr ->
      fun a b -> t (Int64.shift_right a (Int64.to_int b land shift_mask))

(* ------------------------------------------------------------------ *)
(* Destination-passing integer kernels over flat lane buffers.

   Composing [ibinop_fn] with a generic lane loop pays three boxing
   allocations per lane: both operands box crossing the
   [int64 -> int64 -> int64] closure boundary and the result boxes
   coming back. The (opcode, width) pairs the study modules run get one
   concrete loop each, whose int64 locals never escape a single
   expression, so the native compiler keeps every lane in a register —
   no allocation on the arithmetic path at all. Every other pair runs
   the generic loop over [ibinop_fn], with the same semantics
   (including trap conditions and the per-width truncations). *)

let ibinop_into_fn (k : Vir.Instr.ibinop) (s : Vir.Vtype.scalar) :
    Ilanes.t -> Ilanes.t -> Ilanes.t -> unit =
  match (s, k) with
  | Vir.Vtype.I32, Vir.Instr.Add ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        Ilanes.unsafe_set o i
          (Int64.of_int32
             (Int64.to_int32
                (Int64.add (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i))))
      done
  | Vir.Vtype.I32, Vir.Instr.Sub ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        Ilanes.unsafe_set o i
          (Int64.of_int32
             (Int64.to_int32
                (Int64.sub (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i))))
      done
  | Vir.Vtype.I32, Vir.Instr.Mul ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        Ilanes.unsafe_set o i
          (Int64.of_int32
             (Int64.to_int32
                (Int64.mul (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i))))
      done
  | Vir.Vtype.I32, Vir.Instr.And ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        Ilanes.unsafe_set o i
          (Int64.logand (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i))
      done
  | Vir.Vtype.I32, Vir.Instr.Xor ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        Ilanes.unsafe_set o i
          (Int64.logxor (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i))
      done
  | Vir.Vtype.I32, Vir.Instr.Ashr ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        Ilanes.unsafe_set o i
          (Int64.shift_right (Ilanes.unsafe_get a i)
             (Int64.to_int (Ilanes.unsafe_get b i) land 31))
      done
  | Vir.Vtype.I32, Vir.Instr.Srem ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        let x = Ilanes.unsafe_get a i and y = Ilanes.unsafe_get b i in
        if y = 0L then Trap.raise_ Trap.Division_by_zero;
        Ilanes.unsafe_set o i (Int64.of_int32 (Int64.to_int32 (Int64.rem x y)))
      done
  | Vir.Vtype.I1, Vir.Instr.And ->
    (* i1 masks combine in predicated control flow *)
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        Ilanes.unsafe_set o i
          (Int64.logand
             (Int64.logand (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i))
             1L)
      done
  | Vir.Vtype.I1, Vir.Instr.Xor ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        Ilanes.unsafe_set o i
          (Int64.logand
             (Int64.logxor (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i))
             1L)
      done
  | _ ->
    let f = ibinop_fn k s in
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        Ilanes.unsafe_set o i (f (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i))
      done

(* ------------------------------------------------------------------ *)
(* Float binary operations                                             *)

(* F32 rounding inlined (unboxed, noalloc externals); F64 needs none.
   Semantics identical to [Bits.round_float], minus a call + match per
   lane on the hot path. *)
let fbinop_fn (k : Vir.Instr.fbinop) (s : Vir.Vtype.scalar) :
    float -> float -> float =
  if s = Vir.Vtype.F32 then
    match k with
    | Vir.Instr.Fadd ->
      fun a b -> Bits.round_f32 (a +. b)
    | Vir.Instr.Fsub ->
      fun a b -> Bits.round_f32 (a -. b)
    | Vir.Instr.Fmul ->
      fun a b -> Bits.round_f32 (a *. b)
    | Vir.Instr.Fdiv ->
      fun a b -> Bits.round_f32 (a /. b)
    | Vir.Instr.Frem ->
      fun a b -> Bits.round_f32 (Float.rem a b)
  else
    match k with
    | Vir.Instr.Fadd -> fun a b -> a +. b
    | Vir.Instr.Fsub -> fun a b -> a -. b
    | Vir.Instr.Fmul -> fun a b -> a *. b
    | Vir.Instr.Fdiv -> fun a b -> a /. b (* IEEE: yields inf/nan *)
    | Vir.Instr.Frem -> fun a b -> Float.rem a b

(* Whole-vector f32 kernels: one noalloc C call runs the op and the
   binary32 rounding over every lane ([lib/interp/round_stubs.c]),
   replacing a per-lane rounding round-trip that dominated f32-heavy
   profiles. Lane count comes from the destination buffer; in-place
   use (output aliased with an input) is per-lane safe. *)
external f32_fadd_arr : float array -> float array -> float array -> unit
  = "vulfi_f32_fadd_arr"
[@@noalloc]

external f32_fsub_arr : float array -> float array -> float array -> unit
  = "vulfi_f32_fsub_arr"
[@@noalloc]

external f32_fmul_arr : float array -> float array -> float array -> unit
  = "vulfi_f32_fmul_arr"
[@@noalloc]

external f32_fdiv_arr : float array -> float array -> float array -> unit
  = "vulfi_f32_fdiv_arr"
[@@noalloc]

(* Horizontal f32 add-reduction as one C call: sequential accumulate
   with rounding after every step, exactly as the OCaml loop rounds. It
   boxes its float result, so it is a plain external. *)
external f32_reduce_fadd : float array -> float = "vulfi_f32_reduce_fadd"

(* Vector float arithmetic in destination-passing style: the kernel
   writes each lane straight into the destination register's pinned
   buffer. The f32 [fadd]/[fsub]/[fmul]/[fdiv] arms are the C kernels
   above; every other op and kind runs the generic per-lane-closure
   path ([None]). *)
let fbinop_vec_into_fn (k : Vir.Instr.fbinop) (s : Vir.Vtype.scalar) :
    (float array -> float array -> float array -> unit) option =
  match (s, k) with
  | Vir.Vtype.F32, Vir.Instr.Fadd -> Some f32_fadd_arr
  | Vir.Vtype.F32, Vir.Instr.Fsub -> Some f32_fsub_arr
  | Vir.Vtype.F32, Vir.Instr.Fmul -> Some f32_fmul_arr
  | Vir.Vtype.F32, Vir.Instr.Fdiv -> Some f32_fdiv_arr
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Comparisons                                                         *)

(* An i1 lane (stored 0/1) read as a signed value, as LLVM reads it:
   true is -1. Every other integer kind is stored sign-normalised. *)
let i1_signed x = Int64.neg (Int64.logand x 1L)

let icmp_fn (p : Vir.Instr.icmp_pred) (s : Vir.Vtype.scalar) :
    int64 -> int64 -> int64 =
  let u x = Bits.to_unsigned s x in
  let sx = if s = Vir.Vtype.I1 then i1_signed else Fun.id in
  let b r = if r then 1L else 0L in
  match p with
  | Vir.Instr.Ieq -> fun a b' -> b (Int64.equal a b')
  | Vir.Instr.Ine -> fun a b' -> b (not (Int64.equal a b'))
  | Vir.Instr.Islt -> fun a b' -> b (Int64.compare (sx a) (sx b') < 0)
  | Vir.Instr.Isle -> fun a b' -> b (Int64.compare (sx a) (sx b') <= 0)
  | Vir.Instr.Isgt -> fun a b' -> b (Int64.compare (sx a) (sx b') > 0)
  | Vir.Instr.Isge -> fun a b' -> b (Int64.compare (sx a) (sx b') >= 0)
  | Vir.Instr.Iult -> fun a b' -> b (Int64.unsigned_compare (u a) (u b') < 0)
  | Vir.Instr.Iule -> fun a b' -> b (Int64.unsigned_compare (u a) (u b') <= 0)
  | Vir.Instr.Iugt -> fun a b' -> b (Int64.unsigned_compare (u a) (u b') > 0)
  | Vir.Instr.Iuge -> fun a b' -> b (Int64.unsigned_compare (u a) (u b') >= 0)

(* Same unboxed-loop treatment for the integer compares the study
   modules run: signed predicates on sign-normalised lanes need no
   width dispatch, so each loop compares the lanes directly. Every
   other predicate, and a signed one on i1 lanes (stored 0/1), runs the
   generic loop over [icmp_fn]. *)
let icmp_into_fn (p : Vir.Instr.icmp_pred) (s : Vir.Vtype.scalar) :
    Ilanes.t -> Ilanes.t -> Ilanes.t -> unit =
  match p with
  | Vir.Instr.Ieq ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        Ilanes.unsafe_set o i
          (if Int64.equal (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i)
           then 1L
           else 0L)
      done
  | Vir.Instr.Ine ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        Ilanes.unsafe_set o i
          (if Int64.equal (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i)
           then 0L
           else 1L)
      done
  | Vir.Instr.Islt when s <> Vir.Vtype.I1 ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        Ilanes.unsafe_set o i
          (if Int64.compare (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i) < 0
           then 1L
           else 0L)
      done
  | Vir.Instr.Isgt when s <> Vir.Vtype.I1 ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        Ilanes.unsafe_set o i
          (if Int64.compare (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i) > 0
           then 1L
           else 0L)
      done
  | _ ->
    let f = icmp_fn p s in
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        Ilanes.unsafe_set o i (f (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i))
      done

let fcmp_fn (p : Vir.Instr.fcmp_pred) : float -> float -> int64 =
  let ord a b = not (Float.is_nan a || Float.is_nan b) in
  let b r = if r then 1L else 0L in
  match p with
  | Vir.Instr.Foeq -> fun x y -> b (ord x y && x = y)
  | Vir.Instr.Fone -> fun x y -> b (ord x y && x <> y)
  | Vir.Instr.Folt -> fun x y -> b (ord x y && x < y)
  | Vir.Instr.Fole -> fun x y -> b (ord x y && x <= y)
  | Vir.Instr.Fogt -> fun x y -> b (ord x y && x > y)
  | Vir.Instr.Foge -> fun x y -> b (ord x y && x >= y)
  | Vir.Instr.Ford -> fun x y -> b (ord x y)
  | Vir.Instr.Funo -> fun x y -> b (not (ord x y))

(* Destination-passing float compares for the predicates the study
   modules run: each per-lane comparison is syntactically inside its
   loop (a [float -> float -> int64] closure would box both floats and
   the result on every lane). Same ordered-comparison semantics as
   [fcmp_fn], which every other predicate runs through: any NaN
   operand makes the Fo* predicates false. *)
let fcmp_into_fn (p : Vir.Instr.fcmp_pred) :
    float array -> float array -> Ilanes.t -> unit =
  match p with
  | Vir.Instr.Folt ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
        Ilanes.unsafe_set o i
          (if (not (Float.is_nan x || Float.is_nan y)) && x < y then 1L
           else 0L)
      done
  | Vir.Instr.Fogt ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
        Ilanes.unsafe_set o i
          (if (not (Float.is_nan x || Float.is_nan y)) && x > y then 1L
           else 0L)
      done
  | _ ->
    let f = fcmp_fn p in
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        Ilanes.unsafe_set o i (f (Array.unsafe_get a i) (Array.unsafe_get b i))
      done

(* ------------------------------------------------------------------ *)
(* Casts                                                               *)

(* Per-lane cast semantics, pre-selected from the cast opcode and the
   source/destination scalar kinds. This is the single source of truth
   for conversion semantics: [cast_into_fn]'s generic loop and its
   specialized loops both compute these conversions, so they cannot
   disagree. The variant encodes the value-kind signature so
   callers can specialize on it once, at threading time. *)
type lane_conv =
  | Cii of (int64 -> int64)
  | Cfi of (float -> int64)
  | Cif of (int64 -> float)
  | Cff of (float -> float)

let cast_lane_fn (k : Vir.Instr.cast_op) ~(src : Vir.Vtype.scalar)
    ~(dst : Vir.Vtype.scalar) : lane_conv =
  let ds = dst in
  let fail () =
    invalid_arg
      (Printf.sprintf "Machine: unsupported cast %s" (Vir.Instr.cast_name k))
  in
  match k with
  | Vir.Instr.Sext when src = Vir.Vtype.I1 ->
    (* sign extension turns true into all ones *)
    Cii (fun x -> Bits.truncate ds (i1_signed x))
  | Vir.Instr.Trunc | Vir.Instr.Sext | Vir.Instr.Ptrtoint
  | Vir.Instr.Inttoptr ->
    Cii (Bits.truncate ds)
  | Vir.Instr.Zext ->
    Cii (fun x -> Bits.truncate ds (Bits.to_unsigned src x))
  | Vir.Instr.Fptosi ->
    (* Out-of-range/NaN produce the x86 "integer indefinite" value. *)
    let bits = Vir.Vtype.scalar_bits ds in
    let indefinite = Int64.shift_left 1L (bits - 1) in
    let conv x =
      if Float.is_nan x then Bits.truncate ds indefinite
      else
        let lo = Int64.to_float Int64.min_int
        and hi = Int64.to_float Int64.max_int in
        if x < lo || x > hi then Bits.truncate ds indefinite
        else
          let i = Int64.of_float x in
          let tr = Bits.truncate ds i in
          if bits < 64 && tr <> i then Bits.truncate ds indefinite else tr
    in
    Cfi conv
  | Vir.Instr.Sitofp ->
    let sx = if src = Vir.Vtype.I1 then i1_signed else Fun.id in
    Cif (fun x -> Bits.round_float ds (Int64.to_float (sx x)))
  | Vir.Instr.Fptrunc | Vir.Instr.Fpext -> Cff (Bits.round_float ds)
  | Vir.Instr.Bitcast -> (
    (* equal widths, no pointer: the verifier's rule *)
    let open Vir.Vtype in
    if scalar_bits src <> scalar_bits ds || src = Ptr || ds = Ptr then fail ()
    else
      match (is_float_scalar src, is_float_scalar ds) with
      | false, false -> Cii (Bits.truncate ds)
      | false, true -> Cif (Bits.float_of_bits ds)
      | true, false -> Cfi (Bits.bits_of_float src)
      | true, true -> Cff Fun.id)

(* Destination-passing cast: the cast opcode, source scalar kind and
   destination type are matched once; the returned kernel writes
   converted lanes into the destination value's own buffer. The three
   conversions the study modules run (sitofp to f32 from a
   sign-normalised kind, zext i1 to i32, bitcast f32 to i32) have their
   lane arithmetic syntactically inside
   their loops, so lane values never cross a closure boundary (an
   [int64 -> float] indirect call boxes its argument and result on
   every lane); every other conversion runs the generic loop over
   [cast_lane_fn]. The kernel checks both value constructors so a
   kind-confused extern result fails loudly rather than silently
   reinterpreting. *)
let cast_into_fn (k : Vir.Instr.cast_op) ~(src : Vir.Vtype.scalar)
    ~(dst_ty : Vir.Vtype.t) : Vvalue.t -> Vvalue.t -> unit =
  let ds = Vir.Vtype.elem dst_ty in
  let fail () =
    invalid_arg
      (Printf.sprintf "Machine: unsupported cast %s" (Vir.Instr.cast_name k))
  in
  match (k, src, ds) with
  | Vir.Instr.Sitofp, s, Vir.Vtype.F32 when s <> Vir.Vtype.I1 -> (
    fun v out ->
      match (v, out) with
      | Vvalue.I (_, a), Vvalue.F (_, o) ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            (Bits.round_f32 (Int64.to_float (Ilanes.unsafe_get a i)))
        done
      | _ -> fail ())
  | Vir.Instr.Zext, Vir.Vtype.I1, Vir.Vtype.I32 -> (
    fun v out ->
      match (v, out) with
      | Vvalue.I (_, a), Vvalue.I (_, o) ->
        for i = 0 to Ilanes.length o - 1 do
          Ilanes.unsafe_set o i (Int64.logand (Ilanes.unsafe_get a i) 1L)
        done
      | _ -> fail ())
  | Vir.Instr.Bitcast, Vir.Vtype.F32, Vir.Vtype.I32 -> (
    fun v out ->
      match (v, out) with
      | Vvalue.F (_, a), Vvalue.I (_, o) ->
        for i = 0 to Ilanes.length o - 1 do
          Ilanes.unsafe_set o i
            (Int64.of_int32 (Int32.bits_of_float (Array.unsafe_get a i)))
        done
      | _ -> fail ())
  | _ -> (
    match cast_lane_fn k ~src ~dst:ds with
    | exception Invalid_argument _ -> fun _ _ -> fail ()
    | Cii f -> (
      fun v out ->
        match (v, out) with
        | Vvalue.I (_, a), Vvalue.I (_, o) ->
          for i = 0 to Ilanes.length o - 1 do
            Ilanes.unsafe_set o i (f (Ilanes.unsafe_get a i))
          done
        | _ -> fail ())
    | Cfi f -> (
      fun v out ->
        match (v, out) with
        | Vvalue.F (_, a), Vvalue.I (_, o) ->
          for i = 0 to Ilanes.length o - 1 do
            Ilanes.unsafe_set o i (f a.(i))
          done
        | _ -> fail ())
    | Cif f -> (
      fun v out ->
        match (v, out) with
        | Vvalue.I (_, a), Vvalue.F (_, o) ->
          for i = 0 to Array.length o - 1 do
            o.(i) <- f (Ilanes.unsafe_get a i)
          done
        | _ -> fail ())
    | Cff f -> (
      fun v out ->
        match (v, out) with
        | Vvalue.F (_, a), Vvalue.F (_, o) ->
          for i = 0 to Array.length o - 1 do
            o.(i) <- f a.(i)
          done
        | _ -> fail ()))

(* ------------------------------------------------------------------ *)
(* Math intrinsics (lane-wise llvm.sqrt & co.)                         *)

type math = Unary of (float -> float) | Binary of (float -> float -> float)

(* Monomorphic float min/max with the *total-order* semantics of OCaml's
   polymorphic [min]/[max] (which the interpreter has always used), so
   campaign outputs stay bit-identical:
   - NaN sorts below every other float and is equal to itself,
   - hence a lane-wise or reduced [min] yields NaN as soon as any
     operand is NaN, while [max] yields NaN only if all operands are
     NaN. (IEEE minNum/maxNum would instead *ignore* quiet NaNs.)
   Documented & pinned by tests in test_threaded.ml. *)
let[@inline] fmin (a : float) b = if Float.compare a b <= 0 then a else b

let[@inline] fmax (a : float) b = if Float.compare a b >= 0 then a else b

let math_fn = function
  | "sqrt" -> Unary sqrt
  | "exp" -> Unary exp
  | "log" -> Unary log
  | "sin" -> Unary sin
  | "cos" -> Unary cos
  | "fabs" -> Unary abs_float
  | "floor" -> Unary floor
  | "pow" -> Binary ( ** )
  | "min" -> Binary fmin
  | "max" -> Binary fmax
  | name -> invalid_arg ("Machine: unknown math intrinsic " ^ name)

(* ------------------------------------------------------------------ *)
(* Cross-lane reductions                                               *)

(* All reductions are written as direct loops (not fold_left): an
   accumulator threaded through a closure would be boxed on every lane,
   while the loop-local ref unboxes completely. The float-add reduction
   further resolves the storage precision *outside* the loop: a
   per-lane [Bits.round_float s] call would re-dispatch on [s] and box
   the float across the call on every lane. *)
let reduce_fadd (s : Vir.Vtype.scalar) (lanes : float array) =
  match s with
  | Vir.Vtype.F32 ->
    f32_reduce_fadd lanes
  | _ ->
    let acc = ref 0.0 in
    for i = 0 to Array.length lanes - 1 do
      acc := !acc +. Array.unsafe_get lanes i
    done;
    !acc

let reduce_iadd (s : Vir.Vtype.scalar) (lanes : Ilanes.t) =
  let acc = ref 0L in
  for i = 0 to Ilanes.length lanes - 1 do
    acc := Bits.truncate s (Int64.add !acc (Ilanes.unsafe_get lanes i))
  done;
  !acc

let reduce_or (lanes : Ilanes.t) =
  let acc = ref 0L in
  for i = 0 to Ilanes.length lanes - 1 do
    acc := Int64.logor !acc (Ilanes.unsafe_get lanes i)
  done;
  !acc

(* Reductions fold from lanes.(0) over the whole array (re-visiting lane
   0 is harmless for min/max), mirroring the historical implementation. *)
let reduce_fmin (lanes : float array) =
  let acc = ref lanes.(0) in
  for i = 0 to Array.length lanes - 1 do
    let x = Array.unsafe_get lanes i in
    if Float.compare x !acc < 0 then acc := x
  done;
  !acc

let reduce_fmax (lanes : float array) =
  let acc = ref lanes.(0) in
  for i = 0 to Array.length lanes - 1 do
    let x = Array.unsafe_get lanes i in
    if Float.compare x !acc > 0 then acc := x
  done;
  !acc

let reduce_imin (lanes : Ilanes.t) =
  let acc = ref (Ilanes.get lanes 0) in
  for i = 1 to Ilanes.length lanes - 1 do
    let x = Ilanes.unsafe_get lanes i in
    if Int64.compare x !acc < 0 then acc := x
  done;
  !acc

let reduce_imax (lanes : Ilanes.t) =
  let acc = ref (Ilanes.get lanes 0) in
  for i = 1 to Ilanes.length lanes - 1 do
    let x = Ilanes.unsafe_get lanes i in
    if Int64.compare x !acc > 0 then acc := x
  done;
  !acc
