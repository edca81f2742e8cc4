(** Lane-level arithmetic of the VIR VM.

    Every operation comes as a *factory*: [ibinop_fn k s] matches the
    opcode and scalar kind once and returns a monomorphic per-lane
    closure, so the closure-threaded back end ({!Compile}) can hoist all
    dispatch out of the dynamic path. The curried entry points
    [eval_ibinop_lane], [eval_fbinop_lane] and [eval_cast], which the
    tests' reference SPMD evaluator calls, are thin wrappers over the
    factories, so the semantics live in exactly one place. *)

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

let eval_ibinop_lane k s a b = (ibinop_fn k s) a b

(* ------------------------------------------------------------------ *)
(* Destination-passing integer kernels over flat lane buffers.

   Composing [ibinop_fn] with a generic lane loop pays three boxing
   allocations per lane: both operands box crossing the
   [int64 -> int64 -> int64] closure boundary and the result boxes
   coming back. These factories select one concrete loop per
   (opcode, width class) whose int64 locals never escape a single
   expression, so the native compiler keeps every lane in a register —
   no allocation on the arithmetic path at all. Semantics are
   bit-identical to [ibinop_fn]/[icmp_fn] applied lane by lane
   (including trap conditions and the per-width truncations); the rare
   narrow widths fall back to the closure composition. *)

let ibinop_into_fn (k : Vir.Instr.ibinop) (s : Vir.Vtype.scalar) :
    Ilanes.t -> Ilanes.t -> Ilanes.t -> unit =
  let full_width =
    match s with Vir.Vtype.I64 | Vir.Vtype.Ptr -> true | _ -> false
  in
  let div_overflows = s = Vir.Vtype.I64 in
  let fallback () =
    let f = ibinop_fn k s in
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        Ilanes.unsafe_set o i
          (f (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i))
      done
  in
  if full_width then
    match k with
    | Vir.Instr.Add ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          Ilanes.unsafe_set o i
            (Int64.add (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i))
        done
    | Vir.Instr.Sub ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          Ilanes.unsafe_set o i
            (Int64.sub (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i))
        done
    | Vir.Instr.Mul ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          Ilanes.unsafe_set o i
            (Int64.mul (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i))
        done
    | Vir.Instr.And ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          Ilanes.unsafe_set o i
            (Int64.logand (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i))
        done
    | Vir.Instr.Or ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          Ilanes.unsafe_set o i
            (Int64.logor (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i))
        done
    | Vir.Instr.Xor ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          Ilanes.unsafe_set o i
            (Int64.logxor (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i))
        done
    | Vir.Instr.Shl ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          Ilanes.unsafe_set o i
            (Int64.shift_left (Ilanes.unsafe_get a i)
               (Int64.to_int (Ilanes.unsafe_get b i) land 63))
        done
    | Vir.Instr.Lshr ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          Ilanes.unsafe_set o i
            (Int64.shift_right_logical (Ilanes.unsafe_get a i)
               (Int64.to_int (Ilanes.unsafe_get b i) land 63))
        done
    | Vir.Instr.Ashr ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          Ilanes.unsafe_set o i
            (Int64.shift_right (Ilanes.unsafe_get a i)
               (Int64.to_int (Ilanes.unsafe_get b i) land 63))
        done
    | Vir.Instr.Sdiv ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          let x = Ilanes.unsafe_get a i and y = Ilanes.unsafe_get b i in
          if
            y = 0L || (div_overflows && x = Int64.min_int && y = -1L)
          then Trap.raise_ Trap.Division_by_zero;
          Ilanes.unsafe_set o i (Int64.div x y)
        done
    | Vir.Instr.Srem ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          let x = Ilanes.unsafe_get a i and y = Ilanes.unsafe_get b i in
          if
            y = 0L || (div_overflows && x = Int64.min_int && y = -1L)
          then Trap.raise_ Trap.Division_by_zero;
          Ilanes.unsafe_set o i (Int64.rem x y)
        done
    | Vir.Instr.Udiv ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          let x = Ilanes.unsafe_get a i and y = Ilanes.unsafe_get b i in
          if y = 0L then Trap.raise_ Trap.Division_by_zero;
          Ilanes.unsafe_set o i (Int64.unsigned_div x y)
        done
    | Vir.Instr.Urem ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          let x = Ilanes.unsafe_get a i and y = Ilanes.unsafe_get b i in
          if y = 0L then Trap.raise_ Trap.Division_by_zero;
          Ilanes.unsafe_set o i (Int64.unsigned_rem x y)
        done
  else if s = Vir.Vtype.I32 then
    match k with
    | Vir.Instr.Add ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          Ilanes.unsafe_set o i
            (Int64.of_int32
               (Int64.to_int32
                  (Int64.add (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i))))
        done
    | Vir.Instr.Sub ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          Ilanes.unsafe_set o i
            (Int64.of_int32
               (Int64.to_int32
                  (Int64.sub (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i))))
        done
    | Vir.Instr.Mul ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          Ilanes.unsafe_set o i
            (Int64.of_int32
               (Int64.to_int32
                  (Int64.mul (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i))))
        done
    | Vir.Instr.And ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          Ilanes.unsafe_set o i
            (Int64.logand (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i))
        done
    | Vir.Instr.Or ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          Ilanes.unsafe_set o i
            (Int64.logor (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i))
        done
    | Vir.Instr.Xor ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          Ilanes.unsafe_set o i
            (Int64.logxor (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i))
        done
    | Vir.Instr.Shl ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          Ilanes.unsafe_set o i
            (Int64.of_int32
               (Int64.to_int32
                  (Int64.shift_left (Ilanes.unsafe_get a i)
                     (Int64.to_int (Ilanes.unsafe_get b i) land 31))))
        done
    | Vir.Instr.Lshr ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          Ilanes.unsafe_set o i
            (Int64.shift_right_logical
               (Int64.logand (Ilanes.unsafe_get a i) 0xFFFFFFFFL)
               (Int64.to_int (Ilanes.unsafe_get b i) land 31))
        done
    | Vir.Instr.Ashr ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          Ilanes.unsafe_set o i
            (Int64.shift_right (Ilanes.unsafe_get a i)
               (Int64.to_int (Ilanes.unsafe_get b i) land 31))
        done
    | Vir.Instr.Sdiv ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          let x = Ilanes.unsafe_get a i and y = Ilanes.unsafe_get b i in
          if y = 0L then Trap.raise_ Trap.Division_by_zero;
          Ilanes.unsafe_set o i
            (Int64.of_int32 (Int64.to_int32 (Int64.div x y)))
        done
    | Vir.Instr.Srem ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          let x = Ilanes.unsafe_get a i and y = Ilanes.unsafe_get b i in
          if y = 0L then Trap.raise_ Trap.Division_by_zero;
          Ilanes.unsafe_set o i
            (Int64.of_int32 (Int64.to_int32 (Int64.rem x y)))
        done
    | Vir.Instr.Udiv ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          let x = Ilanes.unsafe_get a i and y = Ilanes.unsafe_get b i in
          if y = 0L then Trap.raise_ Trap.Division_by_zero;
          Ilanes.unsafe_set o i
            (Int64.of_int32
               (Int64.to_int32
                  (Int64.unsigned_div (Int64.logand x 0xFFFFFFFFL)
                     (Int64.logand y 0xFFFFFFFFL))))
        done
    | Vir.Instr.Urem ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          let x = Ilanes.unsafe_get a i and y = Ilanes.unsafe_get b i in
          if y = 0L then Trap.raise_ Trap.Division_by_zero;
          Ilanes.unsafe_set o i
            (Int64.of_int32
               (Int64.to_int32
                  (Int64.unsigned_rem (Int64.logand x 0xFFFFFFFFL)
                     (Int64.logand y 0xFFFFFFFFL))))
        done
  else
    (* I1 masks combine with And/Or/Xor in predicated control flow, so
       those three get direct loops; other narrow ops are cold. *)
    match (k, s) with
    | Vir.Instr.And, Vir.Vtype.I1 ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          Ilanes.unsafe_set o i
            (Int64.logand
               (Int64.logand (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i))
               1L)
        done
    | Vir.Instr.Or, Vir.Vtype.I1 ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          Ilanes.unsafe_set o i
            (Int64.logand
               (Int64.logor (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i))
               1L)
        done
    | Vir.Instr.Xor, Vir.Vtype.I1 ->
      fun a b o ->
        for i = 0 to Ilanes.length o - 1 do
          Ilanes.unsafe_set o i
            (Int64.logand
               (Int64.logxor (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i))
               1L)
        done
    | _ -> fallback ()

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

let eval_fbinop_lane k s a b = (fbinop_fn k s) a b

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

(* Horizontal f32 reductions as single C calls: sequential accumulate
   with rounding after every step, exactly as the OCaml loop rounds.
   These box their float result, so they are plain externals. *)
external f32_reduce_fadd : float array -> float = "vulfi_f32_reduce_fadd"

external f32_fadd_reduce_fadd : float array -> float array -> float
  = "vulfi_f32_fadd_reduce_fadd"

external f32_fsub_reduce_fadd : float array -> float array -> float
  = "vulfi_f32_fsub_reduce_fadd"

external f32_fmul_reduce_fadd : float array -> float array -> float
  = "vulfi_f32_fmul_reduce_fadd"

external f32_fdiv_reduce_fadd : float array -> float array -> float
  = "vulfi_f32_fdiv_reduce_fadd"

let f32_arr_fn (k : Vir.Instr.fbinop) :
    (float array -> float array -> float array -> unit) option =
  match k with
  | Vir.Instr.Fadd -> Some f32_fadd_arr
  | Vir.Instr.Fsub -> Some f32_fsub_arr
  | Vir.Instr.Fmul -> Some f32_fmul_arr
  | Vir.Instr.Fdiv -> Some f32_fdiv_arr
  | Vir.Instr.Frem -> None

(* Lane- and op-specialized vector float arithmetic in destination-
   passing style: the kernel writes each lane straight into the
   destination register's pinned buffer, so the loop body is unboxed
   primitives with no per-lane closure application and no result
   allocation at all. The f32 arms are single C kernel calls. [frem]
   falls back to the generic per-lane-closure path ([None]). *)
let fbinop_vec_into_fn (k : Vir.Instr.fbinop) (s : Vir.Vtype.scalar) :
    (float array -> float array -> float array -> unit) option =
  match (s, k) with
  | Vir.Vtype.F64, Vir.Instr.Fadd ->
    Some
      (fun a b o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i (a.(i) +. b.(i))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fsub ->
    Some
      (fun a b o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i (a.(i) -. b.(i))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fmul ->
    Some
      (fun a b o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i (a.(i) *. b.(i))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fdiv ->
    Some
      (fun a b o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i (a.(i) /. b.(i))
        done)
  | Vir.Vtype.F32, _ -> f32_arr_fn k
  | _ -> None

(* Fused producer->consumer float pairs, op- and kind-specialized with
   the same inline-rounding idiom as [fbinop_vec_into_fn]: the kernel
   computes [o.(i) <- k2 (k1 a.(i) b.(i)) c.(i)] when [first] (the
   producer's result is the consumer's first operand), or
   [o.(i) <- k2 c.(i) (k1 a.(i) b.(i))] otherwise, with F32 rounding
   after every operation exactly as the two unfused kernels would
   round. Every arm is a single allocation-free loop: floats stay
   unboxed lane to lane, which is the whole point -- the generic
   closure-composed form boxes three floats per lane. Length-generic,
   so scalar chains pass 1-lane arrays. [Frem] pairs fall back to the
   unfused path ([None]). *)
let fbinop_fused_vec_into_fn (s : Vir.Vtype.scalar) ~(k1 : Vir.Instr.fbinop)
    ~(k2 : Vir.Instr.fbinop) ~(first : bool) :
    (float array -> float array -> float array -> float array -> unit)
    option =
  match (s, k1, k2, first) with
  | Vir.Vtype.F64, Vir.Instr.Fadd, Vir.Instr.Fadd, true ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            ((a.(i) +. b.(i)) +. c.(i))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fadd, Vir.Instr.Fadd, false ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            (c.(i) +. (a.(i) +. b.(i)))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fadd, Vir.Instr.Fsub, true ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            ((a.(i) +. b.(i)) -. c.(i))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fadd, Vir.Instr.Fsub, false ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            (c.(i) -. (a.(i) +. b.(i)))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fadd, Vir.Instr.Fmul, true ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            ((a.(i) +. b.(i)) *. c.(i))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fadd, Vir.Instr.Fmul, false ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            (c.(i) *. (a.(i) +. b.(i)))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fadd, Vir.Instr.Fdiv, true ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            ((a.(i) +. b.(i)) /. c.(i))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fadd, Vir.Instr.Fdiv, false ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            (c.(i) /. (a.(i) +. b.(i)))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fsub, Vir.Instr.Fadd, true ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            ((a.(i) -. b.(i)) +. c.(i))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fsub, Vir.Instr.Fadd, false ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            (c.(i) +. (a.(i) -. b.(i)))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fsub, Vir.Instr.Fsub, true ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            ((a.(i) -. b.(i)) -. c.(i))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fsub, Vir.Instr.Fsub, false ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            (c.(i) -. (a.(i) -. b.(i)))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fsub, Vir.Instr.Fmul, true ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            ((a.(i) -. b.(i)) *. c.(i))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fsub, Vir.Instr.Fmul, false ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            (c.(i) *. (a.(i) -. b.(i)))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fsub, Vir.Instr.Fdiv, true ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            ((a.(i) -. b.(i)) /. c.(i))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fsub, Vir.Instr.Fdiv, false ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            (c.(i) /. (a.(i) -. b.(i)))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fmul, Vir.Instr.Fadd, true ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            ((a.(i) *. b.(i)) +. c.(i))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fmul, Vir.Instr.Fadd, false ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            (c.(i) +. (a.(i) *. b.(i)))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fmul, Vir.Instr.Fsub, true ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            ((a.(i) *. b.(i)) -. c.(i))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fmul, Vir.Instr.Fsub, false ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            (c.(i) -. (a.(i) *. b.(i)))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fmul, Vir.Instr.Fmul, true ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            ((a.(i) *. b.(i)) *. c.(i))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fmul, Vir.Instr.Fmul, false ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            (c.(i) *. (a.(i) *. b.(i)))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fmul, Vir.Instr.Fdiv, true ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            ((a.(i) *. b.(i)) /. c.(i))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fmul, Vir.Instr.Fdiv, false ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            (c.(i) /. (a.(i) *. b.(i)))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fdiv, Vir.Instr.Fadd, true ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            ((a.(i) /. b.(i)) +. c.(i))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fdiv, Vir.Instr.Fadd, false ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            (c.(i) +. (a.(i) /. b.(i)))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fdiv, Vir.Instr.Fsub, true ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            ((a.(i) /. b.(i)) -. c.(i))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fdiv, Vir.Instr.Fsub, false ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            (c.(i) -. (a.(i) /. b.(i)))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fdiv, Vir.Instr.Fmul, true ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            ((a.(i) /. b.(i)) *. c.(i))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fdiv, Vir.Instr.Fmul, false ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            (c.(i) *. (a.(i) /. b.(i)))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fdiv, Vir.Instr.Fdiv, true ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            ((a.(i) /. b.(i)) /. c.(i))
        done)
  | Vir.Vtype.F64, Vir.Instr.Fdiv, Vir.Instr.Fdiv, false ->
    Some
      (fun a b c o ->
        for i = 0 to Array.length o - 1 do
          Array.unsafe_set o i
            (c.(i) /. (a.(i) /. b.(i)))
        done)
  | Vir.Vtype.F32, k1, k2, first -> (
    (* Two whole-vector C kernel calls staged through [o]: pass one
       writes the rounded producer lanes into [o], pass two combines
       them with [c] in place.  Per lane this computes exactly
       [round (k2 (round (k1 a b)) c)] (or the [c]-first mirror) -- the
       same rounding sequence as the unfused kernels.  In destination-
       passing style [o] never aliases an operand buffer (SSA: the
       consumer's register differs from every source register), so
       staging the producer lanes through [o] is safe. *)
    match (f32_arr_fn k1, f32_arr_fn k2) with
    | Some p1, Some p2 ->
      Some
        (if first then fun a b c o ->
           p1 a b o;
           p2 o c o
         else
           fun a b c o ->
           p1 a b o;
           p2 c o o)
    | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Comparisons                                                         *)

let icmp_fn (p : Vir.Instr.icmp_pred) (s : Vir.Vtype.scalar) :
    int64 -> int64 -> int64 =
  let u x = Bits.to_unsigned s x in
  let b r = if r then 1L else 0L in
  match p with
  | Vir.Instr.Ieq -> fun a b' -> b (Int64.equal a b')
  | Vir.Instr.Ine -> fun a b' -> b (not (Int64.equal a b'))
  | Vir.Instr.Islt -> fun a b' -> b (Int64.compare a b' < 0)
  | Vir.Instr.Isle -> fun a b' -> b (Int64.compare a b' <= 0)
  | Vir.Instr.Isgt -> fun a b' -> b (Int64.compare a b' > 0)
  | Vir.Instr.Isge -> fun a b' -> b (Int64.compare a b' >= 0)
  | Vir.Instr.Iult -> fun a b' -> b (Int64.unsigned_compare (u a) (u b') < 0)
  | Vir.Instr.Iule -> fun a b' -> b (Int64.unsigned_compare (u a) (u b') <= 0)
  | Vir.Instr.Iugt -> fun a b' -> b (Int64.unsigned_compare (u a) (u b') > 0)
  | Vir.Instr.Iuge -> fun a b' -> b (Int64.unsigned_compare (u a) (u b') >= 0)

(* Same unboxed-loop treatment for integer compares: signed predicates
   compare the sign-normalised lanes directly; unsigned ones mask to
   the width first ([Bits.to_unsigned] as a precomputed bit mask —
   identity at full width). *)
let icmp_into_fn (p : Vir.Instr.icmp_pred) (s : Vir.Vtype.scalar) :
    Ilanes.t -> Ilanes.t -> Ilanes.t -> unit =
  let um =
    match s with
    | Vir.Vtype.I1 -> 1L
    | Vir.Vtype.I8 -> 0xFFL
    | Vir.Vtype.I32 -> 0xFFFFFFFFL
    | _ -> -1L
  in
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
  | Vir.Instr.Islt ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        Ilanes.unsafe_set o i
          (if Int64.compare (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i) < 0
           then 1L
           else 0L)
      done
  | Vir.Instr.Isle ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        Ilanes.unsafe_set o i
          (if
             Int64.compare (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i) <= 0
           then 1L
           else 0L)
      done
  | Vir.Instr.Isgt ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        Ilanes.unsafe_set o i
          (if Int64.compare (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i) > 0
           then 1L
           else 0L)
      done
  | Vir.Instr.Isge ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        Ilanes.unsafe_set o i
          (if
             Int64.compare (Ilanes.unsafe_get a i) (Ilanes.unsafe_get b i) >= 0
           then 1L
           else 0L)
      done
  | Vir.Instr.Iult ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        Ilanes.unsafe_set o i
          (if
             Int64.unsigned_compare
               (Int64.logand (Ilanes.unsafe_get a i) um)
               (Int64.logand (Ilanes.unsafe_get b i) um)
             < 0
           then 1L
           else 0L)
      done
  | Vir.Instr.Iule ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        Ilanes.unsafe_set o i
          (if
             Int64.unsigned_compare
               (Int64.logand (Ilanes.unsafe_get a i) um)
               (Int64.logand (Ilanes.unsafe_get b i) um)
             <= 0
           then 1L
           else 0L)
      done
  | Vir.Instr.Iugt ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        Ilanes.unsafe_set o i
          (if
             Int64.unsigned_compare
               (Int64.logand (Ilanes.unsafe_get a i) um)
               (Int64.logand (Ilanes.unsafe_get b i) um)
             > 0
           then 1L
           else 0L)
      done
  | Vir.Instr.Iuge ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        Ilanes.unsafe_set o i
          (if
             Int64.unsigned_compare
               (Int64.logand (Ilanes.unsafe_get a i) um)
               (Int64.logand (Ilanes.unsafe_get b i) um)
             >= 0
           then 1L
           else 0L)
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

(* Destination-passing float compares: the predicate is matched once
   and each per-lane comparison is syntactically inside its loop (a
   [float -> float -> int64] closure would box both floats and the
   result on every lane). Same ordered-comparison semantics as
   [fcmp_fn]: any NaN operand makes the Fo* predicates false. *)
let fcmp_into_fn (p : Vir.Instr.fcmp_pred) :
    float array -> float array -> Ilanes.t -> unit =
  match p with
  | Vir.Instr.Foeq ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
        Ilanes.unsafe_set o i
          (if (not (Float.is_nan x || Float.is_nan y)) && x = y then 1L
           else 0L)
      done
  | Vir.Instr.Fone ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
        Ilanes.unsafe_set o i
          (if (not (Float.is_nan x || Float.is_nan y)) && x <> y then 1L
           else 0L)
      done
  | Vir.Instr.Folt ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
        Ilanes.unsafe_set o i
          (if (not (Float.is_nan x || Float.is_nan y)) && x < y then 1L
           else 0L)
      done
  | Vir.Instr.Fole ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
        Ilanes.unsafe_set o i
          (if (not (Float.is_nan x || Float.is_nan y)) && x <= y then 1L
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
  | Vir.Instr.Foge ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
        Ilanes.unsafe_set o i
          (if (not (Float.is_nan x || Float.is_nan y)) && x >= y then 1L
           else 0L)
      done
  | Vir.Instr.Ford ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
        Ilanes.unsafe_set o i
          (if not (Float.is_nan x || Float.is_nan y) then 1L else 0L)
      done
  | Vir.Instr.Funo ->
    fun a b o ->
      for i = 0 to Ilanes.length o - 1 do
        let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
        Ilanes.unsafe_set o i
          (if Float.is_nan x || Float.is_nan y then 1L else 0L)
      done

(* ------------------------------------------------------------------ *)
(* Casts                                                               *)

(* Per-lane cast semantics, pre-selected from the cast opcode and the
   source/destination scalar kinds. This is the single source of truth
   for conversion semantics: [cast_into_fn] (the threaded interpreter),
   [cast_fn] (the tests' reference evaluator) and the fused chain
   emitter in {!Fusion} all build on the same lane converter, so
   a fused cast→op kernel cannot disagree with the unfused steps. The
   variant encodes the value-kind signature so callers can specialize
   on it once, at threading time. *)
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
    Cif (fun x -> Bits.round_float ds (Int64.to_float x))
  | Vir.Instr.Fptrunc | Vir.Instr.Fpext -> Cff (Bits.round_float ds)
  | Vir.Instr.Bitcast ->
    if
      Vir.Vtype.is_float_scalar ds
      && Vir.Vtype.is_int_scalar src
      && Vir.Vtype.scalar_bits src = Vir.Vtype.scalar_bits ds
    then Cif (Bits.float_of_bits ds)
    else if
      Vir.Vtype.is_int_scalar ds
      && Vir.Vtype.is_float_scalar src
      && Vir.Vtype.scalar_bits src = Vir.Vtype.scalar_bits ds
    then Cfi (Bits.bits_of_float src)
    else if
      Vir.Vtype.is_int_scalar ds
      && Vir.Vtype.is_int_scalar src
      && Vir.Vtype.scalar_bits src = Vir.Vtype.scalar_bits ds
    then Cii (Bits.truncate ds)
    else fail ()

(* Specialized destination-passing cast: the cast opcode, source scalar
   kind and destination type are matched once; the returned kernel
   writes converted lanes into the destination value's own buffer. The
   per-lane arithmetic of every conversion the verifier admits is
   syntactically inside its loop, so lane values never cross a closure
   boundary (an [int64 -> int64] or [float -> int64] indirect call
   boxes its argument and result on every lane). The kernel still
   checks both value constructors so a kind-confused extern result
   fails loudly rather than silently reinterpreting. *)
let cast_into_fn (k : Vir.Instr.cast_op) ~(src : Vir.Vtype.scalar)
    ~(dst_ty : Vir.Vtype.t) : Vvalue.t -> Vvalue.t -> unit =
  let ds = Vir.Vtype.elem dst_ty in
  let fail () =
    invalid_arg
      (Printf.sprintf "Machine: unsupported cast %s" (Vir.Instr.cast_name k))
  in
  (* Per-lane fallback through [cast_lane_fn]'s closure, for the rare
     conversions without a specialized loop below (e.g. fptosi to i8). *)
  let generic () =
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
        | _ -> fail ())
  in
  (* int -> int: pre-mask with [um] (the unsigned reinterpretation of
     the source for zext, the identity mask otherwise), then truncate
     to [ds]'s value range — the same composition as [Bits.truncate]
     after [Bits.to_unsigned], with both steps inlined per width. *)
  let ii (um : int64) : Vvalue.t -> Vvalue.t -> unit =
    match ds with
    | Vir.Vtype.I64 | Vir.Vtype.Ptr -> (
      fun v out ->
        match (v, out) with
        | Vvalue.I (_, a), Vvalue.I (_, o) ->
          for i = 0 to Ilanes.length o - 1 do
            Ilanes.unsafe_set o i (Int64.logand (Ilanes.unsafe_get a i) um)
          done
        | _ -> fail ())
    | Vir.Vtype.I32 -> (
      fun v out ->
        match (v, out) with
        | Vvalue.I (_, a), Vvalue.I (_, o) ->
          for i = 0 to Ilanes.length o - 1 do
            Ilanes.unsafe_set o i
              (Int64.of_int32
                 (Int64.to_int32 (Int64.logand (Ilanes.unsafe_get a i) um)))
          done
        | _ -> fail ())
    | Vir.Vtype.I8 -> (
      fun v out ->
        match (v, out) with
        | Vvalue.I (_, a), Vvalue.I (_, o) ->
          for i = 0 to Ilanes.length o - 1 do
            Ilanes.unsafe_set o i
              (Int64.shift_right
                 (Int64.shift_left
                    (Int64.logand (Ilanes.unsafe_get a i) um)
                    56)
                 56)
          done
        | _ -> fail ())
    | Vir.Vtype.I1 -> (
      fun v out ->
        match (v, out) with
        | Vvalue.I (_, a), Vvalue.I (_, o) ->
          for i = 0 to Ilanes.length o - 1 do
            Ilanes.unsafe_set o i (Int64.logand (Ilanes.unsafe_get a i) 1L)
          done
        | _ -> fail ())
    | Vir.Vtype.F32 | Vir.Vtype.F64 -> fun _ _ -> fail ()
  in
  match k with
  | Vir.Instr.Trunc | Vir.Instr.Sext | Vir.Instr.Ptrtoint
  | Vir.Instr.Inttoptr ->
    ii (-1L)
  | Vir.Instr.Zext -> (
    match src with
    | Vir.Vtype.I1 -> ii 1L
    | Vir.Vtype.I8 -> ii 0xFFL
    | Vir.Vtype.I32 -> ii 0xFFFFFFFFL
    | Vir.Vtype.I64 | Vir.Vtype.Ptr -> ii (-1L)
    | Vir.Vtype.F32 | Vir.Vtype.F64 -> fun _ _ -> fail ())
  | Vir.Instr.Fptosi -> (
    (* Same out-of-range/NaN semantics as [cast_lane_fn]: the x86
       "integer indefinite" value, with the range check against the
       float images of the int64 extremes. *)
    let lo = Int64.to_float Int64.min_int
    and hi = Int64.to_float Int64.max_int in
    match ds with
    | Vir.Vtype.I64 | Vir.Vtype.Ptr -> (
      fun v out ->
        match (v, out) with
        | Vvalue.F (_, a), Vvalue.I (_, o) ->
          for i = 0 to Ilanes.length o - 1 do
            let x = Array.unsafe_get a i in
            Ilanes.unsafe_set o i
              (if Float.is_nan x || x < lo || x > hi then Int64.min_int
               else Int64.of_float x)
          done
        | _ -> fail ())
    | Vir.Vtype.I32 -> (
      let ind = Int64.of_int32 Int32.min_int in
      fun v out ->
        match (v, out) with
        | Vvalue.F (_, a), Vvalue.I (_, o) ->
          for i = 0 to Ilanes.length o - 1 do
            let x = Array.unsafe_get a i in
            Ilanes.unsafe_set o i
              (if Float.is_nan x || x < lo || x > hi then ind
               else
                 let n = Int64.of_float x in
                 let tr = Int64.of_int32 (Int64.to_int32 n) in
                 if tr <> n then ind else tr)
          done
        | _ -> fail ())
    | _ -> generic ())
  | Vir.Instr.Sitofp -> (
    match ds with
    | Vir.Vtype.F64 -> (
      fun v out ->
        match (v, out) with
        | Vvalue.I (_, a), Vvalue.F (_, o) ->
          for i = 0 to Array.length o - 1 do
            Array.unsafe_set o i (Int64.to_float (Ilanes.unsafe_get a i))
          done
        | _ -> fail ())
    | Vir.Vtype.F32 -> (
      fun v out ->
        match (v, out) with
        | Vvalue.I (_, a), Vvalue.F (_, o) ->
          for i = 0 to Array.length o - 1 do
            Array.unsafe_set o i
              (Bits.round_f32 (Int64.to_float (Ilanes.unsafe_get a i)))
          done
        | _ -> fail ())
    | _ -> fun _ _ -> fail ())
  | Vir.Instr.Fptrunc | Vir.Instr.Fpext -> (
    match ds with
    | Vir.Vtype.F64 -> (
      fun v out ->
        match (v, out) with
        | Vvalue.F (_, a), Vvalue.F (_, o) ->
          Array.blit a 0 o 0 (Array.length o)
        | _ -> fail ())
    | Vir.Vtype.F32 -> (
      fun v out ->
        match (v, out) with
        | Vvalue.F (_, a), Vvalue.F (_, o) ->
          for i = 0 to Array.length o - 1 do
            Array.unsafe_set o i
              (Bits.round_f32 (Array.unsafe_get a i))
          done
        | _ -> fail ())
    | _ -> fun _ _ -> fail ())
  | Vir.Instr.Bitcast ->
    if
      Vir.Vtype.is_float_scalar ds
      && Vir.Vtype.is_int_scalar src
      && Vir.Vtype.scalar_bits src = Vir.Vtype.scalar_bits ds
    then
      match ds with
      | Vir.Vtype.F64 -> (
        fun v out ->
          match (v, out) with
          | Vvalue.I (_, a), Vvalue.F (_, o) ->
            for i = 0 to Array.length o - 1 do
              Array.unsafe_set o i
                (Int64.float_of_bits (Ilanes.unsafe_get a i))
            done
          | _ -> fail ())
      | Vir.Vtype.F32 -> (
        fun v out ->
          match (v, out) with
          | Vvalue.I (_, a), Vvalue.F (_, o) ->
            for i = 0 to Array.length o - 1 do
              Array.unsafe_set o i
                (Int32.float_of_bits (Int64.to_int32 (Ilanes.unsafe_get a i)))
            done
          | _ -> fail ())
      | _ -> fun _ _ -> fail ()
    else if
      Vir.Vtype.is_int_scalar ds
      && Vir.Vtype.is_float_scalar src
      && Vir.Vtype.scalar_bits src = Vir.Vtype.scalar_bits ds
    then
      match src with
      | Vir.Vtype.F64 -> (
        fun v out ->
          match (v, out) with
          | Vvalue.F (_, a), Vvalue.I (_, o) ->
            for i = 0 to Ilanes.length o - 1 do
              Ilanes.unsafe_set o i (Int64.bits_of_float (Array.unsafe_get a i))
            done
          | _ -> fail ())
      | Vir.Vtype.F32 -> (
        fun v out ->
          match (v, out) with
          | Vvalue.F (_, a), Vvalue.I (_, o) ->
            for i = 0 to Ilanes.length o - 1 do
              Ilanes.unsafe_set o i
                (Int64.of_int32 (Int32.bits_of_float (Array.unsafe_get a i)))
            done
          | _ -> fail ())
      | _ -> fun _ _ -> fail ()
    else if
      Vir.Vtype.is_int_scalar ds
      && Vir.Vtype.is_int_scalar src
      && Vir.Vtype.scalar_bits src = Vir.Vtype.scalar_bits ds
    then ii (-1L)
    else fun _ _ -> fail ()

(* Allocating wrapper over the destination-passing kernel, for the
   tests' reference evaluator: one implementation of the conversion
   semantics. The result has the lane count of the
   input, exactly like the historical cast. *)
let cast_fn (k : Vir.Instr.cast_op) ~(src : Vir.Vtype.scalar)
    ~(dst_ty : Vir.Vtype.t) : Vvalue.t -> Vvalue.t =
  let into = cast_into_fn k ~src ~dst_ty in
  let ds = Vir.Vtype.elem dst_ty in
  let float_out =
    match k with
    | Vir.Instr.Trunc | Vir.Instr.Sext | Vir.Instr.Zext
    | Vir.Instr.Ptrtoint | Vir.Instr.Inttoptr | Vir.Instr.Fptosi ->
      false
    | Vir.Instr.Sitofp | Vir.Instr.Fptrunc | Vir.Instr.Fpext -> true
    | Vir.Instr.Bitcast -> Vir.Vtype.is_float_scalar ds
  in
  fun v ->
    let n = Vvalue.lanes v in
    let out =
      if float_out then Vvalue.F (ds, Array.make n 0.0)
      else Vvalue.I (ds, Ilanes.make n 0L)
    in
    into v out;
    out

(* The legacy entry point dispatches on the runtime value, exactly like
   the pre-threading interpreter did. *)
let eval_cast (k : Vir.Instr.cast_op) (dst_ty : Vir.Vtype.t) (v : Vvalue.t) =
  (cast_fn k ~src:(Vvalue.scalar_kind v) ~dst_ty) v

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

let[@inline] imin (a : int64) b = if Int64.compare a b <= 0 then a else b

let[@inline] imax (a : int64) b = if Int64.compare a b >= 0 then a else b

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

(* Fused elementwise-op -> add-reduction, the dot-product tail of a
   superblock chain: computes [reduce_fadd s (map2 k a b)] in ONE loop
   with no intermediate vector. F32 arms round after the elementwise op
   AND after every accumulate, exactly as the unfused pair
   ([fbinop_vec_into_fn] into a register, then [reduce_fadd] over it)
   rounds — the fused result is bit-identical, not merely close.
   [Frem] producers fall back to the unfused path ([None]). *)
let fbinop_reduce_fadd_fn (s : Vir.Vtype.scalar) (k : Vir.Instr.fbinop) :
    (float array -> float array -> float) option =
  match (s, k) with
  | Vir.Vtype.F64, Vir.Instr.Fmul ->
    Some
      (fun a b ->
        let acc = ref 0.0 in
        for i = 0 to Array.length a - 1 do
          acc := !acc +. (Array.unsafe_get a i *. Array.unsafe_get b i)
        done;
        !acc)
  | Vir.Vtype.F64, Vir.Instr.Fadd ->
    Some
      (fun a b ->
        let acc = ref 0.0 in
        for i = 0 to Array.length a - 1 do
          acc := !acc +. (Array.unsafe_get a i +. Array.unsafe_get b i)
        done;
        !acc)
  | Vir.Vtype.F64, Vir.Instr.Fsub ->
    Some
      (fun a b ->
        let acc = ref 0.0 in
        for i = 0 to Array.length a - 1 do
          acc := !acc +. (Array.unsafe_get a i -. Array.unsafe_get b i)
        done;
        !acc)
  | Vir.Vtype.F64, Vir.Instr.Fdiv ->
    Some
      (fun a b ->
        let acc = ref 0.0 in
        for i = 0 to Array.length a - 1 do
          acc := !acc +. (Array.unsafe_get a i /. Array.unsafe_get b i)
        done;
        !acc)
  | Vir.Vtype.F32, Vir.Instr.Fmul -> Some f32_fmul_reduce_fadd
  | Vir.Vtype.F32, Vir.Instr.Fadd -> Some f32_fadd_reduce_fadd
  | Vir.Vtype.F32, Vir.Instr.Fsub -> Some f32_fsub_reduce_fadd
  | Vir.Vtype.F32, Vir.Instr.Fdiv -> Some f32_fdiv_reduce_fadd
  | _ -> None

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
