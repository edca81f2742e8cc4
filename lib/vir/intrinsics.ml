(** VULFI's inbuilt table of x86 vector intrinsics.

    The paper (§II-D) notes that VULFI "maintains an inbuilt list of x86
    intrinsics, which classifies whether any given intrinsic performs a
    masked vector operation", and uses the mask operand to decide whether
    a vector lane is eligible for fault injection. This module is that
    table, plus the generic [llvm.*] math intrinsics the code generator
    emits. *)

type kind =
  | Maskload   (** masked vector load: [(ptr, mask) -> vec] *)
  | Maskstore  (** masked vector store: [(ptr, mask, value) -> void] *)
  | Math of string  (** pure lane-wise math function, e.g. "sqrt" *)
  | Reduce of string  (** cross-lane reduction: "add" | "min" | "max" *)

type info = {
  iname : string;
  kind : kind;
  (* Operand index of the execution mask, if the intrinsic is masked. *)
  mask_operand : int option;
  (* Operand index of the stored value, for store-like intrinsics. *)
  value_operand : int option;
  target : Target.t option;  (** None: target-independent *)
}

let mk ?(mask = None) ?(value = None) ?(target = None) iname kind =
  { iname; kind; mask_operand = mask; value_operand = value; target }

(* Masked load/store intrinsics modelled on LLVM 3.2's x86 AVX/SSE
   surface (cf. paper Fig 5). Signatures:
     maskload : (ptr, <n x i1>) -> <n x elt>
     maskstore: (ptr, <n x i1>, <n x elt>) -> void *)
let table =
  [
    mk "llvm.x86.avx.maskload.ps.256" Maskload ~mask:(Some 1)
      ~target:(Some Target.Avx);
    mk "llvm.x86.avx.maskstore.ps.256" Maskstore ~mask:(Some 1)
      ~value:(Some 2) ~target:(Some Target.Avx);
    mk "llvm.x86.avx.maskload.pd.256" Maskload ~mask:(Some 1)
      ~target:(Some Target.Avx);
    mk "llvm.x86.avx.maskstore.pd.256" Maskstore ~mask:(Some 1)
      ~value:(Some 2) ~target:(Some Target.Avx);
    mk "llvm.x86.avx.maskload.d.256" Maskload ~mask:(Some 1)
      ~target:(Some Target.Avx);
    mk "llvm.x86.avx.maskstore.d.256" Maskstore ~mask:(Some 1)
      ~value:(Some 2) ~target:(Some Target.Avx);
    mk "llvm.x86.avx.maskload.ps" Maskload ~mask:(Some 1)
      ~target:(Some Target.Sse);
    mk "llvm.x86.avx.maskstore.ps" Maskstore ~mask:(Some 1)
      ~value:(Some 2) ~target:(Some Target.Sse);
    mk "llvm.x86.avx.maskload.d" Maskload ~mask:(Some 1)
      ~target:(Some Target.Sse);
    mk "llvm.x86.avx.maskstore.d" Maskstore ~mask:(Some 1)
      ~value:(Some 2) ~target:(Some Target.Sse);
    (* Lane-wise math, lowered from mini-ISPC builtins. *)
    mk "llvm.sqrt" (Math "sqrt");
    mk "llvm.exp" (Math "exp");
    mk "llvm.log" (Math "log");
    mk "llvm.sin" (Math "sin");
    mk "llvm.cos" (Math "cos");
    mk "llvm.pow" (Math "pow");
    mk "llvm.fabs" (Math "fabs");
    mk "llvm.floor" (Math "floor");
    mk "llvm.minnum" (Math "min");
    mk "llvm.maxnum" (Math "max");
    (* Cross-lane reductions (ISPC's reduce_add / reduce_min / ...). *)
    mk "llvm.vector.reduce.add" (Reduce "add");
    mk "llvm.vector.reduce.or" (Reduce "or");
    mk "llvm.vector.reduce.fadd" (Reduce "add");
    mk "llvm.vector.reduce.min" (Reduce "min");
    mk "llvm.vector.reduce.max" (Reduce "max");
    mk "llvm.vector.reduce.fmin" (Reduce "min");
    mk "llvm.vector.reduce.fmax" (Reduce "max");
  ]

let is_intrinsic_name name = String.starts_with ~prefix:"llvm." name

(* Lookup is by prefix for the suffixed generic intrinsics
   (e.g. "llvm.sqrt.v8f32" matches the "llvm.sqrt" entry) and exact for
   the x86 ones. Every entry starts with "llvm.", so any other name —
   runtime, detector and benchmark externs — misses without a scan. *)
let lookup name =
  let matches info =
    let k = String.length info.iname in
    String.equal info.iname name
    || String.length name > k
       && name.[k] = '.'
       && String.starts_with ~prefix:info.iname name
  in
  if is_intrinsic_name name then List.find_opt matches table else None

let is_masked name =
  match lookup name with
  | Some { mask_operand = Some _; _ } -> true
  | _ -> false

let mask_operand name =
  match lookup name with Some i -> i.mask_operand | None -> None

let value_operand name =
  match lookup name with Some i -> i.value_operand | None -> None

(* Name of the masked load intrinsic for element type [s] on [target]. *)
let maskload_name target s =
  let suffix =
    match (s : Vtype.scalar) with
    | F32 -> "ps"
    | F64 -> "pd"
    | I32 -> "d"
    | _ -> invalid_arg "Intrinsics.maskload_name: unsupported element"
  in
  match target with
  | Target.Avx -> Printf.sprintf "llvm.x86.avx.maskload.%s.256" suffix
  | Target.Sse -> Printf.sprintf "llvm.x86.avx.maskload.%s" suffix

let maskstore_name target s =
  let suffix =
    match (s : Vtype.scalar) with
    | F32 -> "ps"
    | F64 -> "pd"
    | I32 -> "d"
    | _ -> invalid_arg "Intrinsics.maskstore_name: unsupported element"
  in
  match target with
  | Target.Avx -> Printf.sprintf "llvm.x86.avx.maskstore.%s.256" suffix
  | Target.Sse -> Printf.sprintf "llvm.x86.avx.maskstore.%s" suffix
