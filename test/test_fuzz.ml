(* Differential fuzzing of the compiler pipeline.

   Random mini-ISPC kernels are generated as source text, pushed through
   the full production path (lexer -> parser -> typecheck -> codegen ->
   DCE -> verify -> VM) on both vector targets, and compared bit-for-bit
   against the independent AST-level SPMD evaluator in Spmd_ref. Any
   disagreement is a lowering bug (masking, phis, linearity detection,
   partial blocks, blending, ...). *)

open QCheck

let n_max = 37

(* ---------------- random kernel generation ---------------- *)

(* Expressions printed as source text. Magnitudes are kept small enough
   that f32 arithmetic cannot overflow to inf/nan at the given depth. *)
let const_gen =
  Gen.map
    (fun k -> Printf.sprintf "%.1f" (float_of_int k /. 2.0))
    (Gen.int_range (-8) 8)

let rec expr_gen ~vars depth =
  let open Gen in
  if depth = 0 then
    oneof
      [
        const_gen;
        oneofl [ "a[i]"; "b[i]"; "(float) i" ];
        (match vars with
        | [] -> const_gen
        | vs -> oneofl vs);
      ]
  else
    let sub = expr_gen ~vars (depth - 1) in
    oneof
      [
        map2 (fun x y -> Printf.sprintf "(%s + %s)" x y) sub sub;
        map2 (fun x y -> Printf.sprintf "(%s - %s)" x y) sub sub;
        map2 (fun x y -> Printf.sprintf "(%s * %s)" x y) sub sub;
        map2 (fun x y -> Printf.sprintf "min(%s, %s)" x y) sub sub;
        map2 (fun x y -> Printf.sprintf "max(%s, %s)" x y) sub sub;
        map (fun x -> Printf.sprintf "abs(%s)" x) sub;
        map (fun x -> Printf.sprintf "sqrt(abs(%s))" x) sub;
        sub;
      ]

(* Conditions always reference a (varying) local so that nested ifs stay
   varying — uniform control flow under a varying mask is rejected by
   the typechecker, as in ISPC's restrictions. *)
let cond_gen ~vars depth =
  let open Gen in
  let v = oneofl vars in
  let e = expr_gen ~vars depth in
  let base =
    oneof
      [
        map2 (fun x y -> Printf.sprintf "%s < %s" x y) v e;
        map2 (fun x y -> Printf.sprintf "%s > %s" x y) v e;
        map2 (fun x y -> Printf.sprintf "%s <= %s" x y) v e;
      ]
  in
  oneof
    [
      base;
      map2 (fun c1 c2 -> Printf.sprintf "(%s) && (%s)" c1 c2) base base;
      map2 (fun c1 c2 -> Printf.sprintf "(%s) || (%s)" c1 c2) base base;
    ]

(* Optional inner uniform for-loop, exercising the step-block lowering,
   loop-carried phis and uniform break/continue. *)
let inner_loop_gen =
  let open Gen in
  let* trip = int_range 1 6 in
  let* acc_e = expr_gen ~vars:[ "x"; "y" ] 1 in
  let* kind = int_range 0 2 in
  let body =
    match kind with
    | 0 -> Printf.sprintf "x = x + %s * 0.1;" acc_e
    | 1 ->
      Printf.sprintf
        "if (j > %d) { break; }\n x = x + %s * 0.1;" (trip / 2) acc_e
    | _ ->
      Printf.sprintf
        "if (j == %d) { continue; }\n x = x + %s * 0.1;" (trip / 2) acc_e
  in
  return
    (Printf.sprintf
       "for (uniform int j = 0; j < %d; j += 1) {\n %s\n}\n" trip body)

let kernel_gen =
  let open Gen in
  let* d1 = expr_gen ~vars:[] 2 in
  let* d2 = expr_gen ~vars:[ "x" ] 2 in
  let* with_if = bool in
  let* with_else = bool in
  let* cond = cond_gen ~vars:[ "x"; "y" ] 1 in
  let* then_e = expr_gen ~vars:[ "x"; "y" ] 2 in
  let* else_e = expr_gen ~vars:[ "x"; "y" ] 2 in
  let* nested = bool in
  let* nested_cond = cond_gen ~vars:[ "x"; "y" ] 0 in
  let* nested_e = expr_gen ~vars:[ "x"; "y" ] 1 in
  let* with_loop = bool in
  let* inner = inner_loop_gen in
  let* store_a = expr_gen ~vars:[ "x"; "y" ] 2 in
  let* with_store_b = bool in
  let* store_b = expr_gen ~vars:[ "x"; "y" ] 1 in
  let body = Buffer.create 256 in
  Buffer.add_string body (Printf.sprintf "float x = %s;\n" d1);
  Buffer.add_string body (Printf.sprintf "float y = %s;\n" d2);
  if with_if then begin
    Buffer.add_string body (Printf.sprintf "if (%s) {\n x = %s;\n" cond then_e);
    if nested then
      Buffer.add_string body
        (Printf.sprintf " if (%s) { y = %s; }\n" nested_cond nested_e);
    Buffer.add_string body "}";
    if with_else then
      Buffer.add_string body (Printf.sprintf " else {\n y = %s;\n}" else_e);
    Buffer.add_string body "\n"
  end;
  if with_loop then Buffer.add_string body inner;
  Buffer.add_string body (Printf.sprintf "a[i] = %s;\n" store_a);
  if with_store_b then
    Buffer.add_string body (Printf.sprintf "b[i] = %s;\n" store_b);
  return
    (Printf.sprintf
       "export void kernel(uniform float a[], uniform float b[], uniform \
        int n) {\nforeach (i = 0 ... n) {\n%s}\n}"
       (Buffer.contents body))

(* ---------------- execution on both paths ---------------- *)

let inputs seed =
  let rng = Benchmarks.Prng.create seed in
  ( Benchmarks.Prng.f32_array rng n_max (-4.0) 4.0,
    Benchmarks.Prng.f32_array rng n_max (-4.0) 4.0 )

let run_vm target src n seed =
  let m = Minispc.Driver.compile target src in
  let st = Interp.Machine.create (Interp.Compile.compile_module m) in
  let mem = Interp.Machine.memory st in
  let a0, b0 = inputs seed in
  let a = Interp.Memory.alloc mem ~name:"a" ~bytes:(4 * n_max) in
  let b = Interp.Memory.alloc mem ~name:"b" ~bytes:(4 * n_max) in
  Interp.Memory.write_f32_array mem a a0;
  Interp.Memory.write_f32_array mem b b0;
  ignore
    (Interp.Machine.run st "kernel"
       [ Interp.Vvalue.of_ptr a; Interp.Vvalue.of_ptr b;
         Interp.Vvalue.of_i32 n ]);
  (Interp.Memory.read_f32_array mem a n_max,
   Interp.Memory.read_f32_array mem b n_max)

let run_ref vl src n seed =
  let prog = Minispc.Driver.frontend src in
  let a0, b0 = inputs seed in
  let a = Array.copy a0 and b = Array.copy b0 in
  Spmd_ref.run_func ~vl prog ~fn:"kernel"
    ~arrays:[ ("a", Spmd_ref.Farr a); ("b", Spmd_ref.Farr b) ]
    ~scalars:[ ("n", Spmd_ref.Ui (Int64.of_int n)) ];
  (a, b)

let bits = Array.map Int64.bits_of_float

let agree (a1, b1) (a2, b2) = bits a1 = bits a2 && bits b1 = bits b2

(* ---------------- properties ---------------- *)

let fuzz_case =
  make
    Gen.(triple kernel_gen (int_range 0 n_max) (int_range 0 1000))
    ~print:(fun (src, n, seed) ->
      Printf.sprintf "n=%d seed=%d\n%s" n seed src)

let prop_vm_matches_reference_avx =
  Test.make ~name:"compiled AVX matches SPMD reference (bit-exact)"
    ~count:120 fuzz_case (fun (src, n, seed) ->
      agree (run_vm Vir.Target.Avx src n seed) (run_ref 8 src n seed))

let prop_vm_matches_reference_sse =
  Test.make ~name:"compiled SSE matches SPMD reference (bit-exact)"
    ~count:120 fuzz_case (fun (src, n, seed) ->
      agree (run_vm Vir.Target.Sse src n seed) (run_ref 4 src n seed))

let prop_fusion_off_agrees =
  (* [run_vm] compiles with fusion on; the same kernel compiled with
     every chain one closure per member must agree bit-exactly. *)
  Test.make ~name:"fusion off matches fused on fuzzed kernels" ~count:60
    fuzz_case (fun (src, n, seed) ->
      let unfused =
        let saved = !Interp.Compile.fusion in
        Interp.Compile.fusion := false;
        Fun.protect
          ~finally:(fun () -> Interp.Compile.fusion := saved)
          (fun () -> run_vm Vir.Target.Avx src n seed)
      in
      agree unfused (run_vm Vir.Target.Avx src n seed))

let prop_instrumented_profile_agrees =
  (* profile-mode instrumentation must be transparent on any kernel *)
  Test.make ~name:"instrumented profile run matches plain run" ~count:40
    fuzz_case (fun (src, n, seed) ->
      let m = Minispc.Driver.compile Vir.Target.Avx src in
      let targets = Analysis.Sites.targets_of_module m in
      ignore (Vulfi.Instrument.run m targets);
      let rt = Vulfi.Runtime.create Vulfi.Runtime.Profile in
      let st = Interp.Machine.create (Interp.Compile.compile_module m) in
      Vulfi.Runtime.attach rt st;
      let mem = Interp.Machine.memory st in
      let a0, b0 = inputs seed in
      let a = Interp.Memory.alloc mem ~name:"a" ~bytes:(4 * n_max) in
      let b = Interp.Memory.alloc mem ~name:"b" ~bytes:(4 * n_max) in
      Interp.Memory.write_f32_array mem a a0;
      Interp.Memory.write_f32_array mem b b0;
      ignore
        (Interp.Machine.run st "kernel"
           [ Interp.Vvalue.of_ptr a; Interp.Vvalue.of_ptr b;
             Interp.Vvalue.of_i32 n ]);
      agree
        ( Interp.Memory.read_f32_array mem a n_max,
          Interp.Memory.read_f32_array mem b n_max )
        (run_vm Vir.Target.Avx src n seed))

let () =
  Alcotest.run "fuzz"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_vm_matches_reference_avx;
            prop_vm_matches_reference_sse;
            prop_fusion_off_agrees;
            prop_instrumented_profile_agrees;
          ] );
    ]
