(* Differential fuzzing of the compiler pipeline.

   Random mini-ISPC kernels ({!Fuzz_kernels}) are generated as source
   text, pushed through the full production path (lexer -> parser ->
   typecheck -> codegen -> DCE -> verify -> VM) on both vector targets,
   and compared bit-for-bit against the independent AST-level SPMD
   evaluator in Spmd_ref. Any disagreement is a lowering bug (masking,
   phis, linearity detection, partial blocks, blending, ...). *)

open QCheck

let n_max = 37

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
    Gen.(triple Fuzz_kernels.kernel_gen (int_range 0 n_max) (int_range 0 1000))
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
