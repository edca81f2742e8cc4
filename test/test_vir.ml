(* Unit and property tests for the VIR substrate: types, constants,
   instructions, builder, verifier, printer, intrinsics table. *)

open Vir

let check = Alcotest.check
let ty_testable = Alcotest.testable Vtype.pp Vtype.equal

(* ---------------- Vtype ---------------- *)

let test_lanes () =
  check Alcotest.int "scalar has 1 lane" 1 (Vtype.lanes Vtype.f32);
  check Alcotest.int "vector lanes" 8 (Vtype.lanes (Vtype.vector 8 Vtype.F32));
  check Alcotest.int "void has 0 lanes" 0 (Vtype.lanes Vtype.Void)

let test_with_lanes () =
  check ty_testable "widen scalar" (Vtype.vector 4 Vtype.I32)
    (Vtype.with_lanes 4 Vtype.i32);
  check ty_testable "narrow to scalar" Vtype.i32
    (Vtype.with_lanes 1 (Vtype.vector 8 Vtype.I32));
  check ty_testable "rewiden" (Vtype.vector 8 Vtype.F64)
    (Vtype.with_lanes 8 (Vtype.vector 4 Vtype.F64))

let test_sizes () =
  check Alcotest.int "i1 bits" 1 (Vtype.scalar_bits Vtype.I1);
  check Alcotest.int "f32 bits" 32 (Vtype.scalar_bits Vtype.F32);
  check Alcotest.int "ptr bytes" 8 (Vtype.scalar_bytes Vtype.Ptr);
  check Alcotest.int "<8 x f32> bytes" 32
    (Vtype.size_bytes (Vtype.vector 8 Vtype.F32));
  check Alcotest.int "void bytes" 0 (Vtype.size_bytes Vtype.Void)

let test_predicates () =
  Alcotest.(check bool) "f32 is float" true (Vtype.is_float Vtype.f32);
  Alcotest.(check bool) "<4 x i32> is int" true
    (Vtype.is_int (Vtype.vector 4 Vtype.I32));
  Alcotest.(check bool) "ptr is not int" false (Vtype.is_int Vtype.ptr);
  Alcotest.(check bool) "ptr is ptr" true (Vtype.is_ptr Vtype.ptr);
  Alcotest.(check bool) "vector detected" true
    (Vtype.is_vector (Vtype.vector 2 Vtype.I64))

let test_to_string () =
  check Alcotest.string "vector syntax" "<8 x float>"
    (Vtype.to_string (Vtype.vector 8 Vtype.F32));
  check Alcotest.string "scalar" "i32" (Vtype.to_string Vtype.i32);
  check Alcotest.string "void" "void" (Vtype.to_string Vtype.Void)

(* ---------------- Const ---------------- *)

let test_const_ty () =
  check ty_testable "i32 const" Vtype.i32 (Const.ty (Const.i32 42));
  check ty_testable "splat" (Vtype.vector 4 Vtype.F32)
    (Const.ty (Const.splat 4 (Const.f32 1.0)));
  check ty_testable "iota" (Vtype.vector 8 Vtype.I32)
    (Const.ty (Const.iota Vtype.I32 8))

let test_const_f32_rounding () =
  match Const.f32 1.1 with
  | Const.Cfloat (_, x) ->
    Alcotest.(check bool) "pre-rounded to f32" true
      (Int32.float_of_bits (Int32.bits_of_float x) = x && x <> 1.1)
  | _ -> Alcotest.fail "expected Cfloat"

let test_const_equal () =
  Alcotest.(check bool) "equal splats" true
    (Const.equal (Const.splat 4 (Const.i32 7)) (Const.splat 4 (Const.i32 7)));
  Alcotest.(check bool) "different lanes" false
    (Const.equal (Const.splat 4 (Const.i32 7)) (Const.splat 8 (Const.i32 7)));
  Alcotest.(check bool) "int vs float" false
    (Const.equal (Const.i32 0) (Const.f32 0.0))

let test_const_zero () =
  check ty_testable "zero of vector type" (Vtype.vector 4 Vtype.F64)
    (Const.ty (Const.zero_of_ty (Vtype.vector 4 Vtype.F64)))

(* ---------------- Instr ---------------- *)

let dummy_add =
  {
    Instr.id = 10;
    name = "t10";
    ty = Vtype.i32;
    op =
      Instr.Ibinop
        (Instr.Add, Instr.Reg (1, Vtype.i32), Instr.Reg (2, Vtype.i32));
  }

let test_instr_uses () =
  check Alcotest.(list int) "uses" [ 1; 2 ] (Instr.uses dummy_add);
  let st =
    {
      Instr.id = -1;
      name = "";
      ty = Vtype.Void;
      op = Instr.Store (Instr.Reg (3, Vtype.f32), Instr.Reg (4, Vtype.ptr));
    }
  in
  check Alcotest.(list int) "store uses" [ 3; 4 ] (Instr.uses st);
  Alcotest.(check bool) "store defines nothing" false (Instr.defines st)

let test_instr_classify () =
  Alcotest.(check bool) "condbr is control flow" true
    (Instr.is_control_flow
       {
         Instr.id = -1;
         name = "";
         ty = Vtype.Void;
         op = Instr.Condbr (Instr.Imm (Const.i1 true), "a", "b");
       });
  Alcotest.(check bool) "br is not a control site source" false
    (Instr.is_control_flow
       { Instr.id = -1; name = ""; ty = Vtype.Void; op = Instr.Br "a" });
  Alcotest.(check bool) "vector result means vector instr" true
    (Instr.is_vector_instr
       {
         Instr.id = 0;
         name = "v";
         ty = Vtype.vector 4 Vtype.F32;
         op = Instr.Load (Instr.Reg (1, Vtype.ptr));
       });
  Alcotest.(check bool) "vector operand means vector instr" true
    (Instr.is_vector_instr
       {
         Instr.id = 0;
         name = "v";
         ty = Vtype.f32;
         op =
           Instr.Extractelement
             ( Instr.Reg (1, Vtype.vector 4 Vtype.F32),
               Instr.Imm (Const.i32 0) );
       })

let test_successors () =
  let cb =
    {
      Instr.id = -1;
      name = "";
      ty = Vtype.Void;
      op = Instr.Condbr (Instr.Imm (Const.i1 true), "x", "y");
    }
  in
  check Alcotest.(list string) "condbr successors" [ "x"; "y" ]
    (Instr.successors cb)

(* ---------------- Builder & Verify ---------------- *)

let test_builder_scale_add_verifies () =
  let m = Ir_samples.scale_add_module () in
  check Alcotest.(list string) "no verifier errors" []
    (List.map Verify.error_to_string (Verify.verify_module m))

let test_builder_vadd8_verifies () =
  let m = Ir_samples.vadd8_module () in
  check Alcotest.(list string) "no verifier errors" []
    (List.map Verify.error_to_string (Verify.verify_module m))

let test_builder_masked_copy_verifies () =
  List.iter
    (fun tgt ->
      let m = Ir_samples.masked_copy_module tgt in
      check Alcotest.(list string)
        ("no verifier errors " ^ Target.name tgt)
        []
        (List.map Verify.error_to_string (Verify.verify_module m)))
    Target.all

let test_builder_fig3_verifies () =
  let m, _, _, _, _ = Ir_samples.fig3_foo_module () in
  check Alcotest.(list string) "no verifier errors" []
    (List.map Verify.error_to_string (Verify.verify_module m))

let test_broadcast_shape () =
  (* Broadcast must lower to insertelement + shufflevector (Fig 9). *)
  let m = Vmodule.create "bc" in
  let b =
    Builder.define m ~name:"bc" ~params:[ ("x", Vtype.f32) ]
      ~ret_ty:(Vtype.vector 8 Vtype.F32)
  in
  let entry = Builder.new_block b "entry" in
  Builder.position_at_end b entry;
  let v = Builder.broadcast b (Builder.param b "x") 8 in
  Builder.ret b (Some v);
  Verify.check_module m;
  let f = Vmodule.find_func_exn m "bc" in
  let ops =
    List.filter_map
      (fun (i : Instr.t) ->
        match i.Instr.op with
        | Instr.Insertelement _ -> Some "insertelement"
        | Instr.Shufflevector _ -> Some "shufflevector"
        | _ -> None)
      (Func.all_instrs f)
  in
  check Alcotest.(list string) "ISPC broadcast shape"
    [ "insertelement"; "shufflevector" ] ops

let expect_errors m expected_substring =
  let errs = Verify.verify_module m in
  let all = String.concat "\n" (List.map Verify.error_to_string errs) in
  Alcotest.(check bool)
    (Printf.sprintf "expected error mentioning %S, got: %s" expected_substring
       all)
    true
    (errs <> [] && Astring_contains.contains all expected_substring)

let test_verify_rejects_double_def () =
  let m = Vmodule.create "bad" in
  let b = Builder.define m ~name:"bad" ~params:[] ~ret_ty:Vtype.i32 in
  let entry = Builder.new_block b "entry" in
  Builder.position_at_end b entry;
  let x = Builder.add b (Ir_samples.imm_i32 1) (Ir_samples.imm_i32 2) in
  let r = Ir_samples.reg_of x in
  entry.Block.instrs <-
    entry.Block.instrs
    @ [
        {
          Instr.id = r;
          name = "dup";
          ty = Vtype.i32;
          op = Instr.Ibinop (Instr.Add, x, x);
        };
      ];
  Builder.ret b (Some x);
  expect_errors m "defined twice"

let test_verify_rejects_type_mismatch () =
  let m = Vmodule.create "bad" in
  let b = Builder.define m ~name:"bad" ~params:[] ~ret_ty:Vtype.Void in
  let entry = Builder.new_block b "entry" in
  Builder.position_at_end b entry;
  ignore
    (Builder.emit b Vtype.i32
       (Instr.Ibinop (Instr.Add, Ir_samples.imm_i32 1, Ir_samples.imm_f32 1.0)));
  Builder.ret b None;
  expect_errors m "mismatch"

let test_verify_rejects_float_binop_on_int () =
  let m = Vmodule.create "bad" in
  let b = Builder.define m ~name:"bad" ~params:[] ~ret_ty:Vtype.Void in
  let entry = Builder.new_block b "entry" in
  Builder.position_at_end b entry;
  ignore
    (Builder.emit b Vtype.i32
       (Instr.Fbinop (Instr.Fadd, Ir_samples.imm_i32 1, Ir_samples.imm_i32 2)));
  Builder.ret b None;
  expect_errors m "float binop on non-float"

let test_verify_rejects_unknown_label () =
  let m = Vmodule.create "bad" in
  let b = Builder.define m ~name:"bad" ~params:[] ~ret_ty:Vtype.Void in
  let entry = Builder.new_block b "entry" in
  Builder.position_at_end b entry;
  Builder.br b "nowhere";
  expect_errors m "unknown label"

let test_verify_rejects_missing_terminator () =
  let m = Vmodule.create "bad" in
  let b = Builder.define m ~name:"bad" ~params:[] ~ret_ty:Vtype.Void in
  let entry = Builder.new_block b "entry" in
  Builder.position_at_end b entry;
  ignore (Builder.add b (Ir_samples.imm_i32 1) (Ir_samples.imm_i32 2));
  expect_errors m "terminator"

let test_verify_rejects_use_before_def () =
  let m = Vmodule.create "bad" in
  let b = Builder.define m ~name:"bad" ~params:[] ~ret_ty:Vtype.Void in
  let entry = Builder.new_block b "entry" in
  Builder.position_at_end b entry;
  ignore
    (Builder.emit b Vtype.i32
       (Instr.Ibinop
          (Instr.Add, Instr.Reg (99, Vtype.i32), Ir_samples.imm_i32 1)));
  Builder.ret b None;
  expect_errors m "undefined register"

let test_verify_rejects_dominance_violation () =
  let m = Vmodule.create "bad" in
  let b =
    Builder.define m ~name:"bad"
      ~params:[ ("c", Vtype.bool_ty) ]
      ~ret_ty:Vtype.Void
  in
  let entry = Builder.new_block b "entry" in
  let left = Builder.new_block b "left" in
  let right = Builder.new_block b "right" in
  let join = Builder.new_block b "join" in
  ignore (entry, left, right, join);
  Builder.position_at_end b entry;
  Builder.condbr b (Builder.param b "c") "left" "right";
  Builder.position_at_end b left;
  let x = Builder.add b (Ir_samples.imm_i32 1) (Ir_samples.imm_i32 2) in
  Builder.br b "join";
  Builder.position_at_end b right;
  Builder.br b "join";
  Builder.position_at_end b join;
  ignore (Builder.add b x (Ir_samples.imm_i32 1));
  Builder.ret b None;
  expect_errors m "not dominated"

let test_verify_rejects_bad_phi_preds () =
  let m = Vmodule.create "bad" in
  let b = Builder.define m ~name:"bad" ~params:[] ~ret_ty:Vtype.Void in
  let entry = Builder.new_block b "entry" in
  let next = Builder.new_block b "next" in
  ignore (entry, next);
  Builder.position_at_end b entry;
  Builder.br b "next";
  Builder.position_at_end b next;
  ignore
    (Builder.phi b Vtype.i32
       [ ("entry", Ir_samples.imm_i32 0); ("ghost", Ir_samples.imm_i32 1) ]);
  Builder.ret b None;
  expect_errors m "phi"

let test_verify_rejects_condbr_on_vector () =
  let m = Vmodule.create "bad" in
  let b =
    Builder.define m ~name:"bad"
      ~params:[ ("c", Vtype.vector 4 Vtype.I1) ]
      ~ret_ty:Vtype.Void
  in
  let entry = Builder.new_block b "entry" in
  let t = Builder.new_block b "t" in
  ignore (entry, t);
  Builder.position_at_end b entry;
  Builder.condbr b (Builder.param b "c") "t" "t";
  Builder.position_at_end b t;
  Builder.ret b None;
  expect_errors m "scalar i1"

let test_verify_rejects_call_arity () =
  let m = Ir_samples.vadd8_module () in
  let b = Builder.define m ~name:"caller" ~params:[] ~ret_ty:Vtype.Void in
  let entry = Builder.new_block b "entry" in
  Builder.position_at_end b entry;
  ignore (entry);
  ignore (Builder.call b ~ret:Vtype.Void "vadd8" [ Ir_samples.imm_i32 0 ]);
  Builder.ret b None;
  expect_errors m "arity"

(* A cast's width rules, as LLVM's: trunc and fptrunc narrow, the
   extensions widen, and a bitcast keeps the bit width and takes no
   pointer (the VM refuses those, i1 <-> i8 included). Each case is a
   one-cast module @go(%a) = cast %a; the admitted ones must verify. *)
let test_verify_cast_widths () =
  let cast_module k src dst =
    let m = Vmodule.create "cast" in
    let b =
      Builder.define m ~name:"go" ~params:[ ("a", Vtype.scalar src) ]
        ~ret_ty:(Vtype.scalar dst)
    in
    Builder.position_at_end b (Builder.new_block b "entry");
    let a = Builder.param b "a" in
    Builder.ret b (Some (Builder.cast b k a (Vtype.scalar dst)));
    m
  in
  List.iter
    (fun (k, src, dst, err) -> expect_errors (cast_module k src dst) err)
    Instr.
      [
        (Trunc, Vtype.I8, Vtype.I64, "trunc must narrow");
        (Trunc, Vtype.I32, Vtype.I32, "trunc must narrow");
        (Zext, Vtype.I32, Vtype.I32, "zext must widen");
        (Sext, Vtype.I64, Vtype.I8, "sext must widen");
        (Fptrunc, Vtype.F32, Vtype.F64, "fptrunc must narrow");
        (Fpext, Vtype.F64, Vtype.F32, "fpext must widen");
        (Bitcast, Vtype.I1, Vtype.I8, "bitcast size mismatch");
        (Bitcast, Vtype.Ptr, Vtype.I64, "bitcast of a pointer");
        (Bitcast, Vtype.I64, Vtype.Ptr, "bitcast of a pointer");
      ];
  List.iter
    (fun (k, src, dst) -> Verify.check_module (cast_module k src dst))
    Instr.
      [
        (Trunc, Vtype.I64, Vtype.I1);
        (Sext, Vtype.I1, Vtype.I32);
        (Zext, Vtype.I8, Vtype.I64);
        (Fpext, Vtype.F32, Vtype.F64);
        (Fptrunc, Vtype.F64, Vtype.F32);
        (Bitcast, Vtype.F32, Vtype.I32);
        (Bitcast, Vtype.I64, Vtype.F64);
      ]

(* ---------------- Pp ---------------- *)

let test_pp_function () =
  let m = Ir_samples.vadd8_module () in
  let s = Pp.module_to_string m in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "printout contains %S" needle)
        true
        (Astring_contains.contains s needle))
    [
      "define void @vadd8";
      "load <8 x float>";
      "fadd <8 x float>";
      "store";
      "ret void";
      "entry:";
    ]

let test_pp_masked_intrinsics () =
  let m = Ir_samples.masked_copy_module Target.Avx in
  let s = Pp.module_to_string m in
  Alcotest.(check bool) "maskload printed" true
    (Astring_contains.contains s "llvm.x86.avx.maskload.ps.256");
  Alcotest.(check bool) "maskstore printed" true
    (Astring_contains.contains s "llvm.x86.avx.maskstore.ps.256")

(* ---------------- Intrinsics ---------------- *)

let test_intrinsics_masked () =
  Alcotest.(check bool) "avx maskload is masked" true
    (Intrinsics.is_masked "llvm.x86.avx.maskload.ps.256");
  Alcotest.(check bool) "sqrt not masked" false
    (Intrinsics.is_masked "llvm.sqrt.v8f32");
  check
    Alcotest.(option int)
    "mask operand index" (Some 1)
    (Intrinsics.mask_operand "llvm.x86.avx.maskstore.ps.256");
  check
    Alcotest.(option int)
    "value operand index" (Some 2)
    (Intrinsics.value_operand "llvm.x86.avx.maskstore.ps.256")

let test_intrinsics_prefix_lookup () =
  Alcotest.(check bool) "suffixed sqrt resolves" true
    (Option.is_some (Intrinsics.lookup "llvm.sqrt.v8f32"));
  Alcotest.(check bool) "exact sqrt resolves" true
    (Option.is_some (Intrinsics.lookup "llvm.sqrt"));
  Alcotest.(check bool) "sqrtx does not resolve" false
    (Option.is_some (Intrinsics.lookup "llvm.sqrtx"));
  Alcotest.(check bool) "unknown" false
    (Option.is_some (Intrinsics.lookup "llvm.x86.avx2.gather"))

let test_intrinsics_names_by_target () =
  check Alcotest.string "avx f32 store" "llvm.x86.avx.maskstore.ps.256"
    (Intrinsics.maskstore_name Target.Avx Vtype.F32);
  check Alcotest.string "sse f32 load" "llvm.x86.avx.maskload.ps"
    (Intrinsics.maskload_name Target.Sse Vtype.F32);
  check Alcotest.string "avx i32 load" "llvm.x86.avx.maskload.d.256"
    (Intrinsics.maskload_name Target.Avx Vtype.I32)

let test_target () =
  check Alcotest.int "avx vl" 8 (Target.vl Target.Avx);
  check Alcotest.int "sse vl" 4 (Target.vl Target.Sse);
  check Alcotest.int "avx f64 lanes" 4 (Target.vl_for Target.Avx Vtype.F64);
  check Alcotest.int "sse i64 lanes" 2 (Target.vl_for Target.Sse Vtype.I64);
  check
    Alcotest.(option string)
    "parse avx" (Some "AVX")
    (Option.map Target.name (Target.of_string "avx"));
  check
    Alcotest.(option string)
    "parse junk" None
    (Option.map Target.name (Target.of_string "mmx"))

(* ---------------- qcheck properties ---------------- *)

let scalar_gen =
  QCheck.Gen.oneofl
    [ Vtype.I1; Vtype.I8; Vtype.I32; Vtype.I64; Vtype.F32; Vtype.F64; Vtype.Ptr ]

let ty_gen =
  QCheck.Gen.(
    oneof
      [
        map Vtype.scalar scalar_gen;
        map2 (fun n s -> Vtype.vector n s) (oneofl [ 2; 4; 8; 16 ]) scalar_gen;
      ])

let prop_with_lanes_roundtrip =
  QCheck.Test.make ~name:"with_lanes preserves element scalar" ~count:200
    (QCheck.make ty_gen) (fun t ->
      let t' = Vtype.with_lanes 4 t in
      Vtype.elem t' = Vtype.elem t && Vtype.lanes t' = 4)

let prop_size_lanes =
  QCheck.Test.make ~name:"size = lanes * elem size" ~count:200
    (QCheck.make ty_gen) (fun t ->
      Vtype.size_bytes t = Vtype.lanes t * Vtype.scalar_bytes (Vtype.elem t))

let prop_const_splat_ty =
  QCheck.Test.make ~name:"splat type has requested lanes" ~count:200
    QCheck.(pair (int_range 2 16) int)
    (fun (n, x) -> Vtype.lanes (Const.ty (Const.splat n (Const.i32 x))) = n)

let () =
  Alcotest.run "vir"
    [
      ( "vtype",
        [
          Alcotest.test_case "lanes" `Quick test_lanes;
          Alcotest.test_case "with_lanes" `Quick test_with_lanes;
          Alcotest.test_case "sizes" `Quick test_sizes;
          Alcotest.test_case "predicates" `Quick test_predicates;
          Alcotest.test_case "to_string" `Quick test_to_string;
        ] );
      ( "const",
        [
          Alcotest.test_case "ty" `Quick test_const_ty;
          Alcotest.test_case "f32 rounding" `Quick test_const_f32_rounding;
          Alcotest.test_case "equal" `Quick test_const_equal;
          Alcotest.test_case "zero_of_ty" `Quick test_const_zero;
        ] );
      ( "instr",
        [
          Alcotest.test_case "uses" `Quick test_instr_uses;
          Alcotest.test_case "classification" `Quick test_instr_classify;
          Alcotest.test_case "successors" `Quick test_successors;
        ] );
      ( "builder+verify",
        [
          Alcotest.test_case "scale_add verifies" `Quick
            test_builder_scale_add_verifies;
          Alcotest.test_case "vadd8 verifies" `Quick
            test_builder_vadd8_verifies;
          Alcotest.test_case "masked copy verifies" `Quick
            test_builder_masked_copy_verifies;
          Alcotest.test_case "fig3 foo verifies" `Quick
            test_builder_fig3_verifies;
          Alcotest.test_case "broadcast shape" `Quick test_broadcast_shape;
          Alcotest.test_case "rejects double def" `Quick
            test_verify_rejects_double_def;
          Alcotest.test_case "rejects type mismatch" `Quick
            test_verify_rejects_type_mismatch;
          Alcotest.test_case "rejects fbinop on int" `Quick
            test_verify_rejects_float_binop_on_int;
          Alcotest.test_case "rejects unknown label" `Quick
            test_verify_rejects_unknown_label;
          Alcotest.test_case "rejects missing terminator" `Quick
            test_verify_rejects_missing_terminator;
          Alcotest.test_case "rejects use before def" `Quick
            test_verify_rejects_use_before_def;
          Alcotest.test_case "rejects dominance violation" `Quick
            test_verify_rejects_dominance_violation;
          Alcotest.test_case "rejects bad phi preds" `Quick
            test_verify_rejects_bad_phi_preds;
          Alcotest.test_case "rejects vector condbr" `Quick
            test_verify_rejects_condbr_on_vector;
          Alcotest.test_case "rejects call arity" `Quick
            test_verify_rejects_call_arity;
          Alcotest.test_case "cast width rules" `Quick test_verify_cast_widths;
        ] );
      ( "pp",
        [
          Alcotest.test_case "function printing" `Quick test_pp_function;
          Alcotest.test_case "masked intrinsics printing" `Quick
            test_pp_masked_intrinsics;
        ] );
      ( "intrinsics",
        [
          Alcotest.test_case "masked classification" `Quick
            test_intrinsics_masked;
          Alcotest.test_case "prefix lookup" `Quick
            test_intrinsics_prefix_lookup;
          Alcotest.test_case "names by target" `Quick
            test_intrinsics_names_by_target;
          Alcotest.test_case "targets" `Quick test_target;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_with_lanes_roundtrip; prop_size_lanes; prop_const_splat_ty ]
      );
    ]
