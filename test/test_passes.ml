(* Tests for dead-code elimination (mark/sweep correctness). *)

open Vir

let check = Alcotest.check

(* ---------------- DCE ---------------- *)

let test_dce_removes_dead_chain () =
  let m = Vmodule.create "dce" in
  let b = Builder.define m ~name:"f" ~params:[ ("x", Vtype.i32) ] ~ret_ty:Vtype.i32 in
  let entry = Builder.new_block b "entry" in
  Builder.position_at_end b entry;
  (* dead chain: d1 -> d2, never used *)
  let d1 = Builder.add b (Builder.param b "x") (Ir_samples.imm_i32 1) in
  let _d2 = Builder.mul b d1 (Ir_samples.imm_i32 2) in
  (* live value *)
  let live = Builder.add b (Builder.param b "x") (Ir_samples.imm_i32 10) in
  Builder.ret b (Some live);
  let removed = Dce.run_module m in
  check Alcotest.int "two dead instructions removed" 2 removed;
  Verify.check_module m;
  let f = Vmodule.find_func_exn m "f" in
  check Alcotest.int "two instructions left" 2
    (List.length (Func.all_instrs f))

let test_dce_keeps_effects () =
  let m = Ir_samples.vadd8_module () in
  let before = List.length (Func.all_instrs (Vmodule.find_func_exn m "vadd8")) in
  let removed = Dce.run_module m in
  check Alcotest.int "nothing removed from live code" 0 removed;
  check Alcotest.int "instruction count unchanged" before
    (List.length (Func.all_instrs (Vmodule.find_func_exn m "vadd8")))

let test_dce_removes_dead_phi_cycle () =
  (* A phi that only feeds its own backedge increment is dead. *)
  let m = Vmodule.create "cycle" in
  let b = Builder.define m ~name:"f" ~params:[ ("n", Vtype.i32) ] ~ret_ty:Vtype.Void in
  let entry = Builder.new_block b "entry" in
  let loop = Builder.new_block b "loop" in
  let exit = Builder.new_block b "exit" in
  ignore exit;
  Builder.position_at_end b entry;
  Builder.br b "loop";
  Builder.position_at_end b loop;
  let i = Builder.phi b Vtype.i32 [ ("entry", Ir_samples.imm_i32 0) ] in
  let dead = Builder.phi b Vtype.i32 [ ("entry", Ir_samples.imm_i32 0) ] in
  let inext = Builder.add b i (Ir_samples.imm_i32 1) in
  let deadnext = Builder.add b dead (Ir_samples.imm_i32 7) in
  let cond = Builder.icmp b Instr.Islt inext (Builder.param b "n") in
  Builder.condbr b cond "loop" "exit";
  Builder.add_phi_incoming b (Ir_samples.reg_of i) ~from:"loop" ~value:inext;
  Builder.add_phi_incoming b (Ir_samples.reg_of dead) ~from:"loop"
    ~value:deadnext;
  Builder.position_at_end b exit;
  Builder.ret b None;
  Verify.check_module m;
  let removed = Dce.run_module m in
  check Alcotest.int "dead phi cycle removed" 2 removed;
  Verify.check_module m

let test_dce_removes_dead_maskload () =
  let m = Vmodule.create "deadload" in
  let vty = Vtype.vector 8 Vtype.F32 in
  let b = Builder.define m ~name:"f" ~params:[ ("p", Vtype.ptr) ] ~ret_ty:Vtype.Void in
  let entry = Builder.new_block b "entry" in
  Builder.position_at_end b entry;
  let _dead_load = Builder.load b vty (Builder.param b "p") in
  let _dead_masked =
    Builder.call b ~ret:vty
      (Intrinsics.maskload_name Target.Avx Vtype.F32)
      [ Builder.param b "p";
        Instr.Imm (Const.splat 8 (Const.i1 true)) ]
  in
  Builder.ret b None;
  check Alcotest.int "dead loads removed" 2 (Dce.run_module m)

let () =
  Alcotest.run "passes"
    [
      ( "dce",
        [
          Alcotest.test_case "removes dead chain" `Quick
            test_dce_removes_dead_chain;
          Alcotest.test_case "keeps effectful code" `Quick
            test_dce_keeps_effects;
          Alcotest.test_case "removes dead phi cycle" `Quick
            test_dce_removes_dead_phi_cycle;
          Alcotest.test_case "removes dead loads" `Quick
            test_dce_removes_dead_maskload;
        ] );
    ]
