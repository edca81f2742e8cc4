(* Tests for the closure-threading stage: call-arity and shuffle-mask
   enforcement, the extern-slot contract, the pinned NaN semantics of
   the float reductions, and a differential property checking the
   threaded VM against the exposed lane evaluators on random
   straight-line programs. *)

open Vir
open Interp

let check = Alcotest.check

(* ---------------- call arity ---------------- *)

(* Machine.run with the wrong argument count must raise, not silently
   zero-fill or drop arguments. *)
let test_run_arity () =
  let m = Ir_samples.vadd8_module () in
  let st = Machine.create (Compile.compile_module m) in
  Alcotest.(check bool) "run arity raises" true
    (try
       ignore (Machine.run st "vadd8" [ Vvalue.of_ptr 0L ]);
       false
     with Invalid_argument msg ->
       check Alcotest.string "message names the function"
         "Machine: call to @vadd8 with 1 argument(s), expects 3" msg;
       true)

(* An in-module call with the wrong arity raises when the call executes.
   The module deliberately skips Verify — the threading stage must hold
   the line on its own. *)
let test_call_arity () =
  let m = Vmodule.create "arity" in
  let callee =
    Builder.define m ~name:"callee"
      ~params:[ ("x", Vtype.i32) ]
      ~ret_ty:Vtype.i32
  in
  let e = Builder.new_block callee "entry" in
  Builder.position_at_end callee e;
  Builder.ret callee (Some (Builder.param callee "x"));
  let caller = Builder.define m ~name:"caller" ~params:[] ~ret_ty:Vtype.i32 in
  let e = Builder.new_block caller "entry" in
  Builder.position_at_end caller e;
  let r =
    Builder.call caller ~ret:Vtype.i32 "callee"
      [ Ir_samples.imm_i32 1; Ir_samples.imm_i32 2 ]
  in
  Builder.ret caller (Some r);
  (* compilation itself succeeds; only executing the bad call raises *)
  let st = Machine.create (Compile.compile_module m) in
  Alcotest.(check bool) "in-module call arity raises" true
    (try
       ignore (Machine.run st "caller" []);
       false
     with Invalid_argument _ -> true)

(* A shufflevector whose mask indexes outside [0, 2n) is rejected by the
   threading stage itself, loudly, instead of reading out of bounds. *)
let test_bad_shuffle_mask () =
  let m = Vmodule.create "shuffle" in
  let b = Builder.define m ~name:"f" ~params:[] ~ret_ty:Vtype.i32 in
  Builder.position_at_end b (Builder.new_block b "entry");
  let va = Instr.Imm (Const.iota Vtype.I32 4) in
  let vb = Instr.Imm (Const.splat 4 (Const.i32 9)) in
  let s = Builder.shufflevector b va vb [| 0; 99; 2; 3 |] in
  Builder.ret b (Some (Builder.extractelement b s (Ir_samples.imm_i32 0)));
  Alcotest.(check bool) "threading rejects the bad mask" true
    (try
       ignore (Compile.compile_module m);
       false
     with Invalid_argument _ -> true)

(* ---------------- extern slots ---------------- *)

let test_extern_slots () =
  let m = Vmodule.create "ext" in
  Vmodule.declare_extern m ~name:"host_id" ~arg_tys:[ Vtype.i32 ]
    ~ret:Vtype.i32;
  let b = Builder.define m ~name:"go" ~params:[] ~ret_ty:Vtype.i32 in
  let e = Builder.new_block b "entry" in
  Builder.position_at_end b e;
  let r = Builder.call b ~ret:Vtype.i32 "host_id" [ Ir_samples.imm_i32 7 ] in
  Builder.ret b (Some r);
  Verify.check_module m;
  let st = Machine.create (Compile.compile_module m) in
  (* registering a name the module never calls is a silent no-op *)
  Machine.register_extern st "never_called" (fun _ _ -> None);
  (* an unfilled slot traps with the callee's name *)
  Alcotest.(check bool) "empty slot traps" true
    (try
       ignore (Machine.run st "go" []);
       false
     with Trap.Trap (Trap.Unknown_function "host_id") -> true);
  (* filling the slot after compilation takes effect *)
  Machine.register_extern st "host_id" (fun _ args ->
      match args with [ v ] -> Some v | _ -> assert false);
  (match Machine.run st "go" [] with
  | Some v -> check Alcotest.int64 "slot filled" 7L (Vvalue.as_int v)
  | None -> Alcotest.fail "expected value")

(* ---------------- NaN semantics of reduce.min / reduce.max -------- *)

(* Pinned behavior (documented in eval.ml): the float reductions use
   Float.compare's total order, which places NaN below every number.
   Hence reduce.min returns NaN if any lane is NaN, while reduce.max
   ignores NaN lanes (unless all lanes are NaN). This is deliberate and
   deterministic — fault-injected NaNs classify reproducibly. *)
let test_reduce_nan_direct () =
  let nan2 = [| 2.0; Float.nan |] and nan2' = [| Float.nan; 2.0 |] in
  Alcotest.(check bool) "fmin [2;nan] = nan" true
    (Float.is_nan (Eval.reduce_fmin nan2));
  Alcotest.(check bool) "fmin [nan;2] = nan" true
    (Float.is_nan (Eval.reduce_fmin nan2'));
  check (Alcotest.float 0.0) "fmax [2;nan] = 2" 2.0 (Eval.reduce_fmax nan2);
  check (Alcotest.float 0.0) "fmax [nan;2] = 2" 2.0 (Eval.reduce_fmax nan2');
  Alcotest.(check bool) "fmax all-nan = nan" true
    (Float.is_nan (Eval.reduce_fmax [| Float.nan; Float.nan |]))

(* Same property end-to-end through the threaded reduce intrinsics. *)
let reduce_module ~intr =
  let m = Vmodule.create "red" in
  let vty = Vtype.vector 4 Vtype.F32 in
  let b = Builder.define m ~name:"go" ~params:[ ("v", vty) ] ~ret_ty:Vtype.f32 in
  let e = Builder.new_block b "entry" in
  Builder.position_at_end b e;
  let r = Builder.call b ~ret:Vtype.f32 intr [ Builder.param b "v" ] in
  Builder.ret b (Some r);
  Verify.check_module m;
  m

let test_reduce_nan_threaded () =
  let v = Vvalue.F (Vtype.F32, [| 1.0; Float.nan; 3.0; 2.0 |]) in
  let run intr =
    let st =
      Machine.create (Compile.compile_module (reduce_module ~intr))
    in
    match Machine.run st "go" [ v ] with
    | Some r -> Vvalue.as_float r
    | None -> Alcotest.fail "expected value"
  in
  Alcotest.(check bool) "threaded reduce.fmin propagates nan" true
    (Float.is_nan (run "llvm.vector.reduce.fmin"));
  check (Alcotest.float 0.0) "threaded reduce.fmax skips nan" 3.0
    (run "llvm.vector.reduce.fmax")

(* ---------------- differential property ---------------- *)

(* Random straight-line programs, executed both by the threaded VM and
   by folding the lane evaluators {!Interp.Eval} exposes (the reference
   semantics). Results — including trap behavior for division — must
   agree exactly. *)

let int_ops =
  [
    Instr.Add; Instr.Sub; Instr.Mul; Instr.Sdiv; Instr.Srem; Instr.Udiv;
    Instr.Urem; Instr.And; Instr.Or; Instr.Xor; Instr.Shl; Instr.Lshr;
    Instr.Ashr;
  ]

let float_ops = [ Instr.Fadd; Instr.Fsub; Instr.Fmul; Instr.Fdiv ]

let int_chain_module ops =
  let m = Vmodule.create "chain" in
  let b = Builder.define m ~name:"go" ~params:[ ("x", Vtype.i32) ] ~ret_ty:Vtype.i32 in
  let e = Builder.new_block b "entry" in
  Builder.position_at_end b e;
  let acc =
    List.fold_left
      (fun acc (k, c) -> Builder.ibinop b k acc (Ir_samples.imm_i32 c))
      (Builder.param b "x") ops
  in
  Builder.ret b (Some acc);
  Verify.check_module m;
  m

let float_chain_module ops =
  let m = Vmodule.create "fchain" in
  let b = Builder.define m ~name:"go" ~params:[ ("x", Vtype.f32) ] ~ret_ty:Vtype.f32 in
  let e = Builder.new_block b "entry" in
  Builder.position_at_end b e;
  let acc =
    List.fold_left
      (fun acc (k, c) -> Builder.fbinop b k acc (Ir_samples.imm_f32 c))
      (Builder.param b "x") ops
  in
  Builder.ret b (Some acc);
  Verify.check_module m;
  m

(* Both sides either produce a value or trap; compare whichever. *)
let outcome f =
  try Ok (f ()) with Trap.Trap t -> Error t

let prop_int_chain =
  QCheck.Test.make ~name:"threaded VM matches lane evaluator (i32 chains)"
    ~count:300
    QCheck.(
      pair int
        (small_list (pair (oneofl int_ops) (int_range (-100) 100))))
    (fun (x0, ops) ->
      let m = int_chain_module ops in
      let x0 = Interp.Bits.truncate Vtype.I32 (Int64.of_int x0) in
      let vm =
        outcome (fun () ->
            let st = Machine.create (Compile.compile_module m) in
            match
              Machine.run st "go"
                [ Vvalue.I (Vtype.I32, Interp.Ilanes.make 1 x0) ]
            with
            | Some v -> Vvalue.as_int v
            | None -> Alcotest.fail "expected value")
      in
      let reference =
        outcome (fun () ->
            List.fold_left
              (fun acc (k, c) ->
                Eval.ibinop_fn k Vtype.I32 acc
                  (Interp.Bits.truncate Vtype.I32 (Int64.of_int c)))
              x0 ops)
      in
      vm = reference)

let prop_float_chain =
  QCheck.Test.make ~name:"threaded VM matches lane evaluator (f32 chains)"
    ~count:300
    QCheck.(
      pair (float_range (-1e6) 1e6)
        (small_list
           (pair (oneofl float_ops) (float_range (-1e3) 1e3))))
    (fun (x0, ops) ->
      let m = float_chain_module ops in
      (* round inputs to f32 like the VM's storage does *)
      let r32 x = Int32.float_of_bits (Int32.bits_of_float x) in
      let x0 = r32 x0 in
      let vm =
        let st = Machine.create (Compile.compile_module m) in
        match Machine.run st "go" [ Vvalue.F (Vtype.F32, [| x0 |]) ] with
        | Some v -> Int64.bits_of_float (Vvalue.as_float v)
        | None -> Alcotest.fail "expected value"
      in
      let reference =
        List.fold_left
          (fun acc (k, c) -> Eval.fbinop_fn k Vtype.F32 acc (r32 c))
          x0 ops
      in
      vm = Int64.bits_of_float reference)

let () =
  Alcotest.run "threaded"
    [
      ( "arity",
        [
          Alcotest.test_case "Machine.run arity" `Quick test_run_arity;
          Alcotest.test_case "in-module call arity" `Quick test_call_arity;
        ] );
      ( "shuffle",
        [
          Alcotest.test_case "bad mask rejected" `Quick
            test_bad_shuffle_mask;
        ] );
      ( "externs",
        [ Alcotest.test_case "slot contract" `Quick test_extern_slots ] );
      ( "reduce-nan",
        [
          Alcotest.test_case "direct" `Quick test_reduce_nan_direct;
          Alcotest.test_case "threaded" `Quick test_reduce_nan_threaded;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_int_chain;
          QCheck_alcotest.to_alcotest prop_float_chain;
        ] );
    ]
