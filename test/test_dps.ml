(* Tests for the destination-passing (pinned-buffer) interpreter: the
   three aliasing hazards the buffer discipline must survive —

   - a phi swap cycle across a loop back edge (parallel-copy semantics:
     naive in-order copies would collapse the two registers);
   - values escaping the register file (the injection record must be a
     snapshot, not an alias the continuing run overwrites);
   - shared constant buffers ([Cimm] values live in the compiled module
     and are shared by every machine — an injected flip must never leak
     into them);

   plus a differential property running random *vector* programs through
   the DPS kernels against the exposed lane evaluators (test_threaded
   covers the scalar chains). *)

open Vir
open Interp

let check = Alcotest.check

(* ---------------- phi parallel copy ---------------- *)

(* a and b swap on every back edge; with pinned buffers a sequential
   copy would make both registers equal after the first iteration. The
   loop runs [iters - 1] back edges, so the result alternates. *)
let swap_module () =
  let m = Vmodule.create "swap" in
  let b =
    Builder.define m ~name:"go" ~params:[ ("iters", Vtype.i32) ]
      ~ret_ty:Vtype.i32
  in
  let entry = Builder.new_block b "entry" in
  let loop = Builder.new_block b "loop" in
  let exit = Builder.new_block b "exit" in
  Builder.position_at_end b entry;
  Builder.br b "loop";
  Builder.position_at_end b loop;
  let a = Builder.phi b Vtype.i32 [ ("entry", Ir_samples.imm_i32 1) ] in
  let bv = Builder.phi b Vtype.i32 [ ("entry", Ir_samples.imm_i32 2) ] in
  let n = Builder.phi b Vtype.i32 [ ("entry", Ir_samples.imm_i32 0) ] in
  let n1 = Builder.add b n (Ir_samples.imm_i32 1) in
  let c = Builder.icmp b Instr.Islt n1 (Builder.param b "iters") in
  Builder.condbr b c "loop" "exit";
  (match (a, bv, n) with
  | Instr.Reg (ra, _), Instr.Reg (rb, _), Instr.Reg (rn, _) ->
    Builder.add_phi_incoming b ra ~from:"loop" ~value:bv;
    Builder.add_phi_incoming b rb ~from:"loop" ~value:a;
    Builder.add_phi_incoming b rn ~from:"loop" ~value:n1
  | _ -> assert false);
  Builder.position_at_end b exit;
  let t = Builder.mul b a (Ir_samples.imm_i32 10) in
  let r = Builder.add b t bv in
  Builder.ret b (Some r);
  Verify.check_module m;
  m

let test_phi_swap () =
  let st = Machine.create (Compile.compile_module (swap_module ())) in
  let run iters =
    Machine.reset st;
    match Machine.run st "go" [ Vvalue.of_i32 iters ] with
    | Some v -> Int64.to_int (Vvalue.as_int v)
    | None -> Alcotest.fail "expected value"
  in
  (* iters=1: no back edge, (a,b) = (1,2) *)
  check Alcotest.int "0 swaps" 12 (run 1);
  check Alcotest.int "1 swap" 21 (run 2);
  check Alcotest.int "4 swaps" 12 (run 5);
  check Alcotest.int "5 swaps" 21 (run 6)

(* ---------------- vector differential property ---------------- *)

(* Random vector chains through the DPS kernels (including the
   broadcast lowering: insertelement + shufflevector) versus a per-lane
   fold of the exposed lane evaluators. Both sides either produce the
   same lanes bit-for-bit or trap identically. *)

let int_ops =
  [
    Instr.Add; Instr.Sub; Instr.Mul; Instr.Sdiv; Instr.Srem; Instr.Udiv;
    Instr.Urem; Instr.And; Instr.Or; Instr.Xor; Instr.Shl; Instr.Lshr;
    Instr.Ashr;
  ]

let float_ops = [ Instr.Fadd; Instr.Fsub; Instr.Fmul; Instr.Fdiv ]

let vec_chain_module ~vty ~mk_imm ~emit ops =
  let m = Vmodule.create "vchain" in
  let b = Builder.define m ~name:"go" ~params:[ ("v", vty) ] ~ret_ty:vty in
  let e = Builder.new_block b "entry" in
  Builder.position_at_end b e;
  let lanes = Vtype.lanes vty in
  let acc =
    List.fold_left
      (fun acc (k, c) -> emit b k acc (Builder.broadcast b (mk_imm c) lanes))
      (Builder.param b "v") ops
  in
  Builder.ret b (Some acc);
  Verify.check_module m;
  m

let outcome f = try Ok (f ()) with Trap.Trap t -> Error t

let prop_vec_int_chain =
  QCheck.Test.make ~name:"DPS vector kernels match lane evaluator (i32x4)"
    ~count:200
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.return 4) int)
        (small_list (pair (oneofl int_ops) (int_range (-100) 100))))
    (fun (xs, ops) ->
      let m =
        vec_chain_module
          ~vty:(Vtype.vector 4 Vtype.I32)
          ~mk_imm:Ir_samples.imm_i32
          ~emit:(fun b k x y -> Builder.ibinop b k x y)
          ops
      in
      let lanes0 =
        Array.of_list
          (List.map (fun x -> Bits.truncate Vtype.I32 (Int64.of_int x)) xs)
      in
      let vm =
        outcome (fun () ->
            let st = Machine.create (Compile.compile_module m) in
            match
              Machine.run st "go"
                [ Vvalue.I (Vtype.I32, Interp.Ilanes.of_array lanes0) ]
            with
            | Some v -> List.init 4 (Vvalue.int_lane v)
            | None -> Alcotest.fail "expected value")
      in
      let reference =
        outcome (fun () ->
            List.init 4 (fun j ->
                List.fold_left
                  (fun acc (k, c) ->
                    Eval.eval_ibinop_lane k Vtype.I32 acc
                      (Bits.truncate Vtype.I32 (Int64.of_int c)))
                  lanes0.(j) ops))
      in
      vm = reference)

let prop_vec_float_chain =
  QCheck.Test.make ~name:"DPS vector kernels match lane evaluator (f32x8)"
    ~count:200
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.return 8) (float_range (-1e6) 1e6))
        (small_list (pair (oneofl float_ops) (float_range (-1e3) 1e3))))
    (fun (xs, ops) ->
      let m =
        vec_chain_module
          ~vty:(Vtype.vector 8 Vtype.F32)
          ~mk_imm:Ir_samples.imm_f32
          ~emit:(fun b k x y -> Builder.fbinop b k x y)
          ops
      in
      let r32 x = Int32.float_of_bits (Int32.bits_of_float x) in
      let lanes0 = Array.of_list (List.map r32 xs) in
      let vm =
        let st = Machine.create (Compile.compile_module m) in
        match Machine.run st "go" [ Vvalue.F (Vtype.F32, lanes0) ] with
        | Some v ->
          List.init 8 (fun j -> Int64.bits_of_float (Vvalue.float_lane v j))
        | None -> Alcotest.fail "expected value"
      in
      let reference =
        List.init 8 (fun j ->
            Int64.bits_of_float
              (List.fold_left
                 (fun acc (k, c) ->
                   Eval.eval_fbinop_lane k Vtype.F32 acc (r32 c))
                 lanes0.(j) ops))
      in
      vm = reference)

(* ---------------- escaped values: the injection record ---------------- *)

let vcopy_src =
  "export void vcopy_ispc(uniform int a1[], uniform int a2[], uniform int \
   n) { foreach (i = 0 ... n) { a2[i] = a1[i]; } }"

let vcopy_workload lengths =
  {
    Vulfi.Workload.w_name = "vcopy";
    w_fn = "vcopy_ispc";
    w_out_tolerance = 0.0;
    w_inputs = List.length lengths;
    w_build = (fun target -> Minispc.Driver.compile target vcopy_src);
    w_setup =
      (fun ~input st ->
        let n = List.nth lengths input in
        let mem = Machine.memory st in
        let a1 = Memory.alloc mem ~name:"a1" ~bytes:(4 * max n 1) in
        let a2 = Memory.alloc mem ~name:"a2" ~bytes:(4 * max n 1) in
        Memory.write_i32_array mem a1 (Array.init n (fun i -> (i * 37) - 11));
        ( [ Vvalue.of_ptr a1; Vvalue.of_ptr a2; Vvalue.of_i32 n ],
          fun () ->
            {
              Vulfi.Outcome.empty_output with
              Vulfi.Outcome.o_i32 = [ Memory.read_i32_array mem a2 n ];
            } ));
  }

(* The injected value is handed to the runtime as a borrowed alias of a
   register buffer the continuing run keeps rewriting. The record's
   before/after snapshots must still satisfy the single-bit-flip
   relation once the run has finished — if either were an alias it
   would have been overwritten by later instructions. *)
let check_flip_relation what (r : Vulfi.Experiment.run_result) =
  match r.Vulfi.Experiment.r_injection with
  | None -> ()
  | Some inj ->
    let open Vulfi.Runtime in
    Alcotest.(check bool)
      (Printf.sprintf "%s: after = flip(before, bit %d)" what inj.inj_bit)
      true
      (Vvalue.equal inj.inj_after
         (Vvalue.flip_bit inj.inj_before ~lane:0 ~bit:inj.inj_bit));
    Alcotest.(check bool)
      (what ^ ": injection changed the value")
      false
      (Vvalue.equal inj.inj_before inj.inj_after)

let test_injection_record_snapshot () =
  let w = vcopy_workload [ 23 ] in
  let p =
    Vulfi.Experiment.prepare w Target.Avx Analysis.Sites.Pure_data
  in
  let g = Vulfi.Experiment.golden_run p ~input:0 in
  Alcotest.(check bool) "sites exist" true (g.Vulfi.Experiment.g_dyn_sites > 0);
  let pi = Vulfi.Experiment.prepare_input p ~input:0 in
  for site = 1 to min 25 g.Vulfi.Experiment.g_dyn_sites do
    check_flip_relation
      (Printf.sprintf "site %d (rebuild)" site)
      (Vulfi.Experiment.faulty_run p ~golden:g ~dynamic_site:site ~seed:site);
    check_flip_relation
      (Printf.sprintf "site %d (checkpointed)" site)
      (Vulfi.Experiment.faulty_run_checkpointed p ~pi ~dynamic_site:site
         ~seed:site)
  done

(* ---------------- constant buffers stay immutable ---------------- *)

(* [Cimm] values live in the compiled module and are shared by every
   machine built from it. Interleave faulty runs (across every fault
   kind, so every corruption path runs) with golden runs on the same
   compiled module: if any injection leaked into a shared constant
   buffer, the second golden run would diverge. *)
let test_constants_survive_injection () =
  let w = vcopy_workload [ 19 ] in
  let p =
    Vulfi.Experiment.prepare w Target.Avx Analysis.Sites.Pure_data
  in
  let g1 = Vulfi.Experiment.golden_run p ~input:0 in
  let kinds =
    [
      Vulfi.Runtime.Single_bit_flip;
      Vulfi.Runtime.Multi_bit_flip 3;
      Vulfi.Runtime.Random_value;
      Vulfi.Runtime.Stuck_at_zero;
    ]
  in
  List.iteri
    (fun ki fault_kind ->
      for site = 1 to min 10 g1.Vulfi.Experiment.g_dyn_sites do
        ignore
          (Vulfi.Experiment.faulty_run ~fault_kind p ~golden:g1
             ~dynamic_site:site
             ~seed:((ki * 100) + site))
      done)
    kinds;
  let g2 = Vulfi.Experiment.golden_run p ~input:0 in
  Alcotest.(check bool)
    "golden output identical after injections" true
    (g1.Vulfi.Experiment.g_output = g2.Vulfi.Experiment.g_output);
  check Alcotest.int "dynamic sites identical"
    g1.Vulfi.Experiment.g_dyn_sites g2.Vulfi.Experiment.g_dyn_sites;
  check Alcotest.int "dynamic instructions identical"
    g1.Vulfi.Experiment.g_dyn_instrs g2.Vulfi.Experiment.g_dyn_instrs

let () =
  Alcotest.run "dps"
    [
      ( "phi",
        [ Alcotest.test_case "swap cycle across back edge" `Quick
            test_phi_swap ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_vec_int_chain;
          QCheck_alcotest.to_alcotest prop_vec_float_chain;
        ] );
      ( "escapes",
        [
          Alcotest.test_case "injection record is a snapshot" `Quick
            test_injection_record_snapshot;
        ] );
      ( "constants",
        [
          Alcotest.test_case "shared constants survive injection" `Quick
            test_constants_survive_injection;
        ] );
    ]
