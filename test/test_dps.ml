(* Tests for the destination-passing (pinned-buffer) interpreter: the
   three aliasing hazards the buffer discipline must survive —

   - a phi swap cycle across a loop back edge (parallel-copy semantics:
     naive in-order copies would collapse the two registers);
   - values escaping the register file (the injection record must be a
     snapshot, not an alias the continuing run overwrites);
   - shared constant buffers ([Cimm] values live in the compiled module
     and are shared by every machine — an injected flip must never leak
     into them);

   plus differential properties running random *vector* programs, and
   every compare, cast and integer reduction, through the DPS kernels
   against the lane evaluators (test_threaded covers the scalar
   chains). *)

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
   fold of the lane evaluators, at every integer width and both float
   kinds, so the generic loops run as well as the specialized i32/f32
   arms. Both sides either produce the same lanes bit-for-bit or trap
   identically. *)

let int_ops =
  [
    Instr.Add; Instr.Sub; Instr.Mul; Instr.Sdiv; Instr.Srem; Instr.Udiv;
    Instr.Urem; Instr.And; Instr.Or; Instr.Xor; Instr.Shl; Instr.Lshr;
    Instr.Ashr;
  ]

let float_ops =
  [ Instr.Fadd; Instr.Fsub; Instr.Fmul; Instr.Fdiv; Instr.Frem ]

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

(* [m]'s @go applied to [args] on a fresh machine. *)
let run_go m args =
  let st = Machine.create (Compile.compile_module m) in
  match Machine.run st "go" args with
  | Some v -> v
  | None -> Alcotest.fail "expected value"

let prop_vec_int_chain (label, s, lanes) =
  QCheck.Test.make
    ~name:(Printf.sprintf "DPS vector kernels match lane evaluator (%s)" label)
    ~count:200
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.return lanes) int)
        (small_list (pair (oneofl int_ops) (int_range (-100) 100))))
    (fun (xs, ops) ->
      let lane x = Bits.truncate s (Int64.of_int x) in
      let m =
        vec_chain_module ~vty:(Vtype.vector lanes s)
          ~mk_imm:(fun c -> Instr.Imm (Const.Cint (s, lane c)))
          ~emit:(fun b k x y -> Builder.ibinop b k x y)
          ops
      in
      let lanes0 = Array.of_list (List.map lane xs) in
      let vm =
        outcome (fun () ->
            let v = run_go m [ Vvalue.I (s, Interp.Ilanes.of_array lanes0) ] in
            List.init lanes (Vvalue.int_lane v))
      in
      let reference =
        outcome (fun () ->
            List.init lanes (fun j ->
                List.fold_left
                  (fun acc (k, c) -> Eval.ibinop_fn k s acc (lane c))
                  lanes0.(j) ops))
      in
      vm = reference)

let prop_vec_float_chain (label, s, lanes) =
  QCheck.Test.make
    ~name:(Printf.sprintf "DPS vector kernels match lane evaluator (%s)" label)
    ~count:200
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.return lanes) (float_range (-1e6) 1e6))
        (small_list (pair (oneofl float_ops) (float_range (-1e3) 1e3))))
    (fun (xs, ops) ->
      let r = Bits.round_float s in
      let m =
        vec_chain_module ~vty:(Vtype.vector lanes s)
          ~mk_imm:(fun c -> Instr.Imm (Const.Cfloat (s, r c)))
          ~emit:(fun b k x y -> Builder.fbinop b k x y)
          ops
      in
      let lanes0 = Array.of_list (List.map r xs) in
      let vm =
        let v = run_go m [ Vvalue.F (s, Array.copy lanes0) ] in
        List.init lanes (fun j -> Int64.bits_of_float (Vvalue.float_lane v j))
      in
      let reference =
        List.init lanes (fun j ->
            Int64.bits_of_float
              (List.fold_left
                 (fun acc (k, c) -> Eval.fbinop_fn k s acc (r c))
                 lanes0.(j) ops))
      in
      vm = reference)

(* ---------------- compares, casts and integer reductions ---------------- *)

(* One instruction per module, at 1, 4 and 8 lanes: every icmp and
   fcmp predicate, every cast, at every (source, destination) kind the
   verifier admits, and the integer add/min/max reductions. Each runs
   through [Compile] on random lanes (NaN, infinities, signed zeros,
   width boundaries and integer-valued floats out of every range
   included) and must equal the lane reference: [Eval.icmp_fn],
   [Eval.fcmp_fn] and [Eval.cast_lane_fn] lane by lane, and a plain
   fold for the reductions. The VM must run every cast the verifier
   admits. *)

type lane_op =
  | Icmp of Instr.icmp_pred
  | Fcmp of Instr.fcmp_pred
  | Cast of Instr.cast_op * Vtype.scalar  (** to this kind *)
  | Reduce of string  (** [llvm.vector.reduce.<name>] *)

let scalars = Vtype.[ I1; I8; I32; I64; F32; F64; Ptr ]

let ty_at lanes s = if lanes = 1 then Vtype.scalar s else Vtype.vector lanes s

(* @go(a, b) = a op b for a compare, @go(a) = op a otherwise, with [a]
   of kind [s] at [lanes] lanes. *)
let lane_op_module op s lanes =
  let m = Vmodule.create "lane_op" in
  let binary = match op with Icmp _ | Fcmp _ -> true | _ -> false in
  let ret_ty =
    match op with
    | Icmp _ | Fcmp _ -> ty_at lanes Vtype.I1
    | Cast (_, d) -> ty_at lanes d
    | Reduce _ -> Vtype.scalar s
  in
  let params =
    ("a", ty_at lanes s) :: (if binary then [ ("b", ty_at lanes s) ] else [])
  in
  let b = Builder.define m ~name:"go" ~params ~ret_ty in
  Builder.position_at_end b (Builder.new_block b "entry");
  let a = Builder.param b "a" in
  let r =
    match op with
    | Icmp p -> Builder.icmp b p a (Builder.param b "b")
    | Fcmp p -> Builder.fcmp b p a (Builder.param b "b")
    | Cast (k, d) -> Builder.cast b k a (ty_at lanes d)
    | Reduce name ->
      Builder.call b ~ret:ret_ty ("llvm.vector.reduce." ^ name) [ a ]
  in
  Builder.ret b (Some r);
  m

let lane_cases =
  let ops =
    List.map
      (fun p -> Icmp p)
      Instr.
        [ Ieq; Ine; Islt; Isle; Isgt; Isge; Iult; Iule; Iugt; Iuge ]
    @ List.map
        (fun p -> Fcmp p)
        Instr.[ Foeq; Fone; Folt; Fole; Fogt; Foge; Ford; Funo ]
    @ List.concat_map
        (fun k -> List.map (fun d -> Cast (k, d)) scalars)
        Instr.
          [
            Trunc; Zext; Sext; Fptosi; Sitofp; Fptrunc; Fpext; Ptrtoint;
            Inttoptr; Bitcast;
          ]
  in
  let admitted =
    List.concat_map
      (fun op ->
        List.filter_map
          (fun s ->
            if Verify.verify_module (lane_op_module op s 4) = [] then
              Some (op, s)
            else None)
          scalars)
      ops
  in
  admitted
  @ List.concat_map
      (fun name -> List.map (fun s -> (Reduce name, s)) Vtype.[ I8; I32; I64 ])
      [ "add"; "min"; "max" ]

let int_lane_gen =
  QCheck.Gen.(
    oneof
      [
        map Int64.of_int (int_range (-3) 3);
        ui64;
        oneofl
          [ Int64.min_int; Int64.max_int; 0x7FFFFFFFL; 0x80000000L;
            0xFFFFFFFFL; 127L; 128L; 255L; -129L ];
      ])

let float_lane_gen =
  QCheck.Gen.(
    oneof
      [
        float_range (-4.) 4.;
        map Int64.float_of_bits ui64;
        oneofl
          [ Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0; 1.0;
            -1.0; 2147483648.0; -2147483649.0; 9.3e18; -9.3e18; 3.5e38;
            1e-40 ];
      ])

(* Lane [j] of operand [o] as a value of kind [s]: the generated bits
   normalised the way the VM stores that kind. *)
let lane_value (ints, floats) s lanes o =
  let pick arr j = arr.(((o * 8) + j) mod Array.length arr) in
  if Vtype.is_float_scalar s then
    Vvalue.F (s, Array.init lanes (fun j -> Bits.round_float s (pick floats j)))
  else
    let norm = if s = Vtype.Ptr then Fun.id else Bits.truncate s in
    Vvalue.I
      (s, Interp.Ilanes.of_array (Array.init lanes (fun j -> norm (pick ints j))))

(* A result's kind and raw lanes (floats as their double's bits, so
   NaN payloads count; ints as stored, so a lane that is not
   sign-normalised counts), or the error it raised. *)
let lane_bits_of f =
  match f () with
  | Vvalue.I (_, a) ->
    Ok (false, List.init (Interp.Ilanes.length a) (Interp.Ilanes.get a))
  | Vvalue.F (_, a) ->
    Ok (true, List.map Int64.bits_of_float (Array.to_list a))
  | exception Trap.Trap t -> Error (Trap.to_string t)
  | exception Invalid_argument msg -> Error msg

let reference op s a b =
  let lanes = Vvalue.lanes a in
  let ints v = List.init lanes (Vvalue.int_lane v) in
  let floats v = List.init lanes (Vvalue.float_lane v) in
  let ilanes d xs = Vvalue.I (d, Interp.Ilanes.of_array (Array.of_list xs)) in
  match op with
  | Icmp p -> ilanes Vtype.I1 (List.map2 (Eval.icmp_fn p s) (ints a) (ints b))
  | Fcmp p -> ilanes Vtype.I1 (List.map2 (Eval.fcmp_fn p) (floats a) (floats b))
  | Cast (k, d) -> (
    match Eval.cast_lane_fn k ~src:s ~dst:d with
    | Eval.Cii f -> ilanes d (List.map f (ints a))
    | Eval.Cfi f -> ilanes d (List.map f (floats a))
    | Eval.Cif f -> Vvalue.F (d, Array.of_list (List.map f (ints a)))
    | Eval.Cff f -> Vvalue.F (d, Array.of_list (List.map f (floats a))))
  | Reduce name ->
    let xs = ints a in
    let r =
      match name with
      | "add" ->
        List.fold_left (fun acc x -> Bits.truncate s (Int64.add acc x)) 0L xs
      | "min" -> List.fold_left min (List.hd xs) xs
      | _ -> List.fold_left max (List.hd xs) xs
    in
    ilanes s [ r ]

let prop_lane_ops =
  let cases =
    List.concat_map
      (fun (op, s) ->
        List.filter_map
          (fun lanes ->
            match op with
            | Reduce _ when lanes = 1 -> None
            | _ ->
              let st =
                Machine.create
                  (Compile.compile_module (lane_op_module op s lanes))
              in
              Some (op, s, lanes, st))
          [ 1; 4; 8 ])
      lane_cases
  in
  QCheck.Test.make
    ~name:
      "DPS compares, casts and integer reductions match lane reference \
       (incl. NaN lanes)"
    ~count:200
    QCheck.(
      make
        ~print:(fun (is, fs) ->
          Print.(pair (array int64) (array float)) (is, fs))
        Gen.(pair (array_size (return 16) int_lane_gen)
               (array_size (return 16) float_lane_gen)))
    (fun pool ->
      List.for_all
        (fun (op, s, lanes, st) ->
          let a = lane_value pool s lanes 0 and b = lane_value pool s lanes 1 in
          let args = match op with Icmp _ | Fcmp _ -> [ a; b ] | _ -> [ a ] in
          let vm =
            lane_bits_of (fun () ->
                Machine.reset st;
                match Machine.run st "go" args with
                | Some v -> v
                | None -> Alcotest.fail "expected value")
          in
          let admitted =
            match (op, vm) with Cast _, Error _ -> false | _ -> true
          in
          (admitted && vm = lane_bits_of (fun () -> reference op s a b))
          || QCheck.Test.fail_reportf "%s at %d lanes, kind %s differs"
               (match op with
               | Icmp p -> "icmp " ^ Instr.icmp_name p
               | Fcmp p -> "fcmp " ^ Instr.fcmp_name p
               | Cast (k, d) -> Instr.cast_name k ^ " to " ^ Vtype.scalar_name d
               | Reduce n -> "reduce." ^ n)
               lanes (Vtype.scalar_name s))
        cases)

(* [sext] of an i1 true lane is all ones, as in LLVM: -1 at every
   width, scalar and vector. *)
let test_sext_i1 () =
  let bits = [ true; false; true; true; false; false; true; false ] in
  List.iter
    (fun d ->
      List.iter
        (fun lanes ->
          let m = lane_op_module (Cast (Instr.Sext, d)) Vtype.I1 lanes in
          Verify.check_module m;
          let input = List.filteri (fun j _ -> j < lanes) bits in
          let v =
            run_go m
              [
                Vvalue.I
                  ( Vtype.I1,
                    Interp.Ilanes.of_array
                      (Array.of_list
                         (List.map (fun t -> if t then 1L else 0L) input)) );
              ]
          in
          check
            Alcotest.(list int64)
            (Printf.sprintf "sext i1 to %s, %d lanes" (Vtype.scalar_name d)
               lanes)
            (List.map (fun t -> if t then -1L else 0L) input)
            (List.init lanes (Vvalue.int_lane v)))
        [ 1; 8 ])
    Vtype.[ I8; I32; I64 ]

(* Signed operations read an i1 lane sign-extended, as LLVM does: true
   is -1, so [sitofp] gives -1.0 and [icmp slt true, false] holds. The
   lane closures are the property's reference, so the expected lanes
   here are literal LLVM results, at 8 lanes and on lane 0 alone. *)
let test_signed_i1 () =
  let a = [ 1; 0; 1; 1; 0; 0; 1; 0 ] and b = [ 0; 0; 1; 0; 1; 0; 1; 1 ] in
  let i1 bits =
    Vvalue.I
      ( Vtype.I1,
        Interp.Ilanes.of_array (Array.of_list (List.map Int64.of_int bits)) )
  in
  let take lanes l = List.filteri (fun j _ -> j < lanes) l in
  List.iter
    (fun lanes ->
      let a = take lanes a and b = take lanes b in
      List.iter
        (fun d ->
          let m = lane_op_module (Cast (Instr.Sitofp, d)) Vtype.I1 lanes in
          Verify.check_module m;
          check
            Alcotest.(list (float 0.0))
            (Printf.sprintf "sitofp i1 to %s, %d lanes" (Vtype.scalar_name d)
               lanes)
            (take lanes [ -1.; 0.; -1.; -1.; 0.; 0.; -1.; 0. ])
            (let v = run_go m [ i1 a ] in
             List.init lanes (Vvalue.float_lane v)))
        Vtype.[ F32; F64 ];
      List.iter
        (fun (p, want) ->
          let m = lane_op_module (Icmp p) Vtype.I1 lanes in
          Verify.check_module m;
          check
            Alcotest.(list int)
            (Printf.sprintf "icmp %s i1, %d lanes" (Instr.icmp_name p) lanes)
            (take lanes want)
            (let v = run_go m [ i1 a; i1 b ] in
             List.init lanes (fun j -> Int64.to_int (Vvalue.int_lane v j))))
        Instr.
          [
            (Islt, [ 1; 0; 0; 1; 0; 0; 0; 0 ]);
            (Isle, [ 1; 1; 1; 1; 0; 1; 1; 0 ]);
            (Isgt, [ 0; 0; 0; 0; 1; 0; 0; 1 ]);
            (Isge, [ 0; 1; 1; 0; 1; 1; 1; 1 ]);
          ])
    [ 1; 8 ]

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
  let ff = Vulfi.Experiment.lay_checkpoints p ~pi ~plan:[||] in
  for site = 1 to min 25 g.Vulfi.Experiment.g_dyn_sites do
    check_flip_relation
      (Printf.sprintf "site %d (rebuild)" site)
      (Vulfi.Experiment.faulty_run p ~golden:g ~dynamic_site:site ~seed:site);
    check_flip_relation
      (Printf.sprintf "site %d (checkpointed)" site)
      (Vulfi.Experiment.faulty_run_ff p ~ff ~dynamic_site:site ~seed:site)
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
        List.map QCheck_alcotest.to_alcotest
          (List.map prop_vec_int_chain
             Vtype.[ ("i8x16", I8, 16); ("i32x4", I32, 4); ("i64x4", I64, 4) ]
          @ List.map prop_vec_float_chain
              Vtype.[ ("f32x8", F32, 8); ("f64x4", F64, 4) ]
          @ [ prop_lane_ops ]) );
      ( "casts",
        [
          Alcotest.test_case "sext i1 is all ones" `Quick test_sext_i1;
          Alcotest.test_case "signed operations read i1 as -1" `Quick
            test_signed_i1;
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
