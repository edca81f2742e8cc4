(* Tests for the interpreter substrate: bit manipulation, runtime
   values, memory, and the register VM. *)

open Vir
open Interp

let check = Alcotest.check

(* ---------------- Bits ---------------- *)

let test_truncate () =
  check Alcotest.int64 "i8 sign extend" (-1L) (Bits.truncate Vtype.I8 255L);
  check Alcotest.int64 "i8 positive" 127L (Bits.truncate Vtype.I8 127L);
  check Alcotest.int64 "i32 wrap" Int64.(of_int32 (Int32.of_string "-2147483648"))
    (Bits.truncate Vtype.I32 2147483648L);
  check Alcotest.int64 "i1 odd" 1L (Bits.truncate Vtype.I1 3L);
  check Alcotest.int64 "i64 identity" Int64.min_int
    (Bits.truncate Vtype.I64 Int64.min_int)

let test_to_unsigned () =
  check Alcotest.int64 "i8 -1 -> 255" 255L (Bits.to_unsigned Vtype.I8 (-1L));
  check Alcotest.int64 "i32 -1 -> 2^32-1" 0xFFFFFFFFL
    (Bits.to_unsigned Vtype.I32 (-1L))

let test_float_bits_roundtrip () =
  List.iter
    (fun x ->
      check (Alcotest.float 0.0) "f64 roundtrip" x
        (Bits.float_of_bits Vtype.F64 (Bits.bits_of_float Vtype.F64 x)))
    [ 0.0; 1.5; -3.25; 1e300; -0.0 ];
  let x32 = Bits.round_float Vtype.F32 3.14159 in
  check (Alcotest.float 0.0) "f32 roundtrip" x32
    (Bits.float_of_bits Vtype.F32 (Bits.bits_of_float Vtype.F32 x32))

let test_flip_int () =
  check Alcotest.int64 "flip bit 0" 1L (Bits.flip_int Vtype.I32 ~bit:0 0L);
  check Alcotest.int64 "flip sign bit of i32 zero" (Int64.of_int32 Int32.min_int)
    (Bits.flip_int Vtype.I32 ~bit:31 0L);
  check Alcotest.int64 "flip twice restores" 42L
    (Bits.flip_int Vtype.I32 ~bit:7 (Bits.flip_int Vtype.I32 ~bit:7 42L));
  Alcotest.check_raises "bit out of range"
    (Invalid_argument "Bits.flip_int: bit 32 out of range for i32") (fun () ->
      ignore (Bits.flip_int Vtype.I32 ~bit:32 0L))

let test_flip_float () =
  let x = 1.0 in
  let flipped = Bits.flip_float Vtype.F64 ~bit:63 x in
  check (Alcotest.float 0.0) "sign-bit flip negates" (-1.0) flipped;
  check (Alcotest.float 0.0) "involution" x
    (Bits.flip_float Vtype.F64 ~bit:63 flipped)

(* ---------------- Vvalue ---------------- *)

let test_vvalue_of_const () =
  let v = Vvalue.of_const (Const.iota Vtype.I32 4) in
  check Alcotest.int "lanes" 4 (Vvalue.lanes v);
  check Alcotest.int64 "lane 3" 3L (Vvalue.int_lane v 3);
  let z = Vvalue.of_const (Const.Cundef (Vtype.vector 4 Vtype.F32)) in
  check (Alcotest.float 0.0) "undef is deterministic zero" 0.0
    (Vvalue.float_lane z 2)

let test_vvalue_insert_extract () =
  let v = Vvalue.of_const (Const.splat 4 (Const.f32 1.0)) in
  let v' = Vvalue.insert v 2 (Vvalue.of_f32 9.0) in
  check (Alcotest.float 0.0) "inserted" 9.0 (Vvalue.float_lane v' 2);
  check (Alcotest.float 0.0) "others untouched" 1.0 (Vvalue.float_lane v' 1);
  (* insert is non-destructive *)
  check (Alcotest.float 0.0) "original untouched" 1.0 (Vvalue.float_lane v 2);
  let e = Vvalue.extract v' 2 in
  check (Alcotest.float 0.0) "extract" 9.0 (Vvalue.as_float e)

let test_vvalue_flip_bit () =
  let v = Vvalue.of_const (Const.splat 8 (Const.i32 0)) in
  let v' = Vvalue.flip_bit v ~lane:5 ~bit:3 in
  check Alcotest.int64 "flipped lane" 8L (Vvalue.int_lane v' 5);
  check Alcotest.int64 "other lanes" 0L (Vvalue.int_lane v' 4);
  Alcotest.(check bool) "equal after double flip" true
    (Vvalue.equal v (Vvalue.flip_bit v' ~lane:5 ~bit:3))

let test_vvalue_equal_nan () =
  let a = Vvalue.of_f64 Float.nan and b = Vvalue.of_f64 Float.nan in
  Alcotest.(check bool) "NaN bit-equal to itself" true (Vvalue.equal a b)

(* ---------------- Memory ---------------- *)

let test_memory_alloc_rw () =
  let m = Memory.create () in
  let base = Memory.alloc m ~name:"a" ~bytes:64 in
  Memory.write_f32_array m base [| 1.0; 2.0; 3.0 |];
  let back = Memory.read_f32_array m base 3 in
  check
    Alcotest.(array (float 0.0))
    "roundtrip" [| 1.0; 2.0; 3.0 |] back

let test_memory_i32 () =
  let m = Memory.create () in
  let base = Memory.alloc m ~name:"a" ~bytes:16 in
  Memory.write_i32_array m base [| -5; 0; 123456; 7 |];
  check
    Alcotest.(array int)
    "roundtrip" [| -5; 0; 123456; 7 |]
    (Memory.read_i32_array m base 4)

let test_memory_oob () =
  let m = Memory.create () in
  let base = Memory.alloc m ~name:"a" ~bytes:8 in
  Alcotest.(check bool) "oob traps" true
    (try
       ignore (Memory.load m Vtype.i32 (Int64.add base 6L));
       false
     with Trap.Trap (Trap.Out_of_bounds _) -> true);
  Alcotest.(check bool) "far address traps" true
    (try
       ignore (Memory.load m Vtype.i32 0xDEAD0000L);
       false
     with Trap.Trap (Trap.Out_of_bounds _) -> true);
  (* The same through compiled code: a load or store through a gep one
     element past either end of the region traps, and the store leaves
     memory as it was. *)
  let md = Vmodule.create "oob" in
  let define name params ret_ty =
    let b = Builder.define md ~name ~params ~ret_ty in
    Builder.position_at_end b (Builder.new_block b "entry");
    (b, Builder.gep b (Builder.param b "p") (Builder.param b "i") ~elem_bytes:4)
  in
  let b, g = define "get" [ ("p", Vtype.ptr); ("i", Vtype.i32) ] Vtype.i32 in
  Builder.ret b (Some (Builder.load b Vtype.i32 g));
  let b, g =
    define "put"
      [ ("p", Vtype.ptr); ("i", Vtype.i32); ("v", Vtype.i32) ]
      Vtype.Void
  in
  Builder.store b (Builder.param b "v") g;
  Builder.ret b None;
  Verify.check_module md;
  let st = Machine.create (Compile.compile_module md) in
  let mem = Machine.memory st in
  let base = Memory.alloc mem ~name:"a" ~bytes:8 in
  Memory.write_i32_array mem base [| 7; 9 |];
  let run fn i extra =
    Machine.reset st;
    Machine.run st fn (Vvalue.of_ptr base :: Vvalue.of_i32 i :: extra)
  in
  (match run "get" 1 [] with
  | Some v -> check Alcotest.int64 "gep load in bounds" 9L (Vvalue.as_int v)
  | None -> Alcotest.fail "expected value");
  List.iter
    (fun (fn, i, extra) ->
      Alcotest.(check bool)
        (Printf.sprintf "gep %s at index %d traps" fn i)
        true
        (match run fn i extra with
        | _ -> false
        | exception Trap.Trap (Trap.Out_of_bounds _) -> true))
    [
      ("get", 2, []);
      ("get", -1, []);
      ("put", 2, [ Vvalue.of_i32 5 ]);
      ("put", -1, [ Vvalue.of_i32 5 ]);
    ];
  check
    Alcotest.(array int)
    "trapped stores write nothing" [| 7; 9 |]
    (Memory.read_i32_array mem base 2)

let test_memory_guard_gaps () =
  let m = Memory.create () in
  let a = Memory.alloc m ~name:"a" ~bytes:100 in
  let b = Memory.alloc m ~name:"b" ~bytes:100 in
  Alcotest.(check bool) "allocations are far apart" true
    (Int64.sub b a >= 4096L)

let test_memory_vector_rw () =
  let m = Memory.create () in
  let base = Memory.alloc m ~name:"v" ~bytes:32 in
  let v = Vvalue.of_const (Const.iota Vtype.I32 8) in
  Memory.store m v base;
  let back = Memory.load m (Vtype.vector 8 Vtype.I32) base in
  Alcotest.(check bool) "vector roundtrip" true (Vvalue.equal v back)

let test_memory_masked () =
  let m = Memory.create () in
  let base = Memory.alloc m ~name:"v" ~bytes:32 in
  Memory.write_f32_array m base [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. |];
  let mask =
    Vvalue.I
      (Vtype.I1, Interp.Ilanes.of_array [| 1L; 0L; 1L; 0L; 1L; 0L; 1L; 0L |])
  in
  let v = Vvalue.of_const (Const.splat 8 (Const.f32 0.0)) in
  Memory.store ~mask m v base;
  check
    Alcotest.(array (float 0.0))
    "masked store wrote even lanes only"
    [| 0.; 2.; 0.; 4.; 0.; 6.; 0.; 8. |]
    (Memory.read_f32_array m base 8);
  (* the destination starts non-zero, so a disabled lane left stale
     would show *)
  let loaded = Vvalue.F (Vtype.F32, Array.make 8 9.0) in
  Memory.masked_load_into m (Vtype.vector 8 Vtype.F32) base ~mask loaded;
  check (Alcotest.float 0.0) "masked load disabled lane is 0" 0.0
    (Vvalue.float_lane loaded 1);
  check (Alcotest.float 0.0) "masked load enabled lane reads" 0.0
    (Vvalue.float_lane loaded 0)

(* A masked load where the disabled lanes point out of bounds must not
   trap: maskload semantics touch only enabled lanes. Enabling one of
   them traps with that lane's own address. *)
let test_memory_masked_oob_disabled_lanes () =
  let m = Memory.create () in
  let base = Memory.alloc m ~name:"v" ~bytes:8 in
  (* only 2 f32 elements; lanes 2..7 would be OOB *)
  Memory.write_f32_array m base [| 5.0; 6.0 |];
  let mask =
    Vvalue.I
      (Vtype.I1, Interp.Ilanes.of_array [| 1L; 1L; 0L; 0L; 0L; 0L; 0L; 0L |])
  in
  let v = Vvalue.F (Vtype.F32, Array.make 8 9.0) in
  Memory.masked_load_into m (Vtype.vector 8 Vtype.F32) base ~mask v;
  check (Alcotest.float 0.0) "lane 0" 5.0 (Vvalue.float_lane v 0);
  check (Alcotest.float 0.0) "lane 1" 6.0 (Vvalue.float_lane v 1);
  check (Alcotest.float 0.0) "disabled lane" 0.0 (Vvalue.float_lane v 7);
  let mask =
    Vvalue.I
      (Vtype.I1, Interp.Ilanes.of_array [| 1L; 1L; 1L; 0L; 0L; 0L; 0L; 0L |])
  in
  match Memory.masked_load_into m (Vtype.vector 8 Vtype.F32) base ~mask v with
  | () -> Alcotest.fail "enabled out-of-bounds lane did not trap"
  | exception Trap.Trap (Trap.Out_of_bounds a) ->
    check Alcotest.int64 "trap address is lane 2's" (Int64.add base 8L) a

(* ---------------- Machine ---------------- *)

let run_scale_add n =
  let m = Ir_samples.scale_add_module () in
  Verify.check_module m;
  let st = Machine.create (Compile.compile_module m) in
  let mem = Machine.memory st in
  let a = Memory.alloc mem ~name:"a" ~bytes:(4 * n) in
  let out = Memory.alloc mem ~name:"out" ~bytes:(4 * n) in
  Memory.write_f32_array mem a (Array.init n (fun i -> float_of_int i));
  let _ =
    Machine.run st "scale_add"
      [ Vvalue.of_ptr a; Vvalue.of_ptr out; Vvalue.of_i32 n; Vvalue.of_f32 2.0 ]
  in
  (st, Memory.read_f32_array mem out n)

let test_machine_scalar_loop () =
  let _, out = run_scale_add 10 in
  (* out[i] = i * 2.0 + i = 3i *)
  Array.iteri
    (fun i x ->
      check (Alcotest.float 1e-6) (Printf.sprintf "out[%d]" i)
        (3.0 *. float_of_int i)
        x)
    out

let test_machine_dyn_count_scales () =
  let st1, _ = run_scale_add 10 in
  let st2, _ = run_scale_add 20 in
  Alcotest.(check bool) "dynamic count grows with n" true
    (Machine.dyn_count st2 > Machine.dyn_count st1);
  Alcotest.(check bool) "count is positive" true (Machine.dyn_count st1 > 50)

let test_machine_vadd8 () =
  let m = Ir_samples.vadd8_module () in
  let st = Machine.create (Compile.compile_module m) in
  let mem = Machine.memory st in
  let a = Memory.alloc mem ~name:"a" ~bytes:32 in
  let b = Memory.alloc mem ~name:"b" ~bytes:32 in
  let out = Memory.alloc mem ~name:"out" ~bytes:32 in
  Memory.write_f32_array mem a (Array.init 8 float_of_int);
  Memory.write_f32_array mem b (Array.make 8 100.0);
  let _ =
    Machine.run st "vadd8" [ Vvalue.of_ptr a; Vvalue.of_ptr b; Vvalue.of_ptr out ]
  in
  check
    Alcotest.(array (float 0.0))
    "vector add" (Array.init 8 (fun i -> 100.0 +. float_of_int i))
    (Memory.read_f32_array mem out 8)

let test_machine_masked_intrinsics () =
  List.iter
    (fun tgt ->
      let vl = Target.vl tgt in
      let m = Ir_samples.masked_copy_module tgt in
      let st = Machine.create (Compile.compile_module m) in
      let mem = Machine.memory st in
      let src = Memory.alloc mem ~name:"src" ~bytes:(4 * vl) in
      let dst = Memory.alloc mem ~name:"dst" ~bytes:(4 * vl) in
      Memory.write_f32_array mem src
        (Array.init vl (fun i -> float_of_int (i + 1)));
      Memory.write_f32_array mem dst (Array.make vl (-1.0));
      let mask =
        Vvalue.I
          ( Vtype.I1,
            Interp.Ilanes.init vl (fun i -> if i mod 2 = 0 then 1L else 0L) )
      in
      let _ =
        Machine.run st "masked_copy"
          [ Vvalue.of_ptr src; Vvalue.of_ptr dst; mask ]
      in
      let out = Memory.read_f32_array mem dst vl in
      Array.iteri
        (fun i x ->
          let expected =
            if i mod 2 = 0 then float_of_int (i + 1) else -1.0
          in
          check (Alcotest.float 0.0)
            (Printf.sprintf "%s dst[%d]" (Target.name tgt) i)
            expected x)
        out)
    Target.all

let test_machine_budget () =
  (* n chosen so the loop exceeds a tiny budget: reports a hang. *)
  let m = Ir_samples.scale_add_module () in
  let st = Machine.create ~budget:100 (Compile.compile_module m) in
  let mem = Machine.memory st in
  let a = Memory.alloc mem ~name:"a" ~bytes:4000 in
  let out = Memory.alloc mem ~name:"out" ~bytes:4000 in
  Alcotest.(check bool) "budget trap" true
    (try
       ignore
         (Machine.run st "scale_add"
            [
              Vvalue.of_ptr a; Vvalue.of_ptr out; Vvalue.of_i32 1000;
              Vvalue.of_f32 1.0;
            ]);
       false
     with Trap.Trap Trap.Budget_exhausted -> true)

let test_machine_div_by_zero () =
  let m = Vmodule.create "div" in
  let b =
    Builder.define m ~name:"div"
      ~params:[ ("x", Vtype.i32); ("y", Vtype.i32) ]
      ~ret_ty:Vtype.i32
  in
  let entry = Builder.new_block b "entry" in
  Builder.position_at_end b entry;
  let q = Builder.sdiv b (Builder.param b "x") (Builder.param b "y") in
  Builder.ret b (Some q);
  let st = Machine.create (Compile.compile_module m) in
  (match Machine.run st "div" [ Vvalue.of_i32 10; Vvalue.of_i32 3 ] with
  | Some v -> check Alcotest.int64 "10/3" 3L (Vvalue.as_int v)
  | None -> Alcotest.fail "expected value");
  Alcotest.(check bool) "div by zero traps" true
    (try
       ignore (Machine.run st "div" [ Vvalue.of_i32 1; Vvalue.of_i32 0 ]);
       false
     with Trap.Trap Trap.Division_by_zero -> true)

let test_machine_extern_and_unknown () =
  let m = Vmodule.create "ext" in
  Vmodule.declare_extern m ~name:"host_add" ~arg_tys:[ Vtype.i32; Vtype.i32 ]
    ~ret:Vtype.i32;
  let b = Builder.define m ~name:"go" ~params:[] ~ret_ty:Vtype.i32 in
  let entry = Builder.new_block b "entry" in
  Builder.position_at_end b entry;
  let r =
    Builder.call b ~ret:Vtype.i32 "host_add"
      [ Ir_samples.imm_i32 2; Ir_samples.imm_i32 40 ]
  in
  Builder.ret b (Some r);
  Verify.check_module m;
  let st = Machine.create (Compile.compile_module m) in
  Alcotest.(check bool) "unknown extern traps" true
    (try
       ignore (Machine.run st "go" []);
       false
     with Trap.Trap (Trap.Unknown_function "host_add") -> true);
  Machine.register_extern st "host_add" (fun _ args ->
      match args with
      | [ a; b ] ->
        Some (Vvalue.of_i64 (Int64.add (Vvalue.as_int a) (Vvalue.as_int b)))
      | _ -> assert false);
  (* note: handler returns i64-kind value; make it i32 to be faithful *)
  Machine.register_extern st "host_add" (fun _ args ->
      match args with
      | [ a; b ] ->
        Some
          (Vvalue.of_i32
             (Int64.to_int (Int64.add (Vvalue.as_int a) (Vvalue.as_int b))))
      | _ -> assert false);
  match Machine.run st "go" [] with
  | Some v -> check Alcotest.int64 "extern result" 42L (Vvalue.as_int v)
  | None -> Alcotest.fail "expected value"

let test_machine_fig3 () =
  let m, _, _, _, _ = Ir_samples.fig3_foo_module () in
  let st = Machine.create (Compile.compile_module m) in
  let mem = Machine.memory st in
  let n = 6 in
  let a = Memory.alloc mem ~name:"a" ~bytes:(4 * n) in
  Memory.write_i32_array mem a (Array.make n 1);
  let _ =
    Machine.run st "foo" [ Vvalue.of_ptr a; Vvalue.of_i32 n; Vvalue.of_i32 2 ]
  in
  (* s starts at 2 and accumulates +i each iteration: a[i] = s_i *)
  (* s: 2,2,3,5,8,12 -> a[i] = 1 * s_i *)
  check
    Alcotest.(array int)
    "fig3 semantics" [| 2; 2; 3; 5; 8; 12 |]
    (Memory.read_i32_array mem a n)

let test_machine_call_between_funcs () =
  let m = Ir_samples.vadd8_module () in
  let b = Builder.define m ~name:"twice" ~params:[ ("a", Vtype.ptr); ("b", Vtype.ptr); ("out", Vtype.ptr) ] ~ret_ty:Vtype.Void in
  let entry = Builder.new_block b "entry" in
  Builder.position_at_end b entry;
  ignore
    (Builder.call b ~ret:Vtype.Void "vadd8"
       [ Builder.param b "a"; Builder.param b "b"; Builder.param b "out" ]);
  ignore
    (Builder.call b ~ret:Vtype.Void "vadd8"
       [ Builder.param b "out"; Builder.param b "b"; Builder.param b "out" ]);
  Builder.ret b None;
  Verify.check_module m;
  let st = Machine.create (Compile.compile_module m) in
  let mem = Machine.memory st in
  let a = Memory.alloc mem ~name:"a" ~bytes:32 in
  let bb = Memory.alloc mem ~name:"b" ~bytes:32 in
  let out = Memory.alloc mem ~name:"out" ~bytes:32 in
  Memory.write_f32_array mem a (Array.make 8 1.0);
  Memory.write_f32_array mem bb (Array.make 8 10.0);
  let _ =
    Machine.run st "twice"
      [ Vvalue.of_ptr a; Vvalue.of_ptr bb; Vvalue.of_ptr out ]
  in
  check
    Alcotest.(array (float 0.0))
    "nested call" (Array.make 8 21.0)
    (Memory.read_f32_array mem out 8)

(* f32 arithmetic must round to single precision at every step. *)
let test_machine_f32_rounding () =
  let m = Vmodule.create "round" in
  let b =
    Builder.define m ~name:"go" ~params:[ ("x", Vtype.f32) ] ~ret_ty:Vtype.f32
  in
  let entry = Builder.new_block b "entry" in
  Builder.position_at_end b entry;
  let y = Builder.fadd b (Builder.param b "x") (Ir_samples.imm_f32 1e-9) in
  Builder.ret b (Some y);
  let st = Machine.create (Compile.compile_module m) in
  match Machine.run st "go" [ Vvalue.of_f32 1.0 ] with
  | Some v ->
    (* 1.0 + 1e-9 rounds back to 1.0 in f32 *)
    check (Alcotest.float 0.0) "f32 rounding" 1.0 (Vvalue.as_float v)
  | None -> Alcotest.fail "expected value"

(* ---------------- qcheck properties ---------------- *)

let prop_flip_involution =
  QCheck.Test.make ~name:"bit flip is an involution (int lanes)" ~count:300
    QCheck.(triple int64 (int_range 0 31) (int_range 0 7))
    (fun (x, bit, lane) ->
      let v =
        Vvalue.I
          ( Vtype.I32,
            Interp.Ilanes.init 8 (fun i ->
                Bits.truncate Vtype.I32 (Int64.add x (Int64.of_int i))) )
      in
      let v' = Vvalue.flip_bit v ~lane ~bit in
      let v'' = Vvalue.flip_bit v' ~lane ~bit in
      Vvalue.equal v v''
      && (not (Vvalue.equal v v')))

let prop_flip_changes_only_lane =
  QCheck.Test.make ~name:"bit flip touches exactly one lane" ~count:300
    QCheck.(pair (int_range 0 7) (int_range 0 31))
    (fun (lane, bit) ->
      let v = Vvalue.I (Vtype.I32, Interp.Ilanes.make 8 7L) in
      let v' = Vvalue.flip_bit v ~lane ~bit in
      let ok = ref true in
      for i = 0 to 7 do
        let same = Vvalue.int_lane v i = Vvalue.int_lane v' i in
        if i = lane then (if same then ok := false)
        else if not same then ok := false
      done;
      !ok)

let prop_truncate_idempotent =
  QCheck.Test.make ~name:"truncate is idempotent" ~count:300
    QCheck.(pair (oneofl [ Vtype.I1; Vtype.I8; Vtype.I32; Vtype.I64 ]) int64)
    (fun (s, x) -> Bits.truncate s (Bits.truncate s x) = Bits.truncate s x)

let prop_memory_roundtrip =
  QCheck.Test.make ~name:"f32 array memory roundtrip" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 64) (float_range (-1e6) 1e6))
    (fun xs ->
      let xs = Array.of_list (List.map (Bits.round_float Vtype.F32) xs) in
      let m = Memory.create () in
      let base = Memory.alloc m ~name:"p" ~bytes:(4 * Array.length xs) in
      Memory.write_f32_array m base xs;
      Memory.read_f32_array m base (Array.length xs) = xs)

let () =
  Alcotest.run "interp"
    [
      ( "bits",
        [
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "to_unsigned" `Quick test_to_unsigned;
          Alcotest.test_case "float bits roundtrip" `Quick
            test_float_bits_roundtrip;
          Alcotest.test_case "flip int" `Quick test_flip_int;
          Alcotest.test_case "flip float" `Quick test_flip_float;
        ] );
      ( "vvalue",
        [
          Alcotest.test_case "of_const" `Quick test_vvalue_of_const;
          Alcotest.test_case "insert/extract" `Quick
            test_vvalue_insert_extract;
          Alcotest.test_case "flip_bit" `Quick test_vvalue_flip_bit;
          Alcotest.test_case "NaN equality" `Quick test_vvalue_equal_nan;
        ] );
      ( "memory",
        [
          Alcotest.test_case "alloc + rw f32" `Quick test_memory_alloc_rw;
          Alcotest.test_case "alloc + rw i32" `Quick test_memory_i32;
          Alcotest.test_case "out of bounds" `Quick test_memory_oob;
          Alcotest.test_case "guard gaps" `Quick test_memory_guard_gaps;
          Alcotest.test_case "vector rw" `Quick test_memory_vector_rw;
          Alcotest.test_case "masked ops" `Quick test_memory_masked;
          Alcotest.test_case "masked load skips disabled OOB lanes" `Quick
            test_memory_masked_oob_disabled_lanes;
        ] );
      ( "machine",
        [
          Alcotest.test_case "scalar loop" `Quick test_machine_scalar_loop;
          Alcotest.test_case "dynamic count" `Quick
            test_machine_dyn_count_scales;
          Alcotest.test_case "vadd8" `Quick test_machine_vadd8;
          Alcotest.test_case "masked intrinsics" `Quick
            test_machine_masked_intrinsics;
          Alcotest.test_case "budget = hang trap" `Quick test_machine_budget;
          Alcotest.test_case "division by zero" `Quick
            test_machine_div_by_zero;
          Alcotest.test_case "externs" `Quick test_machine_extern_and_unknown;
          Alcotest.test_case "fig3 semantics" `Quick test_machine_fig3;
          Alcotest.test_case "function calls" `Quick
            test_machine_call_between_funcs;
          Alcotest.test_case "f32 rounding" `Quick test_machine_f32_rounding;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_flip_involution;
            prop_flip_changes_only_lane;
            prop_truncate_idempotent;
            prop_memory_roundtrip;
          ] );
    ]
