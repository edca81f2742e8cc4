(* Per-kernel differential equivalence tests for the superblock fusion
   backend, and the pin of every fusion decision on the registry.

   For every fused kernel, a minimal VIR kernel exhibiting exactly that
   chain is built and executed twice from the same module — once
   compiled with fusion off (per-instruction threading) and once with
   it on (fused kernel) — and the two runs must agree bit-for-bit:
   return value lanes, memory contents, dynamic instruction and vector
   counts, and trap outcome. Inputs are QCheck-generated and include
   NaN/infinity lanes (float kernels), zero divisors (the trapping
   integer-divide consumer) and out-of-range indices (the gep chains),
   so trap ordering and lane-blend semantics are exercised, not just
   the happy path. A budget sweep pins the fuel accounting: a chain
   interrupted by Budget_exhausted must leave the same dynamic counts
   as unfused stepping. *)

open Vir

let vl = 8
let f32v = Vtype.vector vl Vtype.F32
let i32v = Vtype.vector vl Vtype.I32

let fvec xs = Interp.Vvalue.of_const (Const.Cvec (Array.map Const.f32 xs))
let ivec xs = Interp.Vvalue.of_const (Const.Cvec (Array.map Const.i32 xs))

(* Bit-exact rendering of a value (floats via their IEEE encoding). *)
let vstring v =
  String.concat ","
    (List.init (Interp.Vvalue.lanes v) (fun i ->
         Int64.to_string (Interp.Vvalue.lane_bits v i)))

type result = {
  r_ret : string option;
  r_trap : string option;
  r_dyn : int;
  r_vec : int;
  r_mem : string;
  r_fused : int;  (** chains the threading stage actually fused *)
}

let result_equal a b =
  a.r_ret = b.r_ret && a.r_trap = b.r_trap && a.r_dyn = b.r_dyn
  && a.r_vec = b.r_vec && a.r_mem = b.r_mem

(* [m] compiled with {!Interp.Compile.fusion} set to [fused], the
   switch restored after. *)
let compile ~fused m =
  let saved = !Interp.Compile.fusion in
  Interp.Compile.fusion := fused;
  Fun.protect
    ~finally:(fun () -> Interp.Compile.fusion := saved)
    (fun () -> Interp.Compile.compile_module m)

(* Run [fn] on a fresh machine over [m], fused or not. [setup] builds
   the argument list (and optionally initialises memory), returning a
   closure that renders whatever memory the kernel may write. *)
let exec ?(budget = Interp.Machine.default_budget) (m : Vmodule.t) ~fused ~fn
    ~setup =
  let cm = compile ~fused m in
  let st = Interp.Machine.create ~budget cm in
  let args, read_mem = setup st in
  let ret, trap =
    match Interp.Machine.run st fn args with
    | v -> (Option.map vstring v, None)
    | exception Interp.Trap.Trap k -> (None, Some (Interp.Trap.to_string k))
  in
  {
    r_ret = ret;
    r_trap = trap;
    r_dyn = Interp.Machine.dyn_count st;
    r_vec = Interp.Machine.dyn_vector_count st;
    r_mem = read_mem ();
    r_fused = Interp.Compile.fused_chain_count cm;
  }

(* The differential property: unfused and fused agree, and the fused
   compile really lowered at least one chain (otherwise the test would
   silently degrade to comparing the unfused path against itself). *)
let differential ?budget m ~fn ~setup =
  let u = exec ?budget m ~fused:false ~fn ~setup in
  let f = exec ?budget m ~fused:true ~fn ~setup in
  if f.r_fused < 1 then QCheck.Test.fail_report "no chain was fused";
  if not (result_equal u f) then
    QCheck.Test.fail_reportf
      "fused run diverged:\n\
       unfused: ret=%s trap=%s dyn=%d vec=%d mem=%s\n\
       fused:   ret=%s trap=%s dyn=%d vec=%d mem=%s"
      (Option.value ~default:"-" u.r_ret)
      (Option.value ~default:"-" u.r_trap)
      u.r_dyn u.r_vec u.r_mem
      (Option.value ~default:"-" f.r_ret)
      (Option.value ~default:"-" f.r_trap)
      f.r_dyn f.r_vec f.r_mem;
  true

let no_mem st =
  ignore st;
  fun () -> ""

(* ---------------- kernels, one per fused shape ---------------- *)

let mk_fbinop_fbinop () =
  let m = Vmodule.create "fuse" in
  let b =
    Builder.define m ~name:"f"
      ~params:[ ("a", f32v); ("b", f32v); ("c", f32v) ]
      ~ret_ty:f32v
  in
  Builder.position_at_end b (Builder.new_block b "entry");
  let t = Builder.fmul b (Builder.param b "a") (Builder.param b "b") in
  Builder.ret b (Some (Builder.fadd b t (Builder.param b "c")));
  m

let mk_ibinop_ibinop_vec () =
  let m = Vmodule.create "fuse" in
  let b =
    Builder.define m ~name:"f"
      ~params:[ ("a", i32v); ("b", i32v); ("c", i32v) ]
      ~ret_ty:i32v
  in
  Builder.position_at_end b (Builder.new_block b "entry");
  let t = Builder.add b (Builder.param b "a") (Builder.param b "b") in
  Builder.ret b (Some (Builder.mul b t (Builder.param b "c")));
  m

(* Scalar chain whose consumer can trap: r = c / (x + y). *)
let mk_ibinop_div () =
  let m = Vmodule.create "fuse" in
  let b =
    Builder.define m ~name:"f"
      ~params:[ ("x", Vtype.i32); ("y", Vtype.i32); ("c", Vtype.i32) ]
      ~ret_ty:Vtype.i32
  in
  Builder.position_at_end b (Builder.new_block b "entry");
  let t = Builder.add b (Builder.param b "x") (Builder.param b "y") in
  Builder.ret b (Some (Builder.sdiv b (Builder.param b "c") t));
  m

let mk_cast_binop () =
  let m = Vmodule.create "fuse" in
  let b =
    Builder.define m ~name:"f"
      ~params:[ ("a", i32v); ("c", f32v) ]
      ~ret_ty:f32v
  in
  Builder.position_at_end b (Builder.new_block b "entry");
  let t = Builder.cast b Instr.Sitofp (Builder.param b "a") f32v in
  Builder.ret b (Some (Builder.fadd b t (Builder.param b "c")));
  m

let mk_gep_load () =
  let m = Vmodule.create "fuse" in
  let b =
    Builder.define m ~name:"f"
      ~params:[ ("p", Vtype.ptr); ("i", Vtype.i32) ]
      ~ret_ty:Vtype.i32
  in
  Builder.position_at_end b (Builder.new_block b "entry");
  let g = Builder.gep b (Builder.param b "p") (Builder.param b "i") ~elem_bytes:4 in
  Builder.ret b (Some (Builder.load b Vtype.i32 g));
  m

let mk_gep_store () =
  let m = Vmodule.create "fuse" in
  let b =
    Builder.define m ~name:"f"
      ~params:[ ("p", Vtype.ptr); ("i", Vtype.i32); ("v", Vtype.i32) ]
      ~ret_ty:Vtype.Void
  in
  Builder.position_at_end b (Builder.new_block b "entry");
  let g = Builder.gep b (Builder.param b "p") (Builder.param b "i") ~elem_bytes:4 in
  Builder.store b (Builder.param b "v") g;
  Builder.ret b None;
  m

let mk_load_binop () =
  let m = Vmodule.create "fuse" in
  let b =
    Builder.define m ~name:"f"
      ~params:[ ("p", Vtype.ptr); ("c", Vtype.i32) ]
      ~ret_ty:Vtype.i32
  in
  Builder.position_at_end b (Builder.new_block b "entry");
  let t = Builder.load b Vtype.i32 (Builder.param b "p") in
  Builder.ret b (Some (Builder.add b t (Builder.param b "c")));
  m

(* load -> add -> store: the load+binop pair fuses and the store runs
   its own closure. *)
let mk_load_binop_store () =
  let m = Vmodule.create "fuse" in
  let b =
    Builder.define m ~name:"f"
      ~params:[ ("p", Vtype.ptr); ("a", Vtype.i32); ("q", Vtype.ptr) ]
      ~ret_ty:Vtype.Void
  in
  Builder.position_at_end b (Builder.new_block b "entry");
  let t = Builder.load b Vtype.i32 (Builder.param b "p") in
  let u = Builder.add b t (Builder.param b "a") in
  Builder.store b u (Builder.param b "q");
  Builder.ret b None;
  m

(* Arbitrary-length superblock: four linked fbinops, each intermediate
   read exactly once — the emitter segments this into fused pair
   kernels staged through the destination registers. *)
let mk_superblock () =
  let m = Vmodule.create "fuse" in
  let b =
    Builder.define m ~name:"f"
      ~params:
        [
          ("a", f32v); ("b", f32v); ("c", f32v); ("d", f32v); ("e", f32v);
        ]
      ~ret_ty:f32v
  in
  Builder.position_at_end b (Builder.new_block b "entry");
  let t1 = Builder.fmul b (Builder.param b "a") (Builder.param b "b") in
  let t2 = Builder.fadd b t1 (Builder.param b "c") in
  let t3 = Builder.fsub b t2 (Builder.param b "d") in
  Builder.ret b (Some (Builder.fdiv b t3 (Builder.param b "e")));
  m

(* Superblock with a trapping member: [gep -> load -> add -> sdiv],
   so mid-chain traps (OOB load, divide by zero) and fuel exhaustion
   inside the fused run are compared against unfused stepping. *)
let mk_superblock_int () =
  let m = Vmodule.create "fuse" in
  let b =
    Builder.define m ~name:"f"
      ~params:[ ("p", Vtype.ptr); ("i", Vtype.i32); ("c", Vtype.i32) ]
      ~ret_ty:Vtype.i32
  in
  Builder.position_at_end b (Builder.new_block b "entry");
  let g = Builder.gep b (Builder.param b "p") (Builder.param b "i") ~elem_bytes:4 in
  let t = Builder.load b Vtype.i32 g in
  let u = Builder.add b t (Builder.param b "c") in
  Builder.ret b (Some (Builder.sdiv b (Builder.param b "c") u));
  m

(* A longer chain ending in a reduce: the fbinop prefix fuses pairwise
   and the tail still reduces from the staged register. *)
let mk_superblock_reduce () =
  let m = Vmodule.create "fuse" in
  let b =
    Builder.define m ~name:"f"
      ~params:[ ("a", f32v); ("b", f32v); ("c", f32v) ]
      ~ret_ty:Vtype.f32
  in
  Builder.position_at_end b (Builder.new_block b "entry");
  let t1 = Builder.fmul b (Builder.param b "a") (Builder.param b "b") in
  let t2 = Builder.fadd b t1 (Builder.param b "c") in
  Builder.ret b
    (Some (Builder.call b ~ret:Vtype.f32 "llvm.vector.reduce.fadd" [ t2 ]));
  m

(* Every kernel above must compile to at least one fused chain and
   leave no chain unfused; otherwise its differential property would
   compare unfused execution against itself. *)
let test_kernels_fuse () =
  List.iter
    (fun (name, m) ->
      let cm = compile ~fused:true m in
      Alcotest.(check bool)
        (name ^ " fuses") true
        (Interp.Compile.fused_chain_count cm >= 1);
      Alcotest.(check (list (pair string int)))
        (name ^ " leaves no chain unfused")
        [] (Interp.Compile.unfused_shapes cm))
    [
      ("fbinop_fbinop", mk_fbinop_fbinop ());
      ("ibinop_ibinop_vec", mk_ibinop_ibinop_vec ());
      ("ibinop_div", mk_ibinop_div ());
      ("cast_binop", mk_cast_binop ());
      ("gep_load", mk_gep_load ());
      ("gep_store", mk_gep_store ());
      ("load_binop", mk_load_binop ());
      ("load_binop_store", mk_load_binop_store ());
      ("superblock", mk_superblock ());
      ("superblock_int", mk_superblock_int ());
      ("superblock_reduce", mk_superblock_reduce ());
    ]

(* ---------------- pinned fusion decisions ---------------- *)

(* Which chains the compiler fuses, pinned per module in
   fusion_counts.txt: the 24 uninstrumented registry modules (12
   workloads x 2 ISAs) and the 144 instrumented modules of the study
   grid ({!Instrumented_grid}). A row holds the chain candidates, the
   fused chains, the fused chain-length histogram, the site kernels and
   the module. With fusion on, the fused count, histogram and site
   kernels must equal the pin, and every candidate must either fuse or
   be counted under an unfused shape. With fusion off nothing fuses, no
   shape is counted and the site kernels stay. The file is checked like
   the instrumentor's pin ({!Pinned}). *)
let counts_file = "fusion_counts.txt"

let counts_header =
  "# Fusion decisions of Interp.Compile, one module a row: chain\n\
   # candidates, fused chains, fused chain-length histogram\n\
   # (length:count, - when empty), site kernels, module (workload/ISA/\n\
   # uninstrumented, or the study-grid cell workload/ISA/category/detector\n\
   # arm). Checked by test_fuse's \"pinned fusion decisions\" case;\n\
   # re-record only in a change that means to alter which chains fuse.\n"

let hist_string = function
  | [] -> "-"
  | h ->
    String.concat "," (List.map (fun (l, n) -> Printf.sprintf "%d:%d" l n) h)

(* [f label m] for every pinned module, built just before the call. *)
let iter_pinned_modules f =
  List.iter
    (fun (b : Benchmarks.Harness.benchmark) ->
      let w = b.Benchmarks.Harness.bench in
      List.iter
        (fun target ->
          f
            (Printf.sprintf "%s/%s/uninstrumented" w.Vulfi.Workload.w_name
               (Target.name target))
            (w.Vulfi.Workload.w_build target))
        Target.all)
    Benchmarks.Registry.all;
  Instrumented_grid.iter (fun label instr ->
      f label instr.Vulfi.Instrument.instrumented)

let test_fusion_pinned () =
  let actual = ref [] and off_errors = ref [] in
  iter_pinned_modules (fun label m ->
      let on = compile ~fused:true m and off = compile ~fused:false m in
      let fused = Interp.Compile.fused_chain_count on in
      let shapes = Interp.Compile.unfused_shapes on in
      let sites = Interp.Compile.site_kernel_count on in
      actual :=
        Printf.sprintf "%d %d %s %d %s"
          (List.fold_left (fun acc (_, n) -> acc + n) fused shapes)
          fused
          (hist_string (Interp.Compile.fused_length_hist on))
          sites label
        :: !actual;
      if
        Interp.Compile.fused_chain_count off <> 0
        || Interp.Compile.unfused_shapes off <> []
        || Interp.Compile.site_kernel_count off <> sites
      then off_errors := label :: !off_errors);
  let actual = List.rev !actual in
  Alcotest.(check int) "pinned modules" 168 (List.length actual);
  Pinned.check ~file:counts_file ~header:counts_header ~what:"modules"
    ~label:(Pinned.label_after 4) ~expected:(Pinned.read counts_file) actual;
  Alcotest.(check (list string))
    "fusion off: nothing fused, no shape counted, site kernels kept" []
    (List.rev !off_errors)

(* ---------------- generators ---------------- *)

let float_gen =
  QCheck.Gen.(
    oneof
      [
        float_range (-1e6) 1e6;
        oneofl [ Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0 ];
      ])

let fvec_gen = QCheck.Gen.(array_size (return vl) float_gen)
let ivec_gen = QCheck.Gen.(array_size (return vl) (int_range (-10000) 10000))

let arb gen print = QCheck.make gen ~print

let mem_words mem base n =
  String.concat ","
    (Array.to_list (Array.map string_of_int (Interp.Memory.read_i32_array mem base n)))

(* ---------------- per-rule properties ---------------- *)

let prop_fbinop =
  QCheck.Test.make ~name:"fused fmul->fadd matches unfused (incl. NaN/inf)"
    ~count:100
    (arb
       QCheck.Gen.(triple fvec_gen fvec_gen fvec_gen)
       QCheck.Print.(triple (array float) (array float) (array float)))
    (fun (a, b, c) ->
      differential (mk_fbinop_fbinop ()) ~fn:"f" ~setup:(fun st ->
          ignore st;
          ([ fvec a; fvec b; fvec c ], fun () -> "")))

let prop_ibinop_vec =
  QCheck.Test.make ~name:"fused add->mul (vector) matches unfused" ~count:100
    (arb
       QCheck.Gen.(triple ivec_gen ivec_gen ivec_gen)
       QCheck.Print.(triple (array int) (array int) (array int)))
    (fun (a, b, c) ->
      differential (mk_ibinop_ibinop_vec ()) ~fn:"f" ~setup:(fun st ->
          ignore st;
          ([ ivec a; ivec b; ivec c ], fun () -> "")))

let prop_ibinop_div =
  (* x + y is frequently zero here, so the trapping-consumer ordering
     (charge, add, charge, trap) is exercised for real. *)
  QCheck.Test.make ~name:"fused add->sdiv traps identically" ~count:200
    (arb
       QCheck.Gen.(triple (int_range (-3) 3) (int_range (-3) 3) (int_range (-100) 100))
       QCheck.Print.(triple int int int))
    (fun (x, y, c) ->
      differential (mk_ibinop_div ()) ~fn:"f" ~setup:(fun st ->
          ignore st;
          ( [ Interp.Vvalue.of_i32 x; Interp.Vvalue.of_i32 y;
              Interp.Vvalue.of_i32 c ],
            fun () -> "" )))

let prop_cast_binop =
  QCheck.Test.make ~name:"fused sitofp->fadd matches unfused" ~count:100
    (arb
       QCheck.Gen.(pair ivec_gen fvec_gen)
       QCheck.Print.(pair (array int) (array float)))
    (fun (a, c) ->
      differential (mk_cast_binop ()) ~fn:"f" ~setup:(fun st ->
          ignore st;
          ([ ivec a; fvec c ], fun () -> "")))

let n_slots = 16

let mem_setup st =
  let mem = Interp.Machine.memory st in
  let base = Interp.Memory.alloc mem ~name:"buf" ~bytes:(4 * n_slots) in
  Interp.Memory.write_i32_array mem base (Array.init n_slots (fun i -> 7 * i));
  (mem, base)

let prop_gep_load =
  (* Index range deliberately exceeds the allocation on both sides so
     the out-of-bounds trap path is compared too. *)
  QCheck.Test.make ~name:"fused gep->load matches unfused (incl. OOB trap)"
    ~count:150
    (arb QCheck.Gen.(int_range (-4) (n_slots + 4)) QCheck.Print.int)
    (fun i ->
      differential (mk_gep_load ()) ~fn:"f" ~setup:(fun st ->
          let mem, base = mem_setup st in
          ( [ Interp.Vvalue.of_ptr base; Interp.Vvalue.of_i32 i ],
            fun () -> mem_words mem base n_slots )))

let prop_gep_store =
  QCheck.Test.make ~name:"fused gep->store matches unfused (incl. OOB trap)"
    ~count:150
    (arb
       QCheck.Gen.(pair (int_range (-4) (n_slots + 4)) (int_range (-1000) 1000))
       QCheck.Print.(pair int int))
    (fun (i, v) ->
      differential (mk_gep_store ()) ~fn:"f" ~setup:(fun st ->
          let mem, base = mem_setup st in
          ( [ Interp.Vvalue.of_ptr base; Interp.Vvalue.of_i32 i;
              Interp.Vvalue.of_i32 v ],
            fun () -> mem_words mem base n_slots )))

let prop_load_binop =
  QCheck.Test.make ~name:"fused load->add matches unfused" ~count:100
    (arb QCheck.Gen.(int_range (-1000) 1000) QCheck.Print.int)
    (fun c ->
      differential (mk_load_binop ()) ~fn:"f" ~setup:(fun st ->
          let mem, base = mem_setup st in
          ( [ Interp.Vvalue.of_ptr base; Interp.Vvalue.of_i32 c ],
            fun () -> mem_words mem base n_slots )))

let prop_load_binop_store =
  QCheck.Test.make ~name:"fused load->add->store matches unfused" ~count:100
    (arb QCheck.Gen.(int_range (-1000) 1000) QCheck.Print.int)
    (fun a ->
      differential (mk_load_binop_store ()) ~fn:"f" ~setup:(fun st ->
          let mem, base = mem_setup st in
          ( [ Interp.Vvalue.of_ptr base; Interp.Vvalue.of_i32 a;
              Interp.Vvalue.of_ptr (Int64.add base 20L) ],
            fun () -> mem_words mem base n_slots )))

let prop_superblock =
  QCheck.Test.make
    ~name:"fused 4-member superblock matches unfused (incl. NaN/inf)"
    ~count:150
    (arb
       QCheck.Gen.(
         pair (pair fvec_gen fvec_gen) (triple fvec_gen fvec_gen fvec_gen))
       QCheck.Print.(
         pair
           (pair (array float) (array float))
           (triple (array float) (array float) (array float))))
    (fun ((a, b), (c, d, e)) ->
      differential (mk_superblock ()) ~fn:"f" ~setup:(fun st ->
          ignore st;
          ([ fvec a; fvec b; fvec c; fvec d; fvec e ], fun () -> "")))

let prop_superblock_int =
  (* Narrow ranges make OOB loads and zero divisors common, so the
     mid-superblock trap ordering is exercised for real. *)
  QCheck.Test.make ~name:"fused gep->load->add->sdiv traps identically"
    ~count:200
    (arb
       QCheck.Gen.(pair (int_range (-4) (n_slots + 4)) (int_range (-3) 3))
       QCheck.Print.(pair int int))
    (fun (i, c) ->
      differential (mk_superblock_int ()) ~fn:"f" ~setup:(fun st ->
          let mem, base = mem_setup st in
          ( [ Interp.Vvalue.of_ptr base; Interp.Vvalue.of_i32 i;
              Interp.Vvalue.of_i32 c ],
            fun () -> mem_words mem base n_slots )))

let prop_superblock_reduce =
  QCheck.Test.make
    ~name:"fused fmul->fadd->reduce_fadd matches unfused" ~count:150
    (arb
       QCheck.Gen.(triple fvec_gen fvec_gen fvec_gen)
       QCheck.Print.(triple (array float) (array float) (array float)))
    (fun (a, b, c) ->
      differential (mk_superblock_reduce ()) ~fn:"f" ~setup:(fun st ->
          ignore st;
          ([ fvec a; fvec b; fvec c ], fun () -> "")))

(* ---------------- fuel accounting across traps ---------------- *)

(* Sweep the budget through every prefix of each kernel: wherever the
   Budget_exhausted trap lands (before, inside or after a fused chain),
   the dynamic counters must match unfused stepping exactly. *)
let test_budget_sweep () =
  let cases =
    [
      ( "load_binop_store",
        mk_load_binop_store,
        fun st ->
          let mem, base = mem_setup st in
          ( [ Interp.Vvalue.of_ptr base; Interp.Vvalue.of_i32 3;
              Interp.Vvalue.of_ptr (Int64.add base 20L) ],
            fun () -> mem_words mem base n_slots ) );
      ( "ibinop_div",
        mk_ibinop_div,
        fun st ->
          ignore st;
          ( [ Interp.Vvalue.of_i32 1; Interp.Vvalue.of_i32 (-1);
              Interp.Vvalue.of_i32 5 ],
            fun () -> "" ) );
      ( "fbinop_fbinop",
        mk_fbinop_fbinop,
        fun st ->
          ignore st;
          ( [ fvec (Array.make vl 1.5); fvec (Array.make vl 2.5);
              fvec (Array.make vl 0.5) ],
            fun () -> "" ) );
      ( "superblock",
        mk_superblock,
        fun st ->
          ignore st;
          ( [ fvec (Array.make vl 1.5); fvec (Array.make vl 2.5);
              fvec (Array.make vl 0.5); fvec (Array.make vl 3.0);
              fvec (Array.make vl 4.0) ],
            fun () -> "" ) );
      ( "superblock_int",
        mk_superblock_int,
        fun st ->
          let mem, base = mem_setup st in
          ( [ Interp.Vvalue.of_ptr base; Interp.Vvalue.of_i32 3;
              Interp.Vvalue.of_i32 (-7) ],
            fun () -> mem_words mem base n_slots ) );
      ( "superblock_reduce",
        mk_superblock_reduce,
        fun st ->
          ignore st;
          ( [ fvec (Array.make vl 1.5); fvec (Array.make vl 2.5);
              fvec (Array.make vl 0.5) ],
            fun () -> "" ) );
    ]
  in
  List.iter
    (fun (name, mk, setup) ->
      for budget = 0 to 10 do
        let u = exec ~budget (mk ()) ~fused:false ~fn:"f" ~setup in
        let f = exec ~budget (mk ()) ~fused:true ~fn:"f" ~setup in
        Alcotest.(check bool)
          (Printf.sprintf "%s budget=%d identical" name budget)
          true
          (result_equal u f)
      done)
    cases

let () =
  ignore no_mem;
  Alcotest.run "fuse"
    [
      ( "structure",
        [
          Alcotest.test_case "each kernel fuses" `Quick test_kernels_fuse;
          Alcotest.test_case "budget sweep over chains" `Quick
            test_budget_sweep;
          Alcotest.test_case "pinned fusion decisions (168 modules)" `Quick
            test_fusion_pinned;
        ] );
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_fbinop;
            prop_ibinop_vec;
            prop_ibinop_div;
            prop_cast_binop;
            prop_gep_load;
            prop_gep_store;
            prop_load_binop;
            prop_load_binop_store;
            prop_superblock;
            prop_superblock_int;
            prop_superblock_reduce;
          ] );
    ]
