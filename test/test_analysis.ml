(* Tests for def-use chains, forward slices, the fault-site taxonomy
   (including the paper's Fig 3 example), and the instruction-mix census
   behind Fig 10. *)

open Analysis

let check = Alcotest.check

(* ---------------- Defuse ---------------- *)

let test_defuse_basic () =
  let m = Ir_samples.vadd8_module () in
  let f = Vir.Vmodule.find_func_exn m "vadd8" in
  let du = Defuse.build f in
  (* The fadd result (register 4: params 0-2, loads 3,4 -> fadd 5...) is
     found by scanning for the fadd instruction. *)
  let fadd =
    List.find
      (fun (i : Vir.Instr.t) ->
        match i.Vir.Instr.op with Vir.Instr.Fbinop _ -> true | _ -> false)
      (Vir.Func.all_instrs f)
  in
  (match Defuse.def du fadd.Vir.Instr.id with
  | Some i -> Alcotest.(check bool) "def found" true (i == fadd)
  | None -> Alcotest.fail "fadd def missing");
  let users = Defuse.uses_of du fadd.Vir.Instr.id in
  check Alcotest.int "fadd used once (by store)" 1 (List.length users);
  (match users with
  | [ u ] -> (
    match u.Defuse.u_instr.Vir.Instr.op with
    | Vir.Instr.Store _ -> ()
    | _ -> Alcotest.fail "fadd user should be the store")
  | _ -> assert false);
  (* loads are used by the fadd *)
  let loads =
    List.filter
      (fun (i : Vir.Instr.t) ->
        match i.Vir.Instr.op with Vir.Instr.Load _ -> true | _ -> false)
      (Vir.Func.all_instrs f)
  in
  List.iter
    (fun (ld : Vir.Instr.t) ->
      check Alcotest.int "load used once" 1
        (List.length (Defuse.uses_of du ld.Vir.Instr.id)))
    loads

let test_defuse_params_used () =
  let m = Ir_samples.vadd8_module () in
  let f = Vir.Vmodule.find_func_exn m "vadd8" in
  let du = Defuse.build f in
  (* params 0,1,2 are the three pointers; each used exactly once *)
  List.iter
    (fun p ->
      check Alcotest.int
        (Printf.sprintf "param %d uses" p.Vir.Func.preg)
        1
        (List.length (Defuse.uses_of du p.Vir.Func.preg)))
    f.Vir.Func.params

(* ---------------- Slice + Fig 3 taxonomy ---------------- *)

let test_fig3_taxonomy () =
  (* Paper Fig 3: i is both a control site and an address site; s is a
     pure-data site. *)
  let m, i_reg, s_reg, inext, snext = Ir_samples.fig3_foo_module () in
  let f = Vir.Vmodule.find_func_exn m "foo" in
  let du = Defuse.build f in
  let slice_i = Slice.forward_slice du i_reg in
  Alcotest.(check bool) "i slice has control flow" true
    (Slice.contains_control_flow slice_i);
  Alcotest.(check bool) "i slice has gep" true (Slice.contains_gep slice_i);
  let slice_s = Slice.forward_slice du s_reg in
  Alcotest.(check bool) "s slice has no control flow" false
    (Slice.contains_control_flow slice_s);
  Alcotest.(check bool) "s slice has no gep" false
    (Slice.contains_gep slice_s);
  (* The successors i' = i+1 and s' = s+i classify like their phis. *)
  let slice_inext = Slice.forward_slice du (Ir_samples.reg_of inext) in
  Alcotest.(check bool) "i+1 is control+address" true
    (Slice.contains_control_flow slice_inext
    && Slice.contains_gep slice_inext);
  let slice_snext = Slice.forward_slice du (Ir_samples.reg_of snext) in
  Alcotest.(check bool) "s+i is pure-data" true
    ((not (Slice.contains_control_flow slice_snext))
    && not (Slice.contains_gep slice_snext));
  (* The classifier campaigns use gives the four registers the same
     classes: (control, address, pure-data). *)
  let targets = Sites.targets_of_module m in
  let classes r =
    match
      List.find_opt
        (fun (t : Sites.target) ->
          t.Sites.t_kind = Sites.Lvalue && t.Sites.t_instr.Vir.Instr.id = r)
        targets
    with
    | Some t ->
      (t.Sites.t_is_control, t.Sites.t_is_address, Sites.is_pure_data t)
    | None -> Alcotest.failf "no Lvalue target defines %%%d" r
  in
  let classes_t = Alcotest.(triple bool bool bool) in
  check classes_t "Sites: i is control and address" (true, true, false)
    (classes i_reg);
  check classes_t "Sites: i+1 is control and address" (true, true, false)
    (classes (Ir_samples.reg_of inext));
  check classes_t "Sites: s is pure-data" (false, false, true)
    (classes s_reg);
  check classes_t "Sites: s+i is pure-data" (false, false, true)
    (classes (Ir_samples.reg_of snext))

let test_slice_includes_self_gep () =
  (* A gep's own Lvalue must classify as an address site. *)
  let m = Ir_samples.scale_add_module () in
  let f = Vir.Vmodule.find_func_exn m "scale_add" in
  let du = Defuse.build f in
  let geps =
    List.filter Vir.Instr.is_gep (Vir.Func.all_instrs f)
  in
  Alcotest.(check bool) "has geps" true (geps <> []);
  List.iter
    (fun (g : Vir.Instr.t) ->
      let slice = Slice.forward_slice du g.Vir.Instr.id in
      Alcotest.(check bool) "gep Lvalue is address-classified" true
        (Slice.contains_gep slice))
    geps

let test_slice_store_is_terminal () =
  let m = Ir_samples.vadd8_module () in
  let f = Vir.Vmodule.find_func_exn m "vadd8" in
  let du = Defuse.build f in
  let store =
    List.find
      (fun (i : Vir.Instr.t) ->
        match i.Vir.Instr.op with Vir.Instr.Store _ -> true | _ -> false)
      (Vir.Func.all_instrs f)
  in
  let slice = Slice.forward_slice_of_instr du store in
  check Alcotest.int "store slice is only itself" 1 (List.length slice)

(* Regression: the slice visited-set keyed instructions by (id, op).
   Void instructions all share id = -1, so two structurally identical
   stores in different blocks collided and the second one silently
   dropped out of the slice. Dedup must be by physical identity. *)
let test_slice_identical_stores_both_kept () =
  let m = Vir.Vmodule.create "twin_stores" in
  let b =
    Vir.Builder.define m ~name:"f"
      ~params:[ ("p", Vir.Vtype.ptr); ("c", Vir.Vtype.bool_ty) ]
      ~ret_ty:Vir.Vtype.Void
  in
  let entry = Vir.Builder.new_block b "entry" in
  let bthen = Vir.Builder.new_block b "then" in
  let belse = Vir.Builder.new_block b "else" in
  Vir.Builder.position_at_end b entry;
  let v = Vir.Builder.add b (Ir_samples.imm_i32 1) (Ir_samples.imm_i32 2) in
  Vir.Builder.condbr b (Vir.Builder.param b "c") "then" "else";
  Vir.Builder.position_at_end b bthen;
  Vir.Builder.store b v (Vir.Builder.param b "p");
  Vir.Builder.ret b None;
  Vir.Builder.position_at_end b belse;
  (* identical in every structural field to the store in "then" *)
  Vir.Builder.store b v (Vir.Builder.param b "p");
  Vir.Builder.ret b None;
  let f = Vir.Vmodule.find_func_exn m "f" in
  let du = Defuse.build f in
  let slice = Slice.forward_slice du (Ir_samples.reg_of v) in
  check Alcotest.int "slice holds v and both stores" 3 (List.length slice);
  let stores =
    List.filter
      (fun (i : Vir.Instr.t) ->
        match i.Vir.Instr.op with Vir.Instr.Store _ -> true | _ -> false)
      slice
  in
  check Alcotest.int "both stores present" 2 (List.length stores)

(* ---------------- Sites ---------------- *)

let test_sites_fig2_relationship () =
  (* Fig 2: pure-data is disjoint from control and address; control and
     address may overlap. Check on the Fig 3 module. *)
  let m, _, _, _, _ = Ir_samples.fig3_foo_module () in
  let targets = Sites.targets_of_module m in
  List.iter
    (fun (t : Sites.target) ->
      if Sites.is_pure_data t then begin
        Alcotest.(check bool) "pure-data not control" false t.Sites.t_is_control;
        Alcotest.(check bool) "pure-data not address" false t.Sites.t_is_address
      end)
    targets;
  Alcotest.(check bool) "some control+address overlap exists" true
    (List.exists
       (fun (t : Sites.target) -> t.Sites.t_is_control && t.Sites.t_is_address)
       targets)

let test_sites_vector_lanes () =
  let m = Ir_samples.vadd8_module () in
  let targets = Sites.targets_of_module m in
  let vector_targets =
    List.filter (fun (t : Sites.target) -> t.Sites.t_lanes = 8) targets
  in
  (* loads, fadd, store value: all <8 x float> *)
  check Alcotest.int "four 8-lane targets" 4 (List.length vector_targets);
  Alcotest.(check bool) "site count multiplies lanes" true
    (Sites.total_sites targets >= 32)

let test_sites_store_value_target () =
  let m = Ir_samples.vadd8_module () in
  let targets = Sites.targets_of_module m in
  Alcotest.(check bool) "store value is a target" true
    (List.exists
       (fun (t : Sites.target) -> t.Sites.t_kind = Sites.Store_value)
       targets)

let test_sites_maskstore_value_target () =
  let m = Ir_samples.masked_copy_module Vir.Target.Avx in
  let targets = Sites.targets_of_module m in
  Alcotest.(check bool) "maskstore value is a target" true
    (List.exists
       (fun (t : Sites.target) -> t.Sites.t_kind = Sites.Maskstore_value)
       targets);
  (* the maskload Lvalue is also a target *)
  Alcotest.(check bool) "maskload Lvalue is a target" true
    (List.exists
       (fun (t : Sites.target) ->
         t.Sites.t_kind = Sites.Lvalue
         &&
         match t.Sites.t_instr.Vir.Instr.op with
         | Vir.Instr.Call (n, _) -> Vir.Intrinsics.is_masked n
         | _ -> false)
       targets)

let test_sites_exclude_vulfi_runtime () =
  let m = Vir.Vmodule.create "rt" in
  Vir.Vmodule.declare_extern m ~name:"__vulfi_inject_i32"
    ~arg_tys:[ Vir.Vtype.i32; Vir.Vtype.bool_ty; Vir.Vtype.i32 ]
    ~ret:Vir.Vtype.i32;
  let b = Vir.Builder.define m ~name:"f" ~params:[] ~ret_ty:Vir.Vtype.i32 in
  let entry = Vir.Builder.new_block b "entry" in
  Vir.Builder.position_at_end b entry;
  let x =
    Vir.Builder.call b ~ret:Vir.Vtype.i32 "__vulfi_inject_i32"
      [ Ir_samples.imm_i32 1; Ir_samples.imm_bool true; Ir_samples.imm_i32 0 ]
  in
  Vir.Builder.ret b (Some x);
  let targets = Sites.targets_of_module m in
  check Alcotest.int "runtime call is not a target" 0 (List.length targets)

let test_sites_category_select () =
  let m, _, _, _, _ = Ir_samples.fig3_foo_module () in
  let targets = Sites.targets_of_module m in
  let pd = Sites.select targets Sites.Pure_data in
  let ctl = Sites.select targets Sites.Control in
  let addr = Sites.select targets Sites.Address in
  Alcotest.(check bool) "each category non-empty" true
    (pd <> [] && ctl <> [] && addr <> []);
  List.iter
    (fun (t : Sites.target) ->
      Alcotest.(check bool) "select respects category" true
        (Sites.in_category t Sites.Control))
    ctl;
  check
    Alcotest.(option string)
    "category parsing" (Some "address")
    (Option.map Sites.category_name (Sites.category_of_string "addr"))

(* ---------------- Instmix (Fig 10 machinery) ---------------- *)

let vcopy_src =
  "export void vcopy_ispc(uniform int a1[], uniform int a2[], uniform int \
   n) { foreach (i = 0 ... n) { a2[i] = a1[i]; } }"

let test_instmix_vcopy () =
  List.iter
    (fun tgt ->
      let m = Minispc.Driver.compile tgt vcopy_src in
      let census = Instmix.census m in
      List.iter
        (fun (cat, mix) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s non-empty" (Vir.Target.name tgt)
               (Sites.category_name cat))
            true
            (Instmix.total mix > 0))
        census;
      (* pure-data in vcopy is dominated by the vector copy itself *)
      let pd = List.assoc Sites.Pure_data census in
      Alcotest.(check bool) "pure-data has vector instructions" true
        (pd.Instmix.vector_count > 0))
    Vir.Target.all

let test_instmix_scalar_only_module () =
  let m, _, _, _, _ = Ir_samples.fig3_foo_module () in
  let census = Instmix.census m in
  List.iter
    (fun (_, mix) ->
      check Alcotest.int "no vector instructions in scalar code" 0
        mix.Instmix.vector_count)
    census

let test_instmix_fraction () =
  check (Alcotest.float 0.0) "empty fraction" 0.0
    (Instmix.vector_fraction Instmix.empty);
  let m = { Instmix.scalar_count = 1; vector_count = 3 } in
  check (Alcotest.float 1e-9) "3/4 vector" 0.75 (Instmix.vector_fraction m)

(* ---------------- properties ---------------- *)

(* On any compiled program, categories partition as in Fig 2. *)
let prop_fig2_partition =
  QCheck.Test.make ~name:"pure-data disjoint from control/address (Fig 2)"
    ~count:20
    (QCheck.make (QCheck.Gen.oneofl [ 4; 8; 16; 32 ]))
    (fun _n ->
      let m = Minispc.Driver.compile Vir.Target.Avx vcopy_src in
      let targets = Sites.targets_of_module m in
      List.for_all
        (fun (t : Sites.target) ->
          if Sites.is_pure_data t then
            (not t.Sites.t_is_control) && not t.Sites.t_is_address
          else t.Sites.t_is_control || t.Sites.t_is_address)
        targets)

let prop_total_sites_geq_targets =
  QCheck.Test.make ~name:"total sites >= target count" ~count:10
    QCheck.unit
    (fun () ->
      let m = Minispc.Driver.compile Vir.Target.Sse vcopy_src in
      let targets = Sites.targets_of_module m in
      Sites.total_sites targets >= List.length targets)

let () =
  Alcotest.run "analysis"
    [
      ( "defuse",
        [
          Alcotest.test_case "def and uses" `Quick test_defuse_basic;
          Alcotest.test_case "params used" `Quick test_defuse_params_used;
        ] );
      ( "slice",
        [
          Alcotest.test_case "Fig 3 taxonomy (i vs s)" `Quick
            test_fig3_taxonomy;
          Alcotest.test_case "gep Lvalue is address site" `Quick
            test_slice_includes_self_gep;
          Alcotest.test_case "store slice is terminal" `Quick
            test_slice_store_is_terminal;
          Alcotest.test_case "identical stores both kept" `Quick
            test_slice_identical_stores_both_kept;
        ] );
      ( "sites",
        [
          Alcotest.test_case "Fig 2 relationship" `Quick
            test_sites_fig2_relationship;
          Alcotest.test_case "vector lanes multiply sites" `Quick
            test_sites_vector_lanes;
          Alcotest.test_case "store value targeted" `Quick
            test_sites_store_value_target;
          Alcotest.test_case "maskstore value targeted" `Quick
            test_sites_maskstore_value_target;
          Alcotest.test_case "vulfi runtime excluded" `Quick
            test_sites_exclude_vulfi_runtime;
          Alcotest.test_case "category selection" `Quick
            test_sites_category_select;
        ] );
      ( "instmix",
        [
          Alcotest.test_case "vcopy census" `Quick test_instmix_vcopy;
          Alcotest.test_case "scalar module" `Quick
            test_instmix_scalar_only_module;
          Alcotest.test_case "vector fraction" `Quick test_instmix_fraction;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_fig2_partition; prop_total_sites_geq_targets ] );
    ]
