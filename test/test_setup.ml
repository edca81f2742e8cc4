(* Tests for the set-up passes every campaign cell runs before its first
   experiment ([Experiment.prepare]): the verifier's verdicts on
   malformed IR, pinned; fault-site classification against its
   definition by forward slices (paper §II-C); and linear growth of
   every stage's allocation with block length. *)

open Vir

let check = Alcotest.check

(* The plain module of every registry workload on both ISAs. *)
let registry_modules () =
  List.concat_map
    (fun (b : Benchmarks.Harness.benchmark) ->
      let w = b.Benchmarks.Harness.bench in
      List.map
        (fun target ->
          ( Printf.sprintf "%s/%s" w.Vulfi.Workload.w_name
              (Target.name target),
            fun () -> w.Vulfi.Workload.w_build target ))
        Target.all)
    Benchmarks.Registry.all

(* ---------------- Verifier verdicts on malformed IR ---------------- *)

(* Single-point mutations of well-formed modules. Each kind lists its
   candidate points (block index, instruction index) in a function and
   rewrites one of them in place; the corpus takes the first and the
   last candidate of each kind in each module. The verdicts — every
   error string, in order — are pinned by MD5 in verify_verdicts.txt,
   so a change to the verifier's tables must keep the same checks, the
   same messages and the same error order. *)

let block_array (b : Block.t) = Array.of_list b.Block.instrs

(* The first register operand of [i], if any. *)
let first_reg (i : Instr.t) =
  List.find_opt
    (function Instr.Reg _ -> true | Instr.Imm _ -> false)
    (Instr.operands i)

(* Rewrite the first register operand of [i] with [g]. *)
let map_first_reg g (i : Instr.t) =
  let first = ref true in
  Instr.map_operands
    (function
      | Instr.Reg (r, ty) when !first ->
        first := false;
        g r ty
      | o -> o)
    i

(* Rename register [r] to [r'] at its definition and every use. *)
let rename_reg (f : Func.t) r r' =
  let ren = function
    | Instr.Reg (x, ty) when x = r -> Instr.Reg (r', ty)
    | o -> o
  in
  List.iter
    (fun b ->
      Block.map_instrs b (fun (i : Instr.t) ->
          let i = Instr.map_operands ren i in
          if Instr.defines i && i.Instr.id = r then { i with Instr.id = r' }
          else i))
    f.Func.blocks

let set_instr (f : Func.t) bi k i' =
  let b = List.nth f.Func.blocks bi in
  let a = block_array b in
  a.(k) <- i';
  b.Block.instrs <- Array.to_list a

let instr_at (f : Func.t) bi k = (block_array (List.nth f.Func.blocks bi)).(k)

(* The points (bi, k) of [f] where [p bi k a] holds, [a] being the
   instructions of block [bi]. *)
let points (f : Func.t) p =
  List.concat
    (List.mapi
       (fun bi b ->
         let a = block_array b in
         List.filter_map
           (fun k -> if p bi k a then Some (bi, k) else None)
           (List.init (Array.length a) Fun.id))
       f.Func.blocks)

let plain (i : Instr.t) = not (Instr.is_phi i || Instr.is_terminator i)

let other_ty (ty : Vtype.t) =
  if Vtype.equal ty Vtype.i64 then Vtype.i32 else Vtype.i64

(* The first register defined outside the entry block at type [ty]. *)
let def_outside_entry (f : Func.t) ty =
  List.find_map
    (fun b ->
      List.find_map
        (fun (i : Instr.t) ->
          if Instr.defines i && Vtype.equal i.Instr.ty ty then Some i.Instr.id
          else None)
        b.Block.instrs)
    (List.tl f.Func.blocks)

(* The first non-phi register defined in [a] at type [ty]. *)
let plain_def_in a ty =
  Array.to_list a
  |> List.find_map (fun (i : Instr.t) ->
         if Instr.defines i && (not (Instr.is_phi i))
            && Vtype.equal i.Instr.ty ty
         then Some i.Instr.id
         else None)

type mutation = {
  mu_name : string;
  candidates : Func.t -> (int * int) list;
  apply : Func.t -> int -> int -> unit;
}

let mutations =
  [
    {
      (* a use of a register defined later in its block: swap a
         definition with the next instruction, which reads it *)
      mu_name = "use-before-def";
      candidates =
        (fun f ->
          points f (fun _ k a ->
              k + 1 < Array.length a
              && plain a.(k) && plain a.(k + 1)
              && Instr.defines a.(k)
              && List.mem a.(k).Instr.id (Instr.uses a.(k + 1))));
      apply =
        (fun f bi k ->
          let i = instr_at f bi k and j = instr_at f bi (k + 1) in
          set_instr f bi k j;
          set_instr f bi (k + 1) i);
    };
    {
      mu_name = "deleted-def";
      candidates = (fun f -> points f (fun _ k a -> Instr.defines a.(k)));
      apply =
        (fun f bi k ->
          let b = List.nth f.Func.blocks bi in
          b.Block.instrs <- List.filteri (fun k' _ -> k' <> k) b.Block.instrs);
    };
    {
      (* a definition takes the id of the nearest earlier definition in
         its block *)
      mu_name = "duplicate-id";
      candidates =
        (fun f ->
          points f (fun _ k a ->
              plain a.(k) && Instr.defines a.(k)
              && Array.exists Instr.defines (Array.sub a 0 k)));
      apply =
        (fun f bi k ->
          let a = block_array (List.nth f.Func.blocks bi) in
          let prev = ref (-1) in
          for k' = 0 to k - 1 do
            if Instr.defines a.(k') then prev := a.(k').Instr.id
          done;
          set_instr f bi k { (a.(k)) with Instr.id = !prev });
    };
    {
      (* a phi's first incoming label names a block that is not a
         predecessor *)
      mu_name = "phi-label";
      candidates = (fun f -> points f (fun _ k a -> Instr.is_phi a.(k)));
      apply =
        (fun f bi k ->
          match (instr_at f bi k).Instr.op with
          | Instr.Phi ((_, v) :: rest as incoming) ->
            let l =
              List.find_map
                (fun b ->
                  let l = b.Block.label in
                  if List.mem_assoc l incoming then None else Some l)
                f.Func.blocks
              |> Option.value ~default:"nowhere"
            in
            set_instr f bi k
              { (instr_at f bi k) with Instr.op = Instr.Phi ((l, v) :: rest) }
          | _ -> assert false);
    };
    {
      (* the first register operand annotated with a wrong type *)
      mu_name = "operand-type";
      candidates = (fun f -> points f (fun _ k a -> first_reg a.(k) <> None));
      apply =
        (fun f bi k ->
          set_instr f bi k
            (map_first_reg
               (fun r ty -> Instr.Reg (r, other_ty ty))
               (instr_at f bi k)));
    };
    {
      (* a register renamed, definition and uses, to an id past
         [next_reg]: well-formed, so every check runs on the large id *)
      mu_name = "renamed-past-next-reg";
      candidates = (fun f -> points f (fun _ k a -> Instr.defines a.(k)));
      apply =
        (fun f bi k ->
          rename_reg f (instr_at f bi k).Instr.id (f.Func.next_reg + 7));
    };
    {
      (* a use of an undefined register past [next_reg] *)
      mu_name = "use-past-next-reg";
      candidates = (fun f -> points f (fun _ k a -> first_reg a.(k) <> None));
      apply =
        (fun f bi k ->
          set_instr f bi k
            (map_first_reg
               (fun _ ty -> Instr.Reg (f.Func.next_reg + 7, ty))
               (instr_at f bi k)));
    };
    {
      mu_name = "negative-use";
      candidates = (fun f -> points f (fun _ k a -> first_reg a.(k) <> None));
      apply =
        (fun f bi k ->
          set_instr f bi k
            (map_first_reg (fun _ ty -> Instr.Reg (-2, ty)) (instr_at f bi k)));
    };
    {
      (* an entry-block use of a register defined in a later block,
         which cannot dominate the entry *)
      mu_name = "entry-use-of-later-def";
      candidates =
        (fun f ->
          points f (fun bi k a ->
              bi = 0
              && (not (Instr.is_phi a.(k)))
              &&
              match first_reg a.(k) with
              | Some o -> def_outside_entry f (Instr.operand_ty o) <> None
              | None -> false));
      apply =
        (fun f bi k ->
          set_instr f bi k
            (map_first_reg
               (fun _ ty ->
                 Instr.Reg (Option.get (def_outside_entry f ty), ty))
               (instr_at f bi k)));
    };
    {
      (* a phi's first incoming value replaced by a register its own
         block defines: dominated only along a back edge *)
      mu_name = "phi-of-own-block";
      candidates =
        (fun f ->
          points f (fun _ k a ->
              Instr.is_phi a.(k) && plain_def_in a a.(k).Instr.ty <> None));
      apply =
        (fun f bi k ->
          let a = block_array (List.nth f.Func.blocks bi) in
          let r = Option.get (plain_def_in a a.(k).Instr.ty) in
          match a.(k).Instr.op with
          | Instr.Phi ((l, _) :: rest) ->
            set_instr f bi k
              {
                (a.(k)) with
                Instr.op = Instr.Phi ((l, Instr.Reg (r, a.(k).Instr.ty)) :: rest);
              }
          | _ -> assert false);
    };
  ]

(* A copy of [m] sharing its instructions; blocks are fresh, so
   rewriting a copy's instruction lists leaves [m] intact. *)
let copy_module (m : Vmodule.t) =
  {
    m with
    Vmodule.funcs =
      List.map
        (fun (f : Func.t) ->
          {
            f with
            Func.blocks =
              List.map
                (fun (b : Block.t) -> { b with Block.instrs = b.Block.instrs })
                f.Func.blocks;
          })
        m.Vmodule.funcs;
  }

(* Each kind's first and last candidate in [m], as (label, mutant). *)
let mutants (m : Vmodule.t) =
  List.concat_map
    (fun mu ->
      let all =
        List.concat
          (List.mapi
             (fun fi f -> List.map (fun p -> (fi, p)) (mu.candidates f))
             m.Vmodule.funcs)
      in
      let mutant (fi, (bi, k)) =
        let m' = copy_module m in
        mu.apply (List.nth m'.Vmodule.funcs fi) bi k;
        m'
      in
      match all with
      | [] -> []
      | [ p ] -> [ (mu.mu_name ^ "/first", mutant p) ]
      | p :: _ ->
        [
          (mu.mu_name ^ "/first", mutant p);
          (mu.mu_name ^ "/last", mutant (List.nth all (List.length all - 1)));
        ])
    mutations

let verdicts_file = "verify_verdicts.txt"

let verdicts_header =
  "# Verifier verdicts on single-point mutants of the plain registry\n\
   # modules: MD5 of the error strings (one a line, in order), error\n\
   # count, mutant (workload/ISA/mutation/candidate). Checked by\n\
   # test_setup's \"pinned verdicts\" case; re-record only in a change\n\
   # that means to alter what the verifier reports.\n"

let verdict_rows () =
  List.concat_map
    (fun (name, build) ->
      let m = build () in
      List.map
        (fun (label, m') ->
          let errs = List.map Verify.error_to_string (Verify.verify_module m') in
          Printf.sprintf "%s %d %s/%s"
            (Digest.to_hex (Digest.string (String.concat "\n" errs)))
            (List.length errs) name label)
        (mutants m))
    (registry_modules ())

let test_verdicts_pinned () =
  Pinned.check ~file:verdicts_file ~header:verdicts_header
    ~what:"verifier verdicts" ~label:(Pinned.label_after 2)
    ~expected:(Pinned.read verdicts_file) (verdict_rows ())

(* ---------------- Classification against forward slices ------------ *)

(* The fault targets of [m] classified the direct way (paper §II-C):
   build each defining instruction's forward slice from def-use chains
   and look for a conditional branch and a [getelementptr] in it. *)
let slice_targets (m : Vmodule.t) : Analysis.Sites.target list =
  let runtime (i : Instr.t) =
    String.starts_with ~prefix:"__det_" i.Instr.name
    ||
    match i.Instr.op with
    | Instr.Call (name, _) -> String.starts_with ~prefix:"__vulfi_" name
    | _ -> false
  in
  List.concat_map
    (fun (f : Func.t) ->
      let du = Defuse.build f in
      let target b i kind ty ~control ~address =
        {
          Analysis.Sites.t_func = f.Func.fname;
          t_block = b.Block.label;
          t_instr = i;
          t_kind = kind;
          t_lanes = max 1 (Vtype.lanes ty);
          t_is_vector =
            kind = Analysis.Sites.Maskstore_value || Instr.is_vector_instr i;
          t_is_control = control;
          t_is_address = address;
        }
      in
      List.rev
        (Func.fold_instrs f
           (fun acc b (i : Instr.t) ->
             if runtime i then acc
             else
               let acc =
                 if Instr.defines i then
                   let slice = Slice.forward_slice_of_instr du i in
                   target b i Analysis.Sites.Lvalue i.Instr.ty
                     ~control:(Slice.contains_control_flow slice)
                     ~address:(Slice.contains_gep slice)
                   :: acc
                 else acc
               in
               match i.Instr.op with
               | Instr.Store (v, _) ->
                 target b i Analysis.Sites.Store_value (Instr.operand_ty v)
                   ~control:false ~address:false
                 :: acc
               | Instr.Call (name, args) -> (
                 match Intrinsics.value_operand name with
                 | Some ix ->
                   target b i Analysis.Sites.Maskstore_value
                     (Instr.operand_ty (List.nth args ix))
                     ~control:false ~address:false
                   :: acc
                 | None -> acc)
               | _ -> acc)
           []))
    m.Vmodule.funcs

(* The first target where [Sites] departs from the slice definition. *)
let classification_mismatch (m : Vmodule.t) =
  let same (a : Analysis.Sites.target) (b : Analysis.Sites.target) =
    a.Analysis.Sites.t_func = b.Analysis.Sites.t_func
    && a.t_block = b.t_block && a.t_instr == b.t_instr && a.t_kind = b.t_kind
    && a.t_lanes = b.t_lanes && a.t_is_vector = b.t_is_vector
    && a.t_is_control = b.t_is_control && a.t_is_address = b.t_is_address
  in
  let show (t : Analysis.Sites.target) =
    Printf.sprintf "%s/%%%s %s control=%b address=%b" t.Analysis.Sites.t_func
      t.t_block (Pp.instr_to_string t.t_instr) t.t_is_control t.t_is_address
  in
  let expected = slice_targets m in
  let actual = Analysis.Sites.targets_of_module m in
  if List.compare_lengths expected actual <> 0 then
    Some
      (Printf.sprintf "%d targets, the slice definition has %d"
         (List.length actual) (List.length expected))
  else
    List.find_map
      (fun (e, a) ->
        if same e a then None
        else Some (Printf.sprintf "expected %s\nactual   %s" (show e) (show a)))
      (List.combine expected actual)

let check_classification label m =
  match classification_mismatch m with
  | None -> ()
  | Some why -> Alcotest.failf "%s: %s" label why

(* The registry modules, plain and under the paper's detectors, whose
   [__det_*] instructions are slice members but never targets. *)
let test_registry_classification () =
  List.iter
    (fun (name, build) ->
      check_classification (name ^ "/plain") (build ());
      check_classification (name ^ "/detectors")
        (Detectors.Overhead.transform Detectors.Overhead.paper_detectors
           (build ())))
    (registry_modules ())

let prop_fuzz_classification =
  QCheck.Test.make ~name:"site classes equal slice definition on fuzzed kernels"
    ~count:80
    (QCheck.make
       QCheck.Gen.(pair Fuzz_kernels.kernel_gen bool)
       ~print:(fun (src, avx) -> Printf.sprintf "avx=%b\n%s" avx src))
    (fun (src, avx) ->
      let target = if avx then Target.Avx else Target.Sse in
      classification_mismatch (Minispc.Driver.compile target src) = None)

(* The lookup table answers only "llvm." names, so every other name may
   miss without a scan. *)
let test_intrinsic_names () =
  List.iter
    (fun (i : Intrinsics.info) ->
      check Alcotest.bool i.Intrinsics.iname true
        (Intrinsics.is_intrinsic_name i.Intrinsics.iname))
    Intrinsics.table;
  check Alcotest.bool "runtime name" true
    (Intrinsics.lookup "__vulfi_inject_f32" = None);
  check Alcotest.bool "suffixed generic name" true
    (Intrinsics.lookup "llvm.sqrt.v8f32" <> None)

(* ---------------- Set-up grows linearly ---------------- *)

(* A straight-line function of [n] dependent vector adds: one load, the
   adds, one store. *)
let chain_module n =
  let buf = Buffer.create (n * 48) in
  Buffer.add_string buf
    "define void @chain(ptr %r0) {\nentry:\n\
    \  %r1 = load <8 x float>, ptr %r0\n";
  for k = 1 to n do
    Printf.bprintf buf "  %%r%d = fadd <8 x float> %%r%d, %%r%d\n" (k + 1) k k
  done;
  Printf.bprintf buf "  store <8 x float> %%r%d, ptr %%r0\n  ret void\n}\n"
    (n + 1);
  Parse.parse_module (Buffer.contents buf)

(* Words [f] allocates: the minor heap's plus those allocated directly
   in the major heap (large arrays), which [Gc.minor_words] omits. *)
let allocated f =
  let direct () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let minor0 = Gc.minor_words () and direct0 = direct () in
  let r = f () in
  let minor1 = Gc.minor_words () and direct1 = direct () in
  (r, minor1 -. minor0 +. (direct1 -. direct0))

(* Allocation of each [Experiment.prepare] stage on [chain_module n]. *)
let stage_words n category =
  let m = chain_module n in
  let targets, sites = allocated (fun () -> Analysis.Sites.targets_of_module m) in
  let _, instrument =
    allocated (fun () ->
        Vulfi.Instrument.run m (Analysis.Sites.select targets category))
  in
  let (), verify = allocated (fun () -> Verify.check_module m) in
  let _, compile = allocated (fun () -> Interp.Compile.compile_module m) in
  [
    ("Sites.targets_of_module", sites);
    ("Instrument.run", instrument);
    ("Verify.check_module", verify);
    ("Compile.compile_module", compile);
  ]

(* Quadrupling the block multiplies every stage's allocation by about
   four: a pass that copies a block prefix per target, or builds a
   fresh slice per instruction, grows by 12-15x here. *)
let test_linear_scaling () =
  let failures =
    List.concat_map
      (fun category ->
        List.filter_map
          (fun ((stage, small), (_, large)) ->
            let growth = large /. small in
            if growth > 4.5 then
              Some
                (Printf.sprintf "%s (%s): %.1fx" stage
                   (Analysis.Sites.category_name category)
                   growth)
            else None)
          (List.combine (stage_words 200 category) (stage_words 800 category)))
      Analysis.Sites.all_categories
  in
  if failures <> [] then
    Alcotest.failf "allocation growth from n = 200 to 800 above 4.5x:\n%s"
      (String.concat "\n" failures)

let () =
  Alcotest.run "setup"
    [
      ( "verifier",
        [
          Alcotest.test_case "pinned verdicts on malformed IR" `Quick
            test_verdicts_pinned;
        ] );
      ( "classification",
        [
          Alcotest.test_case "registry equals slice definition" `Quick
            test_registry_classification;
          QCheck_alcotest.to_alcotest prop_fuzz_classification;
          Alcotest.test_case "intrinsic names" `Quick test_intrinsic_names;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "set-up allocation grows linearly" `Quick
            test_linear_scaling;
        ] );
    ]
