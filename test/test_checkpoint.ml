(* Tests for the checkpointed and fast-forward execution layers: Memory
   snapshot/restore (differential against a fresh replay, and restores
   and comparisons against a byte-level model), Machine.reset
   (including prefix accounting), masked access at region edges,
   full-machine checkpoint resume == fresh replay differentials,
   convergence-pruning soundness, a pin of where checks act (the
   checkpoints laid at every site of small workloads, and a pruned
   sweep's prune counts), and legacy == checkpointed == fast-forward ==
   converge-pruned campaign equivalence down to trace bytes, plus the
   small-sample stats and progress-line edges. Checks fire from the hot
   path's extern calls (Machine.run ?check, Machine.resume ?check). *)

open QCheck

let check = Alcotest.check

(* ---------------- snapshot/restore: differential model ---------------- *)

(* A random program over the memory API. Region/offset picks are raw
   ints reduced modulo the live state at interpretation time, so every
   generated program is valid by construction. *)
type op =
  | Alloc of int  (** words *)
  | Store of int * int * int  (** region pick, word-offset pick, value *)

let op_gen =
  Gen.oneof
    [
      Gen.map (fun w -> Alloc w) (Gen.int_range 1 64);
      Gen.map
        (fun ((r, o), v) -> Store (r, o, v))
        Gen.(pair (pair (int_range 0 1000) (int_range 0 1000)) int);
    ]

let ops_gen = Gen.(pair (list_size (int_range 1 25) op_gen) (list_size (int_range 0 25) op_gen))

let print_op = function
  | Alloc w -> Printf.sprintf "Alloc %d" w
  | Store (r, o, v) -> Printf.sprintf "Store (%d, %d, %d)" r o v

let print_ops (pre, post) =
  Printf.sprintf "pre=[%s] post=[%s]"
    (String.concat "; " (List.map print_op pre))
    (String.concat "; " (List.map print_op post))

(* Interpret [ops] against [mem], appending each allocation's
   (base, words) to [regions]. *)
let apply mem regions ops =
  List.iter
    (fun op ->
      match op with
      | Alloc words ->
        let base =
          Interp.Memory.alloc mem
            ~name:(Printf.sprintf "r%d" (List.length !regions))
            ~bytes:(4 * words)
        in
        regions := !regions @ [ (base, words) ]
      | Store (r, o, v) -> (
        match !regions with
        | [] -> ()
        | rs ->
          let base, words = List.nth rs (r mod List.length rs) in
          let addr = Int64.add base (Int64.of_int (4 * (o mod words))) in
          Interp.Memory.store mem (Interp.Vvalue.of_i32 v) addr))
    ops

let observe mem regions =
  List.map
    (fun (base, words) -> Interp.Memory.read_i32_array mem base words)
    regions

(* restore(snapshot) after arbitrary further stores and allocations must
   be observationally equal to a fresh memory that only ran the prefix —
   same contents, and the same base for the next allocation (the bump
   pointer rolls back, so post-restore allocs replay at fresh-run
   addresses). *)
let prop_restore_equals_fresh_replay =
  Test.make ~name:"restore == fresh replay of the prefix" ~count:200
    (make ops_gen ~print:print_ops)
    (fun (pre, post) ->
      let m1 = Interp.Memory.create () in
      let rs1 = ref [] in
      apply m1 rs1 pre;
      let snap = Interp.Memory.snapshot m1 in
      apply m1 rs1 post;
      Interp.Memory.restore m1 snap;
      let m2 = Interp.Memory.create () in
      let rs2 = ref [] in
      apply m2 rs2 pre;
      let pre_regions = !rs2 in
      (* contents of every prefix region match the fresh replay *)
      observe m1 pre_regions = observe m2 pre_regions
      (* the bump pointer rolled back: the next alloc lands where the
         fresh replay's does *)
      && Interp.Memory.alloc m1 ~name:"probe" ~bytes:16
         = Interp.Memory.alloc m2 ~name:"probe" ~bytes:16)

(* Restoring the same snapshot repeatedly keeps working: each restore
   rolls back the damage done since the previous one. *)
let prop_double_restore =
  Test.make ~name:"restore is idempotent across faulty epochs" ~count:100
    (make ops_gen ~print:print_ops)
    (fun (pre, post) ->
      let m1 = Interp.Memory.create () in
      let rs1 = ref [] in
      apply m1 rs1 pre;
      let snap = Interp.Memory.snapshot m1 in
      let pre_regions = !rs1 in
      let obs0 = observe m1 pre_regions in
      (* two epochs of post-snapshot damage, each rolled back; each
         epoch starts from the snapshot's region list because restore
         drops the previous epoch's allocations *)
      apply m1 (ref pre_regions) post;
      Interp.Memory.restore m1 snap;
      apply m1 (ref pre_regions) (List.rev post);
      Interp.Memory.restore m1 snap;
      observe m1 pre_regions = obs0)

(* An older snapshot must still restore correctly after a newer one has
   been taken and restored. *)
let test_stale_snapshot_restores () =
  let mem = Interp.Memory.create () in
  let a = Interp.Memory.alloc mem ~name:"a" ~bytes:64 in
  Interp.Memory.write_i32_array mem a (Array.init 16 (fun i -> i));
  let snap1 = Interp.Memory.snapshot mem in
  Interp.Memory.write_i32_array mem a (Array.make 16 111);
  let snap2 = Interp.Memory.snapshot mem in
  Interp.Memory.write_i32_array mem a (Array.make 16 222);
  Interp.Memory.restore mem snap2;
  check
    Alcotest.(array int)
    "newest snapshot restores" (Array.make 16 111)
    (Interp.Memory.read_i32_array mem a 16);
  Interp.Memory.restore mem snap1;
  check
    Alcotest.(array int)
    "stale snapshot restores"
    (Array.init 16 (fun i -> i))
    (Interp.Memory.read_i32_array mem a 16);
  (* and the rolled-back state is fully functional again *)
  Interp.Memory.write_i32_array mem a (Array.make 16 7);
  Interp.Memory.restore mem snap1;
  check
    Alcotest.(array int)
    "re-restore after new damage"
    (Array.init 16 (fun i -> i))
    (Interp.Memory.read_i32_array mem a 16)

(* ---------------- whole-image snapshots: reference model ---------------- *)

(* Random interleavings of allocations, stores of every kind, snapshots,
   restores of any earlier snapshot and comparisons, run against a
   byte-level reference: the model keeps every live region's expected
   bytes, and each snapshot a copy of the model. Picks are raw ints
   reduced modulo the live state at interpretation time. *)
type image_op =
  | I_alloc of int  (** bytes *)
  | I_store of int * int * int * int  (** region, word, shape, value *)
  | I_masked of int * int * int * int  (** region, word, mask bits, value *)
  | I_bulk of int * int * int * int  (** region, word, length, value *)
  | I_flip of int * int * int  (** region, byte, xor mask *)
  | I_snapshot
  | I_restore of int  (** snapshot *)
  | I_equal of int  (** snapshot *)

let image_op_gen =
  let pick = Gen.int_range 0 1000 in
  let four f = Gen.map4 f pick pick pick Gen.int in
  Gen.frequency
    [
      (3, Gen.map (fun b -> I_alloc b) (Gen.int_range 1 80));
      (5, four (fun r o k v -> I_store (r, o, k, v)));
      (2, four (fun r o k v -> I_masked (r, o, k, v)));
      (2, four (fun r o k v -> I_bulk (r, o, k, v)));
      (2, Gen.map3 (fun r o x -> I_flip (r, o, x)) pick pick pick);
      (2, Gen.return I_snapshot);
      (2, Gen.map (fun k -> I_restore k) pick);
      (4, Gen.map (fun k -> I_equal k) pick);
    ]

let print_image_op = function
  | I_alloc b -> Printf.sprintf "alloc %d" b
  | I_store (r, o, k, v) -> Printf.sprintf "store %d %d %d %d" r o k v
  | I_masked (r, o, k, v) -> Printf.sprintf "masked %d %d %d %d" r o k v
  | I_bulk (r, o, k, v) -> Printf.sprintf "bulk %d %d %d %d" r o k v
  | I_flip (r, o, x) -> Printf.sprintf "flip %d %d %d" r o x
  | I_snapshot -> "snapshot"
  | I_restore k -> Printf.sprintf "restore %d" k
  | I_equal k -> Printf.sprintf "equal %d" k

(* A model region: its allocation number (fresh per [alloc], so two
   region lists are the same allocation state exactly when their
   numbers agree), base and expected bytes. *)
type model_region = { m_id : int; m_base : int64; m_bytes : Bytes.t }

let run_image_ops ops =
  let module M = Interp.Memory in
  let module V = Interp.Vvalue in
  let i8 = Vir.Vtype.Scalar Vir.Vtype.I8 in
  let mem = M.create () in
  let live = ref [] (* most recent first, like the memory's own list *) in
  let allocs = ref 0 and snaps = ref [||] in
  let copy_model =
    List.map (fun r -> { r with m_bytes = Bytes.copy r.m_bytes })
  in
  let region k =
    match !live with
    | [] -> None
    | rs -> Some (List.nth rs (k mod List.length rs))
  in
  let words r = Bytes.length r.m_bytes / 4 in
  let addr r off = Int64.add r.m_base (Int64.of_int off) in
  (* lane [i] of a value seeded by [v] (an i32 or an f32), in memory
     and at word [w + i] of the model *)
  let lane v i = v + (31 * i) in
  let f32 v i = float_of_int (lane v i mod 1000) in
  let lanes ~float n v =
    if float then V.F (Vir.Vtype.F32, Array.init n (f32 v))
    else
      V.I
        ( Vir.Vtype.I32,
          Interp.Ilanes.init n (fun i ->
              Int64.of_int32 (Int32.of_int (lane v i))) )
  in
  let set_lane ~float r w v i =
    Bytes.set_int32_le r.m_bytes
      (4 * (w + i))
      (if float then Int32.bits_of_float (f32 v i)
       else Int32.of_int (lane v i))
  in
  let read_byte a = Int64.to_int (V.int_lane (M.load mem i8 a) 0) land 0xFF in
  let holds r =
    let rec from i =
      i = Bytes.length r.m_bytes
      || (read_byte (addr r i) = Bytes.get_uint8 r.m_bytes i && from (i + 1))
    in
    from 0
  in
  let traps a =
    match M.load mem i8 a with
    | _ -> false
    | exception Interp.Trap.Trap (Interp.Trap.Out_of_bounds _) -> true
  in
  let fail fmt = Printf.ksprintf Test.fail_report fmt in
  let step = function
    | I_alloc bytes ->
      let m_base = M.alloc mem ~name:"r" ~bytes in
      live :=
        { m_id = !allocs; m_base; m_bytes = Bytes.make bytes '\000' } :: !live;
      incr allocs
    | I_store (r, o, k, v) -> (
      (* scalar or vector, i32 or f32, through [store] or [storer] *)
      let n = [| 1; 4; 8 |].(k mod 3) in
      let float = (k / 3) land 1 = 1 and via_storer = (k / 6) land 1 = 1 in
      match region r with
      | Some r when words r >= n ->
        let w = o mod (words r - n + 1) in
        let s = if float then Vir.Vtype.F32 else Vir.Vtype.I32 in
        let ty = if n = 1 then Vir.Vtype.Scalar s else Vir.Vtype.vector n s in
        let x = lanes ~float n v in
        if via_storer then M.storer ty mem x (addr r (4 * w))
        else M.store mem x (addr r (4 * w));
        for i = 0 to n - 1 do set_lane ~float r w v i done
      | _ -> ())
    | I_masked (r, o, k, v) -> (
      match region r with
      | Some r when words r > 0 ->
        (* 8 lanes from word [w]; lanes past the region are masked off,
           so the store may straddle the region's end *)
        let w = o mod words r and float = k land 256 = 256 in
        let on i = k land (1 lsl i) <> 0 && w + i < words r in
        let mask =
          V.I
            ( Vir.Vtype.I1,
              Interp.Ilanes.init 8 (fun i -> if on i then 1L else 0L) )
        in
        M.store ~mask mem (lanes ~float 8 v) (addr r (4 * w));
        for i = 0 to 7 do if on i then set_lane ~float r w v i done
      | _ -> ())
    | I_bulk (r, o, k, v) -> (
      match region r with
      | Some r when words r > 0 ->
        let w = o mod words r in
        let n = 1 + (k mod (words r - w)) and float = v land 1 = 1 in
        let a = addr r (4 * w) in
        if float then M.write_f32_array mem a (Array.init n (f32 v))
        else M.write_i32_array mem a (Array.init n (lane v));
        for i = 0 to n - 1 do set_lane ~float r w v i done
      | _ -> ())
    | I_flip (r, o, x) -> (
      match region r with
      | Some r ->
        (* one byte changed at a random offset *)
        let off = o mod Bytes.length r.m_bytes in
        let b = Bytes.get_uint8 r.m_bytes off lxor (1 + (x mod 255)) in
        M.store mem
          (V.I (Vir.Vtype.I8, Interp.Ilanes.make 1 (Int64.of_int b)))
          (addr r off);
        Bytes.set_uint8 r.m_bytes off b
      | None -> ())
    | I_snapshot ->
      snaps := Array.append !snaps [| (copy_model !live, M.snapshot mem) |]
    | I_restore k when Array.length !snaps > 0 ->
      let snap_rs, snap = !snaps.(k mod Array.length !snaps) in
      (* fill the region cache with the newest region, which the
         restore may drop *)
      (match !live with r :: _ -> ignore (read_byte r.m_base) | [] -> ());
      M.restore mem snap;
      (* a dropped region's base traps, unless a region of the
         snapshot, allocated on another branch of restores, lies there *)
      let kept r = List.exists (fun s -> s.m_id = r.m_id) snap_rs in
      let covered a =
        List.exists
          (fun s ->
            a >= s.m_base
            && Int64.sub a s.m_base < Int64.of_int (Bytes.length s.m_bytes))
          snap_rs
      in
      List.iter
        (fun r ->
          if not (kept r || covered r.m_base || traps r.m_base) then
            fail "region %d, not in the snapshot, survived the restore" r.m_id)
        !live;
      List.iter
        (fun r ->
          if not (holds r) then
            fail "region %d does not hold the snapshot's bytes" r.m_id)
        snap_rs;
      (* the next allocation lands where it would after a fresh run of
         the snapshot's allocations; a second restore drops it again *)
      let fresh = M.create () in
      List.iter
        (fun r ->
          ignore (M.alloc fresh ~name:"r" ~bytes:(Bytes.length r.m_bytes)))
        (List.rev snap_rs);
      let expected = M.alloc fresh ~name:"probe" ~bytes:8 in
      let got = M.alloc mem ~name:"probe" ~bytes:8 in
      if got <> expected then
        fail "next allocation at %Lx, expected %Lx" got expected;
      M.restore mem snap;
      live := copy_model snap_rs
    | I_equal k when Array.length !snaps > 0 ->
      let j = k mod Array.length !snaps in
      let snap_rs, snap = !snaps.(j) in
      let ids = List.map (fun r -> r.m_id) in
      let expected =
        ids !live = ids snap_rs
        && List.for_all2
             (fun a b -> Bytes.equal a.m_bytes b.m_bytes)
             !live snap_rs
      in
      if M.equal mem snap <> expected then
        fail "Memory.equal against snapshot %d is %b, the reference says %b"
          j (not expected) expected
    | I_restore _ | I_equal _ -> ()
  in
  List.iter step ops;
  true

let prop_whole_image_snapshots =
  Test.make ~name:"whole-image snapshots == byte reference" ~count:500
    (make
       Gen.(list_size (int_range 1 40) image_op_gen)
       ~print:(fun ops -> String.concat "; " (List.map print_image_op ops)))
    run_image_ops

(* ---------------- masked access at region edges ---------------- *)

(* AVX maskload/maskstore semantics: a masked-off lane may point out of
   bounds without trapping. Generate an 8-lane access straddling the end
   of a region with exactly the out-of-bounds lanes masked off. *)
let prop_masked_oob_lanes_never_trap =
  Test.make
    ~name:"masked load/store: OOB masked-off lanes never trap" ~count:200
    (make
       Gen.(pair (int_range 8 32) (int_range 0 8))
       ~print:(fun (words, live) ->
         Printf.sprintf "words=%d live=%d" words live))
    (fun (words, live) ->
      let mem = Interp.Memory.create () in
      let base = Interp.Memory.alloc mem ~name:"edge" ~bytes:(4 * words) in
      Interp.Memory.write_f32_array mem base
        (Array.init words (fun i -> float_of_int i));
      (* the access starts [live] words before the end: lanes >= live
         point past the region and must be masked off *)
      let addr = Int64.add base (Int64.of_int (4 * (words - live))) in
      let mask =
        Interp.Vvalue.I
          ( Vir.Vtype.I1,
            Interp.Ilanes.init 8 (fun i -> if i < live then 1L else 0L) )
      in
      let loaded = Interp.Vvalue.F (Vir.Vtype.F32, Array.make 8 nan) in
      Interp.Memory.masked_load_into mem (Vir.Vtype.vector 8 Vir.Vtype.F32)
        addr ~mask loaded;
      let load_ok =
        Array.for_all Fun.id
          (Array.init 8 (fun i ->
               let got = Interp.Vvalue.float_lane loaded i in
               if i < live then got = float_of_int (words - live + i)
               else got = 0.0))
      in
      (* masked store through the same edge: enabled lanes written,
         disabled (OOB) lanes untouched and unchecked *)
      let v =
        Interp.Vvalue.F (Vir.Vtype.F32, Array.make 8 (-1.0))
      in
      Interp.Memory.store ~mask mem v addr;
      let back = Interp.Memory.read_f32_array mem base words in
      let store_ok =
        Array.for_all Fun.id
          (Array.init words (fun i ->
               if i >= words - live then back.(i) = -1.0
               else back.(i) = float_of_int i))
      in
      load_ok && store_ok)

(* ---------------- Machine.reset ---------------- *)

let reset_src =
  "export void scale(uniform float a[], uniform int n) { foreach (i = 0 \
   ... n) { a[i] = a[i] * 2.0 + 1.0; } }"

(* snapshot + reset turns one machine into many fresh runs: each rerun
   must reproduce the first run's output and dynamic counters. *)
let test_reset_rerun_equals_fresh () =
  let n = 19 in
  let m = Minispc.Driver.compile Vir.Target.Avx reset_src in
  let st = Interp.Machine.create (Interp.Compile.compile_module m) in
  let mem = Interp.Machine.memory st in
  let a = Interp.Memory.alloc mem ~name:"a" ~bytes:(4 * n) in
  Interp.Memory.write_f32_array mem a
    (Array.init n (fun i -> float_of_int i *. 0.5));
  let snap = Interp.Memory.snapshot mem in
  let args = [ Interp.Vvalue.of_ptr a; Interp.Vvalue.of_i32 n ] in
  ignore (Interp.Machine.run st "scale" args);
  let out1 = Interp.Memory.read_f32_array mem a n in
  let dyn1 = Interp.Machine.dyn_count st in
  let vec1 = Interp.Machine.dyn_vector_count st in
  for _epoch = 1 to 3 do
    Interp.Memory.restore mem snap;
    Interp.Machine.reset st;
    ignore (Interp.Machine.run st "scale" args);
    check
      Alcotest.(array (float 0.0))
      "rerun output identical" out1
      (Interp.Memory.read_f32_array mem a n);
    check Alcotest.int "dyn count restarts" dyn1 (Interp.Machine.dyn_count st);
    check Alcotest.int "vector count restarts" vec1
      (Interp.Machine.dyn_vector_count st)
  done

(* reset ~budget re-arms the fuel: a budget generous on the first run
   but exhausted mid-rerun would otherwise leak across epochs. *)
let test_reset_rearms_budget () =
  let n = 16 in
  let build () =
    let m = Minispc.Driver.compile Vir.Target.Avx reset_src in
    let st = Interp.Machine.create (Interp.Compile.compile_module m) in
    let mem = Interp.Machine.memory st in
    let a = Interp.Memory.alloc mem ~name:"a" ~bytes:(4 * n) in
    Interp.Memory.write_f32_array mem a (Array.make n 1.0);
    (st, [ Interp.Vvalue.of_ptr a; Interp.Vvalue.of_i32 n ])
  in
  let st, args = build () in
  ignore (Interp.Machine.run st "scale" args);
  let cost = Interp.Machine.dyn_count st in
  (* a fresh machine with budget < cost traps... *)
  let st2, args2 = build () in
  Interp.Machine.reset ~budget:(cost - 1) st2;
  (match Interp.Machine.run st2 "scale" args2 with
  | _ -> Alcotest.fail "expected budget trap"
  | exception Interp.Trap.Trap Interp.Trap.Budget_exhausted -> ());
  (* ...and reset ~budget back above cost makes it run again *)
  Interp.Machine.reset ~budget:(cost + 1) st2;
  ignore (Interp.Machine.run st2 "scale" args2);
  check Alcotest.int "rerun cost" cost (Interp.Machine.dyn_count st2)

(* ------------- faulty_run == faulty_run_ff over an empty plan ------------- *)

let vcopy_workload = Small_workloads.vcopy_workload

(* A resume re-arms the budget with the checkpoint's prefix already
   charged: dyn_count keeps its whole-run meaning (prefix + executed
   suffix) and the prefix counts against the budget — a resume cannot
   mint fuel. *)
let test_resume_budget_accounting () =
  let p =
    Vulfi.Experiment.prepare (vcopy_workload [ 19 ]) Vir.Target.Avx
      Analysis.Sites.Pure_data
  in
  let pi = Vulfi.Experiment.prepare_input p ~input:0 in
  let g = pi.Vulfi.Experiment.pi_golden in
  let cost = g.Vulfi.Experiment.g_dyn_instrs in
  let ff =
    Vulfi.Experiment.lay_checkpoints p ~pi
      ~plan:[| g.Vulfi.Experiment.g_dyn_sites / 2 |]
  in
  let _, ck = ff.Vulfi.Experiment.ff_checkpoints.(0) in
  let st = pi.Vulfi.Experiment.pi_machine in
  let prefix = ref (-1) in
  let probe mst _ =
    if !prefix < 0 then prefix := Interp.Machine.dyn_count mst;
    max_int
  in
  ignore (Interp.Machine.resume ~check:probe ~budget:cost st ck);
  check Alcotest.bool "prefix visible before the suffix runs" true
    (!prefix > 0);
  check Alcotest.int "dyn_count = prefix + suffix" cost
    (Interp.Machine.dyn_count st);
  (* the prefix consumes budget: one instruction short of the whole
     run traps, though the suffix alone would fit *)
  (match Interp.Machine.resume ~budget:(cost - 1) st ck with
  | _ -> Alcotest.fail "expected budget trap"
  | exception Interp.Trap.Trap Interp.Trap.Budget_exhausted -> ());
  (* and a plain replay afterwards starts from an empty prefix *)
  Interp.Memory.restore (Interp.Machine.memory st)
    pi.Vulfi.Experiment.pi_snapshot;
  Interp.Machine.reset ~budget:cost st;
  ignore
    (Interp.Machine.run st p.Vulfi.Experiment.p_workload.Vulfi.Workload.w_fn
       pi.Vulfi.Experiment.pi_args);
  check Alcotest.int "replay after reset" cost (Interp.Machine.dyn_count st)

(* The live-site counter is a machine counter: [reset] zeroes it, a
   resume restores the checkpoint's count and counts on from it, and
   [state_equal] rejects a machine whose site counter alone differs
   from the checkpoint's. *)
let test_site_counter () =
  let p =
    Vulfi.Experiment.prepare (vcopy_workload [ 19 ]) Vir.Target.Avx
      Analysis.Sites.Pure_data
  in
  let pi = Vulfi.Experiment.prepare_input p ~input:0 in
  let g = pi.Vulfi.Experiment.pi_golden in
  let n = g.Vulfi.Experiment.g_dyn_sites in
  let st = pi.Vulfi.Experiment.pi_machine in
  check Alcotest.int "the golden run counts its sites on the machine" n
    (Interp.Machine.sites st);
  Interp.Machine.reset st;
  check Alcotest.int "reset zeroes the site counter" 0
    (Interp.Machine.sites st);
  let site = n / 2 in
  let ff = Vulfi.Experiment.lay_checkpoints p ~pi ~plan:[| site |] in
  let _, ck = ff.Vulfi.Experiment.ff_checkpoints.(0) in
  check Alcotest.int "the laying replay counts every site" n
    (Interp.Machine.sites st);
  let seen = ref (-1) in
  let probe mst stack =
    if !seen < 0 then begin
      seen := Interp.Machine.sites mst;
      check Alcotest.bool "equal to the checkpoint after the restore" true
        (Interp.Machine.state_equal mst stack ck);
      Interp.Machine.record_site mst;
      check Alcotest.bool "site counter alone differs" false
        (Interp.Machine.state_equal mst stack ck)
    end;
    max_int
  in
  ignore
    (Interp.Machine.resume ~check:probe
       ~budget:(Vulfi.Experiment.fault_budget g)
       st ck);
  check Alcotest.int "resume restores the checkpoint's count" (site - 1)
    !seen;
  check Alcotest.int "and counts on from it (plus the extra record)"
    (n + 1) (Interp.Machine.sites st)

(* Site-by-site: a prepared input, its machine reused across every
   (site, seed) pair and no checkpoint laid, so every run replays from
   the post-setup image, must reproduce the two-runs-per-experiment
   protocol exactly — outcome, injection record, dynamic instructions.
   Address faults make some epochs crash mid-run, so the next epoch also
   proves restore-after-trap. *)
let test_checkpointed_faulty_runs_match () =
  List.iter
    (fun category ->
      let w = vcopy_workload [ 24 ] in
      let p = Vulfi.Experiment.prepare w Vir.Target.Avx category in
      let g = Vulfi.Experiment.golden_run p ~input:0 in
      let pi = Vulfi.Experiment.prepare_input p ~input:0 in
      let ff = Vulfi.Experiment.lay_checkpoints p ~pi ~plan:[||] in
      check Alcotest.int "golden dyn sites agree"
        g.Vulfi.Experiment.g_dyn_sites
        pi.Vulfi.Experiment.pi_golden.Vulfi.Experiment.g_dyn_sites;
      for k = 1 to min 25 g.Vulfi.Experiment.g_dyn_sites do
        let seed = 4000 + k in
        let legacy =
          Vulfi.Experiment.faulty_run p ~golden:g ~dynamic_site:k ~seed
        in
        let ckpt =
          Vulfi.Experiment.faulty_run_ff p ~ff ~dynamic_site:k ~seed
        in
        let label fmt =
          Printf.sprintf "%s site %d: %s"
            (Analysis.Sites.category_name category)
            k fmt
        in
        check Alcotest.string (label "outcome")
          (Vulfi.Outcome.to_string legacy.Vulfi.Experiment.r_outcome)
          (Vulfi.Outcome.to_string ckpt.Vulfi.Experiment.r_outcome);
        check Alcotest.int (label "dyn instrs")
          legacy.Vulfi.Experiment.r_dyn_instrs
          ckpt.Vulfi.Experiment.r_dyn_instrs;
        match
          ( legacy.Vulfi.Experiment.r_injection,
            ckpt.Vulfi.Experiment.r_injection )
        with
        | Some a, Some b ->
          check Alcotest.int (label "bit") a.Vulfi.Runtime.inj_bit
            b.Vulfi.Runtime.inj_bit;
          Alcotest.(check bool)
            (label "corrupted value") true
            (Interp.Vvalue.equal a.Vulfi.Runtime.inj_after
               b.Vulfi.Runtime.inj_after)
        | None, None -> ()
        | _ -> Alcotest.failf "%s: injection records diverge" (label "")
      done)
    Analysis.Sites.all_categories

(* ---------------- fast-forward resume == fresh replay ---------------- *)

let check_runs_equal label (legacy : Vulfi.Experiment.run_result)
    (ff : Vulfi.Experiment.run_result) =
  check Alcotest.string (label ^ ": outcome")
    (Vulfi.Outcome.to_string legacy.Vulfi.Experiment.r_outcome)
    (Vulfi.Outcome.to_string ff.Vulfi.Experiment.r_outcome);
  check Alcotest.bool (label ^ ": detected") legacy.Vulfi.Experiment.r_detected
    ff.Vulfi.Experiment.r_detected;
  check Alcotest.int (label ^ ": dyn instrs")
    legacy.Vulfi.Experiment.r_dyn_instrs ff.Vulfi.Experiment.r_dyn_instrs;
  match (legacy.Vulfi.Experiment.r_injection, ff.Vulfi.Experiment.r_injection)
  with
  | Some a, Some b ->
    check Alcotest.int (label ^ ": static site") a.Vulfi.Runtime.inj_static_site
      b.Vulfi.Runtime.inj_static_site;
    check Alcotest.int (label ^ ": bit") a.Vulfi.Runtime.inj_bit
      b.Vulfi.Runtime.inj_bit;
    Alcotest.(check bool)
      (label ^ ": corrupted value") true
      (Interp.Vvalue.equal a.Vulfi.Runtime.inj_after b.Vulfi.Runtime.inj_after)
  | None, None -> ()
  | _ -> Alcotest.failf "%s: injection records diverge" label

(* checkpoint_plan is a pure function: distinct positive sites,
   ascending; thinning keeps the rightmost site of each equal slice. *)
let test_checkpoint_plan () =
  check
    Alcotest.(array int)
    "dedup + sort + drop nonpositive" [| 1; 3; 7 |]
    (Vulfi.Experiment.checkpoint_plan [ 7; 3; 1; 3; 0; -2; 7 ]);
  check
    Alcotest.(array int)
    "thinned keeps rightmost per slice" [| 3; 6 |]
    (Vulfi.Experiment.checkpoint_plan ~max_checkpoints:2 [ 1; 2; 3; 4; 5; 6 ]);
  check Alcotest.(array int) "empty schedule" [||]
    (Vulfi.Experiment.checkpoint_plan [])

(* Site-by-site, every category: resuming from a full machine-state
   checkpoint must reproduce the two-runs-per-experiment protocol
   exactly. n = 19 leaves a masked 8-lane tail (straddle loads with OOB
   masked-off lanes), and the Address category makes epochs crash
   mid-suffix, so consecutive sites also prove resume-after-trap. A
   dense plan (every checked site has its own checkpoint) and a sparse
   thinned plan (most sites resume from an earlier checkpoint, sites
   below the first fall back to a full replay) must both match. *)
let test_ff_faulty_runs_match () =
  List.iter
    (fun category ->
      let w = vcopy_workload [ 19 ] in
      let p = Vulfi.Experiment.prepare w Vir.Target.Avx category in
      let pi = Vulfi.Experiment.prepare_input p ~input:0 in
      let g = pi.Vulfi.Experiment.pi_golden in
      let hi = g.Vulfi.Experiment.g_dyn_sites in
      let all_sites = List.init hi (fun i -> i + 1) in
      let plans =
        [
          ("dense", Vulfi.Experiment.checkpoint_plan all_sites);
          ( "sparse",
            Vulfi.Experiment.checkpoint_plan ~max_checkpoints:3
              (* drop site 1 so low sites exercise the no-checkpoint
                 fallback *)
              (List.filter (fun s -> s > hi / 3) all_sites) );
        ]
      in
      List.iter
        (fun (pname, plan) ->
          let ff = Vulfi.Experiment.lay_checkpoints p ~pi ~plan in
          check Alcotest.int
            (Printf.sprintf "%s %s: checkpoints laid"
               (Analysis.Sites.category_name category)
               pname)
            (Array.length plan)
            (Array.length ff.Vulfi.Experiment.ff_checkpoints);
          for k = 1 to hi do
            let seed = 7000 + k in
            let legacy =
              Vulfi.Experiment.faulty_run p ~golden:g ~dynamic_site:k ~seed
            in
            let ff_r =
              Vulfi.Experiment.faulty_run_ff p ~ff ~dynamic_site:k ~seed
            in
            check_runs_equal
              (Printf.sprintf "%s %s site %d"
                 (Analysis.Sites.category_name category)
                 pname k)
              legacy ff_r
          done)
        plans)
    Analysis.Sites.all_categories

(* Every fault kind through the resume path (the corruption draws its
   RNG in the executed suffix, so kind must not matter to equivalence). *)
let test_ff_fault_kinds_match () =
  let kinds =
    [
      Vulfi.Runtime.Single_bit_flip;
      Vulfi.Runtime.Multi_bit_flip 3;
      Vulfi.Runtime.Random_value;
      Vulfi.Runtime.Stuck_at_zero;
    ]
  in
  let w = vcopy_workload [ 19 ] in
  let p =
    Vulfi.Experiment.prepare w Vir.Target.Avx Analysis.Sites.Pure_data
  in
  let pi = Vulfi.Experiment.prepare_input p ~input:0 in
  let g = pi.Vulfi.Experiment.pi_golden in
  let hi = g.Vulfi.Experiment.g_dyn_sites in
  let plan =
    Vulfi.Experiment.checkpoint_plan ~max_checkpoints:4
      (List.init hi (fun i -> i + 1))
  in
  let ff = Vulfi.Experiment.lay_checkpoints p ~pi ~plan in
  List.iter
    (fun fault_kind ->
      for k = 1 to hi do
        let seed = 11000 + k in
        let legacy =
          Vulfi.Experiment.faulty_run ~fault_kind p ~golden:g ~dynamic_site:k
            ~seed
        in
        let ff_r =
          Vulfi.Experiment.faulty_run_ff ~fault_kind p ~ff ~dynamic_site:k
            ~seed
        in
        check_runs_equal
          (Printf.sprintf "%s site %d"
             (Vulfi.Runtime.fault_kind_name fault_kind)
             k)
          legacy ff_r
      done)
    kinds

(* Converge-pruned, site-by-site, every category: early termination at
   a matching checkpoint site must splice an outcome byte-identical to
   the full legacy protocol — including for crashes, SDCs and detected
   runs that never converge and run out after the check gives up. The
   sparse plan exercises sites below the first checkpoint (a checked
   run from the start) and the pruning-disabled delegation.
   [pruned_sweep] returns the sweep's prunes and comparisons. *)
let pruned_sweep () =
  Vulfi.Experiment.reset_prune_stats ();
  List.iter
    (fun category ->
      let w = vcopy_workload [ 19 ] in
      let p = Vulfi.Experiment.prepare w Vir.Target.Avx category in
      let pi = Vulfi.Experiment.prepare_input p ~input:0 in
      let g = pi.Vulfi.Experiment.pi_golden in
      let hi = g.Vulfi.Experiment.g_dyn_sites in
      let all_sites = List.init hi (fun i -> i + 1) in
      let plans =
        [
          ("dense", Vulfi.Experiment.checkpoint_plan all_sites);
          ( "sparse",
            Vulfi.Experiment.checkpoint_plan ~max_checkpoints:3
              (List.filter (fun s -> s > hi / 3) all_sites) );
        ]
      in
      List.iter
        (fun (pname, plan) ->
          let ff = Vulfi.Experiment.lay_checkpoints p ~pi ~plan in
          for k = 1 to hi do
            let seed = 7000 + k in
            let legacy =
              Vulfi.Experiment.faulty_run p ~golden:g ~dynamic_site:k ~seed
            in
            let pr =
              Vulfi.Experiment.faulty_run_pruned p ~ff ~dynamic_site:k ~seed
            in
            check_runs_equal
              (Printf.sprintf "pruned %s %s site %d"
                 (Analysis.Sites.category_name category)
                 pname k)
              legacy pr
          done)
        plans)
    Analysis.Sites.all_categories;
  Vulfi.Experiment.prune_stats ()

let test_pruned_faulty_runs_match () =
  (* the equivalence must not be vacuous: across the sweep some runs
     actually compared states and some actually pruned *)
  let prunes, checks = pruned_sweep () in
  Alcotest.(check bool) "state comparisons ran" true (checks > 0);
  Alcotest.(check bool) "some runs pruned" true (prunes > 0)

(* Every fault kind through the pruned path: convergence only splices
   when the post-injection state matches bit-for-bit, so the corruption
   shape must not matter to equivalence. *)
let test_pruned_fault_kinds_match () =
  let kinds =
    [
      Vulfi.Runtime.Single_bit_flip;
      Vulfi.Runtime.Multi_bit_flip 3;
      Vulfi.Runtime.Random_value;
      Vulfi.Runtime.Stuck_at_zero;
    ]
  in
  let w = vcopy_workload [ 19 ] in
  let p =
    Vulfi.Experiment.prepare w Vir.Target.Avx Analysis.Sites.Pure_data
  in
  let pi = Vulfi.Experiment.prepare_input p ~input:0 in
  let g = pi.Vulfi.Experiment.pi_golden in
  let hi = g.Vulfi.Experiment.g_dyn_sites in
  let plan =
    Vulfi.Experiment.checkpoint_plan ~max_checkpoints:4
      (List.init hi (fun i -> i + 1))
  in
  let ff = Vulfi.Experiment.lay_checkpoints p ~pi ~plan in
  List.iter
    (fun fault_kind ->
      for k = 1 to hi do
        let seed = 11000 + k in
        let legacy =
          Vulfi.Experiment.faulty_run ~fault_kind p ~golden:g ~dynamic_site:k
            ~seed
        in
        let pr =
          Vulfi.Experiment.faulty_run_pruned ~fault_kind p ~ff ~dynamic_site:k
            ~seed
        in
        check_runs_equal
          (Printf.sprintf "pruned %s site %d"
             (Vulfi.Runtime.fault_kind_name fault_kind)
             k)
          legacy pr
      done)
    kinds

let copy_twice_workload = Small_workloads.copy_twice_workload

(* Single-function workloads over two [n]-element arrays, [a1] holding
   multiples of 16; the output is [a2]. Their loops store
   [(x >> 4) << 4], so a flip in the low four bits of a loaded value is
   masked and the faulty state re-converges with the golden one. *)
let shift_workload ~fn src n =
  {
    Vulfi.Workload.w_name = fn;
    w_fn = fn;
    w_out_tolerance = 0.0;
    w_inputs = 1;
    w_build = (fun target -> Minispc.Driver.compile target src);
    w_setup =
      (fun ~input:_ st ->
        let mem = Interp.Machine.memory st in
        let a1 = Interp.Memory.alloc mem ~name:"a1" ~bytes:(4 * n) in
        let a2 = Interp.Memory.alloc mem ~name:"a2" ~bytes:(4 * n) in
        Interp.Memory.write_i32_array mem a1 (Array.init n (fun i -> i * 16));
        ( [ Interp.Vvalue.of_ptr a1; Interp.Vvalue.of_ptr a2;
            Interp.Vvalue.of_i32 n ],
          fun () ->
            {
              Vulfi.Outcome.empty_output with
              Vulfi.Outcome.o_i32 = [ Interp.Memory.read_i32_array mem a2 n ];
            } ));
  }

(* A source assert on each loaded value, which is dead right after the
   assert: a fault that raises the value fires the detector, and the
   state then converges with the golden run's everywhere except in the
   detection counter. *)
let checked_shift_workload =
  shift_workload ~fn:"checked_shift"
    "export void checked_shift(uniform int a1[], uniform int a2[], uniform \
     int n) { foreach (i = 0 ... n) { int v = a1[i]; assert(v < 4096); \
     a2[i] = (a1[i] >> 4) << 4; } }"

(* Source asserts that fail in the golden run: [flag_early]'s before the
   loop, [flag_late]'s after it. *)
let flag_early_workload =
  shift_workload ~fn:"flag_early"
    "export void flag_early(uniform int a1[], uniform int a2[], uniform int \
     n) { assert(n < 0); foreach (i = 0 ... n) { int v = a1[i]; a2[i] = (v \
     >> 4) << 4; } }"

let flag_late_workload =
  shift_workload ~fn:"flag_late"
    "export void flag_late(uniform int a1[], uniform int a2[], uniform int \
     n) { foreach (i = 0 ... n) { int v = a1[i]; a2[i] = (v >> 4) << 4; } \
     assert(n < 0); }"

let detector_transform =
  Detectors.Overhead.transform Detectors.Overhead.paper_detectors

(* Prepare [w] for [category], with the paper's detectors inserted and
   the detector externs attached when [detectors] is set. *)
let prepare_cell ~detectors w category =
  let hooks = if detectors then Some (Detectors.Runtime.hooks ()) else None in
  let transform = if detectors then Some detector_transform else None in
  (Vulfi.Experiment.prepare ?transform w Vir.Target.Avx category, hooks)

(* Inputs of the two QCheck differentials below: random (workload,
   category, fault kind, mask awareness, plan density, site, seed). The
   workloads marked [true] run with the paper's detectors and detector
   hooks, so [r_detected] is compared too. Mask-oblivious cells count
   and corrupt masked-off lanes, so their checkpoints sit among dead
   lanes' inject calls too. Prepared machines and laid checkpoints are
   cached per (workload, category, mask awareness, density); each
   property case only runs the two faulty executions. *)
let diff_workloads =
  [|
    (false, fun () -> vcopy_workload [ 19 ]);
    (false, fun () -> copy_twice_workload 19);
    (true, fun () -> vcopy_workload [ 19 ]);
    (true, fun () -> copy_twice_workload 19);
    (true, fun () -> checked_shift_workload 19);
  |]

let diff_categories = Array.of_list Analysis.Sites.all_categories

let diff_kinds =
  [|
    Vulfi.Runtime.Single_bit_flip;
    Vulfi.Runtime.Multi_bit_flip 2;
    Vulfi.Runtime.Random_value;
    Vulfi.Runtime.Stuck_at_zero;
  |]

let diff_cell =
  let cache = Hashtbl.create 16 in
  fun w_i cat_i ~respect_masks density ->
    let key = (w_i, cat_i, respect_masks, density) in
    match Hashtbl.find_opt cache key with
    | Some c -> c
    | None ->
      let detectors, w = diff_workloads.(w_i) in
      let p, hooks = prepare_cell ~detectors (w ()) diff_categories.(cat_i) in
      let pi =
        Vulfi.Experiment.prepare_input ?hooks ~respect_masks p ~input:0
      in
      let g = pi.Vulfi.Experiment.pi_golden in
      let hi = g.Vulfi.Experiment.g_dyn_sites in
      let plan =
        Vulfi.Experiment.checkpoint_plan ~max_checkpoints:density
          (List.init hi (fun i -> i + 1))
      in
      let ff =
        Vulfi.Experiment.lay_checkpoints ?hooks ~respect_masks p ~pi ~plan
      in
      let c = (p, hooks, g, ff, hi) in
      Hashtbl.add cache key c;
      c

let diff_input =
  make
    Gen.(
      quad
        (pair
           (int_range 0 (Array.length diff_workloads - 1))
           (int_range 0 (Array.length diff_categories - 1)))
        (pair (int_range 0 (Array.length diff_kinds - 1)) bool)
        (int_range 1 5) (pair (int_range 0 10_000) (int_range 0 10_000)))
    ~print:(fun ((w, c), (k, m), d, (site, seed)) ->
      Printf.sprintf
        "workload=%d cat=%d kind=%d respect_masks=%b density=%d site_pick=%d \
         seed=%d"
        w c k m d site seed)

(* Run the legacy protocol and [executor] on one random input and
   compare outcome, detector flag, dynamic instruction count and
   injection record. *)
let agrees_with_legacy executor
    ((w_i, cat_i), (kind_i, respect_masks), density, (site_pick, seed)) =
  let p, hooks, g, ff, hi = diff_cell w_i cat_i ~respect_masks density in
  let dynamic_site = 1 + (site_pick mod hi) in
  let fault_kind = diff_kinds.(kind_i) in
  let legacy =
    Vulfi.Experiment.faulty_run ?hooks ~respect_masks ~fault_kind p ~golden:g
      ~dynamic_site ~seed
  in
  let r : Vulfi.Experiment.run_result =
    executor ?hooks ~respect_masks ~fault_kind p ~ff ~dynamic_site ~seed
  in
  Vulfi.Outcome.to_string legacy.Vulfi.Experiment.r_outcome
  = Vulfi.Outcome.to_string r.Vulfi.Experiment.r_outcome
  && legacy.Vulfi.Experiment.r_detected = r.Vulfi.Experiment.r_detected
  && legacy.Vulfi.Experiment.r_dyn_instrs = r.Vulfi.Experiment.r_dyn_instrs
  &&
  match (legacy.Vulfi.Experiment.r_injection, r.Vulfi.Experiment.r_injection)
  with
  | Some a, Some b ->
    a.Vulfi.Runtime.inj_static_site = b.Vulfi.Runtime.inj_static_site
    && a.Vulfi.Runtime.inj_bit = b.Vulfi.Runtime.inj_bit
    && Interp.Vvalue.equal a.Vulfi.Runtime.inj_after b.Vulfi.Runtime.inj_after
  | None, None -> true
  | _ -> false

(* Resume-from-checkpoint == fresh replay. *)
let prop_ff_equals_legacy =
  Test.make ~name:"ff == legacy (random category/kind/plan/site/seed)"
    ~count:300 diff_input
    (agrees_with_legacy
       (fun ?hooks ~respect_masks ~fault_kind p ~ff ~dynamic_site ~seed ->
         Vulfi.Experiment.faulty_run_ff ?hooks ~respect_masks ~fault_kind p ~ff
           ~dynamic_site ~seed))

(* Convergence soundness: the pruned executor, which may terminate a
   run early and splice the golden outcome, must be indistinguishable
   from the full legacy protocol. A splice is only allowed when
   provably byte-identical to running the suffix out. *)
let prop_pruned_equals_legacy =
  Test.make
    ~name:"convergence soundness: pruned == legacy (random cell/site/seed)"
    ~count:300 diff_input
    (agrees_with_legacy
       (fun ?hooks ~respect_masks ~fault_kind p ~ff ~dynamic_site ~seed ->
         Vulfi.Experiment.faulty_run_pruned ?hooks ~respect_masks ~fault_kind
           p ~ff ~dynamic_site ~seed))

(* The checkpoint [faulty_run_ff] and [faulty_run_pruned] resume from
   for a run injecting at [site]: the rightmost one at or before it. *)
let resume_checkpoint (ff : Vulfi.Experiment.ff_input) site =
  Array.fold_left
    (fun acc (s, ck) -> if s <= site then Some ck else acc)
    None ff.Vulfi.Experiment.ff_checkpoints

(* Write garbage into every lane of every slot of [ck]'s pooled frames
   that [ck] does not save: a resume restores only the live registers,
   so whatever those slots hold must not matter. Gap slots share one
   immutable template value and are skipped. *)
let scramble_dead_registers (ck : Interp.Machine.checkpoint) =
  Array.iter
    (fun (fc : Interp.Code.frame_ckpt) ->
      Array.iteri
        (fun r v ->
          if v != Interp.Compile.default_value
             && not (Array.mem r fc.Interp.Code.fc_live)
          then
            for lane = 0 to Interp.Vvalue.lanes v - 1 do
              Interp.Vvalue.set_lane_bits_inplace v ~lane
                ~bits:(Int64.of_int (0x5bd1e995 + (977 * r) + lane))
            done)
        fc.Interp.Code.fc_frame)
    ck.Interp.Code.ck_stack

(* Live-register checkpoints: with garbage in every dead slot before
   each resume, fast-forward and converge-pruned runs still equal the
   legacy protocol, across every category and fault kind, on a
   single-frame and a two-frame workload (whose checkpoints inside the
   callee also save the caller's registers live across its pending
   call). *)
let test_resume_ignores_dead_registers () =
  let kinds =
    [
      Vulfi.Runtime.Single_bit_flip;
      Vulfi.Runtime.Multi_bit_flip 2;
      Vulfi.Runtime.Random_value;
      Vulfi.Runtime.Stuck_at_zero;
    ]
  in
  List.iter
    (fun w ->
      List.iter
        (fun category ->
          let p = Vulfi.Experiment.prepare w Vir.Target.Avx category in
          let pi = Vulfi.Experiment.prepare_input p ~input:0 in
          let g = pi.Vulfi.Experiment.pi_golden in
          let hi = g.Vulfi.Experiment.g_dyn_sites in
          let plan =
            Vulfi.Experiment.checkpoint_plan ~max_checkpoints:6
              (List.init hi (fun i -> i + 1))
          in
          let ff = Vulfi.Experiment.lay_checkpoints p ~pi ~plan in
          List.iter
            (fun fault_kind ->
              for k = 1 to hi do
                let seed = 13000 + k in
                let scramble () =
                  Option.iter scramble_dead_registers (resume_checkpoint ff k)
                in
                let legacy =
                  Vulfi.Experiment.faulty_run ~fault_kind p ~golden:g
                    ~dynamic_site:k ~seed
                in
                let label executor =
                  Printf.sprintf "%s %s %s %s site %d" executor
                    w.Vulfi.Workload.w_name
                    (Analysis.Sites.category_name category)
                    (Vulfi.Runtime.fault_kind_name fault_kind)
                    k
                in
                scramble ();
                check_runs_equal (label "ff") legacy
                  (Vulfi.Experiment.faulty_run_ff ~fault_kind p ~ff
                     ~dynamic_site:k ~seed);
                scramble ();
                check_runs_equal (label "pruned") legacy
                  (Vulfi.Experiment.faulty_run_pruned ~fault_kind p ~ff
                     ~dynamic_site:k ~seed)
              done)
            kinds)
        Analysis.Sites.all_categories)
    [ vcopy_workload [ 19 ]; copy_twice_workload 19 ]

(* The compiler's dense liveness before checkpoints computed their
   saved sets on demand, kept as the reference for [pending_live]:
   per-block live-ins as [bool array]s, iterated round-robin to a
   fixpoint, then one backward walk per block recording (live before,
   live after) — sorted register arrays — at every call step. *)
module Dense_live = struct
  open Interp.Code

  let live_out_into (cf : cfunc) (live_in : bool array array) (bi : int)
      (blk : cblock) (live : bool array) : unit =
    List.iter
      (fun s ->
        let sb = cf.cblocks.(s) in
        let sin = live_in.(s) in
        for r = 0 to Array.length sin - 1 do
          if sin.(r) then live.(r) <- true
        done;
        Array.iter
          (fun (p : cphi) ->
            match Array.find_opt (fun (pred, _) -> pred = bi) p.incoming with
            | Some (_, Creg r) -> live.(r) <- true
            | Some (_, Cimm _) | None -> ())
          sb.cphis)
      (Interp.Compile.block_succs blk.term)

  let live_in_sets (cf : cfunc) : bool array array =
    let nb = Array.length cf.cblocks in
    let live_in = Array.init nb (fun _ -> Array.make cf.nregs false) in
    let changed = ref true in
    while !changed do
      changed := false;
      for bi = nb - 1 downto 0 do
        let blk = cf.cblocks.(bi) in
        let live = Array.make cf.nregs false in
        live_out_into cf live_in bi blk live;
        term_uses blk.term (fun r -> live.(r) <- true);
        for k = Array.length blk.body - 1 downto 0 do
          let ci = blk.body.(k) in
          if ci.dst >= 0 then live.(ci.dst) <- false;
          instr_uses ci (fun r -> live.(r) <- true)
        done;
        Array.iter (fun (p : cphi) -> live.(p.pdst) <- false) blk.cphis;
        if live <> live_in.(bi) then begin
          live_in.(bi) <- live;
          changed := true
        end
      done
    done;
    live_in

  let step_live_sets (cf : cfunc) (live_in : bool array array) (bi : int)
      (blk : cblock) : (int array * int array) array =
    let n = Array.length blk.body in
    let out = Array.make n ([||], [||]) in
    let live = Array.make cf.nregs false in
    live_out_into cf live_in bi blk live;
    term_uses blk.term (fun r -> live.(r) <- true);
    let to_set () =
      Array.of_list
        (List.filter (fun r -> live.(r)) (List.init cf.nregs Fun.id))
    in
    for k = n - 1 downto 0 do
      let ci = blk.body.(k) in
      let is_call =
        match ci.src.Vir.Instr.op with Vir.Instr.Call _ -> true | _ -> false
      in
      let after = if is_call then to_set () else [||] in
      if ci.dst >= 0 then live.(ci.dst) <- false;
      instr_uses ci (fun r -> live.(r) <- true);
      let before = if is_call then to_set () else [||] in
      out.(k) <- (before, after)
    done;
    out
end

(* Every checkpoint's saved set equals the dense reference's: for each
   extern call, the innermost set is the reference's live-before; for
   each direct call, the outer set is its live-after minus the call's
   destination. Over the 144 instrumented modules of the study grid,
   plus the two-call workload, whose direct calls the grid does not
   have. *)
let test_live_sets_match_dense () =
  let externs = ref 0 and calls = ref 0 in
  let check_module label (m : Vir.Vmodule.t) =
    let cm = Interp.Compile.compile_module m in
    (* a call resolves to a module function, an intrinsic or an extern,
       in that order *)
    let call_kind (ci : Interp.Code.cinstr) =
      match ci.Interp.Code.src.Vir.Instr.op with
      | Vir.Instr.Call (callee, _) ->
        if Hashtbl.mem cm.Interp.Code.cfuncs callee then `Direct
        else if Vir.Intrinsics.lookup callee = None then `Extern
        else `Other
      | _ -> `Other
    in
    Hashtbl.iter
      (fun fname (cf : Interp.Code.cfunc) ->
        let live_in = Dense_live.live_in_sets cf in
        Array.iteri
          (fun bi (blk : Interp.Code.cblock) ->
            let lives = Dense_live.step_live_sets cf live_in bi blk in
            Array.iteri
              (fun k (ci : Interp.Code.cinstr) ->
                let expect ~innermost want =
                  let got =
                    Interp.Compile.pending_live cf ~block:bi ~step:k ~innermost
                  in
                  if got <> want then
                    let show a =
                      String.concat " "
                        (Array.to_list (Array.map string_of_int a))
                    in
                    Alcotest.failf
                      "%s @%s block %d step %d (innermost %b): expected [%s], \
                       got [%s]"
                      label fname bi k innermost (show want) (show got)
                in
                let before, after = lives.(k) in
                match call_kind ci with
                | `Extern ->
                  incr externs;
                  expect ~innermost:true before
                | `Direct ->
                  incr calls;
                  let dst = ci.Interp.Code.dst in
                  expect ~innermost:false
                    (Array.of_list
                       (List.filter (fun r -> r <> dst) (Array.to_list after)))
                | `Other -> ())
              blk.Interp.Code.body)
          cf.Interp.Code.cblocks)
      cm.Interp.Code.cfuncs
  in
  Instrumented_grid.iter (fun label instr ->
      check_module label instr.Vulfi.Instrument.instrumented);
  List.iter
    (fun category ->
      let p =
        Vulfi.Experiment.prepare (copy_twice_workload 19) Vir.Target.Avx
          category
      in
      check_module
        ("copy_twice/" ^ Analysis.Sites.category_name category)
        p.Vulfi.Experiment.p_instr.Vulfi.Instrument.instrumented)
    Analysis.Sites.all_categories;
  check Alcotest.bool "extern steps checked" true (!externs > 0);
  check Alcotest.bool "direct-call steps checked" true (!calls > 0)

(* The detector flag across resume and splice. [flag_early]'s assert
   fails before the first plan site, so every resumed run's flag comes
   from the restored counter; [flag_late]'s fails after the last plan
   site, so a pruned run must splice the golden run's final flag — the
   live counter at convergence still reads zero. Both must equal the
   legacy protocol run by run. *)
let test_detector_flag_across_resume_and_splice () =
  Vulfi.Experiment.reset_prune_stats ();
  let spliced_flags = ref 0 in
  List.iter
    (fun (w, late) ->
      List.iter
        (fun category ->
          let p, hooks = prepare_cell ~detectors:true w category in
          let pi = Vulfi.Experiment.prepare_input ?hooks p ~input:0 in
          let g = pi.Vulfi.Experiment.pi_golden in
          check Alcotest.bool "golden run flagged" true
            g.Vulfi.Experiment.g_detected;
          let hi = g.Vulfi.Experiment.g_dyn_sites in
          let half = hi / 2 in
          let plan =
            Vulfi.Experiment.checkpoint_plan
              (if late then List.init half (fun i -> i + 1)
               else List.init (hi - half) (fun i -> half + i + 1))
          in
          let ff = Vulfi.Experiment.lay_checkpoints ?hooks p ~pi ~plan in
          for k = 1 to hi do
            let seed = 17000 + k in
            let legacy =
              Vulfi.Experiment.faulty_run ?hooks p ~golden:g ~dynamic_site:k
                ~seed
            in
            let label executor =
              Printf.sprintf "%s %s %s site %d" executor
                w.Vulfi.Workload.w_name
                (Analysis.Sites.category_name category)
                k
            in
            check_runs_equal (label "ff") legacy
              (Vulfi.Experiment.faulty_run_ff ?hooks p ~ff ~dynamic_site:k
                 ~seed);
            let prunes, _ = Vulfi.Experiment.prune_stats () in
            let pr =
              Vulfi.Experiment.faulty_run_pruned ?hooks p ~ff ~dynamic_site:k
                ~seed
            in
            check_runs_equal (label "pruned") legacy pr;
            if late && fst (Vulfi.Experiment.prune_stats ()) > prunes
               && pr.Vulfi.Experiment.r_detected
            then incr spliced_flags
          done)
        Analysis.Sites.all_categories)
    [ (flag_early_workload 19, false); (flag_late_workload 19, true) ];
  check Alcotest.bool "some pruned runs spliced the golden flag" true
    (!spliced_flags > 0)

(* ---------------- pinned check positions ---------------- *)

(* Where checks act, pinned in check_positions.txt: a checkpoint laid
   at every dynamic site of vcopy, copy_twice (whose checks sit inside
   a callee, below a pending direct call) and mscale (masked tails), on
   both ISAs and in every category, and of one detector cell, whose
   checks also fire before the detectors' host externs. A checkpoint
   row holds the dynamic instructions, vector instructions, live sites
   and detections at capture, the call stack outermost first as
   function:block:step, and the cell#site label. The last row holds
   the prunes and state comparisons of [pruned_sweep]. Checked like the
   other pins ({!Pinned}): re-record only in a change that means to
   move where checks act or what they find. *)
let positions_file = "check_positions.txt"

let positions_header =
  "# Checkpoint positions laid at every dynamic site of the small\n\
   # workloads: spent, vector, sites and detections at capture, the\n\
   # call stack (function:block:step, outermost first), cell#site. The\n\
   # prune_stats row: prunes and comparisons of the pruned sweep.\n\
   # Checked by test_checkpoint's \"check positions pinned\" case.\n"

let stack_string (ck : Interp.Machine.checkpoint) =
  String.concat "/"
    (Array.to_list
       (Array.map
          (fun (fc : Interp.Code.frame_ckpt) ->
            Printf.sprintf "%s:%d:%d"
              fc.Interp.Code.fc_func.Interp.Code.cf.Vir.Func.fname
              fc.Interp.Code.fc_block fc.Interp.Code.fc_instr)
          ck.Interp.Code.ck_stack))

let test_check_positions_pinned () =
  let rows = ref [] in
  let lay label (p, hooks) =
    let pi = Vulfi.Experiment.prepare_input ?hooks p ~input:0 in
    let hi = pi.Vulfi.Experiment.pi_golden.Vulfi.Experiment.g_dyn_sites in
    let ff =
      Vulfi.Experiment.lay_checkpoints ?hooks p ~pi
        ~plan:(Array.init hi (fun i -> i + 1))
    in
    check Alcotest.int (label ^ ": a checkpoint per site") hi
      (Array.length ff.Vulfi.Experiment.ff_checkpoints);
    Array.iter
      (fun (site, (ck : Interp.Machine.checkpoint)) ->
        rows :=
          Printf.sprintf "%d %d %d %d %s %s#%d" ck.Interp.Code.ck_spent
            ck.Interp.Code.ck_vec ck.Interp.Code.ck_sites
            ck.Interp.Code.ck_detections (stack_string ck) label site
          :: !rows)
      ff.Vulfi.Experiment.ff_checkpoints
  in
  List.iter
    (fun w ->
      List.iter
        (fun target ->
          List.iter
            (fun category ->
              lay
                (Printf.sprintf "%s/%s/%s" w.Vulfi.Workload.w_name
                   (Vir.Target.name target)
                   (Analysis.Sites.category_name category))
                (Vulfi.Experiment.prepare w target category, None))
            Analysis.Sites.all_categories)
        Vir.Target.all)
    [
      vcopy_workload [ 19 ];
      copy_twice_workload 19;
      Small_workloads.mscale_workload 13;
    ];
  lay "checked_shift/AVX/pure-data/detectors"
    (prepare_cell ~detectors:true (checked_shift_workload 19)
       Analysis.Sites.Pure_data);
  let prunes, checks = pruned_sweep () in
  let actual =
    List.rev (Printf.sprintf "%d %d prune_stats" prunes checks :: !rows)
  in
  Pinned.check ~file:positions_file ~header:positions_header
    ~what:"checkpoint rows"
    ~label:(fun r -> List.hd (List.rev (String.split_on_char ' ' r)))
    ~expected:(Pinned.read positions_file) actual

(* ---------------- legacy == checkpointed campaigns ---------------- *)

let result_t : Vulfi.Campaign.result Alcotest.testable =
  Alcotest.testable
    (fun fmt (r : Vulfi.Campaign.result) ->
      Format.fprintf fmt "%s: %d campaigns, %d exps, margin %f"
        r.Vulfi.Campaign.c_workload r.Vulfi.Campaign.c_campaigns
        r.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_experiments
        r.Vulfi.Campaign.c_margin)
    ( = )

let tiny_config =
  {
    Vulfi.Campaign.experiments_per_campaign = 10;
    min_campaigns = 3;
    max_campaigns = 4;
    margin_target = 1.0;
    seed = 99;
  }

(* All four executors are bit-identical — result record and trace
   bytes — in every category, with VULFI's mask-aware injector and with
   the mask-oblivious one of the ablation study, whose site counts
   include masked-off lanes. *)
let test_campaign_executors_match () =
  let w = vcopy_workload [ 8; 16; 19 ] in
  List.iter
    (fun (category, respect_masks) ->
      let run_with executor =
        let buf = Buffer.create 4096 in
        let sink = Vulfi.Trace.to_buffer buf in
        let r =
          Vulfi.Campaign.run ~respect_masks ~sink ~executor tiny_config w
            Vir.Target.Avx category
        in
        Vulfi.Trace.close sink;
        (r, Buffer.contents buf)
      in
      let r_legacy, tr_legacy = run_with Vulfi.Campaign.Legacy in
      let r_ckpt, tr_ckpt = run_with Vulfi.Campaign.Checkpointed in
      let r_ff, tr_ff = run_with Vulfi.Campaign.Fast_forward in
      let r_pr, tr_pr = run_with Vulfi.Campaign.Converge_pruned in
      let name =
        Analysis.Sites.category_name category
        ^ if respect_masks then "" else " mask-oblivious"
      in
      check result_t (name ^ ": checkpointed results equal") r_legacy r_ckpt;
      check result_t (name ^ ": fast-forward results equal") r_legacy r_ff;
      check result_t (name ^ ": converge-pruned results equal") r_legacy r_pr;
      check Alcotest.string
        (name ^ ": checkpointed trace byte-identical")
        tr_legacy tr_ckpt;
      check Alcotest.string
        (name ^ ": fast-forward trace byte-identical")
        tr_legacy tr_ff;
      check Alcotest.string
        (name ^ ": converge-pruned trace byte-identical")
        tr_legacy tr_pr;
      (* the golden and fast-forward accounting is schedule-derived on
         every path — the legacy run reports it too *)
      check Alcotest.int (name ^ ": golden runs + reused = experiments")
        r_ckpt.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_experiments
        (r_ckpt.Vulfi.Campaign.c_golden_runs
        + r_ckpt.Vulfi.Campaign.c_golden_reused);
      check Alcotest.int
        (name ^ ": legacy reports the same checkpoint count")
        r_ff.Vulfi.Campaign.c_checkpoints
        r_legacy.Vulfi.Campaign.c_checkpoints;
      (* pruning counters are schedule-derived too, and internally
         consistent: each prunable experiment has at least one
         schedule-possible check *)
      check Alcotest.int
        (name ^ ": legacy reports the same prunable count")
        r_pr.Vulfi.Campaign.c_pruned r_legacy.Vulfi.Campaign.c_pruned;
      Alcotest.(check bool)
        (name ^ ": prune checks >= prunable experiments")
        true
        (r_pr.Vulfi.Campaign.c_prune_checks >= r_pr.Vulfi.Campaign.c_pruned);
      if r_ff.Vulfi.Campaign.c_checkpoints > 0 then
        Alcotest.(check bool)
          (name ^ ": some experiments resume")
          true
          (r_ff.Vulfi.Campaign.c_ff_resumed > 0))
    (List.concat_map
       (fun c -> [ (c, true); (c, false) ])
       Analysis.Sites.all_categories)

let test_campaign_executors_parallel_match () =
  let w = vcopy_workload [ 8; 16; 19 ] in
  let trace_of f =
    let buf = Buffer.create 4096 in
    let sink = Vulfi.Trace.to_buffer buf in
    let r = f sink in
    Vulfi.Trace.close sink;
    (r, Buffer.contents buf)
  in
  let r_legacy, tr_legacy =
    trace_of (fun sink ->
        Vulfi.Campaign.run ~sink ~executor:Vulfi.Campaign.Legacy tiny_config
          w Vir.Target.Sse Analysis.Sites.Address)
  in
  let r_ckpt, tr_ckpt =
    trace_of (fun sink ->
        Vulfi.Campaign.run ~sink
          ~executor:Vulfi.Campaign.Checkpointed ~jobs:4 tiny_config w
          Vir.Target.Sse Analysis.Sites.Address)
  in
  let r_ff_seq, tr_ff_seq =
    trace_of (fun sink ->
        Vulfi.Campaign.run ~sink ~executor:Vulfi.Campaign.Fast_forward
          tiny_config w Vir.Target.Sse Analysis.Sites.Address)
  in
  let r_ff_par, tr_ff_par =
    trace_of (fun sink ->
        Vulfi.Campaign.run ~sink
          ~executor:Vulfi.Campaign.Fast_forward ~jobs:4 tiny_config w
          Vir.Target.Sse Analysis.Sites.Address)
  in
  let r_pr_seq, tr_pr_seq =
    trace_of (fun sink ->
        Vulfi.Campaign.run ~sink ~executor:Vulfi.Campaign.Converge_pruned
          tiny_config w Vir.Target.Sse Analysis.Sites.Address)
  in
  let r_pr_par, tr_pr_par =
    trace_of (fun sink ->
        Vulfi.Campaign.run ~sink
          ~executor:Vulfi.Campaign.Converge_pruned ~jobs:4 tiny_config w
          Vir.Target.Sse Analysis.Sites.Address)
  in
  check result_t "checkpointed -j4 == legacy sequential" r_legacy r_ckpt;
  check result_t "fast-forward sequential == legacy" r_legacy r_ff_seq;
  check result_t "fast-forward -j4 == legacy" r_legacy r_ff_par;
  check result_t "converge-pruned sequential == legacy" r_legacy r_pr_seq;
  check result_t "converge-pruned -j4 == legacy" r_legacy r_pr_par;
  check Alcotest.string "checkpointed -j4 trace byte-identical" tr_legacy
    tr_ckpt;
  check Alcotest.string "fast-forward trace byte-identical" tr_legacy
    tr_ff_seq;
  check Alcotest.string "fast-forward -j4 trace byte-identical" tr_legacy
    tr_ff_par;
  check Alcotest.string "converge-pruned trace byte-identical" tr_legacy
    tr_pr_seq;
  check Alcotest.string "converge-pruned -j4 trace byte-identical" tr_legacy
    tr_pr_par

(* Detector campaigns run on every executor: detections are a machine
   counter that checkpoints carry and convergence checks compare, so
   results and traces are byte-identical to the legacy protocol,
   sequentially and at -j4. The cells must actually detect, lay
   checkpoints and prune. *)
let test_campaign_executors_match_with_detectors () =
  Vulfi.Experiment.reset_prune_stats ();
  let detected = ref 0 and checkpoints = ref 0 in
  List.iter
    (fun (w, category) ->
      let run_with ?jobs executor =
        let buf = Buffer.create 4096 in
        let sink = Vulfi.Trace.to_buffer buf in
        let r =
          Vulfi.Campaign.run ~transform:detector_transform
            ~hooks:Detectors.Runtime.hooks ~sink ~executor ?jobs tiny_config w
            Vir.Target.Avx category
        in
        Vulfi.Trace.close sink;
        (r, Buffer.contents buf)
      in
      let r_legacy, tr_legacy = run_with Vulfi.Campaign.Legacy in
      List.iter
        (fun (name, jobs, executor) ->
          let r, tr = run_with ?jobs executor in
          let label =
            Printf.sprintf "%s %s: %s" w.Vulfi.Workload.w_name
              (Analysis.Sites.category_name category)
              name
          in
          check result_t (label ^ " results == legacy") r_legacy r;
          check Alcotest.string (label ^ " trace byte-identical") tr_legacy tr)
        Vulfi.Campaign.
          [
            ("checkpointed", None, Checkpointed);
            ("fast-forward", None, Fast_forward);
            ("converge-pruned", None, Converge_pruned);
            ("checkpointed -j4", Some 4, Checkpointed);
            ("fast-forward -j4", Some 4, Fast_forward);
            ("converge-pruned -j4", Some 4, Converge_pruned);
          ];
      detected :=
        !detected + r_legacy.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_detected;
      checkpoints := !checkpoints + r_legacy.Vulfi.Campaign.c_checkpoints)
    [
      (vcopy_workload [ 8; 16; 19 ], Analysis.Sites.Control);
      (checked_shift_workload 19, Analysis.Sites.Pure_data);
    ];
  let prunes, _ = Vulfi.Experiment.prune_stats () in
  check Alcotest.bool "some runs detected" true (!detected > 0);
  check Alcotest.bool "checkpoints laid" true (!checkpoints > 0);
  check Alcotest.bool "some runs pruned" true (prunes > 0)

(* Detector cells run on the executor asked for: [effective_executor]
   is the identity, with and without detectors. *)
let test_effective_executor () =
  List.iter
    (fun detectors ->
      List.iter
        (fun e ->
          Alcotest.(check string)
            (Printf.sprintf "identity (detectors %b)" detectors)
            (Vulfi.Campaign.executor_name e)
            (Vulfi.Campaign.executor_name
               (Vulfi.Campaign.effective_executor ~detectors e)))
        Vulfi.Campaign.[ Legacy; Checkpointed; Fast_forward; Converge_pruned ])
    [ false; true ]

(* [Legacy] stays the literal §IV-B protocol under the one driver: at
   one job it builds a fresh profiling machine and a fresh faulty
   machine per experiment, on top of the one golden run per input,
   while the other executors bind each input once and then build only
   the faulty run's machine state. Results are identical by design, so
   only a counting hooks factory can tell the protocols apart. *)
let test_hooks_per_executor () =
  let w = vcopy_workload [ 8; 16; 19 ] in
  let category = Analysis.Sites.Pure_data in
  let prepared = Vulfi.Experiment.prepare w Vir.Target.Avx category in
  for input = 0 to w.Vulfi.Workload.w_inputs - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "input %d has live sites" input)
      true
      ((Vulfi.Experiment.golden_run prepared ~input).Vulfi.Experiment
         .g_dyn_sites > 0)
  done;
  List.iter
    (fun (executor, per_input, per_experiment) ->
      let calls = Atomic.make 0 in
      let hooks () =
        Atomic.incr calls;
        Vulfi.Experiment.no_hooks
      in
      let r =
        Vulfi.Campaign.run ~hooks ~executor ~jobs:1 tiny_config w
          Vir.Target.Avx category
      in
      let inputs = r.Vulfi.Campaign.c_golden_runs in
      let exps = r.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_experiments in
      Alcotest.(check bool) "several inputs drawn" true (inputs > 1);
      check Alcotest.int
        (Printf.sprintf "%s: hooks built (%d inputs, %d experiments)"
           (Vulfi.Campaign.executor_name executor)
           inputs exps)
        ((per_input * inputs) + (per_experiment * exps))
        (Atomic.get calls))
    Vulfi.Campaign.
      [
        (Legacy, 1, 2);
        (Checkpointed, 1, 1);
        (Fast_forward, 2, 1);
        (Converge_pruned, 2, 1);
      ]

(* ---------------- stats + progress-line edges ---------------- *)

(* Pin the small-sample confidence intervals: n < 2 must yield an
   infinite margin (never 0 or nan — a one-campaign cell must not pass
   the stopping rule), and n = 2 is the first finite interval, with
   df 1 and t = 12.706. *)
let test_confidence_small_samples () =
  let m0, e0 = Vulfi.Stats.confidence [] in
  check (Alcotest.float 0.0) "n=0 mean" 0.0 m0;
  Alcotest.(check bool) "n=0 margin infinite" true (e0 = infinity);
  let m1, e1 = Vulfi.Stats.confidence [ 0.25 ] in
  check (Alcotest.float 0.0) "n=1 mean" 0.25 m1;
  Alcotest.(check bool) "n=1 margin infinite" true (e1 = infinity);
  let m2, e2 = Vulfi.Stats.confidence [ 0.2; 0.4 ] in
  check (Alcotest.float 1e-12) "n=2 mean" 0.3 m2;
  (* s = 0.1*sqrt(2), margin = 12.706 * s / sqrt(2) = 1.2706 *)
  check (Alcotest.float 1e-9) "n=2 margin (t(1) = 12.706)" 1.2706 e2;
  check (Alcotest.float 0.0) "confidence == margin_of_error"
    (Vulfi.Stats.margin_of_error [ 0.2; 0.4 ])
    e2;
  Alcotest.(check bool)
    "n=1 margin_of_error infinite" true
    (Vulfi.Stats.margin_of_error [ 0.25 ] = infinity)

(* Regression for the fig11 stderr reporter: the degenerate first tick
   (nothing done yet and/or a zero elapsed reading from a coarse clock)
   must print clamped values, never inf/nan. *)
let test_progress_line_degenerate () =
  let line = Vulfi.Report.progress_line ~label:"fig11" in
  check Alcotest.string "first tick: nothing done, zero elapsed"
    "fig11: 0/12 cells done, 0 experiments/s, ETA --"
    (line ~done_cells:0 ~total_cells:12 ~done_exps:0 ~elapsed_s:0.0);
  check Alcotest.string "zero elapsed with work done"
    "fig11: 1/12 cells done, 0 experiments/s, ETA --"
    (line ~done_cells:1 ~total_cells:12 ~done_exps:40 ~elapsed_s:0.0);
  check Alcotest.string "normal tick"
    "fig11: 3/12 cells done, 400 experiments/s, ETA 9 s"
    (line ~done_cells:3 ~total_cells:12 ~done_exps:1200 ~elapsed_s:3.0);
  check Alcotest.string "last tick: ETA 0"
    "fig11: 12/12 cells done, 400 experiments/s, ETA 0 s"
    (line ~done_cells:12 ~total_cells:12 ~done_exps:4800 ~elapsed_s:12.0)

let () =
  Alcotest.run "checkpoint"
    [
      ( "memory",
        Alcotest.test_case "stale snapshot restores" `Quick
          test_stale_snapshot_restores
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_restore_equals_fresh_replay;
               prop_double_restore;
               prop_whole_image_snapshots;
               prop_masked_oob_lanes_never_trap;
             ] );
      ( "machine",
        [
          Alcotest.test_case "reset rerun == fresh" `Quick
            test_reset_rerun_equals_fresh;
          Alcotest.test_case "reset re-arms budget" `Quick
            test_reset_rearms_budget;
          Alcotest.test_case "resume ~budget prefix accounting" `Quick
            test_resume_budget_accounting;
          Alcotest.test_case "site counter: reset, resume, state_equal"
            `Quick test_site_counter;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "checkpointed faulty runs match" `Quick
            test_checkpointed_faulty_runs_match;
          Alcotest.test_case "checkpoint plan" `Quick test_checkpoint_plan;
          Alcotest.test_case "ff faulty runs match (dense + sparse plans)"
            `Quick test_ff_faulty_runs_match;
          Alcotest.test_case "ff faulty runs match (all fault kinds)" `Quick
            test_ff_fault_kinds_match;
          Alcotest.test_case "pruned faulty runs match (dense + sparse plans)"
            `Quick test_pruned_faulty_runs_match;
          Alcotest.test_case "pruned faulty runs match (all fault kinds)"
            `Quick test_pruned_fault_kinds_match;
          QCheck_alcotest.to_alcotest prop_ff_equals_legacy;
          QCheck_alcotest.to_alcotest prop_pruned_equals_legacy;
          Alcotest.test_case "live sets == dense reference" `Quick
            test_live_sets_match_dense;
          Alcotest.test_case "resume ignores dead registers" `Quick
            test_resume_ignores_dead_registers;
          Alcotest.test_case "detector flag across resume and splice" `Quick
            test_detector_flag_across_resume_and_splice;
          Alcotest.test_case "check positions pinned" `Quick
            test_check_positions_pinned;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "four executors match (all categories)" `Quick
            test_campaign_executors_match;
          Alcotest.test_case "four executors match (-j4)" `Quick
            test_campaign_executors_parallel_match;
          Alcotest.test_case "four executors match (detectors)" `Quick
            test_campaign_executors_match_with_detectors;
          Alcotest.test_case "effective executor under detectors" `Quick
            test_effective_executor;
          Alcotest.test_case "legacy stays literal (hooks per executor)"
            `Quick test_hooks_per_executor;
        ] );
      ( "stats",
        [
          Alcotest.test_case "confidence small samples" `Quick
            test_confidence_small_samples;
          Alcotest.test_case "progress line degenerate ticks" `Quick
            test_progress_line_degenerate;
        ] );
    ]
