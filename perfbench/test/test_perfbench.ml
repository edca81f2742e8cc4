(* Self-tests of the benchmark's own reporting rules and its
   correctness check. *)

open Perfbench

let check = Alcotest.check

(* ---------------- percentile rule ---------------- *)

let test_tail_percentile () =
  let tail n = Stats.tail_percentile ~n in
  let pm = Alcotest.(option int) in
  check pm "19 samples support no percentile" None (tail 19);
  check pm "20 samples: p50 has 10 beyond" (Some 500) (tail 20);
  check pm "99 samples: p90 has only 9 beyond" (Some 500) (tail 99);
  check pm "100 samples: p90" (Some 900) (tail 100);
  check pm "1000 samples: p99" (Some 990) (tail 1000);
  check pm "9999 samples: p99.9 has only 9 beyond" (Some 990) (tail 9999);
  check pm "10000 samples: p99.9" (Some 999) (tail 10000)

let test_percentile_values () =
  let a = Stats.sorted (List.init 100 (fun i -> float_of_int (100 - i))) in
  check (Alcotest.float 0.0) "p50 of 1..100" 50.0 (Stats.percentile a 500);
  check (Alcotest.float 0.0) "p99 of 1..100" 99.0 (Stats.percentile a 990);
  check (Alcotest.float 0.0) "median of even n" 2.5
    (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  check Alcotest.string "name" "p99.9" (Stats.percentile_name 999);
  check Alcotest.string "name" "p50" (Stats.percentile_name 500)

(* ---------------- span self time ---------------- *)

let span ?(parent = Some 0) id start stop =
  { Spans.id; parent; name = "s"; start; stop }

let test_self_time () =
  let parent = span ~parent:None 0 0.0 10.0 in
  let eps = Alcotest.float 1e-12 in
  check eps "no children" 10.0 (Spans.self_time parent []);
  (* [1,3] and [2,5] overlap into [1,5]; [8,12] is clipped to [8,10] *)
  let children = [ span 1 1.0 3.0; span 2 2.0 5.0; span 3 8.0 12.0 ] in
  check eps "overlap counted once, overhang clipped" 4.0
    (Spans.self_time parent children);
  check eps "child outside the parent" 10.0
    (Spans.self_time parent [ span 4 11.0 12.0 ])

let test_record_nesting () =
  let t = Spans.create () in
  Spans.record t "outer" (fun () ->
      Spans.record t "inner" ignore;
      Spans.record t "inner" ignore);
  let spans = Spans.spans t in
  let outer = List.find (fun s -> s.Spans.name = "outer") spans in
  check Alcotest.int "children of outer" 2
    (List.length (Spans.children spans outer));
  check Alcotest.bool "outer is a root" true (outer.Spans.parent = None);
  check Alcotest.bool "self time within duration" true
    (Spans.self_time outer (Spans.children spans outer)
    <= Spans.duration outer)

(* ---------------- reference digests ---------------- *)

let tiny_config =
  {
    Vulfi.Campaign.experiments_per_campaign = 6;
    min_campaigns = 2;
    max_campaigns = 2;
    margin_target = 1.0;
    seed = 7;
  }

let tiny_cells =
  let b = List.hd Benchmarks.Registry.micro_benchmarks in
  let w = Workloads.one_input b.Benchmarks.Harness.bench in
  List.map (fun cat -> (w, Vir.Target.Avx, cat)) Analysis.Sites.all_categories

let digests executor =
  let buf = Buffer.create 4096 in
  let sink = Vulfi.Trace.to_buffer buf in
  let results =
    Vulfi.Campaign.run_cells ~sink ~executor ~jobs:1 tiny_config tiny_cells
  in
  Reference.of_sweep ~detectors:false tiny_cells results
    ~trace:(Buffer.contents buf)

let test_reference_matches_legacy () =
  let expected = digests Vulfi.Campaign.Legacy in
  check Alcotest.int "one digest per cell" (List.length tiny_cells)
    (List.length expected);
  check Alcotest.int "converge-pruned matches the paper protocol" 0
    (Reference.mismatches ~expected
       ~actual:(digests Vulfi.Campaign.Converge_pruned));
  check Alcotest.bool "file format round-trips" true
    (Reference.of_string (Reference.to_string expected) = expected)

let test_tampered_reference () =
  let actual = digests Vulfi.Campaign.Converge_pruned in
  let tampered =
    List.mapi
      (fun i (c : Reference.cell) ->
        if i = 1 then { c with Reference.trace = Reference.md5 "tampered" }
        else c)
      actual
  in
  check Alcotest.int "one tampered digest fails one cell" 1
    (Reference.mismatches ~expected:tampered ~actual);
  check Alcotest.int "a missing cell fails" 1
    (Reference.mismatches ~expected:(List.tl actual) ~actual)

let test_cell_blocks () =
  let trace =
    String.concat "\n"
      [
        {|{"type":"header"}|};
        {|{"type":"experiment","n":1}|};
        {|{"type":"summary","cell":1}|};
        {|{"type":"summary","cell":2}|};
        "";
      ]
  in
  check
    Alcotest.(list string)
    "blocks end at summaries"
    [
      {|{"type":"experiment","n":1}|} ^ "\n" ^ {|{"type":"summary","cell":1}|};
      {|{"type":"summary","cell":2}|};
    ]
    (Reference.cell_blocks trace)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_percentile;
          Alcotest.test_case "percentile values" `Quick test_percentile_values;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "record nesting" `Quick test_record_nesting;
        ] );
      ( "reference",
        [
          Alcotest.test_case "cell blocks" `Quick test_cell_blocks;
          Alcotest.test_case "pruned matches legacy" `Quick
            test_reference_matches_legacy;
          Alcotest.test_case "tampered digest fails" `Quick
            test_tampered_reference;
        ] );
    ]
