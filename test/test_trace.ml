(* Tests for the telemetry layer: the dependency-free JSON
   encoder/parser, the trace schema, sequential-vs-parallel trace
   byte-identity, and replaying a trace back into campaign results. *)

open Vulfi

let check = Alcotest.check

(* ---------------- helpers ---------------- *)

let vcopy_src =
  "export void vcopy_ispc(uniform int a1[], uniform int a2[], uniform int \
   n) { foreach (i = 0 ... n) { a2[i] = a1[i]; } }"

let vcopy_workload lengths =
  {
    Workload.w_name = "vcopy";
    w_fn = "vcopy_ispc";
    w_out_tolerance = 0.0;
    w_inputs = List.length lengths;
    w_build = (fun target -> Minispc.Driver.compile target vcopy_src);
    w_setup =
      (fun ~input st ->
        let n = List.nth lengths input in
        let mem = Interp.Machine.memory st in
        let a1 = Interp.Memory.alloc mem ~name:"a1" ~bytes:(4 * max n 1) in
        let a2 = Interp.Memory.alloc mem ~name:"a2" ~bytes:(4 * max n 1) in
        Interp.Memory.write_i32_array mem a1
          (Array.init n (fun i -> (i * 37) - 11));
        ( [ Interp.Vvalue.of_ptr a1; Interp.Vvalue.of_ptr a2;
            Interp.Vvalue.of_i32 n ],
          fun () ->
            {
              Outcome.empty_output with
              Outcome.o_i32 = [ Interp.Memory.read_i32_array mem a2 n ];
            } ));
  }

let tiny_config =
  {
    Campaign.experiments_per_campaign = 10;
    min_campaigns = 3;
    max_campaigns = 4;
    margin_target = 1.0;
    seed = 99;
  }

(* Run a traced sequential campaign; return (result, trace text). *)
let traced_run ?(timings = false) cfg w target category =
  let buf = Buffer.create 4096 in
  let sink = Trace.to_buffer ~timings buf in
  let r = Campaign.run ~sink cfg w target category in
  Trace.close sink;
  (r, Buffer.contents buf)

let parse_trace text =
  List.filter_map
    (fun line -> if line = "" then None else Some (Json.of_string line))
    (String.split_on_char '\n' text)

(* ---------------- Json: encoding ---------------- *)

let test_json_to_string () =
  check Alcotest.string "null" "null" (Json.to_string Json.Null);
  check Alcotest.string "true" "true" (Json.to_string (Json.Bool true));
  check Alcotest.string "int" "-42" (Json.to_string (Json.Int (-42)));
  check Alcotest.string "float" "1.5" (Json.to_string (Json.Float 1.5));
  check Alcotest.string "integral float keeps point" "3.0"
    (Json.to_string (Json.Float 3.0));
  check Alcotest.string "string escapes" "\"a\\\"b\\\\c\\n\\u0001\""
    (Json.to_string (Json.String "a\"b\\c\n\001"));
  check Alcotest.string "list" "[1,\"x\",null]"
    (Json.to_string (Json.List [ Json.Int 1; Json.String "x"; Json.Null ]));
  check Alcotest.string "object" "{\"a\":1,\"b\":[true]}"
    (Json.to_string
       (Json.Obj
          [ ("a", Json.Int 1); ("b", Json.List [ Json.Bool true ]) ]))

(* Every float must survive print -> parse exactly (the trace
   byte-identity and replay guarantees both rest on this). *)
let test_json_float_round_trip () =
  List.iter
    (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Json.Float f' ->
        Alcotest.(check bool)
          (Printf.sprintf "%h round-trips" f)
          true (f = f')
      | _ -> Alcotest.fail "float did not parse back as a float")
    [
      0.0; 1.5; -1.5; 0.1; 1.0 /. 3.0; 1e-300; 1e300; 4.9e-324;
      0.30000000000000004; 1234567890.123456;
    ]

let test_json_round_trip () =
  let j =
    Json.Obj
      [
        ("s", Json.String "hi \"there\"\tok");
        ("i", Json.Int 123);
        ("f", Json.Float 0.1);
        ("n", Json.Null);
        ("b", Json.Bool false);
        ("l", Json.List [ Json.Int 1; Json.Obj [ ("x", Json.Null) ] ]);
      ]
  in
  Alcotest.(check bool) "round-trips structurally" true
    (Json.of_string (Json.to_string j) = j)

(* ---------------- Json: parsing ---------------- *)

let test_json_parse_extras () =
  Alcotest.(check bool) "whitespace tolerated" true
    (Json.of_string "  { \"a\" : [ 1 , 2 ] }  "
    = Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]) ]);
  Alcotest.(check bool) "unicode escape" true
    (Json.of_string "\"\\u0041\\u00e9\"" = Json.String "A\xc3\xa9");
  Alcotest.(check bool) "surrogate pair" true
    (Json.of_string "\"\\ud83d\\ude00\"" = Json.String "\xf0\x9f\x98\x80");
  Alcotest.(check bool) "exponent is a float" true
    (Json.of_string "1e2" = Json.Float 100.0);
  Alcotest.(check bool) "plain integer stays an int" true
    (Json.of_string "-7" = Json.Int (-7))

let test_json_parse_errors () =
  List.iter
    (fun src ->
      match Json.of_string src with
      | exception Json.Parse_error _ -> ()
      | j ->
        Alcotest.fail
          (Printf.sprintf "%S parsed as %s" src (Json.to_string j)))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "nul" ]

(* ---------------- trace schema ---------------- *)

let test_trace_schema () =
  let w = vcopy_workload [ 8; 19 ] in
  let _, text =
    traced_run tiny_config w Vir.Target.Avx Analysis.Sites.Pure_data
  in
  let records = parse_trace text in
  (match records with
  | header :: _ ->
    Alcotest.(check bool) "header first" true
      (Json.member "type" header = Some (Json.String "header"));
    Alcotest.(check bool) "schema stamped" true
      (Json.member "schema" header = Some (Json.String Trace.schema))
  | [] -> Alcotest.fail "empty trace");
  let experiments =
    List.filter
      (fun j -> Json.member "type" j = Some (Json.String "experiment"))
      records
  in
  let summaries =
    List.filter
      (fun j -> Json.member "type" j = Some (Json.String "summary"))
      records
  in
  check Alcotest.int "one summary" 1 (List.length summaries);
  Alcotest.(check bool) "experiments present" true (experiments <> []);
  (* every experiment record carries the full field set *)
  List.iter
    (fun j ->
      List.iter
        (fun field ->
          Alcotest.(check bool)
            (Printf.sprintf "field %S present" field)
            true
            (Json.member field j <> None))
        [
          "workload"; "target"; "category"; "campaign"; "experiment";
          "input"; "golden_sites"; "outcome"; "static_site"; "dynamic_site";
          "bit"; "detected"; "dyn_instrs";
        ];
      (* deterministic trace: no wall times *)
      Alcotest.(check bool) "no wall_s by default" true
        (Json.member "wall_s" j = None))
    experiments;
  (* experiment records arrive in (campaign, experiment) order *)
  let keys =
    List.map
      (fun j ->
        match (Json.member "campaign" j, Json.member "experiment" j) with
        | Some (Json.Int c), Some (Json.Int e) -> (c, e)
        | _ -> Alcotest.fail "campaign/experiment missing")
      experiments
  in
  Alcotest.(check bool) "records ordered" true (List.sort compare keys = keys)

let test_trace_timings_adds_wall () =
  let w = vcopy_workload [ 8 ] in
  let _, text =
    traced_run ~timings:true tiny_config w Vir.Target.Avx
      Analysis.Sites.Pure_data
  in
  List.iter
    (fun j ->
      if Json.member "type" j = Some (Json.String "experiment") then
        match Json.member "wall_s" j with
        | Some (Json.Float f) ->
          Alcotest.(check bool) "wall time non-negative" true (f >= 0.0)
        | Some (Json.Int _) | Some Json.Null -> ()
        | _ -> Alcotest.fail "wall_s missing with timings on")
    (parse_trace text)

(* The headline determinism guarantee: a parallel run's trace is
   byte-identical to the sequential run's. *)
let test_trace_parallel_byte_identical () =
  let w = vcopy_workload [ 8; 19 ] in
  let _, seq_text =
    traced_run tiny_config w Vir.Target.Avx Analysis.Sites.Control
  in
  let buf = Buffer.create 4096 in
  let sink = Trace.to_buffer buf in
  let _ =
    Campaign.run ~sink ~jobs:4 tiny_config w Vir.Target.Avx
      Analysis.Sites.Control
  in
  Trace.close sink;
  check Alcotest.string "trace bytes identical" seq_text
    (Buffer.contents buf)

(* ---------------- replay ---------------- *)

let test_replay_matches_live () =
  let w = vcopy_workload [ 8; 19 ] in
  List.iter
    (fun category ->
      let live, text =
        traced_run tiny_config w Vir.Target.Avx category
      in
      match Report.replay_of_trace (parse_trace text) with
      | Error msg -> Alcotest.fail msg
      | Ok [ rp ] ->
        let r = rp.Report.rp_result in
        (* the replayed cell reproduces the live rows byte-for-byte *)
        check Alcotest.string "fig11 row identical"
          (Report.fig11_row live) (Report.fig11_row r);
        check Alcotest.string "fig12 row identical"
          (Report.fig12_row live) (Report.fig12_row r);
        Alcotest.(check bool) "full result equal" true (live = r);
        Alcotest.(check bool) "summary cross-check passed" true
          (rp.Report.rp_summary = `Match);
        Alcotest.(check bool) "no detectors recorded" false
          rp.Report.rp_detectors
      | Ok l ->
        Alcotest.fail (Printf.sprintf "expected 1 cell, got %d"
                         (List.length l)))
    Analysis.Sites.all_categories

let test_replay_rejects_bad_traces () =
  let exp j = Json.member "type" j = Some (Json.String "experiment") in
  let w = vcopy_workload [ 8 ] in
  let _, text =
    traced_run tiny_config w Vir.Target.Avx Analysis.Sites.Pure_data
  in
  let records = parse_trace text in
  let is_err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "empty trace rejected" true
    (is_err (Report.replay_of_trace []));
  Alcotest.(check bool) "missing header rejected" true
    (is_err (Report.replay_of_trace (List.tl records)));
  Alcotest.(check bool) "wrong schema rejected" true
    (is_err
       (Report.replay_of_trace
          (Json.Obj
             [
               ("type", Json.String "header");
               ("schema", Json.String "not-a-vulfi-trace");
             ]
          :: List.tl records)));
  (* corrupt one experiment record's outcome *)
  let corrupted =
    List.map
      (fun j ->
        if exp j then
          match j with
          | Json.Obj fields ->
            Json.Obj
              (List.map
                 (fun (k, v) ->
                   if k = "outcome" then (k, Json.String "mystery")
                   else (k, v))
                 fields)
          | _ -> j
        else j)
      records
  in
  Alcotest.(check bool) "unknown outcome rejected" true
    (is_err (Report.replay_of_trace corrupted))

(* Older traces must keep replaying: a v4 trace whose header carries
   the [executor] field earlier writers stamped, a v3 trace (no pruning
   counters in the summary), a v2 trace (no fast-forward counters
   either) and a v1 trace (no golden counters either) are all accepted,
   with the missing counters defaulting to zero and everything the
   version does carry still adopted. *)
let test_replay_accepts_older_schemas () =
  let w = vcopy_workload [ 8 ] in
  let live, text =
    traced_run tiny_config w Vir.Target.Avx Analysis.Sites.Pure_data
  in
  let records = parse_trace text in
  let strip_fields drop = function
    | Json.Obj fields ->
      Json.Obj (List.filter (fun (k, _) -> not (List.mem k drop)) fields)
    | j -> j
  in
  let downgrade schema drop =
    Json.Obj [ ("type", Json.String "header"); ("schema", Json.String schema) ]
    :: List.map (strip_fields drop) (List.tl records)
  in
  let check_downgraded ?(keeps_ff = false) name trace =
    match Report.replay_of_trace trace with
    | Error msg -> Alcotest.fail (name ^ ": " ^ msg)
    | Ok [ rp ] ->
      let r = rp.Report.rp_result in
      check Alcotest.string (name ^ ": fig11 row identical")
        (Report.fig11_row live) (Report.fig11_row r);
      Alcotest.(check bool)
        (name ^ ": summary cross-check passed")
        true
        (rp.Report.rp_summary = `Match);
      check Alcotest.int (name ^ ": prune counters default to 0") 0
        (r.Campaign.c_pruned + r.Campaign.c_prune_checks);
      if keeps_ff then begin
        check Alcotest.int (name ^ ": ff counters survive")
          live.Campaign.c_checkpoints r.Campaign.c_checkpoints;
        check Alcotest.int (name ^ ": ff_resumed survives")
          live.Campaign.c_ff_resumed r.Campaign.c_ff_resumed
      end
      else
        check Alcotest.int (name ^ ": ff counters default to 0") 0
          (r.Campaign.c_checkpoints + r.Campaign.c_ff_resumed)
    | Ok l ->
      Alcotest.fail
        (Printf.sprintf "%s: expected 1 cell, got %d" name (List.length l))
  in
  (* v4 traces from writers that stamped the executor a detector cell
     degraded to into the header still replay *)
  (match
     Report.replay_of_trace
       (Json.Obj
          [
            ("type", Json.String "header");
            ("schema", Json.String Trace.schema);
            ("executor", Json.String "checkpointed");
          ]
       :: List.tl records)
   with
  | Ok [ rp ] ->
    Alcotest.(check bool) "v4 + executor header: result equal" true
      (rp.Report.rp_result = live);
    Alcotest.(check bool) "v4 + executor header: summary cross-check" true
      (rp.Report.rp_summary = `Match)
  | Ok _ -> Alcotest.fail "v4 + executor header: expected 1 cell"
  | Error msg -> Alcotest.fail ("v4 + executor header: " ^ msg));
  check_downgraded ~keeps_ff:true "v3"
    (downgrade "vulfi-trace-v3" [ "pruned"; "prune_checks" ]);
  check_downgraded "v2"
    (downgrade "vulfi-trace-v2"
       [ "pruned"; "prune_checks"; "checkpoints"; "ff_resumed" ]);
  check_downgraded "v1"
    (downgrade "vulfi-trace-v1"
       [
         "pruned"; "prune_checks"; "checkpoints"; "ff_resumed";
         "golden_runs"; "golden_reused";
       ])

let () =
  Alcotest.run "trace"
    [
      ( "json",
        [
          Alcotest.test_case "to_string" `Quick test_json_to_string;
          Alcotest.test_case "float round-trip" `Quick
            test_json_float_round_trip;
          Alcotest.test_case "structural round-trip" `Quick
            test_json_round_trip;
          Alcotest.test_case "parse extras" `Quick test_json_parse_extras;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        ] );
      ( "trace",
        [
          Alcotest.test_case "schema" `Quick test_trace_schema;
          Alcotest.test_case "timings add wall_s" `Quick
            test_trace_timings_adds_wall;
          Alcotest.test_case "parallel trace byte-identical" `Quick
            test_trace_parallel_byte_identical;
        ] );
      ( "replay",
        [
          Alcotest.test_case "matches live result" `Quick
            test_replay_matches_live;
          Alcotest.test_case "rejects bad traces" `Quick
            test_replay_rejects_bad_traces;
          Alcotest.test_case "accepts older schemas" `Quick
            test_replay_accepts_older_schemas;
        ] );
    ]
