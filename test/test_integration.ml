(* End-to-end integration checks across the whole pipeline, pinning
   paper-shape invariants that must hold at any seed, plus a seeded
   regression that locks one full campaign's statistics so behavioural
   drift anywhere in the stack (compiler, VM, instrumentor, runtime,
   statistics) is caught immediately. *)

let check = Alcotest.check

let tiny_cfg =
  {
    Vulfi.Campaign.experiments_per_campaign = 30;
    min_campaigns = 4;
    max_campaigns = 4;
    margin_target = 1.0;
    seed = 20260706;
  }

let micro name =
  match Benchmarks.Registry.find name with
  | Some b -> b.Benchmarks.Harness.bench
  | None -> Alcotest.fail ("missing benchmark " ^ name)

(* ---------------- paper-shape invariants ---------------- *)

(* Pure-data faults can never crash: their slices reach no address and
   no branch, so corruption flows only into stored values. *)
let test_pure_data_never_crashes () =
  List.iter
    (fun name ->
      let r =
        Vulfi.Campaign.run tiny_cfg (micro name) Vir.Target.Avx
          Analysis.Sites.Pure_data
      in
      check Alcotest.int (name ^ ": no crashes") 0
        r.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_crash)
    [ "vector copy"; "dot product"; "vector sum" ]

(* Address faults crash more often than pure-data faults everywhere. *)
let test_address_crashes_dominate () =
  List.iter
    (fun name ->
      let addr =
        Vulfi.Campaign.run tiny_cfg (micro name) Vir.Target.Avx
          Analysis.Sites.Address
      in
      let pd =
        Vulfi.Campaign.run tiny_cfg (micro name) Vir.Target.Avx
          Analysis.Sites.Pure_data
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: addr crash (%d) > pure-data crash (%d)" name
           addr.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_crash
           pd.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_crash)
        true
        (addr.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_crash
        > pd.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_crash))
    [ "vector copy"; "vector sum" ]

(* The three outcome classes partition every campaign exactly. *)
let test_outcomes_partition () =
  List.iter
    (fun cat ->
      let r = Vulfi.Campaign.run tiny_cfg (micro "dot product") Vir.Target.Sse cat in
      let t = r.Vulfi.Campaign.c_totals in
      check Alcotest.int
        (Analysis.Sites.category_name cat ^ ": partition")
        t.Vulfi.Campaign.n_experiments
        (t.Vulfi.Campaign.n_sdc + t.Vulfi.Campaign.n_benign
        + t.Vulfi.Campaign.n_crash))
    Analysis.Sites.all_categories

(* Campaign determinism across process lifetime: same config, same
   numbers — the property that makes EXPERIMENTS.md reproducible. *)
let test_campaign_reproducible () =
  let run () =
    Vulfi.Campaign.run tiny_cfg (micro "vector sum") Vir.Target.Avx
      Analysis.Sites.Control
  in
  let a = run () and b = run () in
  check
    Alcotest.(list (float 0.0))
    "identical campaign samples" a.Vulfi.Campaign.c_sdc_rates
    b.Vulfi.Campaign.c_sdc_rates;
  check Alcotest.int "identical SDC totals"
    a.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_sdc
    b.Vulfi.Campaign.c_totals.Vulfi.Campaign.n_sdc

(* Detector insertion must not change campaign outcomes when the
   detector never fires on the measurement itself (it only observes):
   outcome classification happens on program output, and the detector
   blocks are excluded from the fault-site census. *)
let test_detectors_do_not_change_site_census () =
  let w = micro "vector copy" in
  let plain = w.Vulfi.Workload.w_build Vir.Target.Avx in
  let detected = w.Vulfi.Workload.w_build Vir.Target.Avx in
  ignore (Detectors.Foreach_invariants.run detected);
  let count m cat =
    Analysis.Sites.total_sites
      (Analysis.Sites.select (Analysis.Sites.targets_of_module m) cat)
  in
  List.iter
    (fun cat ->
      check Alcotest.int
        (Analysis.Sites.category_name cat ^ " site count unchanged")
        (count plain cat) (count detected cat))
    Analysis.Sites.all_categories

(* ---------------- seeded regression ---------------- *)

(* One full pinned campaign. If this fails after an intentional change
   (new instructions emitted, altered lowering, different RNG use),
   re-baseline deliberately — never silently. *)
let test_pinned_campaign_regression () =
  let r =
    Vulfi.Campaign.run tiny_cfg (micro "vector copy") Vir.Target.Avx
      Analysis.Sites.Control
  in
  let t = r.Vulfi.Campaign.c_totals in
  check Alcotest.int "experiments" 120 t.Vulfi.Campaign.n_experiments;
  (* the exact split is a deterministic function of the whole stack *)
  Printf.printf "pinned campaign: sdc=%d benign=%d crash=%d\n%!"
    t.Vulfi.Campaign.n_sdc t.Vulfi.Campaign.n_benign t.Vulfi.Campaign.n_crash;
  Alcotest.(check bool) "sdc in plausible band" true
    (t.Vulfi.Campaign.n_sdc > 20 && t.Vulfi.Campaign.n_sdc < 90);
  Alcotest.(check bool) "crashes present but minority" true
    (t.Vulfi.Campaign.n_crash > 0
    && t.Vulfi.Campaign.n_crash < t.Vulfi.Campaign.n_experiments / 2)

(* The golden-run dynamic-site count is a stable function of the
   program and input: pin it exactly for vcopy AVX n=100. *)
let test_pinned_dynamic_sites () =
  let p =
    Vulfi.Experiment.prepare (micro "vector copy") Vir.Target.Avx
      Analysis.Sites.Pure_data
  in
  let g = Vulfi.Experiment.golden_run p ~input:0 in
  (* vector copy n=100, AVX: 12 full chunks of 8 lanes, one masked tail
     with 4 live lanes; pure-data sites = the per-lane copied values on
     both the load Lvalue and the store value *)
  Printf.printf "vcopy pure-data dynamic sites: %d\n%!"
    g.Vulfi.Experiment.g_dyn_sites;
  check Alcotest.int "deterministic site count"
    g.Vulfi.Experiment.g_dyn_sites
    (Vulfi.Experiment.golden_run p ~input:0).Vulfi.Experiment.g_dyn_sites;
  Alcotest.(check bool) "site count = 2 x live elements = 200" true
    (g.Vulfi.Experiment.g_dyn_sites = 200)

(* ---------------- pinned figures ---------------- *)

(* Every number the paper's evaluation reports, pinned in
   figures_pinned.txt ({!Pinned}): the quick-scale stdout of the
   harness's table1, fig10, fig11, fig12 and ablation experiments and
   of one CLI Blackscholes campaign, one row a line (the harness-time
   line dropped), and the MD5 and record count (lines of a trace, cells
   of a RESULTS file) of every trace and RESULTS file they write. The
   harness and the CLI run as subprocesses on the converge-pruned
   executor, whose tables and traces equal every other executor's byte
   for byte. *)
let figures_file = "figures_pinned.txt"

let figures_header =
  "# Quick-scale output of bench/main.exe and one vulfi campaign, run\n\
   # with --prune-executor: \"<run>:<line> |<stdout line>\" rows (the\n\
   # \"total harness time\" line dropped) and \"<file> <md5> <records>\"\n\
   # rows for the traces (lines) and RESULTS files (cells) they write.\n\
   # Checked by test_integration's \"pinned figures\" case; re-record\n\
   # only in a change that means to move a figure's numbers, and say why.\n"

let run_dir = "figures_run"

(* [exe args] run inside [run_dir] (where fig11 and fig12 write their
   RESULTS files), stdout kept in [run_dir/name.out], stderr (progress
   lines) dropped. *)
let run_in_dir (name, exe, args) =
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  let cmd =
    Printf.sprintf "cd %s && %s %s > %s.out 2> /dev/null"
      (Filename.quote run_dir)
      (Filename.quote (Filename.concat ".." exe))
      args name
  in
  match Sys.command cmd with
  | 0 -> ()
  | code -> Alcotest.failf "%s exited %d" cmd code

let run_pinned (name, exe, args) =
  run_in_dir (name, exe, args ^ " --prune-executor")

let lines_of file =
  In_channel.with_open_text file In_channel.input_lines

let stdout_rows name =
  lines_of (Filename.concat run_dir (name ^ ".out"))
  |> List.filter (fun l ->
         not (Astring_contains.contains l "total harness time"))
  |> List.mapi (fun i l -> Printf.sprintf "%s:%03d |%s" name (i + 1) l)

let file_row file records =
  let path = Filename.concat run_dir file in
  Printf.sprintf "%s %s %d" file
    (Digest.to_hex (Digest.file path))
    (records path)

let trace_records path = List.length (lines_of path)

let first_field r = List.hd (String.split_on_char ' ' r)

let results_cells path =
  let json = In_channel.with_open_text path In_channel.input_all in
  match Vulfi.Json.member "cells" (Vulfi.Json.of_string json) with
  | Some (Vulfi.Json.List cells) -> List.length cells
  | _ -> Alcotest.failf "%s has no cells list" path

let test_pinned_figures () =
  let bench = "../bench/main.exe" and cli = "../bin/vulfi_cli.exe" in
  let runs =
    [
      ("table1", bench, "table1");
      ("fig10", bench, "fig10");
      ("fig11", bench, "fig11 --trace fig11.jsonl");
      ("fig12", bench, "fig12 --trace fig12.jsonl");
      ("ablation", bench, "ablation --trace ablation.jsonl");
      ( "campaign",
        cli,
        "campaign -b Blackscholes -n 20 --campaigns 4 --trace campaign.jsonl"
      );
    ]
  in
  List.iter run_pinned runs;
  let actual =
    List.concat_map (fun (name, _, _) -> stdout_rows name) runs
    @ [
        file_row "fig11.jsonl" trace_records;
        file_row "fig12.jsonl" trace_records;
        file_row "ablation.jsonl" trace_records;
        file_row "campaign.jsonl" trace_records;
        file_row "RESULTS_fig11.json" results_cells;
        file_row "RESULTS_fig12.json" results_cells;
      ]
  in
  Pinned.check ~file:figures_file ~header:figures_header ~what:"rows"
    ~label:first_field ~expected:(Pinned.read figures_file) actual

(* The stdout of the five README examples, pinned in examples_pinned.txt
   the same way. campaign_blackscholes runs its campaigns on the default
   executor, so the pin covers that executor's snapshot restores. *)
let examples_file = "examples_pinned.txt"

let examples_header =
  "# Stdout of the five README examples (examples/*.exe), one\n\
   # \"<example>:<line> |<stdout line>\" row a line. Checked by\n\
   # test_integration's \"pinned examples\" case; re-record only in a\n\
   # change that means to move an example's output, and say why.\n"

let test_pinned_examples () =
  let examples =
    [ "quickstart"; "campaign_blackscholes"; "detector_demo"; "custom_pass";
      "abft_matvec" ]
  in
  List.iter
    (fun e -> run_in_dir (e, Printf.sprintf "../examples/%s.exe" e, ""))
    examples;
  Pinned.check ~file:examples_file ~header:examples_header ~what:"rows"
    ~label:first_field
    ~expected:(Pinned.read examples_file)
    (List.concat_map stdout_rows examples)

(* ---------------- unusable paths ---------------- *)

(* A path that names a directory, or a file in a missing directory, is
   a usage error: the command exits with its usage code, prints nothing
   on stdout and says why on stderr instead of dying of an uncaught
   exception. *)
let test_unusable_paths () =
  let dir = "unusable_paths" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let missing = Filename.concat dir "missing/trace.jsonl" in
  let out = Filename.concat dir "stdout" and err = Filename.concat dir "stderr" in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  let cli = "../bin/vulfi_cli.exe" and bench = "../bench/main.exe" in
  List.iter
    (fun (exe, args, code) ->
      let label = Printf.sprintf "%s %s" (Filename.basename exe) args in
      check Alcotest.int (label ^ ": exit code") code
        (Sys.command (Printf.sprintf "%s %s > %s 2> %s" exe args out err));
      check Alcotest.string (label ^ ": stdout") "" (read out);
      let msg = read err in
      check Alcotest.bool (label ^ ": a message on stderr, no exception") true
        (msg <> "" && not (Astring_contains.contains msg "exception")))
    [
      (cli, "compile " ^ dir, 124);
      (cli, "detect " ^ dir, 124);
      (cli, "opt " ^ dir, 124);
      (cli, "report " ^ dir, 124);
      (cli, "sites -f " ^ dir, 124);
      (cli, "mix -f " ^ dir, 124);
      (cli, "campaign -b Blackscholes -n 1 --trace " ^ dir, 1);
      (cli, "campaign -b Blackscholes -n 1 --trace " ^ missing, 1);
      (bench, "fig12 --trace " ^ dir, 2);
      (bench, "fig12 --trace " ^ missing, 2);
    ]

let () =
  Alcotest.run "integration"
    [
      ( "paper-shape",
        [
          Alcotest.test_case "pure-data never crashes" `Quick
            test_pure_data_never_crashes;
          Alcotest.test_case "address crashes dominate" `Quick
            test_address_crashes_dominate;
          Alcotest.test_case "outcomes partition" `Quick
            test_outcomes_partition;
        ] );
      ( "reproducibility",
        [
          Alcotest.test_case "campaigns reproducible" `Quick
            test_campaign_reproducible;
          Alcotest.test_case "detector blocks excluded from census" `Quick
            test_detectors_do_not_change_site_census;
          Alcotest.test_case "pinned campaign (regression)" `Quick
            test_pinned_campaign_regression;
          Alcotest.test_case "pinned dynamic sites" `Quick
            test_pinned_dynamic_sites;
          Alcotest.test_case "pinned figures (quick scale)" `Quick
            test_pinned_figures;
          Alcotest.test_case "pinned examples" `Quick test_pinned_examples;
        ] );
      ( "usage errors",
        [
          Alcotest.test_case "unusable paths exit cleanly" `Quick
            test_unusable_paths;
        ] );
    ]
