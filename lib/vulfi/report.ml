(** Plain-text rendering of campaign results in the shape of the
    paper's tables and figures. *)

let pct x = Printf.sprintf "%5.1f%%" (100.0 *. x)

(* One Fig 11-style row: SDC / Benign / Crash per campaign cell. *)
let fig11_row (r : Campaign.result) =
  Printf.sprintf "%-16s %-4s %-9s  SDC %s  Benign %s  Crash %s  (±%.1f%%, %d campaigns)"
    r.Campaign.c_workload
    (Vir.Target.name r.Campaign.c_target)
    (Analysis.Sites.category_name r.Campaign.c_category)
    (pct (Campaign.sdc_rate r))
    (pct (Campaign.benign_rate r))
    (pct (Campaign.crash_rate r))
    (100.0 *. r.Campaign.c_margin)
    r.Campaign.c_campaigns

(* One Fig 12-style row: SDC rate and detection rate. *)
let fig12_row (r : Campaign.result) =
  Printf.sprintf "%-16s %-9s  SDC %s  SDC-detection %s  (detected %d / sdc %d)"
    r.Campaign.c_workload
    (Analysis.Sites.category_name r.Campaign.c_category)
    (pct (Campaign.sdc_rate r))
    (pct (Campaign.sdc_detection_rate r))
    r.Campaign.c_totals.Campaign.n_detected_sdc
    r.Campaign.c_totals.Campaign.n_sdc

(* Sweep progress/ETA line. The degenerate ticks need explicit guards:
   on the first tick [done_cells] is 0 (ETA would divide by zero) and
   [elapsed_s] can be 0.0 on coarse clocks (the rate would be inf/nan),
   so the rate clamps to 0 and the ETA renders as "--" until both are
   well-defined. *)
let progress_line ~label ~done_cells ~total_cells ~done_exps ~elapsed_s =
  let rate =
    if elapsed_s > 0.0 then float_of_int done_exps /. elapsed_s else 0.0
  in
  let rate = if Float.is_finite rate then rate else 0.0 in
  let eta =
    if done_cells <= 0 || elapsed_s <= 0.0 then None
    else
      let e =
        elapsed_s /. float_of_int done_cells
        *. float_of_int (max 0 (total_cells - done_cells))
      in
      if Float.is_finite e then Some e else None
  in
  match eta with
  | Some e ->
    Printf.sprintf "%s: %d/%d cells done, %.0f experiments/s, ETA %.0f s"
      label done_cells total_cells rate e
  | None ->
    Printf.sprintf "%s: %d/%d cells done, %.0f experiments/s, ETA --" label
      done_cells total_cells rate

(* ------------------------------------------------------------------ *)
(* Trace re-aggregation: rebuild Campaign.result values from the
   per-experiment records of a JSONL trace (the `vulfi report`
   subcommand), validating the schema along the way and
   cross-checking the recomputed aggregates against the trace's own
   summary records. The float pipelines (per-campaign rates, margin,
   averages) replicate the campaign drivers' accumulation order
   exactly, so a replayed table is byte-identical to the live one. *)

type replay = {
  rp_result : Campaign.result;
  rp_detectors : bool;
  rp_summary : [ `Match | `Mismatch of string | `Missing ];
}

exception Bad_trace of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_trace m)) fmt

(* one parsed experiment record *)
type exp_rec = {
  er_campaign : int;
  er_experiment : int;
  er_input : int;
  er_golden_sites : int;
  er_outcome : string;
  er_detected : bool;
}

type cell_acc = {
  mutable ca_exps : exp_rec list;  (* reversed arrival order *)
  mutable ca_summary : Json.t option;
}

(* Returns the remaining records plus the trace's schema version: v1
   through v4 are all replayable (v2 merely added the golden counters,
   which are recomputable anyway; v3 added the fast-forward counters
   and v4 the pruning counters, all adopted from the summary — the
   version decides what the summary cross-check may expect). *)
let check_header = function
  | [] -> bad "empty trace (no header record)"
  | header :: rest ->
    let version =
      match (Json.member "type" header, Json.member "schema" header) with
      | Some (Json.String "header"), Some (Json.String s) ->
        if s = Trace.schema then `V4
        else if s = Trace.schema_v3 then `V3
        else if s = Trace.schema_v2 then `V2
        else if s = Trace.schema_v1 then `V1
        else
          bad "unsupported trace schema %S (expected %S, %S, %S or %S)" s
            Trace.schema Trace.schema_v3 Trace.schema_v2 Trace.schema_v1
      | _ -> bad "first record is not a trace header"
    in
    (rest, version)

let replay_cell ~version ((workload, target_s, category_s) as _key)
    (c : cell_acc) : replay =
  let cell_name = Printf.sprintf "%s/%s/%s" workload target_s category_s in
  let target =
    match Vir.Target.of_string target_s with
    | Some t -> t
    | None -> bad "%s: unknown target" cell_name
  in
  let category =
    match Analysis.Sites.category_of_string category_s with
    | Some c -> c
    | None -> bad "%s: unknown category" cell_name
  in
  let exps = List.rev c.ca_exps in
  let campaigns =
    1 + List.fold_left (fun m e -> max m e.er_campaign) (-1) exps
  in
  if campaigns = 0 then bad "%s: no experiment records" cell_name;
  let per_n = Array.make campaigns 0 in
  let per_sdc = Array.make campaigns 0 in
  let count p = List.length (List.filter p exps) in
  List.iter
    (fun e ->
      if e.er_campaign < 0 || e.er_experiment < 0 then
        bad "%s: negative campaign/experiment index" cell_name;
      per_n.(e.er_campaign) <- per_n.(e.er_campaign) + 1;
      if e.er_outcome = "SDC" then
        per_sdc.(e.er_campaign) <- per_sdc.(e.er_campaign) + 1)
    exps;
  Array.iteri
    (fun i n -> if n = 0 then bad "%s: campaign %d has no records" cell_name i)
    per_n;
  (* per-campaign SDC rates in campaign order; the protocol accumulates
     them newest-first, and finalize computes the margin on that
     reversed list — mirror both. *)
  let rates_asc =
    Array.to_list
      (Array.init campaigns (fun i ->
           float_of_int per_sdc.(i) /. float_of_int per_n.(i)))
  in
  let rates_rev = List.rev rates_asc in
  let margin = Stats.margin_of_error rates_rev in
  let near_normal = Stats.near_normal rates_rev in
  let totals =
    {
      Campaign.n_experiments = List.length exps;
      n_sdc = count (fun e -> e.er_outcome = "SDC");
      n_benign = count (fun e -> e.er_outcome = "benign");
      n_crash = count (fun e -> e.er_outcome = "crash");
      n_detected = count (fun e -> e.er_detected);
      n_detected_sdc =
        count (fun e -> e.er_detected && e.er_outcome = "SDC");
    }
  in
  (* distinct inputs, ascending — the order finalize averages goldens
     in — with a consistency check on the recorded site counts *)
  let by_input = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match Hashtbl.find_opt by_input e.er_input with
      | None -> Hashtbl.add by_input e.er_input e.er_golden_sites
      | Some s ->
        if s <> e.er_golden_sites then
          bad "%s: input %d has inconsistent golden_sites" cell_name
            e.er_input)
    exps;
  let goldens =
    List.sort compare
      (Hashtbl.fold (fun i s acc -> (i, s) :: acc) by_input [])
  in
  let avg_dyn_sites =
    match goldens with
    | [] -> 0.0
    | _ ->
      List.fold_left (fun a (_, s) -> a +. float_of_int s) 0.0 goldens
      /. float_of_int (List.length goldens)
  in
  (* the checkpointing counters are pure functions of the schedule:
     distinct inputs drawn, and experiments beyond the first per input *)
  let golden_runs = List.length goldens in
  let golden_reused = totals.Campaign.n_experiments - golden_runs in
  (* static_sites, avg_dyn_instrs, the detectors flag and the v3
     fast-forward counters describe the campaign setup, golden runs and
     seed schedule only and are not recomputable from experiment
     records: adopt them from the summary record, and cross-check
     everything that is recomputable. *)
  let ( static_sites,
        avg_dyn_instrs,
        detectors,
        ff_counters,
        prune_counters,
        summary_status ) =
    match c.ca_summary with
    | None ->
      (0, 0.0, totals.Campaign.n_detected > 0, (0, 0), (0, 0), `Missing)
    | Some s ->
      let int_field name =
        match Json.member name s with
        | Some (Json.Int n) -> n
        | _ -> bad "%s: summary missing integer %S" cell_name name
      in
      let float_field name =
        match Option.bind (Json.member name s) Json.get_float with
        | Some f -> f
        | None -> bad "%s: summary missing number %S" cell_name name
      in
      let mismatches = ref [] in
      let chk name ok = if not ok then mismatches := name :: !mismatches in
      chk "campaigns" (int_field "campaigns" = campaigns);
      chk "experiments" (int_field "experiments" = totals.Campaign.n_experiments);
      chk "sdc" (int_field "sdc" = totals.Campaign.n_sdc);
      chk "benign" (int_field "benign" = totals.Campaign.n_benign);
      chk "crash" (int_field "crash" = totals.Campaign.n_crash);
      chk "detected" (int_field "detected" = totals.Campaign.n_detected);
      chk "detected_sdc"
        (int_field "detected_sdc" = totals.Campaign.n_detected_sdc);
      chk "sdc_rates"
        (match Json.member "sdc_rates" s with
        | Some (Json.List l) -> (
          try List.for_all2 (fun j r -> Json.get_float j = Some r) l rates_asc
          with Invalid_argument _ -> false)
        | _ -> false);
      chk "margin"
        (match Json.member "margin" s with
        | Some Json.Null -> not (Float.is_finite margin)
        | Some j -> Json.get_float j = Some margin
        | None -> false);
      chk "near_normal"
        (Json.member "near_normal" s = Some (Json.Bool near_normal));
      chk "avg_dyn_sites" (float_field "avg_dyn_sites" = avg_dyn_sites);
      (match version with
      | `V1 -> ()  (* v1 summaries have no golden counters *)
      | `V2 | `V3 | `V4 ->
        chk "golden_runs" (int_field "golden_runs" = golden_runs);
        chk "golden_reused" (int_field "golden_reused" = golden_reused));
      (* the fast-forward and pruning counters depend on the master
         seed (scheduled injection sites), which the trace does not
         carry — adoptable, not recomputable *)
      let ff_counters =
        match version with
        | `V1 | `V2 -> (0, 0)
        | `V3 | `V4 -> (int_field "checkpoints", int_field "ff_resumed")
      in
      let prune_counters =
        match version with
        | `V1 | `V2 | `V3 -> (0, 0)
        | `V4 -> (int_field "pruned", int_field "prune_checks")
      in
      let status =
        match !mismatches with
        | [] -> `Match
        | ms -> `Mismatch (String.concat ", " (List.rev ms))
      in
      let detectors =
        match Json.member "detectors" s with
        | Some (Json.Bool b) -> b
        | _ -> bad "%s: summary missing boolean \"detectors\"" cell_name
      in
      (int_field "static_sites", float_field "avg_dyn_instrs", detectors,
       ff_counters, prune_counters, status)
  in
  let checkpoints, ff_resumed = ff_counters in
  let pruned, prune_checks = prune_counters in
  {
    rp_result =
      {
        Campaign.c_workload = workload;
        c_target = target;
        c_category = category;
        c_campaigns = campaigns;
        c_sdc_rates = rates_asc;
        c_totals = totals;
        c_margin = margin;
        c_near_normal = near_normal;
        c_static_sites = static_sites;
        c_avg_dynamic_sites = avg_dyn_sites;
        c_avg_dynamic_instrs = avg_dyn_instrs;
        c_golden_runs = golden_runs;
        c_golden_reused = golden_reused;
        c_checkpoints = checkpoints;
        c_ff_resumed = ff_resumed;
        c_pruned = pruned;
        c_prune_checks = prune_checks;
      };
    rp_detectors = detectors;
    rp_summary = summary_status;
  }

let replay_of_trace (records : Json.t list) : (replay list, string) result =
  try
    let rest, version = check_header records in
    let cells = Hashtbl.create 8 in
    let order = ref [] in
    let get_cell key =
      match Hashtbl.find_opt cells key with
      | Some c -> c
      | None ->
        let c = { ca_exps = []; ca_summary = None } in
        Hashtbl.add cells key c;
        order := key :: !order;
        c
    in
    List.iteri
      (fun idx j ->
        let at = idx + 2 in
        (* 1-based record number, counting the header *)
        let str name =
          match Json.member name j with
          | Some (Json.String s) -> s
          | _ -> bad "record %d: missing string field %S" at name
        in
        let int_ name =
          match Json.member name j with
          | Some (Json.Int n) -> n
          | _ -> bad "record %d: missing integer field %S" at name
        in
        let bool_ name =
          match Json.member name j with
          | Some (Json.Bool b) -> b
          | _ -> bad "record %d: missing boolean field %S" at name
        in
        match Json.member "type" j with
        | Some (Json.String "experiment") ->
          let key = (str "workload", str "target", str "category") in
          (match
             ( Json.member "static_site" j,
               Json.member "dynamic_site" j,
               Json.member "bit" j )
           with
          | ( Some (Json.Int _ | Json.Null),
              Some (Json.Int _ | Json.Null),
              Some (Json.Int _ | Json.Null) ) ->
            ()
          | _ -> bad "record %d: missing injection fields" at);
          let outcome = str "outcome" in
          (match outcome with
          | "SDC" | "benign" -> ()
          | "crash" -> ignore (str "trap")
          | o -> bad "record %d: unknown outcome %S" at o);
          ignore (int_ "dyn_instrs");
          let c = get_cell key in
          c.ca_exps <-
            {
              er_campaign = int_ "campaign";
              er_experiment = int_ "experiment";
              er_input = int_ "input";
              er_golden_sites = int_ "golden_sites";
              er_outcome = outcome;
              er_detected = bool_ "detected";
            }
            :: c.ca_exps
        | Some (Json.String "summary") ->
          let key = (str "workload", str "target", str "category") in
          let c = get_cell key in
          (match c.ca_summary with
          | Some _ ->
            bad "record %d: duplicate summary for %s/%s/%s" at (str "workload")
              (str "target") (str "category")
          | None -> c.ca_summary <- Some j)
        | Some (Json.String "header") -> bad "record %d: duplicate header" at
        | Some (Json.String t) -> bad "record %d: unknown record type %S" at t
        | _ -> bad "record %d: missing \"type\" field" at)
      rest;
    Ok
      (List.rev_map
         (fun key -> replay_cell ~version key (Hashtbl.find cells key))
         !order)
  with Bad_trace m -> Error m
