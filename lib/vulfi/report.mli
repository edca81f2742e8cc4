(** Plain-text rendering of campaign results in the shape of the paper's
    tables and figures. *)

(** ["42.0%"]-style percentage. *)
val pct : float -> string

(** One Fig 11-style row: SDC / Benign / Crash rates with the margin of
    error and campaign count. *)
val fig11_row : Campaign.result -> string

(** One Fig 12-style row: SDC rate and SDC-detection rate. *)
val fig12_row : Campaign.result -> string

(** One sweep progress/ETA line, e.g.
    ["fig11: 3/12 cells done, 412 experiments/s, ETA 38 s"]. Total
    guards against the degenerate first tick: with [done_cells = 0] or
    [elapsed_s <= 0.0] the ETA renders as ["--"] and the rate clamps to
    0 instead of printing [inf]/[nan]. *)
val progress_line :
  label:string ->
  done_cells:int ->
  total_cells:int ->
  done_exps:int ->
  elapsed_s:float ->
  string

(** One campaign cell rebuilt from a trace. [rp_result] is re-aggregated
    from the per-experiment records alone (except [c_static_sites] and
    [c_avg_dynamic_instrs], which only the summary record carries);
    [rp_detectors] is the summary's record of whether detector hooks
    were attached; [rp_summary] says whether the trace's own summary
    record agreed with the recomputation. *)
type replay = {
  rp_result : Campaign.result;
  rp_detectors : bool;
  rp_summary : [ `Match | `Mismatch of string | `Missing ];
}

(** [replay_of_trace records] re-aggregates a parsed JSONL trace (header
    first) into one {!replay} per cell, in first-appearance order. The
    float arithmetic mirrors the campaign drivers' accumulation order
    exactly, so a replayed Fig 11/12 table is byte-identical to the live
    one. Returns [Error msg] on any schema violation. *)
val replay_of_trace : Json.t list -> (replay list, string) result
