(** Fault-injection campaigns (paper §IV-D).

    A campaign is [experiments_per_campaign] independent experiments
    (100 in the paper); its SDC rate is one statistical sample.
    Campaigns repeat until the sample distribution is near normal and
    the 95% margin of error drops below the target (±3%), bounded by
    [min_campaigns]/[max_campaigns].

    All randomness follows the pure {!Seed} schedule: an experiment's
    input, fault site and bit choice are functions of
    (seed, workload, target, category, campaign, experiment) alone, so

    - distinct cells of the same workload draw independent streams
      (the paper's per-cell samples are statistically independent), and
    - [run] produces bit-identical results at any [jobs]. *)

type config = {
  experiments_per_campaign : int;
  min_campaigns : int;
  max_campaigns : int;
  margin_target : float;  (** e.g. 0.03 *)
  seed : int;
}

(* The paper's configuration: 100-experiment campaigns, at least 20 of
   them, ±3% margin at 95% confidence. *)
let paper_config =
  {
    experiments_per_campaign = 100;
    min_campaigns = 20;
    max_campaigns = 40;
    margin_target = 0.03;
    seed = 0xC0FFEE;
  }

(* A scaled-down configuration for quick runs of the harness. *)
let quick_config =
  {
    experiments_per_campaign = 25;
    min_campaigns = 4;
    max_campaigns = 8;
    margin_target = 0.10;
    seed = 0xC0FFEE;
  }

type totals = {
  n_experiments : int;
  n_sdc : int;
  n_benign : int;
  n_crash : int;
  n_detected : int;      (** runs flagged by a detector *)
  n_detected_sdc : int;  (** SDC runs flagged by a detector *)
}

let empty_totals =
  {
    n_experiments = 0;
    n_sdc = 0;
    n_benign = 0;
    n_crash = 0;
    n_detected = 0;
    n_detected_sdc = 0;
  }

let add_outcome t (r : Experiment.run_result) =
  {
    n_experiments = t.n_experiments + 1;
    n_sdc = (t.n_sdc + match r.Experiment.r_outcome with Outcome.Sdc -> 1 | _ -> 0);
    n_benign =
      (t.n_benign + match r.Experiment.r_outcome with Outcome.Benign -> 1 | _ -> 0);
    n_crash =
      (t.n_crash + match r.Experiment.r_outcome with Outcome.Crash _ -> 1 | _ -> 0);
    n_detected = (t.n_detected + if r.Experiment.r_detected then 1 else 0);
    n_detected_sdc =
      (t.n_detected_sdc
      +
      if r.Experiment.r_detected && r.Experiment.r_outcome = Outcome.Sdc then 1
      else 0);
  }

type result = {
  c_workload : string;
  c_target : Vir.Target.t;
  c_category : Analysis.Sites.category;
  c_campaigns : int;
  c_sdc_rates : float list;  (** one sample per campaign *)
  c_totals : totals;
  c_margin : float;
  c_near_normal : bool;
  c_static_sites : int;
  c_avg_dynamic_sites : float;
  c_avg_dynamic_instrs : float;
  c_golden_runs : int;
      (** distinct inputs the schedule drew — the golden runs any
          executor must perform at least once *)
  c_golden_reused : int;
      (** experiments that reused a cached golden run. Both counters
          are functions of the seed schedule alone (never of physical
          cache behaviour), so they are identical between the legacy
          and checkpointed executors, sequential or [-j N]. *)
  c_checkpoints : int;
      (** machine-state checkpoints the fast-forward executor lays for
          this cell (summed plan length over its distinct inputs) *)
  c_ff_resumed : int;
      (** experiments whose injection site is at or past the first
          checkpoint of its input's plan — the runs the fast-forward
          executor resumes rather than replays. Like the golden
          counters, both are pure functions of the seed schedule, so
          every executor reports the same values and traces stay
          byte-identical across executors. *)
  c_pruned : int;
      (** experiments with at least one plan checkpoint site strictly
          after their injection site — the runs the converge-pruned
          executor can terminate early (whether a given run physically
          prunes depends on when its fault converges; that physical
          count is bench-only telemetry, {!Experiment.prune_stats}) *)
  c_prune_checks : int;
      (** total (experiment, plan site) pairs with the site strictly
          after the injection site — the convergence comparisons the
          converge-pruned executor can at most perform. Both are pure
          functions of the seed schedule, reported identically by all
          four executors. *)
}

let rate part total =
  if total = 0 then 0.0 else float_of_int part /. float_of_int total

let sdc_rate r = rate r.c_totals.n_sdc r.c_totals.n_experiments
let benign_rate r = rate r.c_totals.n_benign r.c_totals.n_experiments
let crash_rate r = rate r.c_totals.n_crash r.c_totals.n_experiments

(* Fraction of SDC-producing experiments that a detector flagged —
   the paper's "SDC detection rate" (Fig 12). *)
let sdc_detection_rate r = rate r.c_totals.n_detected_sdc r.c_totals.n_sdc

(* The campaign machinery builds the hooks for each machine it sets up
   through a factory. *)
type hooks_factory = unit -> Experiment.hooks

let no_hooks_factory : hooks_factory = fun () -> Experiment.no_hooks

let cell_of cfg (w : Workload.t) target category =
  Seed.cell ~seed:cfg.seed ~workload:w.Workload.w_name ~target ~category

let input_of (w : Workload.t) (ex : Seed.exp) =
  Seed.uniform ex.Seed.input_key w.Workload.w_inputs

let vacuous_benign =
  {
    Experiment.r_outcome = Outcome.Benign;
    r_injection = None;
    r_detected = false;
    r_dyn_instrs = 0;
  }

(* Every injection site the full schedule (all [max_campaigns]) draws
   for [input], in schedule order. A pure function of the seed
   schedule and the input's (deterministic) dynamic-site count: every
   pool worker — and the trace replayer — derives the identical list,
   which is what makes checkpoint placement deterministic. *)
let schedule_sites cfg cell (w : Workload.t) ~input ~dyn_sites : int list =
  if dyn_sites <= 0 then []
  else begin
    let sites = ref [] in
    for c = 0 to cfg.max_campaigns - 1 do
      for e = 0 to cfg.experiments_per_campaign - 1 do
        let ex = Seed.experiment cell ~campaign:c ~experiment:e in
        if input_of w ex = input then
          sites := (1 + Seed.uniform ex.Seed.site_key dyn_sites) :: !sites
      done
    done;
    List.rev !sites
  end

(* The fast-forward checkpoint plan for one input: distinct scheduled
   sites, ascending, thinned to the executor's cap. *)
let plan_for cfg cell w ~input ~dyn_sites : int array =
  Experiment.checkpoint_plan (schedule_sites cfg cell w ~input ~dyn_sites)

(* The four executors a campaign can run on. All produce bit-identical
   results, digests and traces; they differ only in how much redundant
   prefix work they re-execute per experiment.

   [Legacy] is §IV-B taken literally: every experiment is two full
   executions — a fault-free profiling run, then the faulty run — each
   on a freshly built machine with [w_setup] re-applied.

   [Checkpointed] memoizes the golden run per (cell, input) and
   replaces the rebuild with a post-setup memory-snapshot restore; the
   faulty run still replays the whole prefix up to its injection site.

   [Fast_forward] additionally lays machine-state checkpoints at the
   cell's scheduled injection sites during one instrumented golden
   replay and resumes every faulty run from the nearest checkpoint at
   or before its site — only the post-injection suffix executes.
   Detector firings are a machine counter, so a resumed run starts with
   the prefix's.

   [Converge_pruned] rides the fast-forward machinery (same plans,
   same resume points) and runs each faulty suffix on the same hot-path
   engine with a check armed: the extern calls fire it when the site
   counter reaches the next later checkpoint site's threshold, and it
   compares the machine against the golden state captured there
   ({!Interp.Machine.state_equal} — counters, call stack, live
   registers, the whole memory image). On a match it terminates
   immediately and splices the golden outcome. The splice is provably
   identical to running the suffix out (DESIGN.md, convergence
   soundness), so results and traces stay byte-identical. *)
type executor = Legacy | Checkpointed | Fast_forward | Converge_pruned

(* Bind [executor] to one input on the calling worker, preparing what
   every faulty run on that input shares: nothing for [Legacy]; else
   the prepared input (machine, post-setup snapshot, golden run) and
   the checkpoints laid along the input's plan — an empty one for
   [Checkpointed], whose runs therefore all replay from the post-setup
   image. Returns the input's golden run — a thunk, since [Legacy]
   profiles only when asked — and the faulty half of every experiment
   on that input. *)
let bind_input executor ~(hooks : hooks_factory) ~respect_masks ?fault_kind
    cfg cell w (prepared : Experiment.prepared) ~input :
    (unit -> Experiment.golden) * (Seed.exp -> Experiment.run_result) =
  let profile () =
    Experiment.golden_run ~hooks:(hooks ()) ~respect_masks prepared ~input
  in
  (* Experiment [ex]'s faulty run on fresh hooks; vacuously benign when
     the input has no live fault site. *)
  let inject (golden : Experiment.golden) (ex : Seed.exp) run =
    if golden.Experiment.g_dyn_sites = 0 then vacuous_benign
    else
      run ~hooks:(hooks ())
        ~dynamic_site:
          (1 + Seed.uniform ex.Seed.site_key golden.Experiment.g_dyn_sites)
        ~seed:ex.Seed.bit_seed
  in
  match executor with
  | Legacy ->
    (* §IV-B literally: nothing outlives an experiment, which profiles
       on a fresh machine and then injects on another *)
    ( profile,
      fun ex ->
        let golden = profile () in
        inject golden ex (fun ~hooks ->
            Experiment.faulty_run ~hooks ~respect_masks ?fault_kind prepared
              ~golden) )
  | Checkpointed | Fast_forward | Converge_pruned ->
    let pi =
      Experiment.prepare_input ~hooks:(hooks ()) ~respect_masks prepared
        ~input
    in
    let golden = pi.Experiment.pi_golden in
    let plan =
      if executor = Checkpointed then [||]
      else plan_for cfg cell w ~input ~dyn_sites:golden.Experiment.g_dyn_sites
    in
    (* no hooks for a replay an empty plan skips *)
    let ff =
      Experiment.lay_checkpoints
        ?hooks:(if Array.length plan = 0 then None else Some (hooks ()))
        ~respect_masks prepared ~pi ~plan
    in
    let faulty_run =
      if executor = Converge_pruned then Experiment.faulty_run_pruned ~ff
      else Experiment.faulty_run_ff ~ff
    in
    ( (fun () -> golden),
      fun ex ->
        inject golden ex (fun ~hooks ->
            faulty_run ~hooks ~respect_masks ?fault_kind prepared) )

(* Run [f x], timing it only when the sink asked for wall times; the
   clock syscall is skipped entirely on the deterministic (default)
   path. *)
let timed ~timings f x =
  if timings then begin
    let t0 = Unix.gettimeofday () in
    let r = f x in
    (r, Unix.gettimeofday () -. t0)
  end
  else (f x, 0.0)

(* Emit campaign [campaign]'s experiment records in experiment order.
   The driver calls this from the (sequential) protocol loop after the
   whole batch is resolved — pool workers only buffer results — so the
   trace is ordered, and byte-identical at any [jobs]. *)
let emit_experiments sink (w : Workload.t) target category ~campaign ~inputs
    ~site_counts ~(results : (Experiment.run_result * float) array) =
  match sink with
  | None -> ()
  | Some s ->
    let timings = Trace.timings s in
    Array.iteri
      (fun e (r, wall) ->
        Trace.emit s
          (Trace.experiment_record ~workload:w.Workload.w_name ~target
             ~category ~campaign ~experiment:e ~input:inputs.(e)
             ~golden_sites:site_counts.(e) ~result:r
             ?wall_s:(if timings then Some wall else None) ()))
      results

(* A cell needs at least one campaign of at least one experiment:
   without, the protocol would still report a row (0 % everywhere, from
   no experiment at all) that no trace can replay. *)
let check_config cfg =
  let positive field n =
    if n < 1 then
      invalid_arg
        (Printf.sprintf "Campaign: %s = %d, expected at least 1" field n)
  in
  positive "experiments_per_campaign" cfg.experiments_per_campaign;
  positive "max_campaigns" cfg.max_campaigns

(* The stopping protocol. [run_campaign c] returns campaign [c]'s run
   results in experiment order at any [jobs], so every decision below —
   and hence the whole schedule — is independent of the job count. *)
let protocol cfg ~run_campaign =
  let totals = ref empty_totals in
  let sdc_rates = ref [] in
  let campaigns = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let results = run_campaign !campaigns in
    let campaign_totals = Array.fold_left add_outcome empty_totals results in
    Array.iter (fun r -> totals := add_outcome !totals r) results;
    incr campaigns;
    sdc_rates :=
      rate campaign_totals.n_sdc campaign_totals.n_experiments :: !sdc_rates;
    let margin = Stats.margin_of_error !sdc_rates in
    let normal = Stats.near_normal !sdc_rates in
    if
      !campaigns >= cfg.max_campaigns
      || (!campaigns >= cfg.min_campaigns
         && margin <= cfg.margin_target
         && normal)
    then continue_ := false
  done;
  (!campaigns, !sdc_rates, !totals)

let finalize cfg cell (prepared : Experiment.prepared) (w : Workload.t)
    target category (campaigns, sdc_rates, totals) golden_cache : result =
  (* Sort goldens by input so the float accumulation order does not
     depend on hash-table layout (and hence on execution order). *)
  let goldens =
    List.sort
      (fun a b -> compare a.Experiment.g_input b.Experiment.g_input)
      (Hashtbl.fold (fun _ g acc -> g :: acc) golden_cache [])
  in
  let avg f =
    match goldens with
    | [] -> 0.0
    | _ ->
      List.fold_left (fun a g -> a +. float_of_int (f g)) 0.0 goldens
      /. float_of_int (List.length goldens)
  in
  let golden_runs = List.length goldens in
  (* Fast-forward accounting, recomputed from the schedule (never from
     what any executor physically did) so all four executors report
     identical counters: the checkpoints laid per distinct input, and
     the experiments whose site reaches the first checkpoint of its
     input's plan — exactly the runs [faulty_run_ff] resumes. *)
  let plans = Hashtbl.create 8 in
  List.iter
    (fun (g : Experiment.golden) ->
      if g.Experiment.g_dyn_sites > 0 then
        Hashtbl.replace plans g.Experiment.g_input
          (plan_for cfg cell w ~input:g.Experiment.g_input
             ~dyn_sites:g.Experiment.g_dyn_sites))
    goldens;
  let checkpoints =
    Hashtbl.fold (fun _ p acc -> acc + Array.length p) plans 0
  in
  let ff_resumed = ref 0 in
  let pruned = ref 0 in
  let prune_checks = ref 0 in
  for c = 0 to campaigns - 1 do
    for e = 0 to cfg.experiments_per_campaign - 1 do
      let ex = Seed.experiment cell ~campaign:c ~experiment:e in
      let input = input_of w ex in
      match Hashtbl.find_opt plans input with
      | Some plan when Array.length plan > 0 ->
        let g : Experiment.golden = Hashtbl.find golden_cache input in
        let site =
          1 + Seed.uniform ex.Seed.site_key g.Experiment.g_dyn_sites
        in
        if site >= plan.(0) then incr ff_resumed;
        (* Convergence-pruning opportunity: plan sites strictly after
           the injection site. Schedule-derived upper bounds, like the
           counters above — never what the executor physically did. *)
        let after =
          Array.fold_left
            (fun n s -> if s > site then n + 1 else n)
            0 plan
        in
        if after > 0 then incr pruned;
        prune_checks := !prune_checks + after
      | _ -> ()
    done
  done;
  {
    c_workload = w.Workload.w_name;
    c_target = target;
    c_category = category;
    c_campaigns = campaigns;
    c_sdc_rates = List.rev sdc_rates;
    c_totals = totals;
    c_margin = Stats.margin_of_error sdc_rates;
    c_near_normal = Stats.near_normal sdc_rates;
    c_static_sites = Instrument.static_site_count prepared.Experiment.p_instr;
    c_avg_dynamic_sites = avg (fun g -> g.Experiment.g_dyn_sites);
    c_avg_dynamic_instrs = avg (fun g -> g.Experiment.g_dyn_instrs);
    c_golden_runs = golden_runs;
    c_golden_reused = totals.n_experiments - golden_runs;
    c_checkpoints = checkpoints;
    c_ff_resumed = !ff_resumed;
    c_pruned = !pruned;
    c_prune_checks = !prune_checks;
  }

(* JSON view of a result — the per-cell summary record of a trace, and
   the cell entry of the RESULTS_*.json exports. [detectors] records
   whether detector hooks were attached during the campaign. *)
let result_json ?(detectors = false) (r : result) : Json.t =
  Trace.summary_record ~workload:r.c_workload ~target:r.c_target
    ~category:r.c_category ~detectors ~campaigns:r.c_campaigns
    ~sdc_rates:r.c_sdc_rates ~n_experiments:r.c_totals.n_experiments
    ~n_sdc:r.c_totals.n_sdc ~n_benign:r.c_totals.n_benign
    ~n_crash:r.c_totals.n_crash ~n_detected:r.c_totals.n_detected
    ~n_detected_sdc:r.c_totals.n_detected_sdc ~margin:r.c_margin
    ~near_normal:r.c_near_normal ~static_sites:r.c_static_sites
    ~avg_dyn_sites:r.c_avg_dynamic_sites
    ~avg_dyn_instrs:r.c_avg_dynamic_instrs ~golden_runs:r.c_golden_runs
    ~golden_reused:r.c_golden_reused ~checkpoints:r.c_checkpoints
    ~ff_resumed:r.c_ff_resumed ~pruned:r.c_pruned
    ~prune_checks:r.c_prune_checks

let executor_name = function
  | Legacy -> "legacy"
  | Checkpointed -> "checkpointed"
  | Fast_forward -> "fast-forward"
  | Converge_pruned -> "converge-pruned"

(* Every executor runs every cell, detector cells included (detections
   are a machine counter that checkpoints carry); kept as the identity
   for front-ends that print the executor a run used. *)
let effective_executor ~detectors:_ (executor : executor) : executor =
  executor

(* Run the full campaign protocol for one (workload, target,
   site-category) cell. [transform] pre-processes the module (e.g.
   detector insertion); [hooks] builds per-run extra runtime (e.g. the
   detector API). Each campaign's experiments fan out across a domain
   pool — [pool] when given, else a fresh one of [jobs] workers (a
   one-job pool spawns no domain and runs on the calling one). Because
   the seed schedule fixes every random choice up front, the only
   coordination needed is resolving each campaign's golden runs before
   its fan-out; results are gathered in experiment order, so the
   outcome is bit-identical at any [jobs]. *)
let run ?transform ?hooks ?(respect_masks = true) ?fault_kind ?pool ?sink
    ?(executor = Checkpointed) ?(jobs = 1) (cfg : config) (w : Workload.t)
    (target : Vir.Target.t) (category : Analysis.Sites.category) : result =
  check_config cfg;
  let detectors = Option.is_some hooks in
  let hooks = Option.value hooks ~default:no_hooks_factory in
  let with_pool f =
    match pool with Some p -> f p | None -> Pool.with_pool ~jobs f
  in
  with_pool (fun pool ->
      let prepared = Experiment.prepare ?transform w target category in
      let cell = cell_of cfg w target category in
      (* Golden runs are deterministic per input: each distinct input
         is resolved once, for scheduling and accounting (site counts,
         averages). *)
      let golden_cache = Hashtbl.create 8 in
      (* Machines cannot cross domains, so each worker keeps the faulty
         halves of the inputs it has bound (worker ids are stable and
         never run two items at once: no locking). A worker that first
         meets an input binds it for itself — re-running setup, the
         golden run and, on the fast-forward executors, the
         checkpoint-laying replay, whose plan is a pure function of the
         schedule, so every worker lays the same checkpoints. The
         numbers are deterministic, so this only costs time, never
         changes results. Per-cell lifetime: the halves (and their
         machines) die with this call. *)
      let halves = Array.init (Pool.size pool) (fun _ -> Hashtbl.create 8) in
      let bind wid input =
        let golden, half =
          bind_input executor ~hooks ~respect_masks ?fault_kind cfg cell w
            prepared ~input
        in
        Hashtbl.replace halves.(wid) input half;
        (golden, half)
      in
      let half_for wid input =
        match Hashtbl.find_opt halves.(wid) input with
        | Some half -> half
        | None -> snd (bind wid input)
      in
      let timings =
        match sink with Some s -> Trace.timings s | None -> false
      in
      let run_campaign c =
        let exps =
          Array.init cfg.experiments_per_campaign (fun e ->
              Seed.experiment cell ~campaign:c ~experiment:e)
        in
        let inputs = Array.map (input_of w) exps in
        (* Resolve this round's missing goldens (in parallel), keeping
           first-appearance order for cache insertion. *)
        let seen = Hashtbl.create 8 in
        let fresh = ref [] in
        Array.iter
          (fun input ->
            if
              (not (Hashtbl.mem golden_cache input))
              && not (Hashtbl.mem seen input)
            then begin
              Hashtbl.add seen input ();
              fresh := input :: !fresh
            end)
          inputs;
        let fresh = Array.of_list (List.rev !fresh) in
        let goldens =
          Pool.map_with_worker pool
            (fun wid input -> fst (bind wid input) ())
            fresh
        in
        Array.iteri (fun k g -> Hashtbl.add golden_cache fresh.(k) g) goldens;
        (* The cache is read-only during the fan-out below. Workers
           only buffer (result, wall) pairs, gathered in experiment
           order, so the sink — written from this protocol loop — is in
           experiment order at any [jobs]. *)
        let results =
          Pool.map_with_worker pool
            (fun wid ex -> timed ~timings (half_for wid (input_of w ex)) ex)
            exps
        in
        emit_experiments sink w target category ~campaign:c ~inputs
          ~site_counts:
            (Array.map
               (fun i -> (Hashtbl.find golden_cache i).Experiment.g_dyn_sites)
               inputs)
          ~results;
        Array.map fst results
      in
      let r =
        finalize cfg cell prepared w target category
          (protocol cfg ~run_campaign) golden_cache
      in
      (match sink with
      | None -> ()
      | Some s -> Trace.emit s (result_json ~detectors r));
      r)

(* Cell-level driver: run many (workload, target, category) cells over
   one shared pool — the shape of a Fig 11/Table II sweep. *)
let run_cells ?transform ?hooks ?respect_masks ?fault_kind ?sink
    ?executor ~jobs (cfg : config)
    (cells : (Workload.t * Vir.Target.t * Analysis.Sites.category) list) :
    result list =
  check_config cfg;
  Pool.with_pool ~jobs (fun pool ->
      List.map
        (fun (w, target, category) ->
          run ?transform ?hooks ?respect_masks ?fault_kind ~pool ?sink
            ?executor cfg w target category)
        cells)
