(** One fault-injection experiment = two executions of the instrumented
    program on the same input (paper §IV-B): a fault-free profiling run
    that records the output and the number of dynamic fault sites, and a
    faulty run that flips one bit at a uniformly chosen dynamic site. *)

(* Extra runtime surface (e.g. error detectors) to attach to machines.
   Detectors record their firings in the machine's detection counter,
   so hooks hold no state: [r_detected] reads the machine. *)
type hooks = { h_attach : Interp.Machine.state -> unit }

let no_hooks = { h_attach = (fun _ -> ()) }

type prepared = {
  p_workload : Workload.t;
  p_target : Vir.Target.t;
  p_category : Analysis.Sites.category;
  p_code : Interp.Code.cmodule;
  p_instr : Instrument.t;
}

(* Build, select fault sites for [category], instrument, verify and
   compile a workload. [transform] optionally rewrites the module
   before instrumentation (used to insert error detectors). Site
   numbering comes from the module before instrumentation. *)
let prepare ?(transform = fun (m : Vir.Vmodule.t) -> m)
    (w : Workload.t) (target : Vir.Target.t)
    (category : Analysis.Sites.category) : prepared =
  let m = transform (w.Workload.w_build target) in
  let targets =
    Analysis.Sites.select (Analysis.Sites.targets_of_module m) category
  in
  let instr = Instrument.run m targets in
  {
    p_workload = w;
    p_target = target;
    p_category = category;
    p_code = Interp.Compile.compile_module instr.Instrument.instrumented;
    p_instr = instr;
  }

type golden = {
  g_input : int;
  g_output : Outcome.output;
  g_dyn_sites : int;   (** dynamic fault sites N *)
  g_dyn_instrs : int;  (** dynamic instructions, for budget + Table I *)
  g_detected : bool;   (** a detector fired during the fault-free run *)
}

exception Golden_run_failed of string

(* A fresh machine for the fault-free profiling run on [input]: a
   profiling runtime and the hooks attached, then [w_setup] applied.
   [respect_masks:false] reproduces a mask-oblivious injector for the
   ablation study. *)
let profiling_machine ~hooks ~respect_masks (p : prepared) ~input =
  let st = Interp.Machine.create p.p_code in
  Runtime.attach (Runtime.create ~respect_masks Runtime.Profile) st;
  hooks.h_attach st;
  let args, read_output = p.p_workload.Workload.w_setup ~input st in
  (st, args, read_output)

(* Run the profiling machine to completion and read the golden record
   off it: sites, instructions and detections are all machine
   counters. *)
let profile (p : prepared) ~input st args read_output : golden =
  (match Interp.Machine.run st p.p_workload.Workload.w_fn args with
  | _ -> ()
  | exception Interp.Trap.Trap k ->
    raise
      (Golden_run_failed
         (Printf.sprintf "%s input %d: %s" p.p_workload.Workload.w_name
            input (Interp.Trap.to_string k))));
  {
    g_input = input;
    g_output = read_output ();
    g_dyn_sites = Interp.Machine.sites st;
    g_dyn_instrs = Interp.Machine.dyn_count st;
    g_detected = Interp.Machine.detections st > 0;
  }

(* Fault-free profiling run. *)
let golden_run ?(hooks = no_hooks) ?(respect_masks = true) (p : prepared)
    ~input : golden =
  let st, args, read_output =
    profiling_machine ~hooks ~respect_masks p ~input
  in
  profile p ~input st args read_output

(* ------------------------------------------------------------------ *)
(* Checkpointed execution. Per (cell, input) the legacy path repeats
   machine construction, [w_setup] and the golden run for every
   experiment even though inputs come from a small finite pool. A
   prepared input does that work once: build a machine, run [w_setup],
   snapshot the post-setup memory image, run the golden run once — then
   every faulty run restores the snapshot and re-arms the same machine.
   Bit-identity with the legacy path holds because the bump allocator is
   deterministic (restored addresses equal fresh ones), [w_setup]
   writes memory deterministically per input, and the per-run RNG is
   seeded from the experiment seed in both paths. *)

type prepared_input = {
  pi_golden : golden;
  pi_machine : Interp.Machine.state;
  pi_snapshot : Interp.Memory.snapshot;  (** post-setup memory image *)
  pi_args : Interp.Vvalue.t list;
      (** owned by this record and reused across every faulty run;
          sound because [Machine.run] copies argument lanes into the
          entry frame's pinned buffers rather than aliasing them *)
  pi_read_output : unit -> Outcome.output;
}

(* One-time stage: setup, snapshot, golden run — [golden_run] on the
   same machine and reader, with the snapshot taken between setup and
   the profiling run so every later restore lands on the post-setup
   image. *)
let prepare_input ?(hooks = no_hooks) ?(respect_masks = true)
    (p : prepared) ~input : prepared_input =
  let st, args, read_output =
    profiling_machine ~hooks ~respect_masks p ~input
  in
  let snap = Interp.Memory.snapshot (Interp.Machine.memory st) in
  {
    pi_golden = profile p ~input st args read_output;
    pi_machine = st;
    pi_snapshot = snap;
    pi_args = args;
    pi_read_output = read_output;
  }

type run_result = {
  r_outcome : Outcome.t;
  r_injection : Runtime.injection_record option;
  r_detected : bool;  (** a detector flagged the run *)
  r_dyn_instrs : int;  (** dynamic instructions of the faulty run *)
}

(* A fault-induced loop must terminate as an observable hang: a run
   exceeding ten times the fault-free execution (plus slack for tiny
   kernels) is classified as budget-exhausted. The single definition is
   shared by every executor so a future tweak cannot silently diverge
   their classifications. *)
let fault_budget (golden : golden) = (golden.g_dyn_instrs * 10) + 10_000

(* The record of a faulty run that ran out on [st]: its outputs (or
   trap) classified against the golden run's, the counters read off
   the machine. Shared by every executor. *)
let finished (p : prepared) (golden : golden) rt st faulty : run_result =
  {
    r_outcome =
      Outcome.classify
        ~tol:p.p_workload.Workload.w_out_tolerance
        ~golden:golden.g_output ~faulty ();
    r_injection = Runtime.injected rt;
    r_detected = Interp.Machine.detections st > 0;
    r_dyn_instrs = Interp.Machine.dyn_count st;
  }

(* Faulty run at 1-based [dynamic_site]; [seed] fixes the bit choice. *)
let faulty_run ?(hooks = no_hooks) ?(respect_masks = true) ?fault_kind
    (p : prepared) ~(golden : golden) ~dynamic_site ~seed : run_result =
  let rt =
    Runtime.create ~seed ~respect_masks ?fault_kind
      (Runtime.Inject { dynamic_site })
  in
  let budget = fault_budget golden in
  let st = Interp.Machine.create ~budget p.p_code in
  Runtime.attach rt st;
  hooks.h_attach st;
  let args, read_output =
    p.p_workload.Workload.w_setup ~input:golden.g_input st
  in
  finished p golden rt st
    (match Interp.Machine.run st p.p_workload.Workload.w_fn args with
    | _ -> Ok (read_output ())
    | exception Interp.Trap.Trap k -> Error k)

(* ------------------------------------------------------------------ *)
(* Fast-forward execution. The checkpointed path above still replays
   the whole golden prefix of every faulty run up to the injected
   site; on long workloads whose injections cluster late, that prefix
   dominates campaign time. The fast-forward executor captures
   machine-state checkpoints (memory image, live registers, call
   stack, counters — detections and fault sites included) at a subset
   of the cell's scheduled injection sites during ONE instrumented
   golden replay, and each faulty run resumes from the nearest
   checkpoint at or before its site — only the post-injection suffix
   executes.

   Determinism is preserved because checkpoint *placement* is a pure
   function of the seed schedule: every experiment's dynamic site is
   computable upfront from (seed, workload, target, category,
   campaign, experiment) before anything runs, so every pool worker,
   at any job count, derives the identical plan. *)

(* Cap on checkpoints per (cell, input): bounds the retained memory
   images while keeping one checkpoint per distinct scheduled site for
   every realistic cell (paper cells schedule at most
   [experiments_per_campaign * max_campaigns] distinct sites, and the
   distinct count is far smaller on short traces). A checkpoint costs
   one memory snapshot (a copy of the small workload heap) plus copies
   of the registers live at the check, so even a few hundred are
   cheap; runs whose site falls exactly on a plan site resume with
   zero pre-injection re-execution. *)
let default_max_checkpoints = 192

(* The checkpoint sites for one (cell, input): the distinct scheduled
   injection sites, ascending, thinned to at most [max_checkpoints] by
   keeping the rightmost site of each of [max_checkpoints] equal
   slices (so every scheduled site still has a plan site at or not far
   below it; sites below the first plan entry fall back to a
   from-the-start replay). Pure function of the schedule. *)
let checkpoint_plan ?(max_checkpoints = default_max_checkpoints)
    (sites : int list) : int array =
  let a =
    Array.of_list
      (List.sort_uniq compare (List.filter (fun s -> s > 0) sites))
  in
  let n = Array.length a in
  if n <= max_checkpoints then a
  else
    Array.init max_checkpoints (fun i ->
        a.(((i + 1) * n / max_checkpoints) - 1))

(* A prepared input plus the machine-state checkpoints laid for it:
   [(site, checkpoint)] pairs sorted by site ascending. The
   checkpoints alias [ff_pi]'s machine — faulty runs must execute on
   that machine (they do: that is the prepared input's machine). *)
type ff_input = {
  ff_pi : prepared_input;
  ff_checkpoints : (int * Interp.Machine.checkpoint) array;
}

(* Index of the rightmost checkpoint whose site is <= [site], or -1:
   the resume point of a faulty run injecting at [site]. *)
let resume_point (cks : (int * Interp.Machine.checkpoint) array) site =
  let best = ref (-1) in
  let lo = ref 0 and hi = ref (Array.length cks - 1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if fst cks.(mid) <= site then begin
      best := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !best

(* One instrumented golden replay laying the plan's checkpoints: the
   machine rolls back to the post-setup image, then a profile run under
   a check captures the full machine state at each planned dynamic
   site. Plan site [s] is captured at the first extern call where the
   machine has counted [s - 1] live sites: at the latest the inject
   call of site [s] itself, at the earliest a few masked-off inject
   calls or one detector call before it. A resume re-executes those
   calls, so the injection at [s] happens naturally. [dyn_count] at a
   capture equals the legacy prefix length from run start — [w_setup]
   executes no machine instructions — which is what makes the resumed
   counters (and hence the trace records) bit-identical to a fresh
   replay. *)
let lay_checkpoints ?(hooks = no_hooks) ?(respect_masks = true)
    (p : prepared) ~(pi : prepared_input) ~(plan : int array) : ff_input =
  if Array.length plan = 0 then
    { ff_pi = pi; ff_checkpoints = [||] }
  else begin
    let st = pi.pi_machine in
    Interp.Memory.restore (Interp.Machine.memory st) pi.pi_snapshot;
    Interp.Machine.reset ~budget:Interp.Machine.default_budget st;
    Runtime.attach (Runtime.create ~respect_masks Runtime.Profile) st;
    hooks.h_attach st;
    let nplan = Array.length plan in
    let pidx = ref 0 in
    let cks = ref [] in
    (* Due next where plan site [pidx] is captured; never again once the
       last one is. *)
    let check mst stack =
      if Interp.Machine.sites mst + 1 = plan.(!pidx) then begin
        cks := (plan.(!pidx), Interp.Machine.checkpoint mst stack) :: !cks;
        incr pidx
      end;
      if !pidx < nplan then plan.(!pidx) - 1 else max_int
    in
    (match
       Interp.Machine.run ~check st p.p_workload.Workload.w_fn pi.pi_args
     with
    | _ -> ()
    | exception Interp.Trap.Trap k ->
      raise
        (Golden_run_failed
           (Printf.sprintf "%s input %d (checkpoint replay): %s"
              p.p_workload.Workload.w_name pi.pi_golden.g_input
              (Interp.Trap.to_string k))));
    { ff_pi = pi; ff_checkpoints = Array.of_list (List.rev !cks) }
  end

(* ------------------------------------------------------------------ *)
(* Convergence-pruned execution. The fast-forward path above skips the
   pre-injection prefix but still runs every post-injection suffix to
   completion, even though most injected faults are masked long before
   the program ends (the high benign rates of Fig 11) — from the moment
   the faulty state re-converges with the golden state, the rest of the
   run is provably identical and wasted. The converge-pruned executor
   runs the suffix under a check and, at each checkpoint site after
   the injection, compares the machine against the golden
   checkpoint retained at that site ({!Interp.Machine.state_equal}:
   counters, call stack, live registers, the whole memory image).
   On a match it terminates immediately and splices the golden
   outcome — Benign, the golden dynamic counters, the golden run's
   final detector flag — which is byte-identical to what running the
   suffix out would have produced (see DESIGN.md, convergence
   soundness). *)

(* Physical pruning telemetry for the bench harness: how many faulty
   runs were actually cut short, and how many state comparisons ran.
   Deliberately NOT part of campaign results or traces (those stay pure
   functions of the seed schedule, identical across executors); atomic
   so parallel workers can bump them concurrently. *)
let prunes_performed = Atomic.make 0
let prune_checks_performed = Atomic.make 0

let reset_prune_stats () =
  Atomic.set prunes_performed 0;
  Atomic.set prune_checks_performed 0

let prune_stats () =
  (Atomic.get prunes_performed, Atomic.get prune_checks_performed)

exception Converged

(* ------------------------------------------------------------------ *)
(* The resuming executors share one faulty-run body. It attaches a
   fresh injecting runtime and the hooks to [pi]'s machine, lets [go]
   bring the machine through the run under the fault budget —
   restore-and-rerun or resume, under a check for the pruned executor —
   and classifies the outcome. When a convergence check raises
   [Converged] it splices the golden completion instead: equal state at
   the check site means the rest of the run reads and writes exactly
   what the golden run did — outputs come back golden (Benign), the
   final dynamic count equals the golden one, the injection record is
   already live, and the detection counter (equal here) ends where the
   golden run's ended. Its live value at the check site would miss the
   golden suffix's firings. *)
let resuming_run ~hooks ~respect_masks ?fault_kind (p : prepared)
    (pi : prepared_input) ~dynamic_site ~seed go : run_result =
  let rt =
    Runtime.create ~seed ~respect_masks ?fault_kind
      (Runtime.Inject { dynamic_site })
  in
  let golden = pi.pi_golden and st = pi.pi_machine in
  Runtime.attach rt st;
  hooks.h_attach st;
  match go st ~budget:(fault_budget golden) with
  | _ -> finished p golden rt st (Ok (pi.pi_read_output ()))
  | exception Interp.Trap.Trap k -> finished p golden rt st (Error k)
  | exception Converged ->
    Atomic.incr prunes_performed;
    {
      r_outcome = Outcome.Benign;
      r_injection = Runtime.injected rt;
      r_detected = golden.g_detected;
      r_dyn_instrs = golden.g_dyn_instrs;
    }

(* Restore [pi]'s post-setup image, re-arm the machine under [budget]
   and run the workload from the start, under [check] when given. *)
let replay ?check (p : prepared) (pi : prepared_input) st ~budget =
  Interp.Memory.restore (Interp.Machine.memory st) pi.pi_snapshot;
  Interp.Machine.reset ~budget st;
  Interp.Machine.run ?check st p.p_workload.Workload.w_fn pi.pi_args

(* The part of a run injecting at [dynamic_site] that must execute:
   from the nearest checkpoint at or before the site, or the whole run
   when no checkpoint lies that early. *)
let resume_suffix ?check (p : prepared) (ff : ff_input) ~dynamic_site st
    ~budget =
  match resume_point ff.ff_checkpoints dynamic_site with
  | -1 -> replay ?check p ff.ff_pi st ~budget
  | best ->
    Interp.Machine.resume ?check ~budget st (snd ff.ff_checkpoints.(best))

(* Faulty run against a prepared input and its checkpoints: resume
   from the nearest checkpoint at or before [dynamic_site], or restore
   the post-setup memory image and re-arm the cached machine when none
   lies that early (always, for an empty plan). Semantically identical
   to [faulty_run] — same budget rule, same attach order, same
   classification. The machine's site counter resumes at the
   checkpoint's count and the RNG needs no replay — it is drawn only at
   the injection, always inside the executed suffix. *)
let faulty_run_ff ?(hooks = no_hooks) ?(respect_masks = true) ?fault_kind
    (p : prepared) ~(ff : ff_input) ~dynamic_site ~seed : run_result =
  resuming_run ~hooks ~respect_masks ?fault_kind p ff.ff_pi ~dynamic_site
    ~seed
    (resume_suffix p ff ~dynamic_site)

(* A run that has failed this many comparisons has almost certainly
   diverged for good (a flipped value keeps propagating); the pruned
   executor then stops comparing, which saves the comparisons only —
   checked or not, the suffix runs on the hot path. Purely physical:
   the run still completes and classifies exactly as the other
   executors say. *)
let max_failed_checks = 2

(* Converge-pruned variant of [faulty_run_ff]: identical resume point,
   but the executed portion runs under convergence checks. Plan site
   [s] is compared where [lay_checkpoints] captured it: at the first
   extern call where the machine has counted [s - 1] live sites. Runs
   as plain fast-forward when no checkpoint site lies after the
   injection (nothing could ever match). *)
let faulty_run_pruned ?(hooks = no_hooks) ?(respect_masks = true)
    ?fault_kind (p : prepared) ~(ff : ff_input) ~dynamic_site ~seed :
    run_result =
  let cks = ff.ff_checkpoints in
  let ncks = Array.length cks in
  (* every checkpoint after the resume point lies strictly after the
     injection — the only sites where re-convergence with the golden
     run can be detected *)
  let next = ref (resume_point cks dynamic_site + 1) in
  let failed = ref 0 in
  let check st stack =
    let site = Interp.Machine.sites st + 1 in
    while !next < ncks && fst cks.(!next) < site do
      incr next
    done;
    if !next < ncks && fst cks.(!next) = site then begin
      Atomic.incr prune_checks_performed;
      if Interp.Machine.state_equal st stack (snd cks.(!next)) then
        raise Converged;
      incr failed;
      incr next
    end;
    if !next < ncks && !failed < max_failed_checks then fst cks.(!next) - 1
    else max_int
  in
  let check = if !next < ncks then Some check else None in
  resuming_run ~hooks ~respect_masks ?fault_kind p ff.ff_pi ~dynamic_site
    ~seed
    (resume_suffix ?check p ff ~dynamic_site)
