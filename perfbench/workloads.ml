(* The two sweeps the benchmark runs. One exercises checkpoint resume
   and convergence pruning, the other bypasses them; README.md gives the
   layer map. *)

type cell = Vulfi.Workload.t * Vir.Target.t * Analysis.Sites.category

type t = {
  name : string;
  cells : cell list;
  transform : (Vir.Vmodule.t -> Vir.Vmodule.t) option;
  hooks : Vulfi.Campaign.hooks_factory option;
}

let one_input (w : Vulfi.Workload.t) = { w with Vulfi.Workload.w_inputs = 1 }

(* Quick Fig 11 sweep, one input per benchmark: checkpoint resume and
   convergence pruning do most of the work, set-up is about a quarter. *)
let fig11_bitflip =
  {
    name = "fig11-bitflip";
    cells =
      List.concat_map
        (fun (b : Benchmarks.Harness.benchmark) ->
          let w = one_input b.Benchmarks.Harness.bench in
          List.concat_map
            (fun target ->
              List.map
                (fun cat -> (w, target, cat))
                Analysis.Sites.all_categories)
            Vir.Target.all)
        Benchmarks.Registry.paper_benchmarks;
    transform = None;
    hooks = None;
  }

(* Paper detectors on all 12 benchmarks (AVX): the executor degrades to
   checkpointed, so full replays bypass checkpoints and pruning. *)
let fig12_detectors =
  {
    name = "fig12-detectors";
    cells =
      List.concat_map
        (fun (b : Benchmarks.Harness.benchmark) ->
          let w = one_input b.Benchmarks.Harness.bench in
          List.map
            (fun cat -> (w, Vir.Target.Avx, cat))
            Analysis.Sites.all_categories)
        Benchmarks.Registry.all;
    transform =
      Some (Detectors.Overhead.transform Detectors.Overhead.paper_detectors);
    hooks = Some Detectors.Runtime.hooks;
  }

let all = [ fig11_bitflip; fig12_detectors ]

let find name = List.find_opt (fun w -> w.name = name) all

let detectors w = Option.is_some w.hooks

let label ((w, target, cat) : cell) =
  Printf.sprintf "%s/%s/%s" w.Vulfi.Workload.w_name (Vir.Target.name target)
    (Analysis.Sites.category_name cat)
