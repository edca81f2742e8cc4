(* The instrumented modules of the whole study grid: every registry
   workload × ISA × site category, plain and under the paper's
   detectors — 144 modules, built exactly as [Experiment.prepare]
   builds them (workload module, optional detector transform, site
   selection, instrumentation). The instrumentor's pin test and the
   live-set check both walk this grid. *)

let detector_arms =
  [
    ("plain", None);
    ( "detectors",
      Some (Detectors.Overhead.transform Detectors.Overhead.paper_detectors) );
  ]

(* [iter f] calls [f label instrumented] once per grid cell, building
   each module just before the call so only one is alive at a time. *)
let iter (f : string -> Vulfi.Instrument.t -> unit) : unit =
  List.iter
    (fun (b : Benchmarks.Harness.benchmark) ->
      let w = b.Benchmarks.Harness.bench in
      List.iter
        (fun target ->
          List.iter
            (fun cat ->
              List.iter
                (fun (arm, transform) ->
                  let m = w.Vulfi.Workload.w_build target in
                  let m = match transform with Some t -> t m | None -> m in
                  let targets =
                    Analysis.Sites.select
                      (Analysis.Sites.targets_of_module m)
                      cat
                  in
                  f
                    (Printf.sprintf "%s/%s/%s/%s" w.Vulfi.Workload.w_name
                       (Vir.Target.name target)
                       (Analysis.Sites.category_name cat)
                       arm)
                    (Vulfi.Instrument.run m targets))
                detector_arms)
            Analysis.Sites.all_categories)
        Vir.Target.all)
    Benchmarks.Registry.all
