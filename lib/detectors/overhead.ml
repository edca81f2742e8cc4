(** Detector overhead measurement (Fig 12's "Avg. Overhead" series).

    Runs a workload with and without detector blocks inserted and
    reports the dynamic-instruction overhead. Wall-clock overhead is
    measured by the Bechamel benches in [bench/main.ml] on the same
    pair of modules; dynamic instruction count is the deterministic
    proxy used in tests. *)

type measurement = {
  plain_instrs : int;
  detected_instrs : int;
  detectors_inserted : int;
}

let overhead_fraction m =
  if m.plain_instrs = 0 then 0.0
  else
    float_of_int (m.detected_instrs - m.plain_instrs)
    /. float_of_int m.plain_instrs

type detector_set = {
  with_foreach : bool;
  with_uniform : bool;
  placement : Foreach_invariants.placement;
  strengthen : bool;  (** add the exit-equality check (extension) *)
}

let paper_detectors =
  { with_foreach = true; with_uniform = false; placement = `Exit_only;
    strengthen = false }

let all_detectors =
  { with_foreach = true; with_uniform = true; placement = `Exit_only;
    strengthen = false }

let strengthened_detectors =
  { with_foreach = true; with_uniform = false; placement = `Exit_only;
    strengthen = true }

(* Apply the selected detector passes to [m] (in place); returns the
   number of insertion points. *)
let apply (set : detector_set) (m : Vir.Vmodule.t) : int =
  let n1 =
    if set.with_foreach then
      Foreach_invariants.run ~placement:set.placement
        ~strengthen:set.strengthen m
    else 0
  in
  let n2 = if set.with_uniform then Uniform_xor.run m else 0 in
  n1 + n2

(* A module transform suitable for {!Vulfi.Experiment.prepare}. *)
let transform (set : detector_set) (m : Vir.Vmodule.t) : Vir.Vmodule.t =
  ignore (apply set m);
  m

let run_once (w : Vulfi.Workload.t) (m : Vir.Vmodule.t) ~input : int =
  let st = Interp.Machine.create (Interp.Compile.compile_module m) in
  Runtime.attach st;
  let args, _ = w.Vulfi.Workload.w_setup ~input st in
  ignore (Interp.Machine.run st w.Vulfi.Workload.w_fn args);
  Interp.Machine.dyn_count st

(* Dynamic-instruction overhead of [set] on workload [w]. *)
let measure ?(set = paper_detectors) (w : Vulfi.Workload.t)
    (target : Vir.Target.t) ~input : measurement =
  let plain = w.Vulfi.Workload.w_build target in
  let plain_instrs = run_once w plain ~input in
  let detected = w.Vulfi.Workload.w_build target in
  let inserted = apply set detected in
  let detected_instrs = run_once w detected ~input in
  { plain_instrs; detected_instrs; detectors_inserted = inserted }
