(* Small mini-ISPC workloads shared by the checkpoint and fault-site
   tests: a one-loop vector copy, and a two-call copy whose checkpoints
   sit inside a callee. *)

let vcopy_src =
  "export void vcopy_ispc(uniform int a1[], uniform int a2[], uniform int \
   n) { foreach (i = 0 ... n) { a2[i] = a1[i]; } }"

let vcopy_workload lengths =
  {
    Vulfi.Workload.w_name = "vcopy";
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
              Vulfi.Outcome.empty_output with
              Vulfi.Outcome.o_i32 = [ Interp.Memory.read_i32_array mem a2 n ];
            } ));
  }

(* Multi-frame workload: the export calls a [foreach]-copy helper
   twice, and each call returns a value loaded inside the callee that
   the export combines after both calls. Checkpoints therefore sit
   inside a callee, resumes unwind through a pending call (storing its
   return value on the way out), and convergence checks compare an
   outer activation's live registers across its pending call. *)
let copy_twice_src =
  "uniform int copy_into(uniform int src[], uniform int dst[], uniform int \
   n) { foreach (i = 0 ... n) { dst[i] = src[i]; } return dst[n - 1] + 1; \
   }\n\
   export void copy_twice(uniform int a1[], uniform int a2[], uniform int \
   a3[], uniform int n) { uniform int m = copy_into(a1, a2, n); uniform \
   int k = copy_into(a2, a3, n); a3[0] = m - k; }"

let copy_twice_workload n =
  {
    Vulfi.Workload.w_name = "copy_twice";
    w_fn = "copy_twice";
    w_out_tolerance = 0.0;
    w_inputs = 1;
    w_build = (fun target -> Minispc.Driver.compile target copy_twice_src);
    w_setup =
      (fun ~input:_ st ->
        let mem = Interp.Machine.memory st in
        let alloc name = Interp.Memory.alloc mem ~name ~bytes:(4 * n) in
        let a1 = alloc "a1" in
        let a2 = alloc "a2" in
        let a3 = alloc "a3" in
        Interp.Memory.write_i32_array mem a1
          (Array.init n (fun i -> (i * 37) - 11));
        ( [ Interp.Vvalue.of_ptr a1; Interp.Vvalue.of_ptr a2;
            Interp.Vvalue.of_ptr a3; Interp.Vvalue.of_i32 n ],
          fun () ->
            {
              Vulfi.Outcome.empty_output with
              Vulfi.Outcome.o_i32 =
                [ Interp.Memory.read_i32_array mem a2 n;
                  Interp.Memory.read_i32_array mem a3 n ];
            } ));
  }


(* A float loop whose [foreach] tail runs on masked intrinsics: for
   [n] not a multiple of the vector width the tail's load and store
   are maskload/maskstore with some lanes off, so their fault sites
   take execution-mask lanes, and the f32 lanes are rounded. *)
let mscale_src =
  "export void mscale(uniform float a1[], uniform float a2[], uniform int \
   n) { foreach (i = 0 ... n) { a2[i] = a1[i] * 3.0 + 1.0; } }"

let mscale_workload n =
  {
    Vulfi.Workload.w_name = "mscale";
    w_fn = "mscale";
    w_out_tolerance = 0.0;
    w_inputs = 1;
    w_build = (fun target -> Minispc.Driver.compile target mscale_src);
    w_setup =
      (fun ~input:_ st ->
        let mem = Interp.Machine.memory st in
        let a1 = Interp.Memory.alloc mem ~name:"a1" ~bytes:(4 * n) in
        let a2 = Interp.Memory.alloc mem ~name:"a2" ~bytes:(4 * n) in
        Interp.Memory.write_f32_array mem a1
          (Array.init n (fun i -> (float_of_int i *. 0.75) -. 2.5));
        ( [ Interp.Vvalue.of_ptr a1; Interp.Vvalue.of_ptr a2;
            Interp.Vvalue.of_i32 n ],
          fun () ->
            {
              Vulfi.Outcome.empty_output with
              Vulfi.Outcome.o_f32 = [ Interp.Memory.read_f32_array mem a2 n ];
            } ));
  }
