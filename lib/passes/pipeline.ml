type pass = { p_name : string; p_run : Vir.Vmodule.t -> int }

let constfold = { p_name = "constfold"; p_run = Constfold.run_module }
let fuse = { p_name = "fuse"; p_run = Fuse.run_module }
let optimizing = [ constfold; fuse ]

let run ?(verify = true) ~passes (m : Vir.Vmodule.t) : (string * int) list =
  List.map
    (fun p ->
      let n = p.p_run m in
      if verify then Vir.Verify.check_module m;
      (p.p_name, n))
    passes
