(* Order statistics for the benchmark's reported figures. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Median of a non-empty list (mean of the middle pair for even n). *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: empty";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Percentiles are named in per-mille so the rank arithmetic stays in
   integers: 990 is p99, 999 is p99.9. *)

(* 1-based nearest rank of the [pm]-per-mille percentile among [n]
   samples: the smallest rank covering at least pm/1000 of them. *)
let rank ~n pm = max 1 (((pm * n) + 999) / 1000)

(* Samples strictly above the [pm] percentile's rank. *)
let beyond ~n pm = n - rank ~n pm

let percentile a pm =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  a.(rank ~n pm - 1)

let ladder = [ 500; 900; 990; 999 ]

(* The reporting rule for timings: the highest percentile of [ladder]
   with at least ten samples beyond it, or [None] below 20 samples. *)
let tail_percentile ~n =
  List.fold_left
    (fun best pm -> if beyond ~n pm >= 10 then Some pm else best)
    None ladder

let percentile_name pm =
  if pm mod 10 = 0 then Printf.sprintf "p%d" (pm / 10)
  else Printf.sprintf "p%d.%d" (pm / 10) (pm mod 10)
