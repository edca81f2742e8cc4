(** Deterministic, splittable seed schedule for campaigns.

    Every random decision of a campaign — which input an experiment
    draws, which dynamic fault site it hits and which bit it flips — is
    derived by hashing the full coordinate of the decision:

      (base seed, workload, target, site category,
       campaign index, experiment index)

    through a SplitMix64-style finalizer. Consequences:

    - two cells of the same workload (e.g. AVX/pure-data vs
      SSE/control) consume {e independent} streams — previously the RNG
      was seeded from (seed, workload) only, statistically correlating
      every column of Tables II/III that shares a workload;
    - an experiment's randomness does not depend on when or where it
      executes, so a campaign can be evaluated in any order — in
      particular fanned out across domains — and produce bit-identical
      results to the sequential schedule. *)

type cell = int64

type exp = {
  input_key : int64;  (** uniform key selecting the workload input *)
  site_key : int64;   (** uniform key selecting the dynamic fault site *)
  bit_seed : int;     (** seed for the in-experiment corruption RNG *)
}

(* SplitMix64 finalizer (Steele et al., "Fast splittable pseudorandom
   number generators"): a bijective avalanche mix of the state. *)
let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let golden_gamma = 0x9E3779B97F4A7C15L

(* Absorb one 64-bit word into the running key. *)
let absorb st x = mix64 (Int64.add (Int64.logxor st x) golden_gamma)

let absorb_int st i = absorb st (Int64.of_int i)

let absorb_string st s =
  String.fold_left
    (fun st c -> absorb_int st (Char.code c))
    (absorb_int st (String.length s))
    s

let cell ~seed ~workload ~(target : Vir.Target.t)
    ~(category : Analysis.Sites.category) : cell =
  let st = absorb_int 0L seed in
  let st = absorb_string st workload in
  let st = absorb_string st (Vir.Target.name target) in
  absorb_string st (Analysis.Sites.category_name category)

(* The raw per-experiment key; injective across (campaign, experiment)
   pairs in practice (pinned by a test over the paper-scale grid). *)
let experiment_key (c : cell) ~campaign ~experiment =
  absorb_int (absorb_int c campaign) experiment

let experiment (c : cell) ~campaign ~experiment : exp =
  let k = experiment_key c ~campaign ~experiment in
  {
    input_key = absorb_int k 1;
    site_key = absorb_int k 2;
    bit_seed = Int64.to_int (absorb_int k 3) land max_int;
  }

(* Map a 64-bit key uniformly onto [0, n). The modulo bias over a
   2^64 keyspace is < n/2^64 — far below campaign noise. *)
let uniform key n =
  if n <= 0 then invalid_arg "Seed.uniform: n must be positive";
  Int64.to_int (Int64.unsigned_rem key (Int64.of_int n))
