(** Deterministic, splittable seed schedule for campaigns.

    Every random decision of a campaign is derived by hashing its full
    coordinate — (base seed, workload, target, site category, campaign
    index, experiment index) — through a SplitMix64-style finalizer, so

    - distinct (target, category) cells of the same workload draw
      independent streams (previously every cell of a workload shared
      one RNG stream, correlating the paper's per-cell samples), and
    - an experiment's randomness is independent of execution order,
      which is what lets {!Campaign.run} produce bit-identical results
      at any [jobs]. *)

(** The derived key of one (seed, workload, target, category) cell. *)
type cell

(** The randomness of one experiment, split into independent streams. *)
type exp = {
  input_key : int64;  (** uniform key selecting the workload input *)
  site_key : int64;   (** uniform key selecting the dynamic fault site *)
  bit_seed : int;     (** seed for the in-experiment corruption RNG *)
}

val cell :
  seed:int ->
  workload:string ->
  target:Vir.Target.t ->
  category:Analysis.Sites.category ->
  cell

(** The raw per-experiment key; injective across (campaign, experiment)
    pairs within a cell (pinned by tests over the paper-scale grid). *)
val experiment_key : cell -> campaign:int -> experiment:int -> int64

val experiment : cell -> campaign:int -> experiment:int -> exp

(** [uniform key n] maps a 64-bit key uniformly onto [0, n).
    @raise Invalid_argument if [n <= 0]. *)
val uniform : int64 -> int -> int
