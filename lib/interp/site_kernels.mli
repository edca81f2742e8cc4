(** Fault-site kernels: the extract/call/insert chain [Instrument]
    splices per vector fault site, recognised on the compiled body and
    run on the hot path as one kernel that charges the chain's fuel,
    counts its live sites and copies the site's value through. The
    kernel falls back to the member closures whenever it could differ
    from them, a check due among its lanes included. *)

(** A matched chain. *)
type site_chain

(** The chain's member count: the body positions its kernel covers. *)
val length : site_chain -> int

(** Per-register use counts over a whole function: phi incomings, body
    operands and terminators. *)
val use_counts : Code.cfunc -> int array

(** [match_site_chain cm uses body k] is the vector site chain starting
    at [body.(k)], if any. *)
val match_site_chain :
  Code.cmodule -> int array -> Code.cinstr array -> int -> site_chain option

(** The kernel of a matched chain; the given closure runs its members
    one by one, for the fallbacks. *)
val thread_site_chain : site_chain -> Code.texec -> Code.texec
