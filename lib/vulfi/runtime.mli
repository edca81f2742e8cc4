(** The VULFI runtime injection API.

    Instrumented programs call [__vulfi_inject_T(value, mask, site_id)]
    once per scalar fault site per dynamic execution. {!attach} binds
    those externs as interpreter fault sites
    ({!Interp.Machine.register_site}): the interpreter counts the
    dynamic sites on the machine ({!Interp.Machine.sites}) and calls
    back into this module only at the armed site. *)

(** How the chosen register is corrupted. The paper's study uses
    {!Single_bit_flip}; the other kinds reproduce the wider fault-model
    menu of the released VULFI tool. *)
type fault_kind =
  | Single_bit_flip
  | Multi_bit_flip of int  (** flip k distinct uniformly chosen bits *)
  | Random_value  (** replace all bits with a random pattern *)
  | Stuck_at_zero  (** clear the register *)

val fault_kind_name : fault_kind -> string

type mode =
  | Profile  (** pass values through *)
  | Inject of { dynamic_site : int }
      (** corrupt the value at the 1-based dynamic site index *)

(** What an injection did, for reporting. *)
type injection_record = {
  inj_static_site : int;  (** index into the instrumentor's site table *)
  inj_dynamic_site : int;
  inj_bit : int;  (** flipped bit (the first one flipped for multi-bit;
                      -1 for whole-register kinds) *)
  inj_before : Interp.Vvalue.t;
  inj_after : Interp.Vvalue.t;
}

type t

(** [create ?seed ?respect_masks ?fault_kind mode] builds a runtime.
    [respect_masks] (default [true]) is VULFI's defining behaviour of
    skipping masked-off vector lanes; [false] reproduces a
    mask-oblivious injector for ablation.
    @raise Invalid_argument for [Multi_bit_flip k] with [k < 1]. *)
val create :
  ?seed:int -> ?respect_masks:bool -> ?fault_kind:fault_kind -> mode -> t

(** Parse a fault kind as the command line spells it:
    [single|Nbit|random|zero] (case-insensitive), [N >= 1]. [Error]
    carries a message. *)
val fault_kind_of_string : string -> (fault_kind, string) result

(** [corrupt t v] corrupts a scalar runtime value per the configured
    fault kind; returns the corrupted value and the representative bit
    for the record: the first flipped bit (in draw order), or -1 for
    whole-register kinds. *)
val corrupt : t -> Interp.Vvalue.t -> Interp.Vvalue.t * int

(** The injection performed during the run, if any. *)
val injected : t -> injection_record option

(** Register the injection API on a machine: every [__vulfi_inject_*]
    function becomes a fault-site extern ({!Interp.Machine.site}). A
    call on a live lane (any lane, when mask-oblivious) counts one
    site on the machine; in [Inject] mode the call that brings
    {!Interp.Machine.sites} to [dynamic_site] is corrupted and
    recorded ({!injected}). [Profile] never fires. *)
val attach : t -> Interp.Machine.state -> unit
