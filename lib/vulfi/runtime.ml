(** The VULFI runtime injection API.

    Instrumented programs call [__vulfi_inject_T(value, mask, site_id)]
    once per scalar fault site per dynamic execution. The runtime
    registers these as fault-site externs ({!Interp.Machine.register_site}):
    the interpreter counts dynamic fault sites on the machine
    ({!Interp.Machine.sites}; a site is live only when its
    execution-mask lane is on — the paper's central point about masked
    vector instructions), and:

    - in [Profile] mode values pass through;
    - in [Inject] mode the value at the configured dynamic site index is
      corrupted per the fault kind (one uniformly chosen bit flipped by
      default). *)

(* How the chosen register is corrupted. The paper's study uses
   [Single_bit_flip]; the other kinds reproduce the wider fault-model
   menu of the released VULFI tool. *)
type fault_kind =
  | Single_bit_flip
  | Multi_bit_flip of int  (** flip k distinct uniformly chosen bits *)
  | Random_value           (** replace all bits with a random pattern *)
  | Stuck_at_zero          (** clear the register *)

let fault_kind_name = function
  | Single_bit_flip -> "single-bit-flip"
  | Multi_bit_flip k -> Printf.sprintf "%d-bit-flip" k
  | Random_value -> "random-value"
  | Stuck_at_zero -> "stuck-at-zero"

type mode =
  | Profile
  | Inject of { dynamic_site : int }  (** 1-based index of the hit *)

type injection_record = {
  inj_static_site : int;
  inj_dynamic_site : int;
  inj_bit : int;
  inj_before : Interp.Vvalue.t;
  inj_after : Interp.Vvalue.t;
}

type t = {
  mode : mode;
  mutable injection : injection_record option;
  rng : Random.State.t;
  (* VULFI's defining behaviour is to skip masked-off lanes; setting
     [respect_masks = false] reproduces a mask-oblivious injector for
     the ablation study (it counts and corrupts dead lanes, inflating
     benign outcomes). *)
  respect_masks : bool;
  fault_kind : fault_kind;
}

(* The site counter lives on the machine, so a run resumed from a
   checkpoint counts on from its prefix's sites. The RNG needs no
   equivalent — it is only drawn at the injection itself, which always
   happens in the executed suffix. *)
let create ?(seed = 0) ?(respect_masks = true)
    ?(fault_kind = Single_bit_flip) mode =
  (match fault_kind with
  | Multi_bit_flip k when k < 1 ->
    invalid_arg
      (Printf.sprintf "Runtime.create: a multi-bit flip needs k >= 1, got %d"
         k)
  | Multi_bit_flip _ | Single_bit_flip | Random_value | Stuck_at_zero -> ());
  {
    mode;
    injection = None;
    rng = Random.State.make [| seed |];
    respect_masks;
    fault_kind;
  }

(* Corrupt a scalar runtime value per the configured fault kind;
   returns (corrupted value, representative bit index for the record:
   the first flipped bit, or -1 for whole-register kinds). [value] is a
   borrowed register-buffer alias (destination-passing interpreter), so
   the mutation is applied to a private copy; the RNG draw order is
   identical to the old copy-per-flip implementation. *)
let corrupt t (value : Interp.Vvalue.t) : Interp.Vvalue.t * int =
  let width = Vir.Vtype.scalar_bits (Interp.Vvalue.scalar_kind value) in
  match t.fault_kind with
  | Single_bit_flip ->
    let bit = Random.State.int t.rng width in
    let v = Interp.Vvalue.copy value in
    Interp.Vvalue.flip_bit_inplace v ~lane:0 ~bit;
    (v, bit)
  | Multi_bit_flip k ->
    let k = min k width in
    (* choose k distinct bit positions, kept in draw order so the
       recorded bit really is the first one flipped *)
    let rec draw chosen remaining =
      if remaining = 0 then List.rev chosen
      else
        let bit = Random.State.int t.rng width in
        if List.mem bit chosen then draw chosen remaining
        else draw (bit :: chosen) (remaining - 1)
    in
    let chosen = draw [] k in
    let v = Interp.Vvalue.copy value in
    List.iter (fun bit -> Interp.Vvalue.flip_bit_inplace v ~lane:0 ~bit) chosen;
    (v, List.hd chosen)
  | Random_value ->
    (* [width] independent uniform bits: every pattern of the scalar's
       width is equally likely. (The old draw took a 63-bit int64 plus
       a complement coin — bit 63 was reachable only with the low bits
       complemented — and never truncated to the scalar's width.) *)
    let mask =
      if width >= 64 then -1L else Int64.sub (Int64.shift_left 1L width) 1L
    in
    let bits = Int64.logand (Random.State.bits64 t.rng) mask in
    let v = Interp.Vvalue.copy value in
    Interp.Vvalue.set_lane_bits_inplace v ~lane:0 ~bits;
    (* guarantee an actual change *)
    if Interp.Vvalue.equal v value then begin
      let bit = Random.State.int t.rng width in
      Interp.Vvalue.copy_into ~dst:v value;
      Interp.Vvalue.flip_bit_inplace v ~lane:0 ~bit;
      (v, bit)
    end
    else (v, -1)
  | Stuck_at_zero ->
    let v = Interp.Vvalue.copy value in
    Interp.Vvalue.set_lane_bits_inplace v ~lane:0 ~bits:0L;
    (v, -1)

let injected t = t.injection

(* The injection at the armed site: corrupt the value and record what
   happened. [value] aliases a register buffer the interpreter will
   keep rewriting, so the record captures a snapshot; [corrupted] is
   already a private copy. *)
let fire t ~dynamic_site site value =
  let corrupted, bit = corrupt t value in
  t.injection <-
    Some
      {
        inj_static_site = site;
        inj_dynamic_site = dynamic_site;
        inj_bit = bit;
        inj_before = Interp.Vvalue.copy value;
        inj_after = corrupted;
      };
  corrupted

(* Register the injection API on a machine: every inject function is a
   fault-site extern armed at the configured dynamic site ([Profile]
   never fires). *)
let attach t (st : Interp.Machine.state) =
  let dynamic_site =
    match t.mode with Profile -> 0 | Inject { dynamic_site } -> dynamic_site
  in
  let site =
    {
      Interp.Machine.respect_masks = t.respect_masks;
      armed = dynamic_site;
      fire = fire t ~dynamic_site;
    }
  in
  List.iter
    (fun (name, _) -> Interp.Machine.register_site st name site)
    Fault_model.all_inject_fns

(* Parse a fault kind as the command line spells it; [Error] carries the
   message. *)
let fault_kind_of_string s =
  match String.lowercase_ascii s with
  | "single" | "single-bit" | "bitflip" -> Ok Single_bit_flip
  | "random" | "random-value" -> Ok Random_value
  | "zero" | "stuck-at-zero" -> Ok Stuck_at_zero
  | other -> (
    (* "Nbit" multi-bit flips, e.g. "2bit" *)
    match Scanf.sscanf other "%dbit%!" (fun k -> k) with
    | k when k >= 1 -> Ok (Multi_bit_flip k)
    | k ->
      Error
        (Printf.sprintf "fault kind %S: a multi-bit flip needs k >= 1, got %d"
           other k)
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
      Error
        (Printf.sprintf "unknown fault kind %S (single|Nbit|random|zero)"
           other))
