(** The VIR virtual machine.

    Executes a compiled module with bounds-checked memory, a dynamic
    instruction budget (so a fault-induced endless loop is observed as a
    hang-crash rather than hanging the host), and a pluggable extern
    mechanism through which the VULFI runtime (fault injection, error
    detectors) and benchmark I/O are wired in.

    Since the closure-threading rewrite the execution engine itself
    lives in {!Compile} (the threaded closures are built at
    [compile_module] time and need the state type); this module is the
    public driver: state construction, extern registration, accounting
    accessors, and the [run] entry point. *)

type state = Code.state

let default_budget = 200_000_000

let create ?(budget = default_budget) ?(max_depth = 512)
    (code : Code.cmodule) : state =
  {
    Code.code;
    mem = Memory.create ();
    budget0 = budget;
    fuel = budget;
    dyn_vector = 0;
    detections = 0;
    sites = 0;
    depth = 0;
    regs = [||];
    frames = Array.make (max_depth + 1) [||];
    extern_slots =
      Array.make (max code.Code.n_extern_slots 1) Code.Unbound;
    max_depth;
    check = Code.no_check;
    check_at = max_int;
    calls = Array.make (max_depth + 1) None;
  }

(* Re-arm an existing machine for another run: counters and budget come
   back to their just-created values while the expensive structures
   (memory image, frame pool, extern slots) are kept. Memory contents
   are NOT touched — pair with [Memory.restore] to roll those back. *)
let reset ?budget (st : state) =
  let b = match budget with Some b -> b | None -> st.Code.budget0 in
  st.Code.budget0 <- b;
  st.Code.fuel <- b;
  st.Code.dyn_vector <- 0;
  st.Code.detections <- 0;
  st.Code.sites <- 0;
  st.Code.depth <- 0;
  st.Code.regs <- [||]

(* Bind a name's extern slot. Call sites were pre-resolved to extern
   slots at compile time, so a name no call site references has no slot
   — binding it is a no-op (it could never have been invoked anyway). *)
let bind (st : state) name (binding : Code.extern_slot) =
  match Hashtbl.find_opt st.Code.code.Code.extern_index name with
  | Some slot -> st.Code.extern_slots.(slot) <- binding
  | None -> ()

(* Register (or replace) a host handler for calls to an undefined
   function. *)
let register_extern (st : state) name handler =
  bind st name (Code.Host handler)

type site = Code.site = {
  respect_masks : bool;
  armed : int;
  fire : int -> Vvalue.t -> Vvalue.t;
}

(* Register (or replace) a fault-site extern: calls run inside the
   interpreter (see [Compile.site_call]), and the vector site chains
   that call it run as one kernel each. *)
let register_site (st : state) name (s : site) = bind st name (Code.Site s)

let memory (st : state) = st.Code.mem

let dyn_count (st : state) = st.Code.budget0 - st.Code.fuel

(* Executed vector instructions (per the paper's definition: at least
   one vector operand or result); the dynamic counterpart of Fig 10. *)
let dyn_vector_count (st : state) = st.Code.dyn_vector

(* Detector firings: a machine counter rather than host state, so a
   checkpoint carries the prefix's firings into every resumed run. *)
let detections (st : state) = st.Code.detections

let record_detection (st : state) =
  st.Code.detections <- st.Code.detections + 1

(* Live fault sites: a machine counter for the same reason, so a resumed
   run counts on from its prefix's sites. Site externs bump it inside
   the interpreter; [record_site] is for host code. *)
let sites (st : state) = st.Code.sites

let record_site (st : state) = st.Code.sites <- st.Code.sites + 1

(* Resolve [name], check the arity, and copy [args] into the entry
   frame's pinned buffers ([Compile.frame_for st cf] at depth 0).
   Callers may reuse their arg values across runs (the campaign driver
   does): the lanes are copied, never aliased. A previous run may have
   unwound through a trap mid-call-stack, so the depth counter restarts
   with the fresh activation. *)
let enter (st : state) name (args : Vvalue.t list) : Code.cfunc =
  match Hashtbl.find_opt st.Code.code.Code.cfuncs name with
  | Some cf ->
    let nargs = List.length args in
    if nargs <> cf.Code.nparams then
      invalid_arg
        (Printf.sprintf
           "Machine: call to @%s with %d argument(s), expects %d" name nargs
           cf.Code.nparams);
    st.Code.depth <- 0;
    let regs = Compile.frame_for st cf in
    List.iteri (fun i v -> Vvalue.copy_into ~dst:regs.(i) v) args;
    cf
  | None -> Trap.raise_ (Trap.Unknown_function name)

(* ------------------------------------------------------------------ *)
(* Runs, checks, full-machine checkpoints and resume                   *)

type checkpoint = Code.checkpoint

type stack_view = Code.pos

type check = state -> stack_view -> int

(* Run [go] with [check] armed, due at the first extern call. The
   machine drops the check when the run ends, however it ends, so
   nothing the check holds (the laying replay's checkpoints) outlives
   the run. *)
let checked (st : state) (check : check option) go =
  match check with
  | None -> go ()
  | Some c ->
    st.Code.check <- c;
    st.Code.check_at <- 0;
    Fun.protect go ~finally:(fun () ->
        st.Code.check <- Code.no_check;
        st.Code.check_at <- max_int)

(* Run function [name] with [args]; returns its value (None for void).
   Raises {!Trap.Trap} on a crash, [Invalid_argument] on an arity
   mismatch (previously extra arguments were silently dropped and
   missing ones defaulted to i32 0). The result is a deep copy, never
   an alias of a frame buffer the next run would overwrite. *)
let run ?check (st : state) name (args : Vvalue.t list) : Vvalue.t option =
  let cf = enter st name args in
  checked st check (fun () ->
      Option.map Vvalue.copy
        (Compile.exec_cfunc st cf (Compile.frame_for st cf)))

(* Capture the machine at the position a [check] sees: before the
   pending extern call, which a resume re-executes. Only live registers
   are saved (see [Compile.capture]). *)
let checkpoint = Compile.capture

(* Exact machine-state equality against a golden checkpoint captured at
   the same position: counters, call-stack positions, live registers,
   and the whole memory image. [true] implies the continuation of this
   machine is bit-identical to the golden run's continuation from the
   checkpoint (see DESIGN.md, convergence soundness). *)
let state_equal = Compile.state_equal

(* Resume the machine from a checkpoint it captured earlier (the
   checkpoint's register frames alias this machine's frame pool, so
   cross-machine resume is meaningless). Memory, counters and live
   registers roll back; [budget] re-arms the epoch like [reset ~budget]
   would, so [dyn_count] afterwards reads prefix + suffix. [check] is
   armed as for [run]. The result is a deep copy, exactly as [run]
   returns one. *)
let resume ?(check : check option) ~budget (st : state) (ck : checkpoint) :
    Vvalue.t option =
  checked st check (fun () ->
      Option.map Vvalue.copy (Compile.exec_resumable st ~budget ck))
