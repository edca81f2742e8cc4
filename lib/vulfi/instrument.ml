(** The VULFI instrumentor (paper §II-D, Figs 4 and 5).

    For every selected fault target the pass splices calls to the
    runtime injection API into the IR:

    - a scalar Lvalue [%r] becomes
      [%c = call @__vulfi_inject_T(%r, mask, site_id)] with every other
      use of [%r] redirected to [%c];
    - a vector Lvalue is processed lane by lane exactly as in Fig 4:
      extract the scalar element, pass it (with its execution-mask lane,
      if the producing instruction is a masked intrinsic) to the runtime
      API, insert the result back, and finally redirect all users of the
      original register to the fully instrumented clone;
    - a store's value operand is instrumented immediately before the
      store; a masked store's value operand receives the store's
      execution-mask lanes (Fig 5 lines L5-L8).

    Each (target, lane) pair receives a unique static site id, passed to
    the runtime as a constant third argument.

    The output is that of splicing the chains in one at a time — store
    targets first, then Lvalue targets, each in target order — and of
    redirecting each Lvalue target's uses as soon as its chain is
    spliced in; a chain therefore reads a register as it stood when the
    chain was built. Rather than rewriting a block once per chain and
    sweeping the function once per target, the chains are recorded as
    they are built, each touched block is rebuilt once ([splice]) and
    the redirects are applied in one pass per function
    ([redirect_uses]); both keep exactly that order rule. *)

open Vir

type site_info = {
  si_id : int;
  si_target : Analysis.Sites.target;
  si_lane : int;
}

type t = {
  instrumented : Vmodule.t;     (** same module value, rewritten in place *)
  site_table : site_info array; (** indexed by static site id *)
}

let true_imm = Instr.Imm (Const.i1 true)

let site_imm id = Instr.Imm (Const.i32 id)

(* Declare the runtime API in the module. *)
let declare_runtime (m : Vmodule.t) =
  List.iter
    (fun (name, s) ->
      Vmodule.declare_extern m ~name
        ~arg_tys:[ Vtype.Scalar s; Vtype.bool_ty; Vtype.i32 ]
        ~ret:(Vtype.Scalar s))
    Fault_model.all_inject_fns

(* The execution mask operand governing a target's lanes, if any. *)
let mask_operand_of (t : Analysis.Sites.target) : Instr.operand option =
  match t.Analysis.Sites.t_instr.Instr.op with
  | Instr.Call (name, args) -> (
    match Intrinsics.mask_operand name with
    | Some ix -> Some (List.nth args ix)
    | None -> None)
  | _ -> None

(* Build the per-lane instrumentation chain for a value [src] of type
   [ty]. Returns (new instructions, final operand). Fresh registers come
   from [f]. [mask] is the vector execution mask, if any. *)
let build_chain (f : Func.t) ~next_site ~(sites : site_info list ref)
    ~(target : Analysis.Sites.target) ~(mask : Instr.operand option)
    (src : Instr.operand) (ty : Vtype.t) :
    Instr.t list * Instr.operand =
  let mk id name ty op = { Instr.id; name; ty; op } in
  match ty with
  | Vtype.Void -> invalid_arg "Instrument.build_chain: void"
  | Vtype.Scalar s ->
    let site = next_site () in
    sites := { si_id = site; si_target = target; si_lane = 0 } :: !sites;
    let id = Func.fresh_reg f in
    let call =
      mk id
        (Printf.sprintf "inj%d" id)
        ty
        (Instr.Call
           (Fault_model.inject_fn_name s, [ src; true_imm; site_imm site ]))
    in
    ([ call ], Instr.Reg (id, ty))
  | Vtype.Vector (n, s) ->
    let instrs = ref [] in
    let cur = ref src in
    for lane = 0 to n - 1 do
      let lane_imm = Instr.Imm (Const.i32 lane) in
      let site = next_site () in
      sites := { si_id = site; si_target = target; si_lane = lane } :: !sites;
      (* L1/L5: extract the scalar element *)
      let ext_id = Func.fresh_reg f in
      let ext =
        mk ext_id
          (Printf.sprintf "ext%d" ext_id)
          (Vtype.Scalar s)
          (Instr.Extractelement (!cur, lane_imm))
      in
      (* L2/L6: extract the execution-mask lane, if masked *)
      let mask_op, mask_instr =
        match mask with
        | None -> (true_imm, [])
        | Some mvec ->
          let mid = Func.fresh_reg f in
          let mi =
            mk mid
              (Printf.sprintf "extmask%d" mid)
              Vtype.bool_ty
              (Instr.Extractelement (mvec, lane_imm))
          in
          (Instr.Reg (mid, Vtype.bool_ty), [ mi ])
      in
      (* L3/L7: the runtime injection call *)
      let call_id = Func.fresh_reg f in
      let call =
        mk call_id
          (Printf.sprintf "inj%d" call_id)
          (Vtype.Scalar s)
          (Instr.Call
             ( Fault_model.inject_fn_name s,
               [
                 Instr.Reg (ext_id, Vtype.Scalar s); mask_op; site_imm site;
               ] ))
      in
      (* L4/L8: insert the (possibly corrupted) element back *)
      let ins_id = Func.fresh_reg f in
      let ins =
        mk ins_id
          (Printf.sprintf "ins%d" ins_id)
          ty
          (Instr.Insertelement
             (!cur, Instr.Reg (call_id, Vtype.Scalar s), lane_imm))
      in
      instrs := ins :: call :: List.rev_append mask_instr (ext :: !instrs);
      cur := Instr.Reg (ins_id, ty)
    done;
    (List.rev !instrs, !cur)

(* Apply the recorded redirects to [f] in one pass. Register ids are
   handed out in creation order, so an instruction whose id is below
   the first register of [%r]'s chain was built before that chain:
   original code (void instructions have id -1), store chains and
   earlier Lvalue chains. Those read the chain's final operand instead
   of [%r]; [%r]'s own chain and every later chain keep reading [%r].
   This is exactly the result of redirecting each target's uses,
   everywhere but in its own chain, right after splicing that chain. *)
let redirect_uses (f : Func.t) finals =
  let redirect id = function
    | Instr.Reg (r, _) as o -> (
      match Hashtbl.find_opt finals r with
      | Some (final, born) when id < born -> final
      | Some _ | None -> o)
    | Instr.Imm _ as o -> o
  in
  List.iter
    (fun b ->
      Block.map_instrs b (fun (i : Instr.t) ->
          let id = i.Instr.id in
          if List.exists (fun o -> redirect id o != o) (Instr.operands i)
          then Instr.map_operands (redirect id) i
          else i))
    f.Func.blocks

(* Instructions keyed by physical identity: two equal stores are
   distinct targets. Equal instructions hash alike, so only they share
   a bucket. *)
module Phys = Hashtbl.Make (struct
  type t = Instr.t

  let equal = ( == )

  let hash (i : Instr.t) = Hashtbl.hash i.Instr.op
end)

(* Where the chains built for one function go, until [splice] places
   them. Each table entry is removed when its chain is placed. *)
type pending = {
  func : Func.t;
  touched : (string, unit) Hashtbl.t;  (** labels of target blocks *)
  before : (Instr.t list * Instr.t) Phys.t;
      (** store target -> its chain and the rewritten store *)
  after : (Instr.reg, Instr.t list) Hashtbl.t;
      (** non-phi Lvalue register -> its chain *)
  after_phis : (string, Instr.t list list) Hashtbl.t;
      (** block label -> its phi targets' chains, newest first *)
  finals : (Instr.reg, Instr.operand * Instr.reg) Hashtbl.t;
      (** Lvalue register -> the redirect of its uses ([redirect_uses]) *)
}

let pending_of (f : Func.t) =
  {
    func = f;
    touched = Hashtbl.create 16;
    before = Phys.create 16;
    after = Hashtbl.create 64;
    after_phis = Hashtbl.create 8;
    finals = Hashtbl.create 64;
  }

(* Build the chain of a (masked) store's value operand, to go just
   before the store, which is rewritten to store the chain's result. *)
let record_store p ~next_site ~sites (target : Analysis.Sites.target) =
  let i = target.Analysis.Sites.t_instr in
  let chain, store =
    match (target.Analysis.Sites.t_kind, i.Instr.op) with
    | Analysis.Sites.Store_value, Instr.Store (v, ptr) ->
      let chain, final =
        build_chain p.func ~next_site ~sites ~target ~mask:None v
          (Instr.operand_ty v)
      in
      (chain, { i with Instr.op = Instr.Store (final, ptr) })
    | Analysis.Sites.Maskstore_value, Instr.Call (name, args) ->
      let vix = Option.get (Intrinsics.value_operand name) in
      let v = List.nth args vix in
      let mask = Option.map (List.nth args) (Intrinsics.mask_operand name) in
      let chain, final =
        build_chain p.func ~next_site ~sites ~target ~mask v
          (Instr.operand_ty v)
      in
      let args' = List.mapi (fun k a -> if k = vix then final else a) args in
      (chain, { i with Instr.op = Instr.Call (name, args') })
    | _ -> assert false
  in
  assert (not (Phys.mem p.before i));
  Phys.replace p.before i (chain, store);
  Hashtbl.replace p.touched target.Analysis.Sites.t_block ()

(* Build an Lvalue target's chain, to go after its defining instruction
   (after the phi cluster for a phi), and record the redirect of its
   register's uses: to the chain's final operand, in instructions older
   than the chain's first register. *)
let record_lvalue p ~next_site ~sites (target : Analysis.Sites.target) =
  let i = target.Analysis.Sites.t_instr in
  let label = target.Analysis.Sites.t_block in
  let reg = i.Instr.id in
  let ty = i.Instr.ty in
  let born = p.func.Func.next_reg in
  let chain, final =
    build_chain p.func ~next_site ~sites ~target
      ~mask:(mask_operand_of target) (Instr.Reg (reg, ty)) ty
  in
  if Instr.is_phi i then
    Hashtbl.replace p.after_phis label
      (chain
      :: Option.value ~default:[] (Hashtbl.find_opt p.after_phis label))
  else Hashtbl.replace p.after reg chain;
  Hashtbl.replace p.touched label ();
  (* the order rule assumes each register is one target *)
  assert (not (Hashtbl.mem p.finals reg));
  Hashtbl.replace p.finals reg (final, born)

(* Rebuild block [b] with its chains in place, in one pass: the phis;
   the phi targets' chains in reverse target order (each was spliced
   right after the phi cluster, ahead of the ones before it); then each
   instruction — a store target as its chain and the rewritten store —
   followed by its Lvalue chain. An Lvalue chain thus sits right after
   its definition, ahead of the chain of a store that follows. *)
let splice p (b : Block.t) =
  let out = ref [] in
  let emit i = out := i :: !out in
  let place (i : Instr.t) =
    let store_chain =
      match i.Instr.op with
      | Instr.Store _ | Instr.Call _ -> Phys.find_opt p.before i
      | _ -> None
    in
    (match store_chain with
    | Some (chain, store) ->
      Phys.remove p.before i;
      List.iter emit chain;
      emit store
    | None -> emit i);
    if Instr.defines i then
      match Hashtbl.find_opt p.after i.Instr.id with
      | Some chain ->
        Hashtbl.remove p.after i.Instr.id;
        List.iter emit chain
      | None -> ()
  in
  (match Hashtbl.find_opt p.after_phis b.Block.label with
  | None -> List.iter place b.Block.instrs
  | Some chains ->
    Hashtbl.remove p.after_phis b.Block.label;
    let phis, rest = List.partition Instr.is_phi b.Block.instrs in
    List.iter emit phis;
    List.iter (List.iter emit) chains;
    List.iter place rest);
  b.Block.instrs <- List.rev !out

(* Place every chain recorded for [p]'s function and redirect the uses
   of its Lvalue targets. *)
let finish p =
  let f = p.func in
  List.iter
    (fun b -> if Hashtbl.mem p.touched b.Block.label then splice p b)
    f.Func.blocks;
  if
    Phys.length p.before + Hashtbl.length p.after
    + Hashtbl.length p.after_phis
    > 0
  then
    invalid_arg
      ("Instrument.run: a target is not in its block, in @" ^ f.Func.fname);
  if Hashtbl.length p.finals > 0 then redirect_uses f p.finals

(* Instrument [m] in place for the given fault targets. The target list
   normally comes from {!Analysis.Sites.select} for one site category.
   Returns the static site table mapping site ids back to targets. *)
let run (m : Vmodule.t) (targets : Analysis.Sites.target list) : t =
  declare_runtime m;
  let counter = ref 0 in
  let next_site () =
    let s = !counter in
    counter := s + 1;
    s
  in
  let sites = ref [] in
  let pendings = Hashtbl.create 8 in
  let pending (target : Analysis.Sites.target) =
    let name = target.Analysis.Sites.t_func in
    match Hashtbl.find_opt pendings name with
    | Some p -> p
    | None ->
      let p = pending_of (Vmodule.find_func_exn m name) in
      Hashtbl.replace pendings name p;
      p
  in
  (* Store chains are built first, so they count as original
     instructions for the redirects. *)
  let stores, lvalues =
    List.partition
      (fun (t : Analysis.Sites.target) ->
        t.Analysis.Sites.t_kind <> Analysis.Sites.Lvalue)
      targets
  in
  List.iter (fun t -> record_store (pending t) ~next_site ~sites t) stores;
  List.iter (fun t -> record_lvalue (pending t) ~next_site ~sites t) lvalues;
  List.iter
    (fun (f : Func.t) ->
      match Hashtbl.find_opt pendings f.Func.fname with
      | Some p when p.func == f -> finish p
      | Some _ | None -> ())
    m.Vmodule.funcs;
  Verify.check_module m;
  let table = Array.of_list (List.rev !sites) in
  Array.iteri (fun k si -> assert (si.si_id = k)) table;
  { instrumented = m; site_table = table }

(* Count of static scalar fault sites created. *)
let static_site_count t = Array.length t.site_table
