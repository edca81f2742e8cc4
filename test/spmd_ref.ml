(* Reference SPMD evaluator over the mini-ISPC AST.

   Mirrors the language semantics directly — chunked foreach execution
   (Vl lanes per step plus a masked tail), select-blended assignment
   under divergence — while reusing the interpreter's lane arithmetic
   (Interp.Bits, Machine eval functions) so scalar semantics cannot drift.
   What it does NOT share with the production path is the lowering:
   no VIR, no codegen, no passes. Differential fuzzing compares this
   evaluator against compiled execution on both targets. *)

open Minispc

type rvalue =
  | Ui of int64  (* uniform int, I32-normalised *)
  | Uf of float  (* uniform float, f32-rounded *)
  | Ub of bool
  | Vi of int64 array
  | Vf of float array
  | Vb of bool array

type arr = Farr of float array | Iarr of int array

type env = {
  vl : int;
  vars : (string, rvalue) Hashtbl.t;
  arrays : (string, arr) Hashtbl.t;
}

exception Unsupported of string

exception Break_exc

exception Continue_exc

let r32 = Interp.Bits.round_float Vir.Vtype.F32

let t32 = Interp.Bits.truncate Vir.Vtype.I32

let splat env v =
  match v with
  | Ui x -> Vi (Array.make env.vl x)
  | Uf x -> Vf (Array.make env.vl x)
  | Ub x -> Vb (Array.make env.vl x)
  | Vi _ | Vf _ | Vb _ -> v

let ibin k a b = Interp.Eval.ibinop_fn k Vir.Vtype.I32 a b

let fbin k a b = Interp.Eval.fbinop_fn k Vir.Vtype.F32 a b

let map2v f a b = Array.init (Array.length a) (fun i -> f a.(i) b.(i))

let rec eval env (mask : bool array option) (e : Ast.expr) : rvalue =
  match e.Ast.e with
  | Ast.Int_lit n -> Ui (t32 (Int64.of_int n))
  | Ast.Float_lit x -> Uf (r32 x)
  | Ast.Bool_lit b -> Ub b
  | Ast.Var x -> (
    match Hashtbl.find_opt env.vars x with
    | Some v -> v
    | None -> raise (Unsupported ("unbound " ^ x)))
  | Ast.Index (a, ix) -> (
    let arr =
      match Hashtbl.find_opt env.arrays a with
      | Some arr -> arr
      | None -> raise (Unsupported ("unbound array " ^ a))
    in
    match eval env mask ix with
    | Ui i -> (
      let i = Int64.to_int i in
      match arr with
      | Farr f -> Uf f.(i)
      | Iarr f -> Ui (Int64.of_int f.(i)))
    | Vi ixs -> (
      (* lane-wise load; masked-off lanes read as 0 like maskload *)
      let live l =
        match mask with None -> true | Some m -> m.(l)
      in
      match arr with
      | Farr f ->
        Vf
          (Array.init env.vl (fun l ->
               if live l then f.(Int64.to_int ixs.(l)) else 0.0))
      | Iarr f ->
        Vi
          (Array.init env.vl (fun l ->
               if live l then Int64.of_int f.(Int64.to_int ixs.(l)) else 0L)))
    | _ -> raise (Unsupported "index type"))
  | Ast.Unop (Ast.Neg, a) -> (
    match eval env mask a with
    | Ui x -> Ui (ibin Vir.Instr.Sub 0L x)
    | Uf x -> Uf (fbin Vir.Instr.Fsub (-0.0) x)
    | Vi x -> Vi (Array.map (fun v -> ibin Vir.Instr.Sub 0L v) x)
    | Vf x -> Vf (Array.map (fun v -> fbin Vir.Instr.Fsub (-0.0) v) x)
    | _ -> raise (Unsupported "neg"))
  | Ast.Unop (Ast.Not, a) -> (
    match eval env mask a with
    | Ub x -> Ub (not x)
    | Vb x -> Vb (Array.map not x)
    | _ -> raise (Unsupported "not"))
  | Ast.Binop (op, a, b) -> eval_binop env mask op a b
  | Ast.Cast (Ast.Tfloat, a) -> (
    match eval env mask a with
    | Ui x -> Uf (r32 (Int64.to_float x))
    | Vi x -> Vf (Array.map (fun v -> r32 (Int64.to_float v)) x)
    | (Uf _ | Vf _) as v -> v
    | _ -> raise (Unsupported "cast"))
  | Ast.Cast (Ast.Tint, a) -> (
    let f2i =
      match
        Interp.Eval.cast_lane_fn Vir.Instr.Fptosi ~src:Vir.Vtype.F32
          ~dst:Vir.Vtype.I32
      with
      | Interp.Eval.Cfi f -> f
      | _ -> assert false
    in
    match eval env mask a with
    | Uf x -> Ui (f2i x)
    | Vf x -> Vi (Array.map f2i x)
    | (Ui _ | Vi _) as v -> v
    | _ -> raise (Unsupported "cast"))
  | Ast.Cast (Ast.Tbool, _) -> raise (Unsupported "bool cast")
  | Ast.Select (c, a, b) -> (
    let vc = eval env mask c and va = eval env mask a and vb = eval env mask b in
    match vc with
    | Ub true -> va
    | Ub false -> vb
    | Vb cs -> (
      match (splat env va, splat env vb) with
      | Vi xa, Vi xb -> Vi (Array.init env.vl (fun l -> if cs.(l) then xa.(l) else xb.(l)))
      | Vf xa, Vf xb -> Vf (Array.init env.vl (fun l -> if cs.(l) then xa.(l) else xb.(l)))
      | Vb xa, Vb xb -> Vb (Array.init env.vl (fun l -> if cs.(l) then xa.(l) else xb.(l)))
      | _ -> raise (Unsupported "select arms"))
    | _ -> raise (Unsupported "select cond"))
  | Ast.Call (name, args) -> eval_call env mask name args

and eval_binop env mask op a b =
  let va = eval env mask a and vb = eval env mask b in
  let vectorish =
    match (va, vb) with
    | (Vi _ | Vf _ | Vb _), _ | _, (Vi _ | Vf _ | Vb _) -> true
    | _ -> false
  in
  let va = if vectorish then splat env va else va in
  let vb = if vectorish then splat env vb else vb in
  let iop k =
    match (va, vb) with
    | Ui x, Ui y -> Ui (ibin k x y)
    | Vi x, Vi y -> Vi (map2v (ibin k) x y)
    | _ -> raise (Unsupported "int binop")
  in
  let fop k =
    match (va, vb) with
    | Uf x, Uf y -> Uf (fbin k x y)
    | Vf x, Vf y -> Vf (map2v (fbin k) x y)
    | _ -> raise (Unsupported "float binop")
  in
  let cmp fi ff =
    match (va, vb) with
    | Ui x, Ui y -> Ub (fi (Int64.compare x y) 0)
    | Uf x, Uf y -> Ub (ff x y)
    | Vi x, Vi y -> Vb (map2v (fun p q -> fi (Int64.compare p q) 0) x y)
    | Vf x, Vf y -> Vb (map2v ff x y)
    | _ -> raise (Unsupported "cmp")
  in
  match op with
  | Ast.Add -> ( match va with Uf _ | Vf _ -> fop Vir.Instr.Fadd | _ -> iop Vir.Instr.Add)
  | Ast.Sub -> ( match va with Uf _ | Vf _ -> fop Vir.Instr.Fsub | _ -> iop Vir.Instr.Sub)
  | Ast.Mul -> ( match va with Uf _ | Vf _ -> fop Vir.Instr.Fmul | _ -> iop Vir.Instr.Mul)
  | Ast.Div -> (
    match va with
    | Uf _ | Vf _ -> fop Vir.Instr.Fdiv
    | _ ->
      (* masked-lane divisor guard, as codegen emits *)
      (match (va, vb, mask) with
      | Vi x, Vi y, Some m ->
        Vi
          (Array.init env.vl (fun l ->
               let d = if m.(l) then y.(l) else 1L in
               ibin Vir.Instr.Sdiv x.(l) d))
      | _ -> iop Vir.Instr.Sdiv))
  | Ast.Mod -> (
    match (va, vb, mask) with
    | Vi x, Vi y, Some m ->
      Vi
        (Array.init env.vl (fun l ->
             let d = if m.(l) then y.(l) else 1L in
             ibin Vir.Instr.Srem x.(l) d))
    | _ -> iop Vir.Instr.Srem)
  | Ast.Band -> iop Vir.Instr.And
  | Ast.Bor -> iop Vir.Instr.Or
  | Ast.Bxor -> iop Vir.Instr.Xor
  | Ast.Shl -> iop Vir.Instr.Shl
  | Ast.Shr -> iop Vir.Instr.Ashr
  | Ast.Lt -> cmp (fun c z -> c < z) (fun x y -> x < y)
  | Ast.Le -> cmp (fun c z -> c <= z) (fun x y -> x <= y)
  | Ast.Gt -> cmp (fun c z -> c > z) (fun x y -> x > y)
  | Ast.Ge -> cmp (fun c z -> c >= z) (fun x y -> x >= y)
  | Ast.Eq -> cmp (fun c z -> c = z) (fun x y -> x = y)
  | Ast.Ne -> cmp (fun c z -> c <> z) (fun x y -> x <> y)
  | Ast.And_and -> (
    match (va, vb) with
    | Ub x, Ub y -> Ub (x && y)
    | Vb x, Vb y -> Vb (map2v ( && ) x y)
    | _ -> raise (Unsupported "&&"))
  | Ast.Or_or -> (
    match (va, vb) with
    | Ub x, Ub y -> Ub (x || y)
    | Vb x, Vb y -> Vb (map2v ( || ) x y)
    | _ -> raise (Unsupported "||"))

and eval_call env mask name args =
  let unary f =
    match args with
    | [ a ] -> (
      match eval env mask a with
      | Uf x -> Uf (r32 (f x))
      | Vf x -> Vf (Array.map (fun v -> r32 (f v)) x)
      | _ -> raise (Unsupported name))
    | _ -> raise (Unsupported name)
  in
  let binary f =
    match args with
    | [ a; b ] -> (
      let va = eval env mask a and vb = eval env mask b in
      let vectorish =
        match (va, vb) with Vf _, _ | _, Vf _ -> true | _ -> false
      in
      let va = if vectorish then splat env va else va in
      let vb = if vectorish then splat env vb else vb in
      match (va, vb) with
      | Uf x, Uf y -> Uf (r32 (f x y))
      | Vf x, Vf y -> Vf (map2v (fun p q -> r32 (f p q)) x y)
      | _ -> raise (Unsupported name))
    | _ -> raise (Unsupported name)
  in
  match name with
  | "sqrt" -> unary sqrt
  | "exp" -> unary exp
  | "log" -> unary log
  | "sin" -> unary sin
  | "cos" -> unary cos
  | "abs" -> unary abs_float
  | "floor" -> unary floor
  | "rsqrt" ->
    (match args with
    | [ a ] -> (
      match eval env mask a with
      | Uf x -> Uf (fbin Vir.Instr.Fdiv 1.0 (r32 (sqrt x)))
      | Vf x -> Vf (Array.map (fun v -> fbin Vir.Instr.Fdiv 1.0 (r32 (sqrt v))) x)
      | _ -> raise (Unsupported name))
    | _ -> raise (Unsupported name))
  | "pow" -> binary ( ** )
  | "min" -> binary min
  | "max" -> binary max
  | "reduce_add" -> (
    match args with
    | [ a ] -> (
      match eval env mask a with
      | Vf x -> Uf (Array.fold_left (fun acc v -> r32 (acc +. v)) 0.0 x)
      | Vi x -> Ui (Array.fold_left (fun acc v -> t32 (Int64.add acc v)) 0L x)
      | Uf x -> Uf x
      | Ui x -> Ui x
      | _ -> raise (Unsupported name))
    | _ -> raise (Unsupported name))
  | "reduce_min" | "reduce_max" -> (
    let pick = if name = "reduce_min" then min else max in
    match args with
    | [ a ] -> (
      match eval env mask a with
      | Vf x -> Uf (Array.fold_left pick x.(0) x)
      | Vi x -> Ui (Array.fold_left pick x.(0) x)
      | v -> v)
    | _ -> raise (Unsupported name))
  | other -> raise (Unsupported ("call " ^ other))

(* Blend an assignment under a divergence mask, as codegen does. *)
let blend env mask old_v new_v =
  match mask with
  | None -> new_v
  | Some m -> (
    match (splat env old_v, splat env new_v) with
    | Vi o, Vi n -> Vi (Array.init env.vl (fun l -> if m.(l) then n.(l) else o.(l)))
    | Vf o, Vf n -> Vf (Array.init env.vl (fun l -> if m.(l) then n.(l) else o.(l)))
    | Vb o, Vb n -> Vb (Array.init env.vl (fun l -> if m.(l) then n.(l) else o.(l)))
    | _ -> raise (Unsupported "blend"))

let rec exec env (mask : bool array option) (st : Ast.stmt) : unit =
  match st.Ast.s with
  | Ast.Decl (ty, x, e) ->
    let v = eval env mask e in
    let v =
      if ty.Ast.q = Ast.Varying then splat env v else v
    in
    Hashtbl.replace env.vars x v
  | Ast.Assign (x, e) ->
    let old_v = Hashtbl.find env.vars x in
    let v = eval env mask e in
    let v =
      match old_v with
      | Vi _ | Vf _ | Vb _ -> blend env mask old_v (splat env v)
      | _ -> v
    in
    Hashtbl.replace env.vars x v
  | Ast.Store (a, ix, e) -> (
    let arr = Hashtbl.find env.arrays a in
    let v = eval env mask e in
    match eval env mask ix with
    | Ui i -> (
      let i = Int64.to_int i in
      match (arr, v) with
      | Farr f, Uf x -> f.(i) <- x
      | Iarr f, Ui x -> f.(i) <- Int64.to_int x
      | _ -> raise (Unsupported "store"))
    | Vi ixs ->
      let live l = match mask with None -> true | Some m -> m.(l) in
      (match (arr, splat env v) with
      | Farr f, Vf xs ->
        Array.iteri
          (fun l i -> if live l then f.(Int64.to_int i) <- xs.(l))
          ixs
      | Iarr f, Vi xs ->
        Array.iteri
          (fun l i -> if live l then f.(Int64.to_int i) <- Int64.to_int xs.(l))
          ixs
      | _ -> raise (Unsupported "store"))
    | _ -> raise (Unsupported "store index"))
  | Ast.If (c, then_b, else_b) -> (
    match eval env mask c with
    | Ub true -> List.iter (exec env mask) then_b
    | Ub false -> List.iter (exec env mask) else_b
    | Vb cond ->
      let parent = match mask with None -> Array.make env.vl true | Some m -> m in
      let then_mask = Array.init env.vl (fun l -> parent.(l) && cond.(l)) in
      let else_mask = Array.init env.vl (fun l -> parent.(l) && not cond.(l)) in
      if Array.exists Fun.id then_mask then
        List.iter (exec env (Some then_mask)) then_b;
      if Array.exists Fun.id else_mask then
        List.iter (exec env (Some else_mask)) else_b
    | _ -> raise (Unsupported "if cond"))
  | Ast.While (c, body) -> (
    let rec go () =
      match eval env mask c with
      | Ub true ->
        (try List.iter (exec env mask) body with Continue_exc -> ());
        go ()
      | Ub false -> ()
      | _ -> raise (Unsupported "while cond")
    in
    try go () with Break_exc -> ())
  | Ast.For (init, c, step, body) -> (
    exec env mask init;
    let rec go () =
      match eval env mask c with
      | Ub true ->
        (try List.iter (exec env mask) body with Continue_exc -> ());
        exec env mask step;
        go ()
      | Ub false -> ()
      | _ -> raise (Unsupported "for cond")
    in
    try go () with Break_exc -> ())
  | Ast.Foreach (dim, start, stop, body) ->
    (* chunked execution matching the lowering: aligned full chunks,
       then one masked tail chunk *)
    let s =
      match eval env mask start with
      | Ui x -> Int64.to_int x
      | _ -> raise (Unsupported "foreach start")
    in
    let e =
      match eval env mask stop with
      | Ui x -> Int64.to_int x
      | _ -> raise (Unsupported "foreach stop")
    in
    let n = e - s in
    let vl = env.vl in
    let aligned = n - (((n mod vl) + vl) mod vl) in
    let chunk base m =
      Hashtbl.replace env.vars dim
        (Vi (Array.init vl (fun l -> t32 (Int64.of_int (base + l)))));
      List.iter (exec env m) body
    in
    let c = ref 0 in
    while !c < aligned do
      chunk (s + !c) None;
      c := !c + vl
    done;
    if n > aligned then begin
      let m = Array.init vl (fun l -> s + aligned + l < e) in
      chunk (s + aligned) (Some m)
    end;
    Hashtbl.remove env.vars dim
  | Ast.Return _ -> ()
  | Ast.Expr_stmt e -> ignore (eval env mask e)
  | Ast.Assert e -> ignore (eval env mask e)
  | Ast.Break -> raise Break_exc
  | Ast.Continue -> raise Continue_exc

(* Run [fn] of a parsed program with the given arrays and scalars. *)
let run_func ~vl (prog : Ast.program) ~fn
    ~(arrays : (string * arr) list) ~(scalars : (string * rvalue) list) :
    unit =
  let f = List.find (fun (f : Ast.func) -> f.Ast.f_name = fn) prog in
  let env = { vl; vars = Hashtbl.create 16; arrays = Hashtbl.create 4 } in
  List.iter (fun (n, a) -> Hashtbl.replace env.arrays n a) arrays;
  List.iter (fun (n, v) -> Hashtbl.replace env.vars n v) scalars;
  List.iter (exec env None) f.Ast.f_body
