(* Random mini-ISPC kernels as source text: a [foreach] over two float
   arrays with random expressions, optional (nested) varying ifs, an
   optional uniform inner loop with break/continue, and one or two
   stores. Shared by the differential fuzz tests and the site
   classification property. *)

open QCheck

(* Expressions printed as source text. Magnitudes are kept small enough
   that f32 arithmetic cannot overflow to inf/nan at the given depth. *)
let const_gen =
  Gen.map
    (fun k -> Printf.sprintf "%.1f" (float_of_int k /. 2.0))
    (Gen.int_range (-8) 8)

let rec expr_gen ~vars depth =
  let open Gen in
  if depth = 0 then
    oneof
      [
        const_gen;
        oneofl [ "a[i]"; "b[i]"; "(float) i" ];
        (match vars with
        | [] -> const_gen
        | vs -> oneofl vs);
      ]
  else
    let sub = expr_gen ~vars (depth - 1) in
    oneof
      [
        map2 (fun x y -> Printf.sprintf "(%s + %s)" x y) sub sub;
        map2 (fun x y -> Printf.sprintf "(%s - %s)" x y) sub sub;
        map2 (fun x y -> Printf.sprintf "(%s * %s)" x y) sub sub;
        map2 (fun x y -> Printf.sprintf "min(%s, %s)" x y) sub sub;
        map2 (fun x y -> Printf.sprintf "max(%s, %s)" x y) sub sub;
        map (fun x -> Printf.sprintf "abs(%s)" x) sub;
        map (fun x -> Printf.sprintf "sqrt(abs(%s))" x) sub;
        sub;
      ]

(* Conditions always reference a (varying) local so that nested ifs stay
   varying — uniform control flow under a varying mask is rejected by
   the typechecker, as in ISPC's restrictions. *)
let cond_gen ~vars depth =
  let open Gen in
  let v = oneofl vars in
  let e = expr_gen ~vars depth in
  let base =
    oneof
      [
        map2 (fun x y -> Printf.sprintf "%s < %s" x y) v e;
        map2 (fun x y -> Printf.sprintf "%s > %s" x y) v e;
        map2 (fun x y -> Printf.sprintf "%s <= %s" x y) v e;
      ]
  in
  oneof
    [
      base;
      map2 (fun c1 c2 -> Printf.sprintf "(%s) && (%s)" c1 c2) base base;
      map2 (fun c1 c2 -> Printf.sprintf "(%s) || (%s)" c1 c2) base base;
    ]

(* Optional inner uniform for-loop, exercising the step-block lowering,
   loop-carried phis and uniform break/continue. *)
let inner_loop_gen =
  let open Gen in
  let* trip = int_range 1 6 in
  let* acc_e = expr_gen ~vars:[ "x"; "y" ] 1 in
  let* kind = int_range 0 2 in
  let body =
    match kind with
    | 0 -> Printf.sprintf "x = x + %s * 0.1;" acc_e
    | 1 ->
      Printf.sprintf
        "if (j > %d) { break; }\n x = x + %s * 0.1;" (trip / 2) acc_e
    | _ ->
      Printf.sprintf
        "if (j == %d) { continue; }\n x = x + %s * 0.1;" (trip / 2) acc_e
  in
  return
    (Printf.sprintf
       "for (uniform int j = 0; j < %d; j += 1) {\n %s\n}\n" trip body)

let kernel_gen =
  let open Gen in
  let* d1 = expr_gen ~vars:[] 2 in
  let* d2 = expr_gen ~vars:[ "x" ] 2 in
  let* with_if = bool in
  let* with_else = bool in
  let* cond = cond_gen ~vars:[ "x"; "y" ] 1 in
  let* then_e = expr_gen ~vars:[ "x"; "y" ] 2 in
  let* else_e = expr_gen ~vars:[ "x"; "y" ] 2 in
  let* nested = bool in
  let* nested_cond = cond_gen ~vars:[ "x"; "y" ] 0 in
  let* nested_e = expr_gen ~vars:[ "x"; "y" ] 1 in
  let* with_loop = bool in
  let* inner = inner_loop_gen in
  let* store_a = expr_gen ~vars:[ "x"; "y" ] 2 in
  let* with_store_b = bool in
  let* store_b = expr_gen ~vars:[ "x"; "y" ] 1 in
  let body = Buffer.create 256 in
  Buffer.add_string body (Printf.sprintf "float x = %s;\n" d1);
  Buffer.add_string body (Printf.sprintf "float y = %s;\n" d2);
  if with_if then begin
    Buffer.add_string body (Printf.sprintf "if (%s) {\n x = %s;\n" cond then_e);
    if nested then
      Buffer.add_string body
        (Printf.sprintf " if (%s) { y = %s; }\n" nested_cond nested_e);
    Buffer.add_string body "}";
    if with_else then
      Buffer.add_string body (Printf.sprintf " else {\n y = %s;\n}" else_e);
    Buffer.add_string body "\n"
  end;
  if with_loop then Buffer.add_string body inner;
  Buffer.add_string body (Printf.sprintf "a[i] = %s;\n" store_a);
  if with_store_b then
    Buffer.add_string body (Printf.sprintf "b[i] = %s;\n" store_b);
  return
    (Printf.sprintf
       "export void kernel(uniform float a[], uniform float b[], uniform \
        int n) {\nforeach (i = 0 ... n) {\n%s}\n}"
       (Buffer.contents body))
