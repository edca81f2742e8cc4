(** Front-to-back compilation driver: source text -> verified VIR. *)

type error = {
  stage : [ `Lex | `Parse | `Type | `Codegen | `Verify ];
  message : string;
  pos : Ast.pos;
}

let error_to_string e =
  let stage =
    match e.stage with
    | `Lex -> "lexical error"
    | `Parse -> "syntax error"
    | `Type -> "type error"
    | `Codegen -> "codegen error"
    | `Verify -> "verifier error"
  in
  if e.pos = Ast.no_pos then Printf.sprintf "%s: %s" stage e.message
  else
    Printf.sprintf "%d:%d: %s: %s" e.pos.Ast.line e.pos.Ast.col stage
      e.message

exception Error of error

let fail stage message pos = raise (Error { stage; message; pos })

(* Parse and typecheck only. *)
let frontend (src : string) : Ast.program =
  let prog =
    try Parser.parse_program src with
    | Lexer.Lex_error (m, p) -> fail `Lex m p
    | Parser.Parse_error (m, p) -> fail `Parse m p
  in
  (try Typecheck.check_program prog
   with Typecheck.Type_error (m, p) -> fail `Type m p);
  prog

(* Compile [src] for [target]; the resulting module is verified. *)
let compile ?(module_name = "minispc") (target : Vir.Target.t) (src : string)
    : Vir.Vmodule.t =
  let prog = frontend src in
  let m =
    try Codegen.gen_program ~module_name target prog
    with Codegen.Codegen_error (msg, p) -> fail `Codegen msg p
  in
  (* The paper's toolchain compiles at -O3: dead definitions never reach
     the fault-site census, so eliminate them here too. *)
  ignore (Vir.Dce.run_module m);
  (match Vir.Verify.verify_module m with
  | [] -> ()
  | errs ->
    fail `Verify
      (String.concat "; " (List.map Vir.Verify.error_to_string errs))
      Ast.no_pos);
  m
