(** Front-to-back mini-ISPC compilation: source text -> verified VIR. *)

type error = {
  stage : [ `Lex | `Parse | `Type | `Codegen | `Verify ];
  message : string;
  pos : Ast.pos;
}

val error_to_string : error -> string

exception Error of error

(** Lex, parse and typecheck only (no code generation). *)
val frontend : string -> Ast.program

(** Compile [src] for one vector target. The result has been through
    dead-code elimination (the paper's toolchain runs at -O3) and the
    verifier.
    @raise Error on any front-end, codegen or verification failure. *)
val compile :
  ?module_name:string -> Vir.Target.t -> string -> Vir.Vmodule.t
