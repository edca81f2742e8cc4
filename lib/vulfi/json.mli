(** A small dependency-free JSON tree — encoder and parser for the
    campaign telemetry layer (JSONL traces, RESULTS_*.json exports).
    [Int] and [Float] are distinct constructors and survive a round
    trip: the encoder renders floats with a fractional part or exponent
    (integral values get a [".0"] suffix) and the parser returns [Int]
    only for literals without either. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Compact (single-line) rendering. Floats use the shortest of
    [%.15g]/[%.17g] that round-trips to the identical value.
    @raise Invalid_argument on NaN or infinite floats (JSON cannot
    represent them; map them to [Null] first). *)
val to_string : t -> string

exception Parse_error of string

(** Parse one JSON value (surrounding whitespace allowed).
    @raise Parse_error with a position-annotated message. *)
val of_string : string -> t

(** [member name j] is field [name] of object [j], if present. *)
val member : string -> t -> t option

(** [Int] values are accepted and converted. *)
val get_float : t -> float option
