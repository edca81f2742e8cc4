(** A small dependency-free JSON tree with an encoder and a parser —
    just enough for the campaign telemetry layer (JSONL traces and the
    RESULTS_*.json exports). Integers and floats are kept distinct so a
    round trip preserves the constructor: [Int] never comes back as
    [Float] and vice versa. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

(* Canonical float rendering: the shortest of %.15g / %.17g that parses
   back to the identical float, with a ".0" suffix forced onto integral
   values so the parser returns a [Float] again. JSON has no encoding
   for NaN or infinities; callers must map those out (the trace layer
   emits [Null]). *)
let float_repr f =
  if not (Float.is_finite f) then
    invalid_arg "Json: cannot encode non-finite float"
  else
    let s =
      let s15 = Printf.sprintf "%.15g" f in
      if float_of_string s15 = f then s15 else Printf.sprintf "%.17g" f
    in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape_string buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_string buf k;
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type parser_state = { src : string; mutable pos : int }

let peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None

let advance p = p.pos <- p.pos + 1

let skip_ws p =
  let rec go () =
    match peek p with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance p;
      go ()
    | _ -> ()
  in
  go ()

let expect p c =
  match peek p with
  | Some c' when c' = c -> advance p
  | Some c' -> fail "at %d: expected %C, found %C" p.pos c c'
  | None -> fail "at %d: expected %C, found end of input" p.pos c

let parse_literal p word value =
  let n = String.length word in
  if
    p.pos + n <= String.length p.src
    && String.sub p.src p.pos n = word
  then begin
    p.pos <- p.pos + n;
    value
  end
  else fail "at %d: invalid literal" p.pos

(* Encode one Unicode scalar value as UTF-8. *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let parse_hex4 p =
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "at %d: invalid \\u escape" p.pos
  in
  if p.pos + 4 > String.length p.src then
    fail "at %d: truncated \\u escape" p.pos;
  let v =
    (hex p.src.[p.pos] lsl 12)
    lor (hex p.src.[p.pos + 1] lsl 8)
    lor (hex p.src.[p.pos + 2] lsl 4)
    lor hex p.src.[p.pos + 3]
  in
  p.pos <- p.pos + 4;
  v

let parse_string p =
  expect p '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek p with
    | None -> fail "at %d: unterminated string" p.pos
    | Some '"' ->
      advance p;
      Buffer.contents buf
    | Some '\\' ->
      advance p;
      (match peek p with
      | Some '"' -> Buffer.add_char buf '"'; advance p
      | Some '\\' -> Buffer.add_char buf '\\'; advance p
      | Some '/' -> Buffer.add_char buf '/'; advance p
      | Some 'n' -> Buffer.add_char buf '\n'; advance p
      | Some 'r' -> Buffer.add_char buf '\r'; advance p
      | Some 't' -> Buffer.add_char buf '\t'; advance p
      | Some 'b' -> Buffer.add_char buf '\b'; advance p
      | Some 'f' -> Buffer.add_char buf '\012'; advance p
      | Some 'u' ->
        advance p;
        let u = parse_hex4 p in
        (* surrogate pair *)
        if u >= 0xD800 && u <= 0xDBFF then begin
          if
            p.pos + 2 <= String.length p.src
            && p.src.[p.pos] = '\\'
            && p.src.[p.pos + 1] = 'u'
          then begin
            p.pos <- p.pos + 2;
            let lo = parse_hex4 p in
            if lo >= 0xDC00 && lo <= 0xDFFF then
              add_utf8 buf
                (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
            else fail "at %d: invalid low surrogate" p.pos
          end
          else fail "at %d: lone high surrogate" p.pos
        end
        else add_utf8 buf u
      | _ -> fail "at %d: invalid escape" p.pos);
      go ()
    | Some c when Char.code c < 0x20 ->
      fail "at %d: raw control character in string" p.pos
    | Some c ->
      Buffer.add_char buf c;
      advance p;
      go ()
  in
  go ()

let parse_number p =
  let start = p.pos in
  let is_float = ref false in
  let rec go () =
    match peek p with
    | Some ('0' .. '9' | '-' | '+') ->
      advance p;
      go ()
    | Some ('.' | 'e' | 'E') ->
      is_float := true;
      advance p;
      go ()
    | _ -> ()
  in
  go ();
  let s = String.sub p.src start (p.pos - start) in
  if !is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail "at %d: invalid number %S" start s
  else
    match int_of_string_opt s with
    | Some n -> Int n
    | None -> (
      (* out-of-range integer literal: fall back to float *)
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail "at %d: invalid number %S" start s)

let rec parse_value p =
  skip_ws p;
  match peek p with
  | None -> fail "at %d: unexpected end of input" p.pos
  | Some 'n' -> parse_literal p "null" Null
  | Some 't' -> parse_literal p "true" (Bool true)
  | Some 'f' -> parse_literal p "false" (Bool false)
  | Some '"' -> String (parse_string p)
  | Some ('-' | '0' .. '9') -> parse_number p
  | Some '[' ->
    advance p;
    skip_ws p;
    if peek p = Some ']' then begin
      advance p;
      List []
    end
    else
      let rec items acc =
        let v = parse_value p in
        skip_ws p;
        match peek p with
        | Some ',' ->
          advance p;
          items (v :: acc)
        | Some ']' ->
          advance p;
          List (List.rev (v :: acc))
        | _ -> fail "at %d: expected ',' or ']'" p.pos
      in
      items []
  | Some '{' ->
    advance p;
    skip_ws p;
    if peek p = Some '}' then begin
      advance p;
      Obj []
    end
    else
      let field () =
        skip_ws p;
        let k = parse_string p in
        skip_ws p;
        expect p ':';
        let v = parse_value p in
        (k, v)
      in
      let rec fields acc =
        let kv = field () in
        skip_ws p;
        match peek p with
        | Some ',' ->
          advance p;
          fields (kv :: acc)
        | Some '}' ->
          advance p;
          Obj (List.rev (kv :: acc))
        | _ -> fail "at %d: expected ',' or '}'" p.pos
      in
      fields []
  | Some c -> fail "at %d: unexpected character %C" p.pos c

let of_string s =
  let p = { src = s; pos = 0 } in
  let v = parse_value p in
  skip_ws p;
  if p.pos <> String.length s then
    fail "at %d: trailing characters after JSON value" p.pos;
  v

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None


(* numbers parsed without a fractional part come back as [Int] *)
let get_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None
