(* In-memory spans for the traced pass. Each span records its name,
   start, end and the span that was open when it started; nothing is
   written while the pass runs. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  start : float;
  stop : float;
}

type t = {
  mutable rev : span list;
  mutable next : int;
  mutable open_ : int list;  (** innermost open span first *)
}

let create () = { rev = []; next = 0; open_ = [] }

let duration s = s.stop -. s.start

(* Run [f] inside a span named [name], a child of the innermost open
   span. *)
let record t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ with p :: _ -> Some p | [] -> None in
  t.open_ <- id :: t.open_;
  let start = Unix.gettimeofday () in
  let close () =
    t.open_ <- List.tl t.open_;
    t.rev <- { id; parent; name; start; stop = Unix.gettimeofday () } :: t.rev
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

let spans t = List.rev t.rev

let children spans (s : span) =
  List.filter (fun c -> c.parent = Some s.id) spans

(* Length of the union of [children]'s intervals, each clipped to
   [parent]'s interval. *)
let covered parent children =
  let clipped =
    List.filter_map
      (fun c ->
        let lo = Float.max c.start parent.start
        and hi = Float.min c.stop parent.stop in
        if hi > lo then Some (lo, hi) else None)
      children
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (lo, hi) ->
        match cur with
        | Some (clo, chi) when lo <= chi -> (total, Some (clo, Float.max chi hi))
        | Some (clo, chi) -> (total +. (chi -. clo), Some (lo, hi))
        | None -> (total, Some (lo, hi)))
      (0.0, None) clipped
  in
  match last with Some (lo, hi) -> total +. (hi -. lo) | None -> total

(* A span's self time: its duration minus the part of its interval
   that its children cover. *)
let self_time parent children = duration parent -. covered parent children

let total_named spans name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0.0 spans
