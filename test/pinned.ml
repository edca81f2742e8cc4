(* Row tables pinned in a file beside the tests: one row a line, [#]
   lines a header. A test reads its rows with [read] and compares the
   current table with [check], which never rewrites the pinned file: on
   a mismatch it writes the current table, header included, to
   [<file>.actual] (".actual" replacing the extension) beside the copy
   it read, and fails naming every row that differs. *)

let read file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

(* A row's label, the subject it pins (a module, a grid cell):
   everything after its first [n] space-separated fields. *)
let label_after n row =
  let rec skip i k =
    if k = 0 then i else skip (String.index_from row i ' ' + 1) (k - 1)
  in
  let i = skip 0 n in
  String.sub row i (String.length row - i)

(* Rows are matched by [label row], so a reordering shows as no
   difference per row. *)
let check ~file ~header ~what ~label ~expected actual =
  if actual <> expected then begin
    Out_channel.with_open_text
      (Filename.remove_extension file ^ ".actual")
      (fun oc ->
        output_string oc header;
        List.iter (fun r -> output_string oc (r ^ "\n")) actual);
    let by_label rows = List.map (fun r -> (label r, r)) rows in
    let exp = by_label expected and act = by_label actual in
    let labels =
      List.sort_uniq compare (List.map fst exp @ List.map fst act)
    in
    let show = function Some r -> r | None -> "(missing)" in
    let diffs =
      List.filter_map
        (fun l ->
          let e = List.assoc_opt l exp and a = List.assoc_opt l act in
          if e = a then None
          else
            Some
              (Printf.sprintf "  expected %s\n  actual   %s" (show e) (show a)))
        labels
    in
    Alcotest.failf "%d of %d %s differ from %s:\n%s" (List.length diffs)
      (List.length labels) what file
      (String.concat "\n" diffs)
  end
