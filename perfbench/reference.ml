(* Per-cell digests of a sweep's outputs, and the comparison that
   counts cells whose result record or trace bytes differ from the
   reference. The stored references under reference/ come from the
   paper-protocol (Legacy) executor at the default seed. *)

type cell = {
  label : string;
  result : string;  (** hex MD5 of the cell's result JSON *)
  trace : string;  (** hex MD5 of the cell's trace lines *)
}

let md5 s = Digest.to_hex (Digest.string s)

let summary_prefix = {|{"type":"summary"|}

(* The trace of a sweep is one header line, then per cell its
   experiment lines closed by one summary line. Returns each cell's
   lines, header excluded, in cell order. *)
let cell_blocks trace =
  let lines = String.split_on_char '\n' trace in
  let lines = match lines with _header :: rest -> rest | [] -> [] in
  let blocks, cur =
    List.fold_left
      (fun (blocks, cur) line ->
        if line = "" then (blocks, cur)
        else
          let cur = line :: cur in
          if String.starts_with ~prefix:summary_prefix line then
            (String.concat "\n" (List.rev cur) :: blocks, [])
          else (blocks, cur))
      ([], []) lines
  in
  if cur <> [] then failwith "trace ends inside a cell";
  List.rev blocks

let of_sweep ~detectors (cells : Workloads.cell list)
    (results : Vulfi.Campaign.result list) ~trace =
  let blocks = cell_blocks trace in
  if List.length blocks <> List.length cells then
    failwith
      (Printf.sprintf "trace has %d cell blocks for %d cells"
         (List.length blocks) (List.length cells));
  List.map2
    (fun (c, r) block ->
      {
        label = Workloads.label c;
        result =
          md5 (Vulfi.Json.to_string (Vulfi.Campaign.result_json ~detectors r));
        trace = md5 block;
      })
    (List.combine cells results) blocks

(* Cells of [actual] whose digests differ from [expected]'s cell of the
   same label or that [expected] lacks, plus expected cells [actual]
   lacks. *)
let mismatches ~expected ~actual =
  let has cells c = List.exists (fun x -> x.label = c.label) cells in
  List.length (List.filter (fun c -> not (List.mem c expected)) actual)
  + List.length (List.filter (fun c -> not (has actual c)) expected)

let to_string cells =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%s\t%s\t%s\n" c.label c.result c.trace)
       cells)

let of_string s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match String.split_on_char '\t' l with
         | [ label; result; trace ] -> { label; result; trace }
         | _ -> failwith (Printf.sprintf "malformed reference line %S" l))

let read path = of_string (In_channel.with_open_bin path In_channel.input_all)

let write path cells =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_string cells))
