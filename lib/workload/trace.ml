open Dbp_num
open Dbp_core

type parse_error = { line : int; field : string option; message : string }

exception Parse_error of parse_error

let parse_error_to_string e =
  Printf.sprintf "trace parse error at line %d%s: %s" e.line
    (match e.field with
    | None -> ""
    | Some f -> Printf.sprintf " (field '%s')" f)
    e.message

let pp_parse_error fmt e =
  Format.pp_print_string fmt (parse_error_to_string e)

let parse_fail ~line ?field fmt =
  Format.kasprintf
    (fun message -> raise (Parse_error { line; field; message }))
    fmt

let to_string instance =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "# capacity=%s\n" (Rat.to_string (Instance.capacity instance)));
  Buffer.add_string buf "id,size,arrival,departure\n";
  Array.iter
    (fun (r : Item.t) ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%s,%s,%s\n" r.id (Rat.to_string r.size)
           (Rat.to_string r.arrival)
           (Rat.to_string r.departure)))
    (Instance.items instance);
  Buffer.contents buf

let rat_field ~line ~field s =
  let s = String.trim s in
  match Rat.of_string s with
  | r -> r
  | exception Failure _ ->
      parse_fail ~line ~field "'%s' is not a rational number" s

(* The capacity header, a trimmed non-blank line. *)
let parse_capacity ~line header =
  if header.[0] <> '#' then
    parse_fail ~line "expected '# capacity=<rational>' header, got '%s'" header;
  match String.index_opt header '=' with
  | None ->
      parse_fail ~line ~field:"capacity"
        "header '%s' carries no 'capacity=<rational>'" header
  | Some i ->
      let cap =
        rat_field ~line ~field:"capacity"
          (String.sub header (i + 1) (String.length header - i - 1))
      in
      if Rat.sign cap <= 0 then
        parse_fail ~line ~field:"capacity" "capacity %s is not positive"
          (Rat.to_string cap);
      cap

(* The row parser of record, on a trimmed non-blank line: every syntax
   [int_of_string] reads, and every row error the format reports. *)
let parse_row ~capacity ~line text =
  match String.split_on_char ',' text with
  | [ id; size; arrival; departure ] ->
      let id =
        match int_of_string_opt (String.trim id) with
        | Some id when id >= 0 -> id
        | Some id -> parse_fail ~line ~field:"id" "id %d is negative" id
        | None ->
            parse_fail ~line ~field:"id" "'%s' is not an integer id"
              (String.trim id)
      in
      let size = rat_field ~line ~field:"size" size in
      let arrival = rat_field ~line ~field:"arrival" arrival in
      let departure = rat_field ~line ~field:"departure" departure in
      if Rat.sign size <= 0 then
        parse_fail ~line ~field:"size" "size %s is not positive"
          (Rat.to_string size);
      if Rat.(size > capacity) then
        parse_fail ~line ~field:"size"
          "size %s exceeds the capacity %s: the item could never be packed"
          (Rat.to_string size) (Rat.to_string capacity);
      if Rat.(departure <= arrival) then
        parse_fail ~line ~field:"departure"
          "departure %s does not follow arrival %s" (Rat.to_string departure)
          (Rat.to_string arrival);
      Item.make ~id ~size ~arrival ~departure
  | fields ->
      parse_fail ~line "expected 4 comma-separated fields, got %d: '%s'"
        (List.length fields) text

(* ---- the in-place scanner --------------------------------------------- *)

(* The index of the first [c] in [text.[i .. stop-1]], or [stop]. *)
let rec find text c i stop =
  if i >= stop || Char.equal (String.unsafe_get text i) c then i
  else find text c (i + 1) stop

(* The row [text.[s .. e-1]] when all four fields are plain numerals
   ({!Rat.of_plain}) and it passes every check [parse_row] makes, or
   [Rat.Not_plain].  Such a row holds only digits, '-', '/' and ',', so
   [parse_row] would read it the same way. *)
let plain_row ~capacity text s e =
  let c1 = find text ',' s e in
  let c2 = find text ',' (c1 + 1) e in
  let c3 = find text ',' (c2 + 1) e in
  if c3 >= e then raise_notrace Rat.Not_plain;
  let id = Rat.plain_int text s c1 in
  let size = Rat.of_plain text (c1 + 1) c2 in
  let arrival = Rat.of_plain text (c2 + 1) c3 in
  let departure = Rat.of_plain text (c3 + 1) e in
  if
    id < 0
    || Rat.sign size <= 0
    || Rat.(size > capacity)
    || Rat.(departure <= arrival)
  then raise_notrace Rat.Not_plain;
  Item.make ~id ~size ~arrival ~departure

(* Fills the slots of an array before every item is placed. *)
let placeholder =
  Item.make ~id:0 ~size:Rat.one ~arrival:Rat.zero ~departure:Rat.one

(* Lines are the '\n'-separated segments of the text, numbered from 1;
   a line that trims to "" is skipped wherever it stands.  One pass by
   index: the two headers are trimmed copies, a plain row goes from the
   bytes into [rows], and any other row goes to [parse_row].  Ids are
   checked once every row has parsed. *)
let of_string text =
  let len = String.length text in
  let line_end pos = find text '\n' pos len in
  (* The first non-blank line at or after [pos] (numbered [line]): its
     number, its trimmed text and the position after it. *)
  let rec next_nonblank pos line =
    if pos > len then None
    else
      let e = line_end pos in
      match String.trim (String.sub text pos (e - pos)) with
      | "" -> next_nonblank (e + 1) (line + 1)
      | l -> Some (line, l, e + 1)
  in
  let capacity, cap_line, pos =
    match next_nonblank 0 1 with
    | Some (line, header, pos) -> (parse_capacity ~line header, line, pos)
    | None -> parse_fail ~line:1 "empty trace: missing '# capacity=' header"
  in
  let first_row, first_row_line =
    match next_nonblank pos (cap_line + 1) with
    | Some (line, "id,size,arrival,departure", pos) -> (pos, line + 1)
    | Some (line, other, _) ->
        parse_fail ~line
          "expected column header 'id,size,arrival,departure', got '%s'" other
    | None ->
        parse_fail ~line:cap_line
          "trace ends after the capacity header: missing column header"
  in
  let rec lines_from pos acc =
    if pos > len then acc else lines_from (line_end pos + 1) (acc + 1)
  in
  let most = lines_from first_row 0 in
  let rows = Array.make most placeholder and row_line = Array.make most 0 in
  let n = ref 0 in
  let pos = ref first_row and line = ref first_row_line in
  while !pos <= len do
    let e = line_end !pos in
    (match plain_row ~capacity text !pos e with
    | item ->
        rows.(!n) <- item;
        row_line.(!n) <- !line;
        incr n
    | exception Rat.Not_plain -> (
        match String.trim (String.sub text !pos (e - !pos)) with
        | "" -> ()
        | l ->
            rows.(!n) <- parse_row ~capacity ~line:!line l;
            row_line.(!n) <- !line;
            incr n));
    pos := e + 1;
    incr line
  done;
  let n = !n in
  if n = 0 then parse_fail ~line:(cap_line + 1) "trace contains no item rows";
  (* [Instance.of_array] numbers items by position, so ids survive a
     round-trip only if they already are a permutation of 0..n-1:
     check exactly that, in row order, and place each item at its id. *)
  let first_line = Array.make n 0 and items = Array.make n placeholder in
  for k = 0 to n - 1 do
    let (r : Item.t) = rows.(k) and line = row_line.(k) in
    if r.id < n && first_line.(r.id) > 0 then
      parse_fail ~line ~field:"id" "duplicate id %d (first used at line %d)"
        r.id first_line.(r.id);
    if r.id >= n then
      parse_fail ~line ~field:"id"
        "id %d out of range: %d ids must form a permutation of 0..%d" r.id n
        (n - 1);
    first_line.(r.id) <- line;
    items.(r.id) <- r
  done;
  Instance.of_array ~capacity items

let save instance ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string instance))

let load ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))
