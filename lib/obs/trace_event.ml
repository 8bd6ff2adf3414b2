open Dbp_num

(* The structured trace schema ("dbp-trace/2", see DESIGN.md
   "Observability").  One event per NDJSON line; timestamps are exact
   rationals rendered as strings, never floats, so a consumer can
   reconstruct bin usage periods bit-exactly.  Version 2 adds the
   vector kinds (varrive/vpack/vbin_open) for multi-resource runs,
   whose per-dimension payloads are comma-joined rational strings;
   the scalar kinds are byte-identical to version 1, so every
   dbp-trace/1 stream is a valid dbp-trace/2 stream. *)

type kind =
  | Arrive of { item : int; size : Rat.t }
  | Pack of { item : int; bin : int; level : Rat.t; residual : Rat.t }
  | Depart of { item : int; bin : int; held : Rat.t }
  | Bin_open of { bin : int; tag : string; capacity : Rat.t }
  | Bin_close of { bin : int; opened : Rat.t; cost : Rat.t }
  | Fail_bin of { bin : int; victims : int; lost_level : Rat.t }
  | Migrate of {
      item : int;
      new_item : int;
      from_bin : int;
      to_bin : int;
      size : Rat.t;
    }
  | Retry of { item : int; attempt : int }
  | Shed of { item : int }
  | Resume of { item : int; latency : Rat.t }
  | Varrive of { item : int; sizes : Vec.t }
  | Vpack of { item : int; bin : int; levels : Vec.t; residuals : Vec.t }
  | Vbin_open of { bin : int; tag : string; capacities : Vec.t }

type t = { seq : int; time : Rat.t; kind : kind }

let schema = "dbp-trace/2"

let kind_name = function
  | Arrive _ -> "arrive"
  | Pack _ -> "pack"
  | Depart _ -> "depart"
  | Bin_open _ -> "bin_open"
  | Bin_close _ -> "bin_close"
  | Fail_bin _ -> "fail_bin"
  | Migrate _ -> "migrate"
  | Retry _ -> "retry"
  | Shed _ -> "shed"
  | Resume _ -> "resume"
  | Varrive _ -> "varrive"
  | Vpack _ -> "vpack"
  | Vbin_open _ -> "vbin_open"

(* ---- emission ------------------------------------------------------- *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_ndjson t =
  let buf = Buffer.create 96 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\"seq\":%d,\"t\":\"%s\",\"kind\":\"%s\"" t.seq
    (Rat.to_string t.time) (kind_name t.kind);
  (match t.kind with
  | Arrive { item; size } ->
      add ",\"item\":%d,\"size\":\"%s\"" item (Rat.to_string size)
  | Pack { item; bin; level; residual } ->
      add ",\"item\":%d,\"bin\":%d,\"level\":\"%s\",\"residual\":\"%s\"" item
        bin (Rat.to_string level) (Rat.to_string residual)
  | Depart { item; bin; held } ->
      add ",\"item\":%d,\"bin\":%d,\"held\":\"%s\"" item bin
        (Rat.to_string held)
  | Bin_open { bin; tag; capacity } ->
      add ",\"bin\":%d,\"tag\":\"%s\",\"capacity\":\"%s\"" bin (escape tag)
        (Rat.to_string capacity)
  | Bin_close { bin; opened; cost } ->
      add ",\"bin\":%d,\"opened\":\"%s\",\"cost\":\"%s\"" bin
        (Rat.to_string opened) (Rat.to_string cost)
  | Fail_bin { bin; victims; lost_level } ->
      add ",\"bin\":%d,\"victims\":%d,\"lost_level\":\"%s\"" bin victims
        (Rat.to_string lost_level)
  | Migrate { item; new_item; from_bin; to_bin; size } ->
      add ",\"item\":%d,\"new_item\":%d,\"from\":%d,\"to\":%d,\"size\":\"%s\""
        item new_item from_bin to_bin (Rat.to_string size)
  | Retry { item; attempt } -> add ",\"item\":%d,\"attempt\":%d" item attempt
  | Shed { item } -> add ",\"item\":%d" item
  | Resume { item; latency } ->
      add ",\"item\":%d,\"latency\":\"%s\"" item (Rat.to_string latency)
  | Varrive { item; sizes } ->
      add ",\"item\":%d,\"sizes\":\"%s\"" item (Vec.to_string sizes)
  | Vpack { item; bin; levels; residuals } ->
      add ",\"item\":%d,\"bin\":%d,\"levels\":\"%s\",\"residuals\":\"%s\"" item
        bin (Vec.to_string levels) (Vec.to_string residuals)
  | Vbin_open { bin; tag; capacities } ->
      add ",\"bin\":%d,\"tag\":\"%s\",\"capacities\":\"%s\"" bin (escape tag)
        (Vec.to_string capacities));
  Buffer.add_char buf '}';
  Buffer.contents buf

(* ---- strict parsing (schema validation) ----------------------------- *)

(* A deliberately minimal JSON-object reader: the schema only ever
   emits one flat object per line whose values are integers or
   strings, so that is all the validator accepts.  Anything else —
   nesting, floats, booleans, duplicate or unknown keys — is a schema
   violation by construction. *)

type value = Int of int | Str of string

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* Folds one byte of a [\uXXXX] escape into its code, or -1 once a
   byte is not a hex digit: the escape takes exactly four of them, and
   none of the '_' that [int_of_string] would skip. *)
let hex_digit acc c =
  let d =
    match c with
    | '0' .. '9' -> Char.code c - 48
    | 'a' .. 'f' -> Char.code c - 87
    | 'A' .. 'F' -> Char.code c - 55
    | _ -> -1
  in
  if acc < 0 || d < 0 then -1 else (acc * 16) + d

let parse_object line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos >= n then bad "unexpected end of line" else line.[!pos] in
  let advance () = incr pos in
  let expect c =
    if peek () <> c then bad "expected '%c' at column %d" c !pos else advance ()
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | 'n' -> Buffer.add_char buf '\n'
          | 'u' ->
              advance ();
              if !pos + 3 >= n then bad "truncated \\u escape";
              let hex = String.sub line !pos 4 in
              pos := !pos + 3;
              let code = String.fold_left hex_digit 0 hex in
              if code >= 0 && code < 0x80 then Buffer.add_char buf (Char.chr code)
              else bad "unsupported \\u escape '\\u%s'" hex
          | c -> bad "unsupported escape '\\%c'" c);
          advance ();
          go ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_int () =
    let start = !pos in
    if peek () = '-' then advance ();
    while !pos < n && line.[!pos] >= '0' && line.[!pos] <= '9' do
      advance ()
    done;
    if !pos = start || (!pos = start + 1 && line.[start] = '-') then
      bad "expected an integer at column %d" start;
    match int_of_string_opt (String.sub line start (!pos - start)) with
    | Some i -> i
    | None -> bad "integer out of range at column %d" start
  in
  expect '{';
  let fields = ref [] in
  let rec members () =
    let key = parse_string () in
    if List.mem_assoc key !fields then bad "duplicate key \"%s\"" key;
    expect ':';
    let v =
      match peek () with
      | '"' -> Str (parse_string ())
      | '-' | '0' .. '9' -> Int (parse_int ())
      | c -> bad "unsupported value starting with '%c' (only ints and strings)" c
    in
    fields := (key, v) :: !fields;
    match peek () with
    | ',' ->
        advance ();
        members ()
    | '}' -> advance ()
    | c -> bad "expected ',' or '}' but found '%c'" c
  in
  (match peek () with
  | '}' -> advance ()
  | _ -> members ());
  if !pos <> n then bad "trailing characters after the closing '}'";
  List.rev !fields

let parse_flat_object line =
  match parse_object line with
  | fields -> Ok fields
  | exception Bad msg -> Error msg

let of_ndjson line =
  try
    let fields = parse_object line in
    let consumed = ref [] in
    let take key =
      consumed := key :: !consumed;
      match List.assoc_opt key fields with
      | Some v -> v
      | None -> bad "missing key \"%s\"" key
    in
    let int_field key =
      match take key with
      | Int i -> i
      | Str _ -> bad "key \"%s\" must be an integer" key
    in
    let str_field key =
      match take key with
      | Str s -> s
      | Int _ -> bad "key \"%s\" must be a string" key
    in
    let rat_field key =
      let s = str_field key in
      match Rat.of_string s with
      | r -> r
      | exception (Failure _ | Division_by_zero) ->
          bad "key \"%s\" is not a rational: '%s'" key s
    in
    let vec_field key =
      let s = str_field key in
      match Vec.of_string s with
      | v -> v
      | exception (Failure _ | Division_by_zero) ->
          bad "key \"%s\" is not a rational vector: '%s'" key s
    in
    let seq = int_field "seq" in
    if seq < 0 then bad "negative sequence number %d" seq;
    let time = rat_field "t" in
    let kname = str_field "kind" in
    let kind =
      match kname with
      | "arrive" ->
          Arrive { item = int_field "item"; size = rat_field "size" }
      | "pack" ->
          Pack
            {
              item = int_field "item";
              bin = int_field "bin";
              level = rat_field "level";
              residual = rat_field "residual";
            }
      | "depart" ->
          Depart
            {
              item = int_field "item";
              bin = int_field "bin";
              held = rat_field "held";
            }
      | "bin_open" ->
          Bin_open
            {
              bin = int_field "bin";
              tag = str_field "tag";
              capacity = rat_field "capacity";
            }
      | "bin_close" ->
          Bin_close
            {
              bin = int_field "bin";
              opened = rat_field "opened";
              cost = rat_field "cost";
            }
      | "fail_bin" ->
          Fail_bin
            {
              bin = int_field "bin";
              victims = int_field "victims";
              lost_level = rat_field "lost_level";
            }
      | "migrate" ->
          Migrate
            {
              item = int_field "item";
              new_item = int_field "new_item";
              from_bin = int_field "from";
              to_bin = int_field "to";
              size = rat_field "size";
            }
      | "retry" ->
          Retry { item = int_field "item"; attempt = int_field "attempt" }
      | "shed" -> Shed { item = int_field "item" }
      | "resume" ->
          Resume { item = int_field "item"; latency = rat_field "latency" }
      | "varrive" ->
          Varrive { item = int_field "item"; sizes = vec_field "sizes" }
      | "vpack" ->
          Vpack
            {
              item = int_field "item";
              bin = int_field "bin";
              levels = vec_field "levels";
              residuals = vec_field "residuals";
            }
      | "vbin_open" ->
          Vbin_open
            {
              bin = int_field "bin";
              tag = str_field "tag";
              capacities = vec_field "capacities";
            }
      | other -> bad "unknown event kind \"%s\"" other
    in
    List.iter
      (fun (key, _) ->
        if not (List.mem key !consumed) then
          bad "unknown key \"%s\" for kind \"%s\"" key kname)
      fields;
    Ok { seq; time; kind }
  with Bad msg -> Error msg

(* ---- the in-place scanner for the serve wire ------------------------ *)

(* The two line shapes a serve client sends, exactly as [to_ndjson]
   writes them, read from the caller's bytes with no copy: any other
   line raises [Rat.Not_plain] and goes to [of_ndjson], which reports
   every error.  A line this accepts holds only the fixed keys, plain
   numerals ([Rat.of_plain]) and no escape, so [of_ndjson] reads the
   same event from it.  The helpers are top level so that a line
   allocates no closure. *)

(* The index of the first [c] in [s.[i .. stop-1]], or [stop]. *)
let rec find s c i stop =
  if i >= stop || Char.equal (String.unsafe_get s i) c then i
  else find s c (i + 1) stop

(* The index after [lit] when [s.[i .. stop-1]] starts with it. *)
let skip s i stop lit =
  let n = String.length lit in
  if i + n > stop then raise_notrace Rat.Not_plain;
  for k = 0 to n - 1 do
    if not (Char.equal (String.unsafe_get s (i + k)) (String.unsafe_get lit k))
    then raise_notrace Rat.Not_plain
  done;
  i + n

(* The rational in [s.[i .. stop-1]], which must be the line's last
   value: the rational, its closing quote and the closing brace. *)
let closing_rat s i stop =
  let q = find s '"' i stop in
  let r = Rat.of_plain s i q in
  if not (Int.equal (skip s q stop {|"}|}) stop) then
    raise_notrace Rat.Not_plain;
  r

(* The line [s.[a .. stop-1]].  A negative [seq] is left to [of_ndjson],
   which owns that message. *)
let scan s a stop =
  let i = skip s a stop {|{"seq":|} in
  let c = find s ',' i stop in
  let seq = Rat.plain_int s i c in
  if seq < 0 then raise_notrace Rat.Not_plain;
  let i = skip s c stop {|,"t":"|} in
  let q = find s '"' i stop in
  let time = Rat.of_plain s i q in
  let i = skip s q stop {|","kind":"|} in
  let arrive = i < stop && Char.equal (String.unsafe_get s i) 'a' in
  let i =
    skip s i stop (if arrive then {|arrive","item":|} else {|depart","item":|})
  in
  let c = find s ',' i stop in
  let item = Rat.plain_int s i c in
  if arrive then
    let size = closing_rat s (skip s c stop {|,"size":"|}) stop in
    { seq; time; kind = Arrive { item; size } }
  else
    let i = skip s c stop {|,"bin":|} in
    let c = find s ',' i stop in
    let bin = Rat.plain_int s i c in
    let held = closing_rat s (skip s c stop {|,"held":"|}) stop in
    { seq; time; kind = Depart { item; bin; held } }

(* ---- incremental stream validation ---------------------------------- *)

type event = t

type stream_error = { line : int; byte : int; message : string }

let stream_error_to_string e =
  Printf.sprintf "line %d (byte %d): %s" e.line e.byte e.message

(* Socket-framed input arrives in arbitrary chunks: a read may end in
   the middle of a line, and the very last line of a stream may lack
   its trailing newline.  [Feed] carries the undelivered suffix across
   calls and validates the whole-stream invariants (sequence numbers
   exactly [seq_start, seq_start+1, ...], time never decreasing) as
   lines complete.  Errors pin both the 1-based non-blank line number
   and the absolute byte offset of that line's first byte, so a caller
   resuming after a short read can report — or seek to — the exact
   spot.  A line that completes inside one chunk is read where it lies
   in the caller's string; only a line split across chunks is copied,
   into [partial]. *)
module Feed = struct
  type nonrec t = {
    partial : Buffer.t;  (* bytes of the current unterminated line *)
    mutable next_seq : int;
    mutable prev_time : Rat.t;  (* the last event's time, once [lines > 0] *)
    mutable lines : int;  (* non-blank lines committed so far *)
    mutable line_start : int;  (* absolute offset of the current line *)
    mutable total : int;  (* absolute bytes fed so far *)
    mutable failed : stream_error option;
  }

  (* Raised with the error [failed] now holds. *)
  exception Rejected of stream_error

  let create ?(seq_start = 0) () =
    {
      partial = Buffer.create 256;
      next_seq = seq_start;
      prev_time = Rat.zero;
      lines = 0;
      line_start = 0;
      total = 0;
      failed = None;
    }

  let bytes_consumed t = t.line_start
  let next_seq t = t.next_seq

  let fail t message =
    let e = { line = t.lines + 1; byte = t.line_start; message } in
    t.failed <- Some e;
    raise_notrace (Rejected e)

  (* Validate the completed line [s.[a .. e-1]] and push its event on
     [acc].  Blank lines are ignored, as in the whole-document parser;
     a trailing '\r' is tolerated so CRLF socket clients work. *)
  let commit t s a e acc =
    let e =
      if e > a && Char.equal (String.unsafe_get s (e - 1)) '\r' then e - 1
      else e
    in
    if Int.equal e a then acc
    else
      let ev =
        match scan s a e with
        | ev -> ev
        | exception Rat.Not_plain -> (
            match of_ndjson (String.sub s a (e - a)) with
            | Ok ev -> ev
            | Error msg -> fail t msg)
      in
      if not (Int.equal ev.seq t.next_seq) then
        fail t
          (Printf.sprintf "sequence number %d, expected %d" ev.seq t.next_seq)
      else if t.lines > 0 && Rat.(ev.time < t.prev_time) then
        fail t
          (Printf.sprintf "time %s precedes the previous event"
             (Rat.to_string ev.time))
      else begin
        t.lines <- t.lines + 1;
        t.next_seq <- ev.seq + 1;
        t.prev_time <- ev.time;
        ev :: acc
      end

  (* The lines of [s.[i .. stop-1]], whose byte [x] sits at absolute
     offset [base + x]; the unterminated rest goes to [partial]. *)
  let rec commit_lines t s ~base i stop acc =
    let j = find s '\n' i stop in
    if j >= stop then begin
      Buffer.add_substring t.partial s i (stop - i);
      acc
    end
    else begin
      let acc =
        if Int.equal (Buffer.length t.partial) 0 then commit t s i j acc
        else begin
          Buffer.add_substring t.partial s i (j - i);
          let raw = Buffer.contents t.partial in
          Buffer.clear t.partial;
          commit t raw 0 (String.length raw) acc
        end
      in
      t.line_start <- base + j + 1;
      commit_lines t s ~base (j + 1) stop acc
    end

  let feed t ?(off = 0) ?len s =
    match t.failed with
    | Some e -> Error e
    | None -> (
        let len =
          match len with Some l -> l | None -> String.length s - off
        in
        if off < 0 || len < 0 || off + len > String.length s then
          invalid_arg "Trace_event.Feed.feed";
        let base = t.total - off in
        t.total <- t.total + len;
        match commit_lines t s ~base off (off + len) [] with
        | acc -> Ok (List.rev acc)
        | exception Rejected e -> Error e)

  (* End of stream: a final line without its trailing newline is
     accepted — exactly the case a short read leaves behind. *)
  let close t =
    match t.failed with
    | Some e -> Error e
    | None ->
        if Buffer.length t.partial = 0 then Ok []
        else begin
          let raw = Buffer.contents t.partial in
          Buffer.clear t.partial;
          match commit t raw 0 (String.length raw) [] with
          | acc ->
              t.line_start <- t.total;
              Ok (List.rev acc)
          | exception Rejected e -> Error e
        end
end

(* Whole-stream validation: every line parses, sequence numbers are
   exactly 0, 1, 2, ... and time never goes backwards.  Built on
   {!Feed}, so a missing final newline is accepted and errors carry
   byte offsets alongside line numbers. *)
let parse_all text =
  let f = Feed.create () in
  match Feed.feed f text with
  | Error e -> Error (stream_error_to_string e)
  | Ok evs -> (
      match Feed.close f with
      | Error e -> Error (stream_error_to_string e)
      | Ok evs' -> Ok (evs @ evs'))

let pp fmt t =
  Format.fprintf fmt "#%d t=%a %s" t.seq Rat.pp t.time (kind_name t.kind)
