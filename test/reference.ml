(* Reference implementations: the list-based trace parser, packing
   validator and step-function constructors that the in-place CSV
   scanner, the array-based [Packing.validate] and the array-based
   [Step_fn] replaced, kept verbatim (over breakpoint lists where
   [Step_fn.t] is abstract) as oracles for them, and the NDJSON feed
   that sent every line through [Trace_event.of_ndjson] before the
   feed scanned the serve wire in place.  The parser copy runs on
   today's [Rat.of_string], which reports a zero denominator and
   [min_int] as [Failure]. *)

open Dbp_num
open Dbp_core
open Dbp_workload.Trace

(* ---- step functions over breakpoint lists ---------------------------- *)

let canonicalise points =
  let rec dedup prev = function
    | [] -> []
    | (t, v) :: rest ->
        if v = prev then dedup prev rest else (t, v) :: dedup v rest
  in
  dedup 0 points

let of_breakpoints points =
  let rec check_sorted = function
    | (t1, _) :: ((t2, _) :: _ as rest) ->
        if Rat.(t2 <= t1) then
          invalid_arg "Step_fn.of_breakpoints: unsorted breakpoints"
        else check_sorted rest
    | _ -> ()
  in
  check_sorted points;
  (match List.rev points with
  | (_, v) :: _ when v <> 0 ->
      invalid_arg "Step_fn.of_breakpoints: final value must be 0"
  | _ -> ());
  canonicalise points

let of_deltas events =
  let sorted =
    List.sort (fun (t1, _) (t2, _) -> Rat.compare t1 t2) events
  in
  (* Merge deltas at equal times, then prefix-sum. *)
  let rec merge = function
    | (t1, d1) :: (t2, d2) :: rest when Rat.equal t1 t2 ->
        merge ((t1, d1 + d2) :: rest)
    | pt :: rest -> pt :: merge rest
    | [] -> []
  in
  let merged = merge sorted in
  let acc = ref 0 in
  let points =
    List.map
      (fun (t, d) ->
        acc := !acc + d;
        (t, !acc))
      merged
  in
  if !acc <> 0 then invalid_arg "Step_fn.of_deltas: deltas do not cancel"
  else canonicalise points

let integral_pieces t ~clip =
  let rec go acc = function
    | (t1, v) :: ((t2, _) :: _ as rest) ->
        let seg = Interval.make t1 t2 in
        let seg =
          match clip with
          | None -> Some seg
          | Some iv -> Interval.intersect seg iv
        in
        let acc =
          match seg with
          | Some s -> (v, Interval.length s) :: acc
          | None -> acc
        in
        go acc rest
    | _ -> acc
  in
  go [] t

let integral t =
  integral_pieces t ~clip:None
  |> List.map (fun (v, len) -> Rat.mul_int len v)
  |> Rat.sum

let equal a b =
  List.length a = List.length b
  && List.for_all2 (fun (t1, v1) (t2, v2) -> Rat.equal t1 t2 && v1 = v2) a b

(* ---- the CSV parser --------------------------------------------------- *)

let parse_fail ~line ?field fmt =
  Format.kasprintf
    (fun message -> raise (Parse_error { line; field; message }))
    fmt

let trace_of_string text =
  (* Keep the original 1-based line numbers through blank-line
     filtering, so errors point at the actual file line. *)
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "")
  in
  let rat_field ~line ~field s =
    match Rat.of_string (String.trim s) with
    | r -> r
    | exception Failure _ ->
        parse_fail ~line ~field "'%s' is not a rational number" (String.trim s)
  in
  let capacity, cap_line, rows =
    match lines with
    | (line, header) :: rest when header.[0] = '#' -> (
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
            (cap, line, rest))
    | (line, header) :: _ ->
        parse_fail ~line "expected '# capacity=<rational>' header, got '%s'"
          header
    | [] -> parse_fail ~line:1 "empty trace: missing '# capacity=' header"
  in
  let rows =
    match rows with
    | (_, col_header) :: data when col_header = "id,size,arrival,departure" ->
        data
    | (line, other) :: _ ->
        parse_fail ~line
          "expected column header 'id,size,arrival,departure', got '%s'" other
    | [] ->
        parse_fail ~line:cap_line
          "trace ends after the capacity header: missing column header"
  in
  if rows = [] then
    parse_fail ~line:(cap_line + 1) "trace contains no item rows";
  let parse_row (line, text) =
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
        (line, Item.make ~id ~size ~arrival ~departure)
    | fields ->
        parse_fail ~line "expected 4 comma-separated fields, got %d: '%s'"
          (List.length fields) text
  in
  let parsed = List.map parse_row rows in
  (* [Instance.create] renumbers items 0..n-1 by list position, so ids
     survive a round-trip only if they already are a permutation of
     0..n-1 handed over in id order — validate exactly that instead of
     silently discarding the column. *)
  let n = List.length parsed in
  let first_line = Hashtbl.create n in
  List.iter
    (fun (line, (r : Item.t)) ->
      (match Hashtbl.find_opt first_line r.id with
      | Some earlier ->
          parse_fail ~line ~field:"id" "duplicate id %d (first used at line %d)"
            r.id earlier
      | None -> Hashtbl.replace first_line r.id line);
      if r.id >= n then
        parse_fail ~line ~field:"id"
          "id %d out of range: %d ids must form a permutation of 0..%d" r.id n
          (n - 1))
    parsed;
  let items =
    List.sort
      (fun (_, (a : Item.t)) (_, (b : Item.t)) -> Int.compare a.id b.id)
      parsed
    |> List.map snd
  in
  Instance.create ~capacity items

(* ---- the packing validator ------------------------------------------- *)

let validate (t : Packing.t) =
  let ( let* ) = Result.bind in
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let instance = t.instance in
  let n = Instance.size instance in
  (* 1. Assignment totality and containment of item intervals.  One
     hash set per bin replaces the seed's [List.mem] per item, which
     made this pass quadratic in the bin population. *)
  let* () =
    if Array.length t.assignment <> n then fail "assignment length mismatch"
    else Ok ()
  in
  let recorded =
    Array.map
      (fun (b : Packing.bin_record) ->
        let set = Hashtbl.create (List.length b.item_ids) in
        List.iter (fun id -> Hashtbl.replace set id ()) b.item_ids;
        set)
      t.bins
  in
  let rec check_items i =
    if i >= n then Ok ()
    else
      let r = Instance.item instance i in
      let b = t.bins.(t.assignment.(i)) in
      if not (Hashtbl.mem recorded.(t.assignment.(i)) i) then
        fail "item %d not recorded in its bin %d" i b.bin_id
      else if
        not (Interval.contains_interval (Packing.usage_period b) (Item.interval r))
      then fail "item %d interval outside bin %d usage period" i b.bin_id
      else check_items (i + 1)
  in
  let* () = check_items 0 in
  (* 2. Replay every bin's level over its placements and departures. *)
  let exceeded = ref None in
  Array.iter
    (fun (b : Packing.bin_record) ->
      let deltas =
        List.concat_map
          (fun item_id ->
            let r = Instance.item instance item_id in
            [ (r.Item.arrival, r.Item.size); (r.Item.departure, Rat.neg r.Item.size) ])
          b.item_ids
      in
      let sorted =
        List.sort
          (fun (t1, s1) (t2, s2) ->
            let c = Rat.compare t1 t2 in
            if c <> 0 then c
              (* departures (negative size deltas) first at equal times *)
            else Rat.compare s1 s2)
          deltas
      in
      let level = ref Rat.zero in
      List.iter
        (fun (_, s) ->
          level := Rat.add !level s;
          if Rat.(!level > b.capacity) then exceeded := Some b.bin_id)
        sorted)
    t.bins;
  let* () =
    match !exceeded with
    | Some id -> fail "bin %d exceeds capacity" id
    | None -> Ok ()
  in
  (* 3. Timeline consistency. *)
  let rebuilt =
    Array.to_list t.bins
    |> List.concat_map (fun (b : Packing.bin_record) ->
           [ (b.opened, 1); (b.closed, -1) ])
    |> of_deltas
  in
  let* () =
    if equal rebuilt (Step_fn.breakpoints t.timeline) then Ok ()
    else fail "timeline does not match bin usage periods"
  in
  (* 4. Cost consistency: integral of timeline = sum of period lengths. *)
  let by_periods =
    Array.fold_left
      (fun acc (b : Packing.bin_record) ->
        Rat.add acc (Interval.length (Packing.usage_period b)))
      Rat.zero t.bins
  in
  let by_integral = integral (Step_fn.breakpoints t.timeline) in
  if not (Rat.equal by_periods t.total_cost) then
    fail "total cost %a <> sum of usage periods %a" Rat.pp t.total_cost Rat.pp
      by_periods
  else if not (Rat.equal by_integral t.total_cost) then
    fail "total cost %a <> timeline integral %a" Rat.pp t.total_cost Rat.pp
      by_integral
  else if Step_fn.max_value t.timeline <> t.max_bins then
    fail "max_bins %d <> timeline max %d" t.max_bins
      (Step_fn.max_value t.timeline)
  else Ok ()

(* ---- the NDJSON feed -------------------------------------------------- *)

module Feed = struct
  module TE = Dbp_obs.Trace_event

  type t = {
    partial : Buffer.t;  (* bytes of the current unterminated line *)
    mutable next_seq : int;
    mutable prev_time : Rat.t option;
    mutable lines : int;  (* non-blank lines committed so far *)
    mutable line_start : int;  (* absolute offset of the current line *)
    mutable total : int;  (* absolute bytes fed so far *)
    mutable failed : TE.stream_error option;
  }

  let create ?(seq_start = 0) () =
    {
      partial = Buffer.create 256;
      next_seq = seq_start;
      prev_time = None;
      lines = 0;
      line_start = 0;
      total = 0;
      failed = None;
    }

  let bytes_consumed t = t.line_start
  let next_seq t = t.next_seq

  let fail t message =
    let e = { TE.line = t.lines + 1; byte = t.line_start; message } in
    t.failed <- Some e;
    Error e

  let commit t raw acc =
    let raw =
      let n = String.length raw in
      if n > 0 && raw.[n - 1] = '\r' then String.sub raw 0 (n - 1) else raw
    in
    if raw = "" then Ok acc
    else
      match TE.of_ndjson raw with
      | Error msg -> fail t msg
      | Ok (ev : TE.t) ->
          if ev.seq <> t.next_seq then
            fail t
              (Printf.sprintf "sequence number %d, expected %d" ev.seq
                 t.next_seq)
          else if
            match t.prev_time with
            | Some p -> Rat.(ev.time < p)
            | None -> false
          then
            fail t
              (Printf.sprintf "time %s precedes the previous event"
                 (Rat.to_string ev.time))
          else begin
            t.lines <- t.lines + 1;
            t.next_seq <- ev.seq + 1;
            t.prev_time <- Some ev.time;
            Ok (ev :: acc)
          end

  let feed t ?(off = 0) ?len s =
    match t.failed with
    | Some e -> Error e
    | None ->
        let len =
          match len with Some l -> l | None -> String.length s - off
        in
        if off < 0 || len < 0 || off + len > String.length s then
          invalid_arg "Trace_event.Feed.feed";
        let stop = off + len in
        (* The absolute stream offset of [s.[x]] is [base + x]. *)
        let base = t.total - off in
        let rec go i acc =
          if i >= stop then Ok (List.rev acc)
          else
            match String.index_from_opt s i '\n' with
            | Some j when j < stop -> (
                Buffer.add_substring t.partial s i (j - i);
                let raw = Buffer.contents t.partial in
                Buffer.clear t.partial;
                match commit t raw acc with
                | Error e -> Error e
                | Ok acc ->
                    t.line_start <- base + j + 1;
                    go (j + 1) acc)
            | Some _ | None ->
                Buffer.add_substring t.partial s i (stop - i);
                Ok (List.rev acc)
        in
        let r = go off [] in
        t.total <- t.total + len;
        r

  let close t =
    match t.failed with
    | Some e -> Error e
    | None ->
        if Buffer.length t.partial = 0 then Ok []
        else begin
          let raw = Buffer.contents t.partial in
          Buffer.clear t.partial;
          match commit t raw [] with
          | Error e -> Error e
          | Ok acc ->
              t.line_start <- t.total;
              Ok (List.rev acc)
        end
end
