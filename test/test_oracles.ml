(* The in-place CSV scanner, the array-based packing validator, the
   array-based step-function constructors and the NDJSON feed's
   in-place scanner against the code they replaced ([Reference]): on
   mutated traces, corrupted packings, random event lists and mutated,
   fragmented NDJSON streams, both must give the same result, the same
   error record or message, or raise the same exception. *)

open Dbp_num
open Dbp_core
open Test_util

type 'a outcome = Value of 'a | Parse of Dbp_workload.Trace.parse_error | Exn of string

let outcome f x =
  match f x with
  | v -> Value v
  | exception Dbp_workload.Trace.Parse_error e -> Parse e
  | exception e -> Exn (Printexc.to_string e)

let show_outcome show = function
  | Value v -> "value " ^ show v
  | Parse e -> Dbp_workload.Trace.parse_error_to_string e
  | Exn s -> "exception " ^ s

let same_outcome same a b =
  match (a, b) with
  | Value x, Value y -> same x y
  | Parse e, Parse f -> e = f
  | Exn s, Exn t -> String.equal s t
  | _ -> false

(* ---- instances on and off the fixed-point grid --------------------- *)

(* Arrivals on 1/999983 and durations on 1/1000003: the lcm of the
   denominators passes [Fixed.max_den], so the engine runs exact. *)
let off_grid_instance_gen ?(max_items = 30) () =
  QCheck2.Gen.(
    let item_gen =
      map3
        (fun size_num arr dur ->
          let arrival = Rat.make arr 999983 in
          Item.make ~id:0 ~size:(Rat.make size_num 12) ~arrival
            ~departure:(Rat.add arrival (Rat.add Rat.one (Rat.make dur 1000003))))
        (int_range 1 12) (int_range 0 40_000_000) (int_range 0 7_000_000)
    in
    map
      (fun items -> Instance.create ~capacity:Rat.one items)
      (list_size (int_range 1 max_items) item_gen))

(* Integer times and quarter sizes: departures and arrivals often meet
   in one bin at one instant, and most fields carry no slash. *)
let coarse_instance_gen =
  QCheck2.Gen.(
    map
      (fun items -> Instance.create ~capacity:Rat.one items)
      (list_size (int_range 1 30)
         (map3
            (fun size arrival duration ->
              Item.make ~id:0 ~size:(Rat.make size 4) ~arrival:(ri arrival)
                ~departure:(ri (arrival + duration)))
            (int_range 1 4) (int_range 0 8) (int_range 1 4))))

(* On the grid or off it, sometimes shifted to negative times. *)
let any_instance_gen =
  QCheck2.Gen.(
    map2
      (fun inst shift ->
        if shift = 0 then inst
        else Instance.shift_time inst ~offset:(Rat.make (-shift) 4))
      (oneof [ instance_gen (); off_grid_instance_gen (); coarse_instance_gen ])
      (oneof [ return 0; int_range 1 100 ]))

(* ---- the CSV scanner ------------------------------------------------ *)

type numeral =
  | Plus  (** [+n] *)
  | Hex  (** [0x..] *)
  | Underscore  (** [1_23] *)
  | Pad19  (** the same value in 19 digits *)
  | Big19  (** a 19-digit value *)
  | Huge  (** past [max_int] *)
  | Min_int
  | Zero_den
  | Neg_den
  | Blanks  (** blanks around the field and its slash *)

type mutation =
  | Flip of int * char
  | Insert of int * string
  | Truncate of int
  | Numeral of int * int * numeral  (** row, column, rewrite *)
  | Swap_ids of int * int
  | Dup_id of int * int
  | Id_out_of_range of int * int
  | Drop_final_newline

let rewrite_int numeral s =
  match int_of_string_opt s with
  | None -> s
  | Some n -> (
      let digits = string_of_int (abs n) and sign = if n < 0 then "-" else "" in
      match numeral with
      | Plus -> if n < 0 then s else "+" ^ s
      | Hex -> Printf.sprintf "%s0x%x" sign (abs n)
      | Underscore ->
          if String.length digits < 2 then s
          else
            sign ^ String.sub digits 0 1 ^ "_"
            ^ String.sub digits 1 (String.length digits - 1)
      | Pad19 -> sign ^ String.make (max 0 (19 - String.length digits)) '0' ^ digits
      | Big19 -> sign ^ "1000000000000000000"
      | Huge -> sign ^ "9999999999999999999"
      | Min_int -> "-4611686018427387904"
      | Zero_den | Neg_den | Blanks -> s)

let rewrite_field numeral field =
  match (numeral, String.index_opt field '/') with
  | Zero_den, Some i -> String.sub field 0 i ^ "/0"
  | Zero_den, None -> field ^ "/0"
  | Neg_den, Some i ->
      String.sub field 0 i ^ "/-" ^ String.sub field (i + 1) (String.length field - i - 1)
  | Neg_den, None -> field ^ "/-1"
  | Blanks, Some i ->
      " " ^ String.sub field 0 i ^ " / "
      ^ String.sub field (i + 1) (String.length field - i - 1)
      ^ "\t"
  | Blanks, None -> " " ^ field ^ " "
  | _, Some i ->
      rewrite_int numeral (String.sub field 0 i)
      ^ "/"
      ^ rewrite_int numeral (String.sub field (i + 1) (String.length field - i - 1))
  | _, None -> rewrite_int numeral field

(* Applies one mutation to the data rows (every line after the two
   headers that has four fields) or to the raw bytes. *)
let mutate text = function
  | Flip (pos, c) when String.length text > 0 ->
      String.mapi (fun i x -> if i = pos mod String.length text then c else x) text
  | Flip _ -> text
  | Insert (pos, s) ->
      let pos = pos mod (String.length text + 1) in
      String.sub text 0 pos ^ s ^ String.sub text pos (String.length text - pos)
  | Truncate pos -> String.sub text 0 (pos mod (String.length text + 1))
  | Drop_final_newline ->
      let n = String.length text in
      if n > 0 && text.[n - 1] = '\n' then String.sub text 0 (n - 1) else text
  | (Numeral _ | Swap_ids _ | Dup_id _ | Id_out_of_range _) as m -> (
      let lines = Array.of_list (String.split_on_char '\n' text) in
      let rows =
        List.filter
          (fun i -> i >= 2 && List.length (String.split_on_char ',' lines.(i)) = 4)
          (List.init (Array.length lines) Fun.id)
        |> Array.of_list
      in
      let nrows = Array.length rows in
      if nrows = 0 then text
      else
        let fields k = Array.of_list (String.split_on_char ',' lines.(rows.(k mod nrows))) in
        let set k f = lines.(rows.(k mod nrows)) <- String.concat "," (Array.to_list f) in
        (match m with
        | Numeral (k, col, numeral) ->
            let f = fields k in
            f.(col mod 4) <- rewrite_field numeral f.(col mod 4);
            set k f
        | Swap_ids (a, b) ->
            let fa = fields a and fb = fields b in
            let ida = fa.(0) in
            fa.(0) <- fb.(0);
            fb.(0) <- ida;
            set a fa;
            set b fb
        | Dup_id (a, b) ->
            let fb = fields b in
            fb.(0) <- (fields a).(0);
            set b fb
        | Id_out_of_range (a, k) ->
            let fa = fields a in
            fa.(0) <- string_of_int (nrows + k);
            set a fa
        | _ -> ());
        String.concat "\n" (Array.to_list lines))

let mutation_gen =
  QCheck2.Gen.(
    let pos = int_range 0 100_000 in
    frequency
      [
        ( 1,
          map2 (fun p c -> Flip (p, c)) pos
            (oneofl [ '0'; '7'; '-'; '/'; ','; '+'; '_'; 'x'; ' '; '\r'; '\n'; '#' ]) );
        ( 1,
          map2 (fun p s -> Insert (p, s)) pos
            (oneofl [ " "; "\r"; "\t"; "\n"; "\n\n"; " \r\n"; ","; "/" ]) );
        (1, map (fun p -> Truncate p) pos);
        ( 4,
          map3 (fun r c n -> Numeral (r, c, n)) pos (int_range 0 3)
            (oneofl
               [ Plus; Hex; Underscore; Pad19; Big19; Huge; Min_int; Zero_den; Neg_den; Blanks ]) );
        (1, map2 (fun a b -> Swap_ids (a, b)) pos pos);
        (1, map2 (fun a b -> Dup_id (a, b)) pos pos);
        (1, map2 (fun a k -> Id_out_of_range (a, k)) pos (int_range 0 3));
        (1, return Drop_final_newline);
      ])

let trace_text_gen =
  QCheck2.Gen.(
    map2
      (fun inst mutations ->
        List.fold_left mutate (Dbp_workload.Trace.to_string inst) mutations)
      any_instance_gen
      (list_size (int_range 0 3) mutation_gen))

let same_instance a b =
  Rat.equal (Instance.capacity a) (Instance.capacity b)
  && Instance.size a = Instance.size b
  && Array.for_all2 Item.equal (Instance.items a) (Instance.items b)

let show_instance inst = Printf.sprintf "%d items" (Instance.size inst)

let prop_scanner_matches_reference =
  QCheck2.Test.make ~count:1000 ~name:"CSV scanner = list parser on mutated traces"
    ~print:String.escaped trace_text_gen (fun text ->
      let got = outcome Dbp_workload.Trace.of_string text
      and want = outcome Reference.trace_of_string text in
      same_outcome same_instance got want
      || QCheck2.Test.fail_reportf "scanner: %s@.reference: %s"
           (show_outcome show_instance got) (show_outcome show_instance want))

(* ---- the packing validator ----------------------------------------- *)

type corruption =
  | Move of int * int  (** item, bin offset *)
  | Assign_out_of_range of int
  | Drop_id of int * int  (** bin, position *)
  | Dup_id of int * int * int  (** bin, position, into bin *)
  | Shift_open of int * Rat.t
  | Shift_close of int * Rat.t
  | Timeline_time of int * Rat.t
  | Timeline_value of int * int
  | Cost of Rat.t
  | Max_bins of int
  | Overfill of int list  (** bins whose capacity drops below their peak *)
  | Tighten  (** every bin's capacity set to its peak: still valid *)

let update a i f =
  let a = Array.copy a in
  let i = i mod Array.length a in
  a.(i) <- f a.(i);
  a

(* Edits breakpoint [k]; an edit [Step_fn] refuses leaves [p] as it is. *)
let edit_timeline (p : Packing.t) k f =
  let points = Step_fn.breakpoints p.timeline in
  let k = k mod max 1 (List.length points) in
  match Step_fn.of_breakpoints (List.mapi (fun j pt -> if j = k then f pt else pt) points) with
  | timeline -> { p with timeline }
  | exception Invalid_argument _ -> p

let corrupt (p : Packing.t) c =
  let nb = Array.length p.bins in
  match c with
  | Move (i, k) ->
      {
        p with
        assignment = update p.assignment i (fun b -> (b + 1 + (k mod nb)) mod nb);
      }
  | Assign_out_of_range i -> { p with assignment = update p.assignment i (fun _ -> nb) }
  | Drop_id (b, k) ->
      {
        p with
        bins =
          update p.bins b (fun r ->
              let k = k mod max 1 (List.length r.item_ids) in
              { r with item_ids = List.filteri (fun j _ -> j <> k) r.item_ids });
      }
  | Dup_id (b, k, into) -> (
      match p.bins.(b mod nb).item_ids with
      | [] -> p
      | ids ->
          let id = List.nth ids (k mod List.length ids) in
          {
            p with
            bins = update p.bins into (fun r -> { r with item_ids = r.item_ids @ [ id ] });
          })
  | Shift_open (b, d) ->
      { p with bins = update p.bins b (fun r -> { r with opened = Rat.add r.opened d }) }
  | Shift_close (b, d) ->
      { p with bins = update p.bins b (fun r -> { r with closed = Rat.add r.closed d }) }
  | Timeline_time (k, d) -> edit_timeline p k (fun (t, v) -> (Rat.add t d, v))
  | Timeline_value (k, d) -> edit_timeline p k (fun (t, v) -> (t, v + d))
  | Cost d -> { p with total_cost = Rat.add p.total_cost d }
  | Max_bins d -> { p with max_bins = p.max_bins + d }
  | Tighten ->
      {
        p with
        bins =
          Array.map (fun (r : Packing.bin_record) -> { r with capacity = r.max_level }) p.bins;
      }
  | Overfill bins ->
      List.fold_left
        (fun (p : Packing.t) b ->
          {
            p with
            bins =
              update p.bins b (fun r -> { r with capacity = Rat.div_int r.max_level 2 });
          })
        p bins

let corruption_gen =
  QCheck2.Gen.(
    let k = int_range 0 10_000 and delta = oneofl [ r 1 4; r (-1) 4; ri 1; ri (-3); r 1 999983 ] in
    frequency
      [
        (1, map2 (fun i b -> Move (i, b)) k k);
        (1, map (fun i -> Assign_out_of_range i) k);
        (1, map2 (fun b j -> Drop_id (b, j)) k k);
        (1, map3 (fun b j into -> Dup_id (b, j, into)) k k k);
        (1, map2 (fun b d -> Shift_open (b, d)) k delta);
        (1, map2 (fun b d -> Shift_close (b, d)) k delta);
        (1, map2 (fun j d -> Timeline_time (j, d)) k delta);
        (1, map2 (fun j d -> Timeline_value (j, d)) k (oneofl [ -1; 1; 2 ]));
        (1, map (fun d -> Cost d) delta);
        (1, map (fun d -> Max_bins d) (oneofl [ -1; 1 ]));
        (1, map (fun bins -> Overfill bins) (list_size (int_range 1 3) k));
        (4, return Tighten);
      ])

let packing_gen =
  QCheck2.Gen.(
    map3
      (fun inst policy corruptions ->
        let p = Simulator.run ~policy:(Option.get (Algorithms.find policy)) inst in
        List.fold_left corrupt p corruptions)
      any_instance_gen
      (oneofl [ "first-fit"; "best-fit"; "next-fit"; "mff" ])
      (list_size (int_range 0 2) corruption_gen))

let show_result = function Ok () -> "Ok" | Error m -> "Error " ^ m

let prop_validate_matches_reference =
  QCheck2.Test.make ~count:600
    ~name:"Packing.validate = list validator on corrupted packings"
    ~print:(fun (p : Packing.t) ->
      Printf.sprintf "%d items, %d bins" (Array.length p.assignment) (Array.length p.bins))
    packing_gen
    (fun p ->
      let got = outcome Packing.validate p and want = outcome Reference.validate p in
      same_outcome ( = ) got want
      || QCheck2.Test.fail_reportf "validate: %s@.reference: %s"
           (show_outcome show_result got) (show_outcome show_result want))

(* ---- step functions ------------------------------------------------ *)

let points_gen =
  QCheck2.Gen.(list_size (int_range 0 12) (pair (rat_gen ~max_den:4 ()) (int_range (-3) 3)))

(* Half the lists are closed off so that their deltas cancel. *)
let deltas_gen =
  QCheck2.Gen.(
    map2
      (fun points close ->
        let total = List.fold_left (fun acc (_, d) -> acc + d) 0 points in
        if close && total <> 0 then (ri 1000, -total) :: points else points)
      points_gen bool)

let same_points a b =
  List.length a = List.length b
  && List.for_all2 (fun (t, v) (u, w) -> Rat.equal t u && v = w) a b

let show_points points =
  String.concat " " (List.map (fun (t, v) -> Printf.sprintf "%s->%d" (Rat.to_string t) v) points)

let prop_step_fn_matches_reference =
  QCheck2.Test.make ~count:1000
    ~name:"Step_fn of_deltas/of_breakpoints/integral = list versions"
    ~print:show_points deltas_gen (fun events ->
      let got = outcome (fun e -> Step_fn.breakpoints (Step_fn.of_deltas e)) events
      and want = outcome Reference.of_deltas events in
      let sorted = List.sort_uniq (fun (t, _) (u, _) -> Rat.compare t u) events in
      let built = outcome (fun e -> Step_fn.breakpoints (Step_fn.of_breakpoints e)) sorted
      and built_ref = outcome Reference.of_breakpoints sorted in
      let unsorted = outcome (fun e -> Step_fn.breakpoints (Step_fn.of_breakpoints e)) events
      and unsorted_ref = outcome Reference.of_breakpoints events in
      let integral =
        match got with
        | Value points ->
            Rat.equal
              (Step_fn.integral (Step_fn.of_breakpoints points))
              (Reference.integral points)
        | _ -> true
      in
      (same_outcome same_points got want
      && same_outcome same_points built built_ref
      && same_outcome same_points unsorted unsorted_ref
      && integral)
      || QCheck2.Test.fail_reportf "of_deltas: %s / %s@.of_breakpoints: %s / %s"
           (show_outcome show_points got) (show_outcome show_points want)
           (show_outcome show_points built) (show_outcome show_points built_ref))

(* ---- the NDJSON feed ------------------------------------------------- *)

module TE = Dbp_obs.Trace_event

(* Integers of every width the scanner reads: small, negative and
   18-digit. *)
let wire_int_gen =
  QCheck2.Gen.(
    frequency
      [
        (6, int_range 0 999);
        (1, int_range (-999) (-1));
        (1, int_range 100_000_000_000_000_000 999_999_999_999_999_999);
      ])

let wire_rat_gen =
  QCheck2.Gen.(
    map2 Rat.make wire_int_gen
      (frequency [ (4, int_range 1 12); (1, int_range 1 999_999_999_999_999_999) ]))

let wire_vec_gen = QCheck2.Gen.(map Vec.make (list_size (int_range 1 3) wire_rat_gen))

(* Every kind, arrivals and departures most often. *)
let wire_kind_gen =
  QCheck2.Gen.(
    let i = wire_int_gen and q = wire_rat_gen and v = wire_vec_gen in
    let tag = string_size ~gen:(oneofl [ 'a'; '"'; '\\'; '\n'; '\001'; ',' ]) (int_range 0 4) in
    frequency
      [
        (6, map2 (fun item size -> TE.Arrive { item; size }) i q);
        (6, map3 (fun item bin held -> TE.Depart { item; bin; held }) i i q);
        (1, map3 (fun item bin level -> TE.Pack { item; bin; level; residual = level }) i i q);
        (1, map3 (fun bin tag capacity -> TE.Bin_open { bin; tag; capacity }) i tag q);
        (1, map3 (fun bin opened cost -> TE.Bin_close { bin; opened; cost }) i q q);
        (1, map3 (fun bin victims lost_level -> TE.Fail_bin { bin; victims; lost_level }) i i q);
        ( 1,
          map3
            (fun (item, new_item) (from_bin, to_bin) size ->
              TE.Migrate { item; new_item; from_bin; to_bin; size })
            (pair i i) (pair i i) q );
        (1, map2 (fun item attempt -> TE.Retry { item; attempt }) i i);
        (1, map (fun item -> TE.Shed { item }) i);
        (1, map2 (fun item latency -> TE.Resume { item; latency }) i q);
        (1, map2 (fun item sizes -> TE.Varrive { item; sizes }) i v);
        (1, map3 (fun item bin levels -> TE.Vpack { item; bin; levels; residuals = levels }) i i v);
        (1, map3 (fun bin tag capacities -> TE.Vbin_open { bin; tag; capacities }) i tag v);
      ])

(* A line as its keys and the raw bytes of their values. *)
let fields_of line =
  match TE.parse_flat_object line with
  | Ok fields ->
      List.map
        (function
          | k, TE.Int i -> (k, string_of_int i)
          | k, TE.Str s -> (k, "\"" ^ TE.escape s ^ "\""))
        fields
  | Error msg -> failwith msg

let render fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> "\"" ^ k ^ "\":" ^ v) fields) ^ "}"

(* The lines of a valid stream: [to_ndjson] of events of every kind and
   the lines [Serve.arrive_wire] and [Serve.depart_wire] write, at
   times that never go back. *)
let wire_lines_gen =
  QCheck2.Gen.(
    map2
      (fun start steps ->
        let time = ref start in
        List.mapi
          (fun seq (dt, (wire, kind)) ->
            time := Rat.add !time dt;
            let t = Rat.to_string !time in
            match (wire, kind) with
            | true, TE.Arrive { item; size } ->
                Dbp_serve.Serve.arrive_wire ~seq ~time:t ~item ~size:(Rat.to_string size)
            | true, TE.Depart { item; _ } -> Dbp_serve.Serve.depart_wire ~seq ~time:t ~item
            | _ -> TE.to_ndjson { TE.seq; time = !time; kind })
          steps)
      (rat_gen ())
      (list_size (int_range 0 16)
         (pair
            (oneof [ return Rat.zero; pos_rat_gen ~hi_num:40 ~max_den:12 () ])
            (pair bool wire_kind_gen))))

type wire_numeral =
  | Plus
  | Hex
  | Underscore
  | Space
  | Digits of int  (** that many digits *)
  | Min_int
  | Negate
  | Zero_den
  | Neg_den
  | Double  (** [n/d] as [2n/2d] *)

type edit =
  | Swap of int * int
  | Dup of int
  | Drop of int
  | Unknown of int
  | Numeral of int * wire_numeral
  | Escape of int * string  (** prefix a string value *)
  | Pad of int  (** blanks around a value *)
  | Seq of int  (** moved by that much *)
  | Time_back
  | Trail of string  (** after the closing brace *)
  | Crlf
  | Blank_before

let rewrite_numeral numeral v =
  let n = String.length v in
  let quoted = n >= 2 && v.[0] = '"' in
  let body = if quoted then String.sub v 1 (n - 2) else v in
  let num, den =
    match String.index_opt body '/' with
    | Some i -> (String.sub body 0 i, Some (String.sub body (i + 1) (String.length body - i - 1)))
    | None -> (body, None)
  in
  let num =
    match numeral with
    | Plus -> "+" ^ num
    | Hex -> "0x1F"
    | Underscore -> "1_000"
    | Space -> " " ^ num
    | Digits k -> String.make 1 '9' ^ String.make (k - 1) '0'
    | Min_int -> string_of_int min_int
    | Negate -> if String.length num > 0 && num.[0] = '-' then String.sub num 1 (String.length num - 1) else "-" ^ num
    | Zero_den | Neg_den | Double -> num
  in
  let body =
    match (numeral, den) with
    | Zero_den, _ -> num ^ "/0"
    | Neg_den, Some d -> num ^ "/-" ^ d
    | Neg_den, None -> num ^ "/-1"
    | Double, _ -> (
        match Rat.of_string body with
        | q -> Printf.sprintf "%d/%d" (2 * Rat.num q) (2 * Rat.den q)
        | exception Failure _ -> body)
    | _, Some d -> num ^ "/" ^ d
    | _, None -> num
  in
  if quoted then "\"" ^ body ^ "\"" else body

let edit_line ~prev_time line = function
  | Swap (a, b) ->
      let f = Array.of_list (fields_of line) in
      let n = Array.length f in
      let a = a mod n and b = b mod n in
      let fa = f.(a) in
      f.(a) <- f.(b);
      f.(b) <- fa;
      render (Array.to_list f)
  | Dup a ->
      let f = fields_of line in
      let a = a mod List.length f in
      render (List.concat (List.mapi (fun i x -> if i = a then [ x; x ] else [ x ]) f))
  | Drop a ->
      let f = fields_of line in
      let a = a mod List.length f in
      render (List.filteri (fun i _ -> i <> a) f)
  | Unknown a ->
      let f = fields_of line in
      let a = a mod (List.length f + 1) in
      render (List.filteri (fun i _ -> i < a) f @ [ ("x", "1") ] @ List.filteri (fun i _ -> i >= a) f)
  | Numeral (a, numeral) ->
      let f = fields_of line in
      let a = a mod List.length f in
      render (List.mapi (fun i (k, v) -> if i = a then (k, rewrite_numeral numeral v) else (k, v)) f)
  | Escape (a, esc) ->
      let f = fields_of line in
      let a = a mod List.length f in
      render
        (List.mapi
           (fun i (k, v) ->
             if i = a && String.length v >= 2 && v.[0] = '"' then
               (k, "\"" ^ esc ^ String.sub v 1 (String.length v - 1))
             else (k, v))
           f)
  | Pad a ->
      let f = fields_of line in
      let a = a mod List.length f in
      render (List.mapi (fun i (k, v) -> if i = a then (k, " " ^ v ^ "\t") else (k, v)) f)
  | Seq d ->
      render
        (List.map
           (fun (k, v) -> if k = "seq" then (k, string_of_int (int_of_string v + d)) else (k, v))
           (fields_of line))
  | Time_back ->
      render
        (List.map
           (fun (k, v) ->
             if k = "t" then (k, "\"" ^ Rat.to_string (Rat.sub prev_time Rat.one) ^ "\"") else (k, v))
           (fields_of line))
  | Trail s -> line ^ s
  | Crlf -> line ^ "\r"
  | Blank_before -> "\n" ^ line

let edit_gen =
  QCheck2.Gen.(
    let k = int_range 0 20 in
    frequency
      [
        (1, map2 (fun a b -> Swap (a, b)) k k);
        (1, map (fun a -> Dup a) k);
        (1, map (fun a -> Drop a) k);
        (1, map (fun a -> Unknown a) k);
        ( 5,
          map2
            (fun a n -> Numeral (a, n))
            k
            (oneofl
               [
                 Plus; Hex; Underscore; Space; Digits 18; Digits 19; Digits 20; Min_int; Negate;
                 Zero_den; Neg_den; Double;
               ]) );
        (1, map2 (fun a e -> Escape (a, e)) k (oneofl [ "\\u0031"; "\\u0_31"; "\\\""; "\\n" ]));
        (1, map (fun a -> Pad a) k);
        (1, map (fun d -> Seq d) (oneofl [ -1; 1; -1000 ]));
        (1, return Time_back);
        (1, map (fun s -> Trail s) (oneofl [ " "; "x"; "}"; "\t"; "\r\r" ]));
        (1, return Crlf);
        (1, return Blank_before);
      ])

type byte_edit = Flip of int * char | Insert of int * string | No_final_newline

let byte_edit text = function
  | Flip (pos, c) when String.length text > 0 ->
      String.mapi (fun i x -> if i = pos mod String.length text then c else x) text
  | Flip _ -> text
  | Insert (pos, s) ->
      let pos = pos mod (String.length text + 1) in
      String.sub text 0 pos ^ s ^ String.sub text pos (String.length text - pos)
  | No_final_newline ->
      let n = String.length text in
      if n > 0 && text.[n - 1] = '\n' then String.sub text 0 (n - 1) else text

let byte_edit_gen =
  QCheck2.Gen.(
    let pos = int_range 0 100_000 in
    frequency
      [
        ( 2,
          map2 (fun p c -> Flip (p, c)) pos
            (oneofl [ '0'; '9'; '-'; '/'; ','; ':'; '"'; '{'; '}'; '\\'; ' '; '\r'; '\n'; 'a' ]) );
        (1, map2 (fun p s -> Insert (p, s)) pos (oneofl [ " "; "\t"; "\r"; "\n"; "\r\n"; "\n\n" ]));
        (1, return No_final_newline);
      ])

(* A stream: valid lines, some edited, joined with newlines, some
   bytes edited, and the widths of the reads that deliver it. *)
let wire_stream_gen =
  QCheck2.Gen.(
    map
      (fun (lines, (edits, byte_edits), widths) ->
        let lines = Array.of_list lines in
        let n = Array.length lines in
        List.iter
          (fun (k, e) ->
            if n > 0 then begin
              let k = k mod n in
              let prev_time =
                match TE.of_ndjson lines.(max 0 (k - 1)) with
                | Ok ev -> ev.time
                | Error _ -> Rat.zero
              in
              (* an earlier edit may have broken the line beyond [fields_of] *)
              match edit_line ~prev_time lines.(k) e with
              | l -> lines.(k) <- l
              | exception (Failure _ | Invalid_argument _ | Division_by_zero) -> ()
            end)
          edits;
        let text = String.concat "" (Array.to_list (Array.map (fun l -> l ^ "\n") lines)) in
        (List.fold_left byte_edit text byte_edits, widths))
      (triple wire_lines_gen
         (pair
            (frequency
               [ (1, return []); (1, list_size (int_range 1 3) (pair (int_range 0 100) edit_gen)) ])
            (frequency [ (2, return []); (1, list_size (int_range 1 2) byte_edit_gen) ]))
         (list_size (int_range 1 12) (int_range 1 120))))

type 'a fed = Fed of 'a | Raised of string

let fed f = match f () with r -> Fed r | exception e -> Raised (Printexc.to_string e)

let same_fed a b =
  match (a, b) with
  | Fed (Ok x), Fed (Ok y) ->
      List.equal String.equal (List.map TE.to_ndjson x) (List.map TE.to_ndjson y)
  | Fed (Error e), Fed (Error f) -> e = f
  | Raised s, Raised t -> String.equal s t
  | _ -> false

let show_fed = function
  | Fed (Ok evs) -> String.concat "\n" (List.map TE.to_ndjson evs)
  | Fed (Error e) -> "error " ^ TE.stream_error_to_string e
  | Raised s -> "raised " ^ s

let prop_feed_matches_reference =
  QCheck2.Test.make ~count:2000
    ~name:"Feed = of_ndjson on every line, on mutated fragmented streams"
    ~print:(fun (text, widths) ->
      Printf.sprintf "%S in reads of %s" text
        (String.concat "," (List.map string_of_int widths)))
    wire_stream_gen
    (fun (text, widths) ->
      let f = TE.Feed.create () and g = Reference.Feed.create () in
      let check what got want =
        same_fed got want
        && TE.Feed.bytes_consumed f = Reference.Feed.bytes_consumed g
        && TE.Feed.next_seq f = Reference.Feed.next_seq g
        || QCheck2.Test.fail_reportf
             "%s@.feed: %s (consumed %d, next seq %d)@.reference: %s (consumed %d, next seq %d)"
             what (show_fed got) (TE.Feed.bytes_consumed f) (TE.Feed.next_seq f)
             (show_fed want)
             (Reference.Feed.bytes_consumed g)
             (Reference.Feed.next_seq g)
      in
      let n = String.length text in
      (* Each read lands at an offset inside a larger string. *)
      let framed = "##" ^ text ^ "##" in
      let rec go pos = function
        | _ when pos >= n -> true
        | w :: rest ->
            let w = min w (n - pos) in
            check
              (Printf.sprintf "read of %d bytes at %d" w pos)
              (fed (fun () -> TE.Feed.feed f ~off:(pos + 2) ~len:w framed))
              (fed (fun () -> Reference.Feed.feed g (String.sub text pos w)))
            && go (pos + w) rest
        | [] -> go pos [ n - pos ]
      in
      go 0 widths
      && check "close" (fed (fun () -> TE.Feed.close f)) (fed (fun () -> Reference.Feed.close g)))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_scanner_matches_reference;
      prop_validate_matches_reference;
      prop_step_fn_matches_reference;
      prop_feed_matches_reference;
    ]
