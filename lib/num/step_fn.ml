(* Canonical representation: a list of (time, value) pairs, strictly
   increasing in time, with no two consecutive equal values, value 0
   before the first breakpoint, and final value 0.  The function is
   right-continuous: the pair (t, v) means "value v on [t, t_next)". *)

type t = (Rat.t * int) list

let empty = []

let canonicalise points =
  let rec dedup prev = function
    | [] -> []
    | (t, v) :: rest ->
        if v = prev then dedup prev rest else (t, v) :: dedup v rest
  in
  dedup 0 points

(* One pass checks the order, the final value and whether the input
   is canonical already (values change at every point, starting from
   0); only a non-canonical input is copied. *)
let of_breakpoints points =
  let rec check prev canonical = function
    | (t1, v) :: ((t2, _) :: _ as rest) ->
        if Rat.(t2 <= t1) then
          invalid_arg "Step_fn.of_breakpoints: unsorted breakpoints";
        check v (canonical && v <> prev) rest
    | [ (_, v) ] ->
        if v <> 0 then
          invalid_arg "Step_fn.of_breakpoints: final value must be 0";
        canonical && v <> prev
    | [] -> true
  in
  if check 0 true points then points else canonicalise points

(* Sorts the events as an array, then walks it back to front: the value
   from the last time on is 0, each run of equal times changes it by
   its summed delta, and a run that sums to 0 leaves no breakpoint, so
   the list comes out canonical with no reversal. *)
let of_deltas events =
  let a = Array.of_list events in
  Array.stable_sort (fun (t1, _) (t2, _) -> Rat.compare t1 t2) a;
  if Array.fold_left (fun acc (_, d) -> acc + d) 0 a <> 0 then
    invalid_arg "Step_fn.of_deltas: deltas do not cancel";
  let points = ref [] and v = ref 0 and i = ref (Array.length a - 1) in
  while !i >= 0 do
    let time = fst a.(!i) and d = ref 0 in
    while !i >= 0 && Rat.equal (fst a.(!i)) time do
      d := !d + snd a.(!i);
      decr i
    done;
    if !d <> 0 then points := (time, !v) :: !points;
    v := !v - !d
  done;
  !points

let value_at t time =
  let rec go value = function
    | [] -> value
    | (bp, v) :: rest -> if Rat.(bp <= time) then go v rest else value
  in
  go 0 t

let integral_pieces t ~clip =
  (* Fold over consecutive breakpoint pairs, yielding (value, length)
     pieces, optionally clipped to an interval. *)
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

(* Sums the pieces last first.  The value does not depend on the
   order, but where a [Rat.Overflow] can occur does, and
   test/reference.ml holds this sum to that order. *)
let rec integral = function
  | (t1, v) :: ((t2, _) :: _ as rest) ->
      Rat.add (integral rest) (Rat.mul_int (Rat.sub t2 t1) v)
  | _ -> Rat.zero

let integral_over t iv =
  integral_pieces t ~clip:(Some iv)
  |> List.map (fun (v, len) -> Rat.mul_int len v)
  |> Rat.sum

let max_value t = List.fold_left (fun m (_, v) -> Stdlib.max m v) 0 t

let support = function
  | [] -> None
  | (t0, _) :: _ as points ->
      let rec last = function
        | [ (t, _) ] -> t
        | _ :: rest -> last rest
        | [] -> assert false
      in
      Some (Interval.make t0 (last points))

let measure_positive t =
  integral_pieces t ~clip:None
  |> List.filter_map (fun (v, len) -> if v > 0 then Some len else None)
  |> Rat.sum

let breakpoints t = t

(* Merge the breakpoints of two step functions, combining values with
   [f].  Used for pointwise addition. *)
let combine f a b =
  let times =
    List.sort_uniq Rat.compare (List.map fst a @ List.map fst b)
  in
  List.map (fun time -> (time, f (value_at a time) (value_at b time))) times
  |> canonicalise

let add a b = combine ( + ) a b
let scale t k = canonicalise (List.map (fun (time, v) -> (time, v * k)) t)

let map t ~f =
  if f 0 <> 0 then invalid_arg "Step_fn.map: f 0 must be 0"
  else canonicalise (List.map (fun (time, v) -> (time, f v)) t)

let equal a b =
  List.length a = List.length b
  && List.for_all2 (fun (t1, v1) (t2, v2) -> Rat.equal t1 t2 && v1 = v2) a b

let pp fmt t =
  Format.fprintf fmt "@[<h>";
  List.iter (fun (time, v) -> Format.fprintf fmt "%a->%d " Rat.pp time v) t;
  Format.fprintf fmt "@]"
