open Dbp_num

type bin_record = {
  bin_id : int;
  tag : string;
  capacity : Rat.t;
  opened : Rat.t;
  closed : Rat.t;
  item_ids : int list;
  placements : (Rat.t * int) list;
  max_level : Rat.t;
}

type t = {
  instance : Instance.t;
  policy_name : string;
  bins : bin_record array;
  assignment : int array;
  timeline : Step_fn.t;
  total_cost : Rat.t;
  max_bins : int;
  any_fit_violations : int;
}

let bins_used t = Array.length t.bins
let usage_period (b : bin_record) = Interval.make b.opened b.closed
let cost t ~rate = Rat.mul t.total_cost rate
let bin_of_item t item_id = t.bins.(t.assignment.(item_id))
let is_any_fit t = t.any_fit_violations = 0

(* Sorts [a.(lo .. hi-1)] by [cmp], stably, with [tmp] as the merge
   buffer; an already ordered pair of halves costs one comparison. *)
let rec merge_sort cmp a tmp lo hi =
  if hi - lo > 1 then begin
    let mid = (lo + hi) / 2 in
    merge_sort cmp a tmp lo mid;
    merge_sort cmp a tmp mid hi;
    if cmp a.(mid - 1) a.(mid) > 0 then begin
      Array.blit a lo tmp lo (mid - lo);
      let i = ref lo and j = ref mid in
      for k = lo to hi - 1 do
        if !i < mid && (!j >= hi || cmp a.(!j) tmp.(!i) >= 0) then begin
          a.(k) <- tmp.(!i);
          incr i
        end
        else begin
          a.(k) <- a.(!j);
          incr j
        end
      done
    end
  end

(* The index past the run of [time] that starts at [a.(i)]. *)
let rec skip_run a i time =
  if i < Array.length a && Rat.equal a.(i) time then skip_run a (i + 1) time
  else i

let is_sorted a =
  let rec go i =
    i >= Array.length a || (Rat.compare a.(i - 1) a.(i) <= 0 && go (i + 1))
  in
  go 1

let validate t =
  let ( let* ) = Result.bind in
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let instance = t.instance in
  let n = Instance.size instance in
  (* 1. Assignment totality and containment of item intervals.  Item
     [i] is marked once the bin it is assigned to lists it. *)
  let* () =
    if Array.length t.assignment <> n then fail "assignment length mismatch"
    else Ok ()
  in
  let recorded = Array.make n false in
  Array.iteri
    (fun k b ->
      List.iter
        (fun id ->
          if id >= 0 && id < n && t.assignment.(id) = k then
            recorded.(id) <- true)
        b.item_ids)
    t.bins;
  let rec check_items i =
    if i >= n then Ok ()
    else
      let r = Instance.item instance i in
      let b = t.bins.(t.assignment.(i)) in
      if not recorded.(i) then
        fail "item %d not recorded in its bin %d" i b.bin_id
      else if not (Interval.contains_interval (usage_period b) (Item.interval r))
      then fail "item %d interval outside bin %d usage period" i b.bin_id
      else check_items (i + 1)
  in
  let* () = check_items 0 in
  (* 2. Replay every bin's level over its placements and departures, in
     time order with departures first at equal times (by signed size:
     departures largest first, then arrivals smallest first).  Event
     [e] is item [e lsr 1]'s arrival, or its departure when [e] is odd;
     one scratch array and its merge buffer serve every bin.  The
     arrivals fill the first half in packing order, which is usually
     time order already, and the departures the second. *)
  let items = Instance.items instance in
  let by_time_then_delta e1 e2 =
    let r1 = items.(e1 lsr 1) and r2 = items.(e2 lsr 1) in
    match (e1 land 1, e2 land 1) with
    | 0, 0 ->
        let c = Rat.compare r1.arrival r2.arrival in
        if c <> 0 then c else Rat.compare r1.size r2.size
    | 1, 1 ->
        let c = Rat.compare r1.departure r2.departure in
        if c <> 0 then c else Rat.compare r2.size r1.size
    | 1, _ ->
        let c = Rat.compare r1.departure r2.arrival in
        if c <> 0 then c else -1
    | _ ->
        let c = Rat.compare r1.arrival r2.departure in
        if c <> 0 then c else 1
  in
  let events = ref [||] and buffer = ref [||] in
  let exceeded = ref None in
  Array.iter
    (fun b ->
      let k = List.length b.item_ids in
      let m = 2 * k in
      if m > Array.length !events then begin
        events := Array.make (Int.max m (2 * Array.length !events)) 0;
        buffer := Array.make (Array.length !events) 0
      end;
      let ev = !events in
      List.iteri
        (fun j id ->
          ev.(j) <- id lsl 1;
          ev.(k + j) <- (id lsl 1) lor 1)
        b.item_ids;
      merge_sort by_time_then_delta ev !buffer 0 m;
      (* Filling an empty bin and emptying a full one skip the
         addition, whose result they know exactly (it cannot
         overflow). *)
      let level = ref Rat.zero in
      for j = 0 to m - 1 do
        let e = ev.(j) in
        let s = items.(e lsr 1).size in
        (level :=
           if e land 1 = 0 then
             if Rat.is_zero !level then s else Rat.add !level s
           else if Rat.equal !level s then Rat.zero
           else Rat.sub !level s);
        if Rat.(!level > b.capacity) then exceeded := Some b.bin_id
      done)
    t.bins;
  let* () =
    match !exceeded with
    | Some id -> fail "bin %d exceeds capacity" id
    | None -> Ok ()
  in
  (* 3. Timeline consistency: the open count rebuilt from the sorted
     open and close times must be [t.timeline] breakpoint for
     breakpoint, where a time whose opens and closes cancel makes no
     breakpoint. *)
  let nb = Array.length t.bins in
  let opens = Array.map (fun b -> b.opened) t.bins in
  if not (is_sorted opens) then Array.stable_sort Rat.compare opens;
  let closes = Array.map (fun b -> b.closed) t.bins in
  Array.stable_sort Rat.compare closes;
  let rec walk i j v points =
    if i >= nb && j >= nb then List.is_empty points
    else
      let time =
        if j >= nb || (i < nb && Rat.(opens.(i) <= closes.(j))) then opens.(i)
        else closes.(j)
      in
      let i' = skip_run opens i time and j' = skip_run closes j time in
      let v' = v + (i' - i) - (j' - j) in
      if v' = v then walk i' j' v points
      else
        match points with
        | (at, value) :: rest when Rat.equal at time && value = v' ->
            walk i' j' v' rest
        | _ -> false
  in
  let* () =
    if walk 0 0 0 (Step_fn.breakpoints t.timeline) then Ok ()
    else fail "timeline does not match bin usage periods"
  in
  (* 4. Cost consistency: integral of timeline = sum of period lengths. *)
  let by_periods =
    Array.fold_left
      (fun acc b -> Rat.add acc (Interval.length (usage_period b)))
      Rat.zero t.bins
  in
  let by_integral = Step_fn.integral t.timeline in
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

let pp_summary fmt t =
  Format.fprintf fmt
    "@[<v>%s: %d bins, cost=%a (%a), max open=%d, any-fit violations=%d@]"
    t.policy_name (bins_used t) Rat.pp t.total_cost Rat.pp_float t.total_cost
    t.max_bins t.any_fit_violations
