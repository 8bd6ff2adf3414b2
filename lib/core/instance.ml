open Dbp_num

type t = { items : Item.t array; capacity : Rat.t }

let of_array ~capacity items =
  if Rat.sign capacity <= 0 then
    invalid_arg "Instance.create: capacity must be positive";
  if Array.length items = 0 then invalid_arg "Instance.create: empty item list";
  Array.iter
    (fun (r : Item.t) ->
      if Rat.(r.size > capacity) then
        invalid_arg
          (Format.asprintf "Instance.create: %a exceeds capacity %a" Item.pp r
             Rat.pp capacity))
    items;
  (* An item already numbered by its index that [Item.make] would
     accept is kept as it is; any other is re-made, which renumbers it
     or raises [Item.make]'s error. *)
  Array.iteri
    (fun id (r : Item.t) ->
      if
        r.id <> id
        || Rat.sign r.size <= 0
        || Rat.(r.departure <= r.arrival)
      then
        items.(id) <-
          Item.make ~id ~size:r.size ~arrival:r.arrival ~departure:r.departure)
    items;
  { items; capacity }

let create ~capacity items = of_array ~capacity (Array.of_list items)

let items t = t.items
let capacity t = t.capacity
let size t = Array.length t.items
let item t i = t.items.(i)

let fold_items f init t = Array.fold_left f init t.items

let packing_period t =
  let first =
    fold_items (fun acc (r : Item.t) -> Rat.min acc r.arrival)
      (t.items.(0)).Item.arrival t
  in
  let last =
    fold_items (fun acc (r : Item.t) -> Rat.max acc r.departure)
      (t.items.(0)).Item.departure t
  in
  Interval.make first last

let span t =
  Interval.union_measure (Array.to_list (Array.map Item.interval t.items))

let total_demand t =
  fold_items (fun acc r -> Rat.add acc (Item.demand r)) Rat.zero t

let min_interval_length t =
  fold_items (fun acc r -> Rat.min acc (Item.length r))
    (Item.length t.items.(0)) t

let max_interval_length t =
  fold_items (fun acc r -> Rat.max acc (Item.length r))
    (Item.length t.items.(0)) t

let mu t = Rat.div (max_interval_length t) (min_interval_length t)

let max_size t =
  fold_items (fun acc (r : Item.t) -> Rat.max acc r.size)
    (t.items.(0)).Item.size t

let min_size t =
  fold_items (fun acc (r : Item.t) -> Rat.min acc r.size)
    (t.items.(0)).Item.size t

let active_at t time =
  Array.to_list t.items |> List.filter (fun r -> Item.active_at r time)

let active_count t =
  Array.to_list t.items
  |> List.concat_map (fun (r : Item.t) ->
         [ (r.arrival, 1); (r.departure, -1) ])
  |> Step_fn.of_deltas

let sizes_below t threshold =
  Array.for_all (fun (r : Item.t) -> Rat.(r.size < threshold)) t.items

let sizes_at_least t threshold =
  Array.for_all (fun (r : Item.t) -> Rat.(r.size >= threshold)) t.items

let event_times t =
  Array.to_list t.items
  |> List.concat_map (fun (r : Item.t) -> [ r.arrival; r.departure ])
  |> List.sort_uniq Rat.compare

let restrict t ~f =
  match Array.to_list t.items |> List.filter f with
  | [] -> None
  | kept -> Some (create ~capacity:t.capacity kept)

let pp fmt t =
  Format.fprintf fmt "@[<v>instance: %d items, W=%a, mu=%a, span=%a, u(R)=%a@]"
    (size t) Rat.pp t.capacity Rat.pp (mu t) Rat.pp (span t) Rat.pp
    (total_demand t)

let map_items t ~capacity ~f =
  create ~capacity (List.map f (Array.to_list t.items))

let scale_time t ~factor =
  if Rat.sign factor <= 0 then invalid_arg "Instance.scale_time: factor <= 0";
  map_items t ~capacity:t.capacity ~f:(fun (r : Item.t) ->
      Item.make ~id:r.id ~size:r.size
        ~arrival:(Rat.mul factor r.arrival)
        ~departure:(Rat.mul factor r.departure))

let shift_time t ~offset =
  map_items t ~capacity:t.capacity ~f:(fun (r : Item.t) ->
      Item.make ~id:r.id ~size:r.size
        ~arrival:(Rat.add offset r.arrival)
        ~departure:(Rat.add offset r.departure))

let scale_sizes t ~factor =
  if Rat.sign factor <= 0 then invalid_arg "Instance.scale_sizes: factor <= 0";
  map_items t
    ~capacity:(Rat.mul factor t.capacity)
    ~f:(fun (r : Item.t) ->
      Item.make ~id:r.id ~size:(Rat.mul factor r.size) ~arrival:r.arrival
        ~departure:r.departure)
