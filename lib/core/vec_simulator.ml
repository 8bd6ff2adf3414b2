open Dbp_num

(* The DVBP engine (see vec_simulator.mli): a thin instance of the
   exact engine over [Vec.t], plus the vector packing result and its
   independent validator. *)

type bin_record = {
  vr_id : int;
  vr_tag : string;
  vr_capacity : Vec.t;
  vr_opened : Rat.t;
  vr_closed : Rat.t;
  vr_item_ids : int list;
  vr_placements : (Rat.t * int) list;
  vr_max_level : Vec.t;
}

type result = {
  r_instance : Vec_instance.t;
  r_policy_name : string;
  r_bins : bin_record array;
  r_assignment : int array;
  r_timeline : Step_fn.t;
  r_total_cost : Rat.t;
  r_max_bins : int;
  r_any_fit_violations : int;
}

let validate (r : result) =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let instance = r.r_instance in
  let n = Vec_instance.size instance in
  let exception Bad of string in
  try
    if Array.length r.r_assignment <> n then
      raise (Bad "assignment length mismatch");
    Array.iteri
      (fun item_id bin_id ->
        if bin_id < 0 || bin_id >= Array.length r.r_bins then
          raise (Bad (Printf.sprintf "item %d in unknown bin %d" item_id bin_id));
        let b = r.r_bins.(bin_id) in
        let it = Vec_instance.item instance item_id in
        if Rat.(it.Vec_instance.arrival < b.vr_opened) then
          raise (Bad (Printf.sprintf "item %d placed before bin %d opened"
                        item_id bin_id));
        if Rat.(it.Vec_instance.departure > b.vr_closed) then
          raise (Bad (Printf.sprintf "item %d outlives bin %d" item_id bin_id)))
      r.r_assignment;
    (* Per-bin: replay levels over the bin's own event sequence and
       check the per-dimension capacity at every instant. *)
    Array.iter
      (fun b ->
        let deltas = ref [] in
        List.iter
          (fun item_id ->
            if r.r_assignment.(item_id) <> b.vr_id then
              raise (Bad (Printf.sprintf
                            "bin %d lists item %d assigned elsewhere" b.vr_id
                            item_id));
            let it = Vec_instance.item instance item_id in
            deltas :=
              (it.Vec_instance.arrival, it.Vec_instance.size, true)
              :: (it.Vec_instance.departure, it.Vec_instance.size, false)
              :: !deltas)
          b.vr_item_ids;
        let events =
          List.sort
            (fun (t1, _, a1) (t2, _, a2) ->
              let c = Rat.compare t1 t2 in
              if c <> 0 then c else Bool.compare a1 a2)
            !deltas
        in
        let level = ref (Vec.zero ~dims:(Vec.dim b.vr_capacity)) in
        List.iter
          (fun (_, size, is_arrival) ->
            level :=
              (if is_arrival then Vec.add !level size else Vec.sub !level size);
            if not (Vec.le !level b.vr_capacity) then
              raise (Bad (Printf.sprintf "bin %d exceeds capacity" b.vr_id)))
          events)
      r.r_bins;
    let cost_of_bins =
      Array.fold_left
        (fun acc b -> Rat.add acc (Rat.sub b.vr_closed b.vr_opened))
        Rat.zero r.r_bins
    in
    if not (Rat.equal cost_of_bins r.r_total_cost) then
      raise (Bad "total cost does not match bin usage periods");
    if not (Rat.equal (Step_fn.integral r.r_timeline) r.r_total_cost) then
      raise (Bad "timeline integral does not match total cost");
    if Step_fn.max_value r.r_timeline <> r.r_max_bins then
      raise (Bad "max_bins does not match timeline");
    Ok ()
  with Bad m -> err "%s" m

module Online = struct
  module Core = Exact_engine.Vector

  type t = Core.t

  let create ?audit ?sink ?metrics ~(policy : Vec_policy.t) ~capacity () =
    Core.create ?audit ?sink ?metrics ~handlers:(policy.Vec_policy.spawn ~capacity)
      ~capacity ()

  let arrive = Core.arrive
  let depart = Core.depart
  let now = Core.now
  let open_bins = Core.open_bins
  let bin_of_item = Core.bin_of_item
  let level_of = Core.level_of
  let audit = Core.audit

  let finish t ~instance =
    let records =
      Core.finish t ~items:(Vec_instance.size instance)
        ~record:(fun (b : Core.bin) ~closed ->
          {
            vr_id = b.id;
            vr_tag = b.tag;
            vr_capacity = b.capacity;
            vr_opened = b.opened;
            vr_closed = closed;
            vr_item_ids = Core.item_ids b;
            vr_placements = Core.placements b;
            vr_max_level = b.max_level;
          })
    in
    let timeline, total_cost =
      Exact_engine.timeline_and_cost
        ~opened:(fun b -> b.vr_opened)
        ~closed:(fun b -> b.vr_closed)
        records
    in
    let result =
      {
        r_instance = instance;
        r_policy_name = "";
        r_bins = records;
        r_assignment =
          Exact_engine.assignment ~items:(Vec_instance.size instance)
            ~bin_id:(fun b -> b.vr_id)
            ~item_ids:(fun b -> b.vr_item_ids)
            records;
        r_timeline = timeline;
        r_total_cost = total_cost;
        r_max_bins = Step_fn.max_value timeline;
        r_any_fit_violations = Core.violations t;
      }
    in
    (if Core.auditing t then
       match validate result with
       | Ok () -> ()
       | Error m -> Audit.fail ~check:"packing" "%s" m);
    result

  module Frozen = Core.Frozen

  let freeze = Core.freeze

  let thaw ?audit ?sink ?metrics ~(policy : Vec_policy.t) (frozen : Frozen.t) =
    Core.thaw ?audit ?sink ?metrics ~name:policy.Vec_policy.name
      ~handlers:(policy.Vec_policy.spawn ~capacity:frozen.s_capacity)
      frozen
end

let apply_event online (e : Vec_instance.event) =
  match e.Vec_instance.ev_kind with
  | Vec_instance.Arrival ->
      ignore
        (Online.arrive online ~now:e.Vec_instance.ev_time
           ~size:e.Vec_instance.ev_item.Vec_instance.size
           ~item_id:e.Vec_instance.ev_item.Vec_instance.id)
  | Vec_instance.Departure ->
      Online.depart online ~now:e.Vec_instance.ev_time
        ~item_id:e.Vec_instance.ev_item.Vec_instance.id

let run ?audit ?sink ?metrics ?checkpoint_every ?on_checkpoint
    ~(policy : Vec_policy.t) instance =
  let audit =
    match audit with Some b -> b | None -> Audit.enabled_from_env ()
  in
  (match checkpoint_every with
  | Some k when k <= 0 -> invalid_arg "Vec_simulator.run: checkpoint_every <= 0"
  | _ -> ());
  let online =
    Online.create ~audit ?sink ?metrics ~policy
      ~capacity:(Vec_instance.capacity instance)
      ()
  in
  let hook_after i =
    match (checkpoint_every, on_checkpoint) with
    | Some k, Some hook when (i + 1) mod k = 0 -> hook ~events_done:(i + 1) online
    | _ -> ()
  in
  Array.iteri
    (fun i e ->
      apply_event online e;
      hook_after i)
    (Vec_instance.sorted_events instance);
  let result = Online.finish online ~instance in
  { result with r_policy_name = policy.Vec_policy.name }
