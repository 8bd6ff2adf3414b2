open Dbp_num

let log_src = Logs.Src.create "dbp.simulator" ~doc:"MinTotal DBP simulator"

module Log = (val Logs.src_log log_src : Logs.LOG)

exception Invalid_decision of string
exception Invalid_step of string

let invalid_decision fmt = Format.kasprintf (fun s -> raise (Invalid_decision s)) fmt
let invalid_step fmt = Format.kasprintf (fun s -> raise (Invalid_step s)) fmt

module type RESOURCE = Exact_engine_intf.RESOURCE
module type S = Exact_engine_intf.S

(* ---- the open-bin list ---------------------------------------------- *)

(* Bin ids are dense and allocated in opening order, so the open
   subset is a doubly-linked list threaded through flat int arrays
   indexed by bin id: add/remove are O(1), and walking it yields
   opening order.  [prev.(id) = -2] marks a non-member. *)
module Open_list = struct
  type t = {
    mutable prev : int array;  (* -1 = member without predecessor *)
    mutable next : int array;  (* -1 = member without successor *)
    mutable head : int;  (* oldest member, or -1 *)
    mutable tail : int;  (* newest member, or -1 *)
    mutable count : int;
  }

  let create () = { prev = [||]; next = [||]; head = -1; tail = -1; count = 0 }
  let mem t id = id >= 0 && id < Array.length t.prev && t.prev.(id) <> -2
  let cardinal t = t.count

  let add t id =
    if mem t id then invalid_arg "Open_list.add: bin already open";
    if id < 0 || t.tail >= id then
      invalid_arg "Open_list.add: bin ids must be appended in opening order";
    let n = Array.length t.prev in
    if id >= n then begin
      let n' = max (2 * n) (max 16 (id + 1)) in
      let grow a =
        let a' = Array.make n' (-2) in
        Array.blit a 0 a' 0 n;
        a'
      in
      t.prev <- grow t.prev;
      t.next <- grow t.next
    end;
    t.prev.(id) <- t.tail;
    t.next.(id) <- -1;
    if t.tail >= 0 then t.next.(t.tail) <- id else t.head <- id;
    t.tail <- id;
    t.count <- t.count + 1

  let remove t id =
    if not (mem t id) then invalid_arg "Open_list.remove: bin not in the list";
    let p = t.prev.(id) and n = t.next.(id) in
    if p >= 0 then t.next.(p) <- n else t.head <- n;
    if n >= 0 then t.prev.(n) <- p else t.tail <- p;
    t.prev.(id) <- -2;
    t.next.(id) <- -2;
    t.count <- t.count - 1

  (* Newest to oldest, so consing builds opening order. *)
  let fold_right f t acc =
    let rec go id acc = if id < 0 then acc else go t.prev.(id) (f id acc) in
    go t.tail acc

  let iter f t =
    let rec go id =
      if id >= 0 then begin
        f id;
        go t.next.(id)
      end
    in
    go t.head

  let to_list t = fold_right List.cons t []

  (* Full structural re-verification for the auditor: link symmetry,
     membership, opening order, count and cycle freedom, plus [is_open]
     for every member.  O(capacity of the arrays). *)
  let validate t ~is_open =
    let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
    let n = Array.length t.prev in
    if Array.length t.next <> n then
      fail "array lengths diverge (%d prev, %d next)" n (Array.length t.next)
    else if t.count < 0 then fail "negative count %d" t.count
    else if (t.head < 0) <> (t.tail < 0) then
      fail "head %d and tail %d disagree about emptiness" t.head t.tail
    else if t.head >= 0 && (t.head >= n || t.prev.(t.head) <> -1) then
      fail "head %d has a predecessor" t.head
    else if t.tail >= 0 && (t.tail >= n || t.next.(t.tail) <> -1) then
      fail "tail %d has a successor" t.tail
    else begin
      (* Bound the walk by [n] so a cycle cannot hang the auditor. *)
      let rec walk seen prev_id id =
        if id < 0 then
          if prev_id <> t.tail then
            fail "walk ended at %d but tail is %d" prev_id t.tail
          else Ok seen
        else if seen > n then fail "cycle detected in the open list"
        else if id >= n then fail "link to out-of-range id %d" id
        else if t.prev.(id) = -2 then fail "linked bin %d is not a member" id
        else if not (is_open id) then
          fail "closed bin %d still in the open index" id
        else if t.prev.(id) <> prev_id then
          fail "bin %d: prev link %d, expected %d" id t.prev.(id) prev_id
        else if prev_id >= 0 && prev_id >= id then
          fail "opening order violated: %d before %d" prev_id id
        else walk (seen + 1) id t.next.(id)
      in
      match walk 0 (-1) t.head with
      | Error _ as e -> e
      | Ok reachable ->
          let members = ref 0 in
          Array.iter (fun p -> if p <> -2 then incr members) t.prev;
          if reachable <> t.count then
            fail "count %d but %d bins reachable from head" t.count reachable
          else if !members <> t.count then
            fail "count %d but %d member slots" t.count !members
          else Ok ()
    end
end

(* ---- policy state ---------------------------------------------------- *)

let save_policy_state = function
  | Policy.Stateless -> None
  | Policy.Persistent io -> Some (io.Policy.save ())
  | Policy.Volatile ->
      invalid_step
        "freeze: the policy's internal state is volatile (no save/load \
         support), this run cannot checkpoint"

let load_policy_state ~name persistence blob =
  match (persistence, blob) with
  | Policy.Stateless, None -> ()
  | Policy.Persistent io, Some blob -> io.Policy.load blob
  | Policy.Persistent _, None ->
      invalid_step "thaw: snapshot carries no state for stateful policy %s" name
  | Policy.Stateless, Some _ ->
      invalid_step "thaw: snapshot carries state but policy %s is stateless" name
  | Policy.Volatile, _ ->
      invalid_step "thaw: policy %s has volatile (unrestorable) state" name

(* ---- finished-run helpers -------------------------------------------- *)

let timeline_and_cost ~opened ~closed records =
  let timeline =
    Array.to_list records
    |> List.concat_map (fun r -> [ (opened r, 1); (closed r, -1) ])
    |> Step_fn.of_deltas
  in
  let total_cost =
    Array.fold_left
      (fun acc r -> Rat.add acc (Rat.sub (closed r) (opened r)))
      Rat.zero records
  in
  (timeline, total_cost)

let assignment ~items ~bin_id ~item_ids records =
  let a = Array.make items (-1) in
  Array.iter
    (fun r ->
      let id = bin_id r in
      List.iter
        (fun item_id ->
          if item_id < 0 || item_id >= items then
            invalid_step "item id %d outside instance" item_id;
          a.(item_id) <- id)
        (item_ids r))
    records;
  Array.iteri
    (fun i bin_id -> if bin_id < 0 then invalid_step "item %d never packed" i)
    a;
  a

(* ---- the engine ------------------------------------------------------ *)

module Make (R : RESOURCE) :
  S with type size = R.t and type view = R.view and type handlers = R.handlers =
struct
  type size = R.t
  type view = R.view
  type handlers = R.handlers

  type bin = {
    id : int;
    tag : string;
    capacity : R.t;
    opened : Rat.t;
    mutable closed : Rat.t option;
    mutable level : R.t;
    mutable max_level : R.t;
    active : (int, Rat.t * R.t) Hashtbl.t;
    mutable placements : (Rat.t * int) list;
    mutable view_cache : R.view option;
  }

  let is_open b = Option.is_none b.closed
  let fits b ~size = R.le (R.add b.level size) b.capacity

  let to_view b =
    R.view ~id:b.id ~tag:b.tag ~capacity:b.capacity ~level:b.level
      ~opened:b.opened ~count:(Hashtbl.length b.active)

  let view b =
    match b.view_cache with
    | Some v -> v
    | None ->
        let v = to_view b in
        b.view_cache <- Some v;
        v

  let item_ids b = List.rev_map snd b.placements
  let placements b = List.rev b.placements

  (* Active [(item, size)] pairs, oldest placement first.  Each id
     enters a bin at most once, so membership in [active] picks the
     live subset of the placement history. *)
  let active_oldest_first b =
    List.fold_left
      (fun acc (_, id) ->
        match Hashtbl.find_opt b.active id with
        | Some (_, size) -> (id, size) :: acc
        | None -> acc)
      [] b.placements

  let insert b ~now ~item_id ~size =
    b.level <- R.add b.level size;
    Hashtbl.replace b.active item_id (now, size);
    b.max_level <- R.cmax b.max_level b.level;
    b.placements <- (now, item_id) :: b.placements;
    b.view_cache <- None

  (* Removes an active item; closes the bin at [now] if it empties. *)
  let remove b ~now ~item_id ~size =
    Hashtbl.remove b.active item_id;
    b.level <- R.sub b.level size;
    b.view_cache <- None;
    if Hashtbl.length b.active = 0 then begin
      b.level <- R.zero b.level;
      b.closed <- Some now
    end

  (* Engine invariants (see DESIGN.md "Simulator engine"):

     - [store.(id)] holds every bin ever opened, densely indexed by id,
       so resolving a policy's [Existing id] is an array read.
     - [open_list] tracks exactly the open subset in opening order;
       the view list handed to policies is assembled from it in
       O(open bins), with per-bin views memoised in [view_cache].
     - [item_bin] maps each *active* item id to its bin, and the bin's
       keyed [active] table holds its placement time and size, so
       [depart] does no list scan at all. *)
  type t = {
    capacity : R.t;
    tag_capacity : string -> R.t;
    handlers : R.handlers;
    mutable store : bin array;
    mutable bin_count : int;
    open_list : Open_list.t;
    item_bin : (int, bin) Hashtbl.t;
    seen_items : (int, unit) Hashtbl.t;
    mutable clock : Rat.t option;
    mutable violations : int;
    audit : bool;
    (* Observability taps (lib/obs): the disabled cost is one pattern
       match per event. *)
    sink : Dbp_obs.Sink.t option;
    metrics : Dbp_obs.Metrics.t option;
    profile : Dbp_obs.Profile.t option;
  }

  (* ---- audit ---------------------------------------------------------- *)

  (* The memoised per-bin state (level, view cache, max level) must
     equal a recompute from the keyed active table.  Protects the cost
     bookkeeping every theorem ratio divides by. *)
  let check_bin ?time b =
    let fail fmt = Audit.fail ?time ~bin_id:b.id ~check:"bin" fmt in
    let recomputed =
      Hashtbl.fold (fun _ (_, size) acc -> R.add acc size) b.active (R.zero b.level)
    in
    if not (R.equal recomputed b.level) then
      fail "memoised level %s <> recomputed %s" (R.to_string b.level)
        (R.to_string recomputed);
    if not (R.le b.level b.capacity) then
      fail "level %s exceeds capacity %s" (R.to_string b.level)
        (R.to_string b.capacity);
    if not (R.le b.level b.max_level) then
      fail "max_level %s below current level %s" (R.to_string b.max_level)
        (R.to_string b.level);
    if is_open b && Hashtbl.length b.active = 0 then
      fail "open bin is empty (should have closed)";
    match b.view_cache with
    | Some v when not (R.view_equal v (to_view b)) ->
        fail "memoised view diverges from recomputed view (level %s, count %d)"
          (R.to_string b.level) (Hashtbl.length b.active)
    | _ -> ()

  (* A migration must conserve volume exactly: the source's level drops
     by precisely the moved size (to zero if the move emptied and
     closed it), the destination's rises by precisely the moved size
     within capacity, and the item ends up tracked in the destination
     and nowhere else. *)
  let check_move ?time ~size ~src ~dst ~src_level_before ~dst_level_before
      ~item_id ~new_item_id () =
    let fail ?bin_id fmt = Audit.fail ?time ?bin_id ~check:"migration" fmt in
    if not (R.positive size) then
      fail "migrated item %d has size %s <= 0" item_id (R.to_string size);
    (if is_open src then begin
       let expected = R.sub src_level_before size in
       if not (R.equal src.level expected) then
         fail ~bin_id:src.id
           "source level %s after the move, expected %s (before %s - size %s)"
           (R.to_string src.level) (R.to_string expected)
           (R.to_string src_level_before) (R.to_string size)
     end
     else begin
       if not (R.equal src_level_before size) then
         fail ~bin_id:src.id
           "source closed on the move but held %s, not just the moved %s"
           (R.to_string src_level_before) (R.to_string size);
       if not (R.is_zero src.level) then
         fail ~bin_id:src.id "closed source retains level %s"
           (R.to_string src.level);
       if Hashtbl.length src.active <> 0 then
         fail ~bin_id:src.id "closed source retains %d active items"
           (Hashtbl.length src.active)
     end);
    let expected_dst = R.add dst_level_before size in
    if not (R.equal dst.level expected_dst) then
      fail ~bin_id:dst.id
        "destination level %s after the move, expected %s (before %s + size %s)"
        (R.to_string dst.level) (R.to_string expected_dst)
        (R.to_string dst_level_before) (R.to_string size);
    if not (R.le dst.level dst.capacity) then
      fail ~bin_id:dst.id "destination over capacity after the move (%s > %s)"
        (R.to_string dst.level) (R.to_string dst.capacity);
    (match Hashtbl.find_opt dst.active new_item_id with
    | Some (_, s) ->
        if not (R.equal s size) then
          fail ~bin_id:dst.id
            "migrated item %d re-entered with size %s, expected %s" new_item_id
            (R.to_string s) (R.to_string size)
    | None ->
        fail ~bin_id:dst.id "migrated item %d not active in the destination"
          new_item_id);
    if Hashtbl.mem src.active item_id then
      fail ~bin_id:src.id "migrated item %d still active in the source" item_id;
    if Hashtbl.mem src.active new_item_id then
      fail ~bin_id:src.id "migrated item %d active in two bins" new_item_id

  (* Sanitizer pass (audit mode): re-derive the memoised engine state
     from scratch after an event and compare.  O(total bins + active
     items) per call — for tests and CI, which is what the mode is
     for. *)
  let audit t =
    let time = t.clock in
    let fail ?bin_id ~check fmt = Audit.fail ?time ?bin_id ~check fmt in
    (* 1. Open-list structure; every member is an open stored bin. *)
    (match
       Open_list.validate t.open_list ~is_open:(fun id ->
           id < t.bin_count && is_open t.store.(id))
     with
    | Ok () -> ()
    | Error msg -> fail ~check:"open-index" "%s" msg);
    (* 2. Store vs list agreement: the list holds exactly the open
       subset of the store, and closed bins hold nothing. *)
    for id = 0 to t.bin_count - 1 do
      let b = t.store.(id) in
      if b.id <> id then
        fail ~check:"store" ~bin_id:id "store slot %d holds bin id %d" id b.id;
      if is_open b && not (Open_list.mem t.open_list id) then
        fail ~check:"store" ~bin_id:id "open bin missing from the open index";
      if (not (is_open b)) && Open_list.mem t.open_list id then
        fail ~check:"store" ~bin_id:id "closed bin still in the open index";
      if not (is_open b) then begin
        if Hashtbl.length b.active <> 0 then
          fail ~check:"item-bin" ~bin_id:id
            "closed bin still holds %d active items" (Hashtbl.length b.active);
        if not (R.is_zero b.level) then
          fail ~check:"item-bin" ~bin_id:id "closed bin retains level %s"
            (R.to_string b.level)
      end
    done;
    (* 3. Per-bin memoised state. *)
    Open_list.iter (fun id -> check_bin ?time t.store.(id)) t.open_list;
    (* 4. item_bin and the bins' active tables agree both ways, which
       pins each item to exactly one bin (a move re-points, never
       duplicates). *)
    let active_total = ref 0 in
    Open_list.iter
      (fun id -> active_total := !active_total + Hashtbl.length t.store.(id).active)
      t.open_list;
    if Hashtbl.length t.item_bin <> !active_total then
      fail ~check:"item-bin" "%d tracked items but %d active across open bins"
        (Hashtbl.length t.item_bin) !active_total;
    Hashtbl.iter
      (fun item_id b ->
        if not (is_open b) then
          fail ~check:"item-bin" ~bin_id:b.id "item %d tracked in a closed bin"
            item_id;
        if not (Hashtbl.mem b.active item_id) then
          fail ~check:"item-bin" ~bin_id:b.id
            "item %d tracked but not active in its bin" item_id)
      t.item_bin;
    Open_list.iter
      (fun id ->
        let b = t.store.(id) in
        Hashtbl.iter
          (fun item_id _ ->
            match Hashtbl.find_opt t.item_bin item_id with
            | Some owner when owner == b -> ()
            | Some owner ->
                fail ~check:"item-bin" ~bin_id:id
                  "item %d active here but tracked in bin %d" item_id owner.id
            | None ->
                fail ~check:"item-bin" ~bin_id:id "item %d active but untracked"
                  item_id)
          b.active)
      t.open_list

  let after_event t = if t.audit then audit t

  (* ---- construction and inspection ------------------------------------ *)

  let create ?(audit = false) ?sink ?metrics ?profile ?tag_capacity ~handlers
      ~capacity () =
    if not (R.valid_capacity capacity) then
      invalid_arg "Online.create: capacity must be positive";
    {
      capacity;
      tag_capacity =
        (match tag_capacity with Some f -> f | None -> fun _ -> capacity);
      handlers;
      store = [||];
      bin_count = 0;
      open_list = Open_list.create ();
      item_bin = Hashtbl.create 64;
      seen_items = Hashtbl.create 64;
      clock = None;
      violations = 0;
      audit;
      sink;
      metrics;
      profile;
    }

  let now t = t.clock
  let violations t = t.violations
  let auditing t = t.audit
  let find_bin t id = if id >= 0 && id < t.bin_count then Some t.store.(id) else None

  let open_bins t =
    Open_list.fold_right (fun id acc -> view t.store.(id) :: acc) t.open_list []

  let bin_of_item t item_id =
    Option.map (fun b -> b.id) (Hashtbl.find_opt t.item_bin item_id)

  (* Most recent placement first. *)
  let active_items_in t bin_id =
    match find_bin t bin_id with
    | None -> []
    | Some b ->
        List.filter_map
          (fun (_, id) ->
            Option.map (fun (_, size) -> (id, size)) (Hashtbl.find_opt b.active id))
          b.placements

  let level_of t bin_id =
    match find_bin t bin_id with
    | Some b when is_open b -> Some b.level
    | _ -> None

  let advance_clock t now =
    (match t.clock with
    | Some prev when Rat.(now < prev) ->
        invalid_step "time went backwards: %a after %a" Rat.pp now Rat.pp prev
    | _ -> ());
    t.clock <- Some now

  let register_bin t b =
    let n = Array.length t.store in
    if t.bin_count >= n then begin
      let store = Array.make (max 16 (2 * n)) b in
      Array.blit t.store 0 store 0 n;
      t.store <- store
    end;
    t.store.(t.bin_count) <- b;
    t.bin_count <- t.bin_count + 1;
    if is_open b then Open_list.add t.open_list b.id

  (* Observability emission helpers: each is one pattern match when its
     tap is off; events are built only inside the [Some] branch. *)
  let emit t ~now kind_of =
    match t.sink with None -> () | Some s -> Dbp_obs.Sink.emit s ~time:now (kind_of ())

  let with_metrics t f = match t.metrics with None -> () | Some m -> f m

  (* Common to every event: the open-fleet gauge and its distribution
     over events. *)
  let fleet_metrics t m =
    let open_now = Open_list.cardinal t.open_list in
    Dbp_obs.Metrics.set_gauge m "open_bins" open_now;
    Dbp_obs.Metrics.observe_int m "open_bins" open_now

  (* A bin's usage period just ended: account its exact MinTotal
     contribution. *)
  let close_metrics m ~cost =
    Dbp_obs.Metrics.incr m "bins_closed";
    Dbp_obs.Metrics.add_rat m "bin_seconds" cost;
    Dbp_obs.Metrics.observe_rat m "bin_lifetime" cost

  let close_event b ~now =
    Dbp_obs.Trace_event.Bin_close { bin = b.id; opened = b.opened; cost = Rat.sub now b.opened }

  (* ---- events ---------------------------------------------------------- *)

  (* The commit phase of an arrival: validates an already-made policy
     decision and mutates the store.  The decision is never re-derived
     here — the policy already ran and may have advanced its state.
     [views] are the open bins the policy saw, for the Any Fit
     violation count. *)
  let commit_decision t ~now ~size ~item_id ~views decision =
    let tok = Dbp_obs.Profile.enter t.profile in
    let opened_new =
      match decision with Policy.New_bin _ -> true | Policy.Existing _ -> false
    in
    let target =
      match decision with
      | Policy.Existing id -> (
          match find_bin t id with
          | None -> invalid_decision "policy chose unknown bin %d" id
          | Some b ->
              if not (is_open b) then invalid_decision "policy chose closed bin %d" id
              else if not (fits b ~size) then
                invalid_decision "item %d does not fit in bin %d" item_id id
              else b)
      | Policy.New_bin tag ->
          if List.exists (fun v -> R.fits v ~size) views then
            t.violations <- t.violations + 1;
          let capacity = t.tag_capacity tag in
          if not (R.le size capacity) then
            invalid_decision
              "item %d (size %s) exceeds the capacity %s of a new '%s' bin"
              item_id (R.to_string size) (R.to_string capacity) tag;
          let b =
            {
              id = t.bin_count;
              tag;
              capacity;
              opened = now;
              closed = None;
              level = R.zero capacity;
              max_level = R.zero capacity;
              active = Hashtbl.create 8;
              placements = [];
              view_cache = None;
            }
          in
          register_bin t b;
          b
    in
    insert target ~now ~item_id ~size;
    Hashtbl.replace t.item_bin item_id target;
    Dbp_obs.Profile.leave t.profile "commit" tok;
    emit t ~now (fun () -> R.arrive_event ~item:item_id ~size);
    if opened_new then
      emit t ~now (fun () ->
          R.bin_open_event ~bin:target.id ~tag:target.tag ~capacity:target.capacity);
    emit t ~now (fun () ->
        R.pack_event ~item:item_id ~bin:target.id ~level:target.level
          ~residual:(R.sub target.capacity target.level));
    with_metrics t (fun m ->
        Dbp_obs.Metrics.incr m "arrivals";
        if opened_new then Dbp_obs.Metrics.incr m "bins_opened";
        Dbp_obs.Metrics.observe_rat m "utilisation_at_pack"
          (R.utilisation ~capacity:target.capacity target.level);
        fleet_metrics t m);
    Log.debug (fun m ->
        m "t=%a item %d (size %a) -> bin %d [%s] level %a/%a" Rat.pp now item_id
          R.pp size target.id target.tag R.pp target.level R.pp target.capacity);
    after_event t;
    target.id

  let commit t ~now ~size ~item_id decision =
    commit_decision t ~now ~size ~item_id ~views:(open_bins t) decision

  let arrive t ~now ~size ~item_id =
    advance_clock t now;
    if R.dim size <> R.dim t.capacity then
      invalid_step "item %d has %d dimensions, the engine has %d" item_id
        (R.dim size) (R.dim t.capacity);
    if not (R.positive size) then invalid_step "item %d has size <= 0" item_id;
    if Hashtbl.mem t.seen_items item_id then invalid_step "item id %d reused" item_id;
    Hashtbl.add t.seen_items item_id ();
    let tok = Dbp_obs.Profile.enter t.profile in
    let views = open_bins t in
    Dbp_obs.Profile.leave t.profile "views" tok;
    let tok = Dbp_obs.Profile.enter t.profile in
    let decision = R.on_arrival t.handlers ~now ~bins:views ~size ~item_id in
    Dbp_obs.Profile.leave t.profile "policy" tok;
    commit_decision t ~now ~size ~item_id ~views decision

  let depart t ~now ~item_id =
    advance_clock t now;
    match Hashtbl.find_opt t.item_bin item_id with
    | None -> invalid_step "departure of unknown/inactive item %d" item_id
    | Some b ->
        let tok = Dbp_obs.Profile.enter t.profile in
        let placed, size =
          match Hashtbl.find_opt b.active item_id with
          | Some entry -> entry
          | None -> invalid_step "item %d not active in its bin %d" item_id b.id
        in
        remove b ~now ~item_id ~size;
        let bin_closed = not (is_open b) in
        if bin_closed then Open_list.remove t.open_list b.id;
        Hashtbl.remove t.item_bin item_id;
        Dbp_obs.Profile.leave t.profile "commit" tok;
        Log.debug (fun m ->
            m "t=%a item %d departs bin %d%s" Rat.pp now item_id b.id
              (if bin_closed then " (bin closes)" else ""));
        (* A no-op departure handler needs no views: skip both phases. *)
        if R.observes_departures t.handlers then begin
          let tok = Dbp_obs.Profile.enter t.profile in
          let views = open_bins t in
          Dbp_obs.Profile.leave t.profile "views" tok;
          let tok = Dbp_obs.Profile.enter t.profile in
          R.on_departure t.handlers ~now ~bins:views ~item_id;
          Dbp_obs.Profile.leave t.profile "policy" tok
        end;
        emit t ~now (fun () ->
            Dbp_obs.Trace_event.Depart
              { item = item_id; bin = b.id; held = Rat.sub now placed });
        if bin_closed then emit t ~now (fun () -> close_event b ~now);
        with_metrics t (fun m ->
            Dbp_obs.Metrics.incr m "departures";
            Dbp_obs.Metrics.observe_rat m "item_held" (Rat.sub now placed);
            if bin_closed then close_metrics m ~cost:(Rat.sub now b.opened);
            fleet_metrics t m);
        after_event t

  let fail_bin t ~now ~bin_id =
    advance_clock t now;
    match find_bin t bin_id with
    | None -> invalid_step "fail_bin: unknown bin %d" bin_id
    | Some b ->
        if not (is_open b) then invalid_step "fail_bin: bin %d is already closed" bin_id;
        (* Oldest placement first, so re-dispatch order is deterministic
           and independent of table internals. *)
        let victims = active_oldest_first b in
        List.iter
          (fun (item_id, size) ->
            remove b ~now ~item_id ~size;
            Hashtbl.remove t.item_bin item_id)
          victims;
        (* An open bin holds at least one item, so the eviction loop
           emptied it and [remove] closed it at [now]: the bin is
           charged exactly for [opened, now]. *)
        assert (not (is_open b));
        Open_list.remove t.open_list bin_id;
        (* Departure handlers only observe the fleet, so every eviction
           notification sees the same post-crash views: build them once
           per fault. *)
        (if R.observes_departures t.handlers then
           let views = open_bins t in
           List.iter
             (fun (item_id, _) -> R.on_departure t.handlers ~now ~bins:views ~item_id)
             victims);
        emit t ~now (fun () ->
            Dbp_obs.Trace_event.Fail_bin
              {
                bin = bin_id;
                victims = List.length victims;
                lost_level =
                  R.scalar
                    (List.fold_left
                       (fun acc (_, size) -> R.add acc size)
                       (R.zero b.capacity) victims);
              });
        emit t ~now (fun () -> close_event b ~now);
        with_metrics t (fun m ->
            Dbp_obs.Metrics.incr m "bin_failures";
            Dbp_obs.Metrics.add m "items_evicted" (List.length victims);
            close_metrics m ~cost:(Rat.sub now b.opened);
            fleet_metrics t m);
        Log.debug (fun m ->
            m "t=%a bin %d FAILS, %d items evicted" Rat.pp now bin_id
              (List.length victims));
        after_event t;
        victims

  (* Live migration, the limited-recourse repacking primitive
     (lib/repack): the active item leaves its bin and re-enters
     [to_bin] at the same instant under a fresh id, so the effective
     instance stays segment-shaped and accounting splits exactly at
     [now].  O(1); no policy callback — migration is the repacker's
     decision, and the policy sees the new fleet through its next
     views. *)
  let migrate t ~now ~item_id ~to_bin ~new_item_id =
    advance_clock t now;
    let src =
      match Hashtbl.find_opt t.item_bin item_id with
      | Some b -> b
      | None -> invalid_step "migrate: unknown/inactive item %d" item_id
    in
    let dst =
      match find_bin t to_bin with
      | Some b -> b
      | None -> invalid_step "migrate: unknown destination bin %d" to_bin
    in
    if dst.id = src.id then
      invalid_step "migrate: item %d already lives in bin %d" item_id to_bin;
    if not (is_open dst) then invalid_step "migrate: destination bin %d is closed" to_bin;
    let size =
      match Hashtbl.find_opt src.active item_id with
      | Some (_, size) -> size
      | None ->
          invalid_step "migrate: item %d not active in its bin %d" item_id src.id
    in
    if not (fits dst ~size) then
      invalid_step "migrate: item %d (size %a) does not fit bin %d (residual %a)"
        item_id R.pp size to_bin R.pp (R.sub dst.capacity dst.level);
    if Hashtbl.mem t.seen_items new_item_id then
      invalid_step "migrate: item id %d reused" new_item_id;
    Hashtbl.add t.seen_items new_item_id ();
    let src_level_before = src.level and dst_level_before = dst.level in
    let tok = Dbp_obs.Profile.enter t.profile in
    remove src ~now ~item_id ~size;
    let src_closed = not (is_open src) in
    if src_closed then Open_list.remove t.open_list src.id;
    Hashtbl.remove t.item_bin item_id;
    insert dst ~now ~item_id:new_item_id ~size;
    Hashtbl.replace t.item_bin new_item_id dst;
    Dbp_obs.Profile.leave t.profile "commit" tok;
    emit t ~now (fun () ->
        Dbp_obs.Trace_event.Migrate
          {
            item = item_id;
            new_item = new_item_id;
            from_bin = src.id;
            to_bin = dst.id;
            size = R.scalar size;
          });
    if src_closed then emit t ~now (fun () -> close_event src ~now);
    with_metrics t (fun m ->
        Dbp_obs.Metrics.incr m "migrations";
        Dbp_obs.Metrics.add_rat m "migrated_volume" (R.scalar size);
        if src_closed then close_metrics m ~cost:(Rat.sub now src.opened);
        fleet_metrics t m);
    Log.debug (fun m ->
        m "t=%a item %d (size %a) migrates bin %d -> bin %d as item %d%s" Rat.pp
          now item_id R.pp size src.id dst.id new_item_id
          (if src_closed then " (source closes)" else ""));
    if t.audit then
      check_move ~time:now ~size ~src ~dst ~src_level_before ~dst_level_before
        ~item_id ~new_item_id ();
    after_event t;
    src_closed

  let finish t ~items ~record =
    if Hashtbl.length t.item_bin <> 0 then
      invalid_step "finish with %d items still active" (Hashtbl.length t.item_bin);
    if Hashtbl.length t.seen_items <> items then
      invalid_step "instance has %d items but %d were stepped" items
        (Hashtbl.length t.seen_items);
    Array.init t.bin_count (fun id ->
        let b = t.store.(id) in
        match b.closed with
        | Some closed -> record b ~closed
        | None -> invalid_step "bin %d never closed" id)

  (* ---- checkpoint/restore ---------------------------------------------- *)

  (* The frozen image keeps only the non-derivable engine state; levels,
     the open list, item tracking and the seen set are re-derived on
     restore, so an image cannot carry an internally inconsistent cache.
     An active item's arrival is its placement time by construction, so
     it comes back from the placement list. *)
  module Frozen = struct
    type bin = {
      b_id : int;
      b_tag : string;
      b_capacity : R.t;
      b_opened : Rat.t;
      b_closed : Rat.t option;
      b_max_level : R.t;
      b_placements : (Rat.t * int) list;
      b_active : (int * R.t) list;
    }

    type t = {
      s_capacity : R.t;
      s_clock : Rat.t option;
      s_violations : int;
      s_bins : bin list;
      s_policy_state : string option;
    }
  end

  let freeze t : Frozen.t =
    let policy_state = save_policy_state (R.persistence t.handlers) in
    {
      Frozen.s_capacity = t.capacity;
      s_clock = t.clock;
      s_violations = t.violations;
      s_bins =
        List.init t.bin_count (fun id ->
            let b = t.store.(id) in
            {
              Frozen.b_id = id;
              b_tag = b.tag;
              b_capacity = b.capacity;
              b_opened = b.opened;
              b_closed = b.closed;
              b_max_level = b.max_level;
              b_placements = placements b;
              b_active = active_oldest_first b;
            });
      s_policy_state = policy_state;
    }

  let restore_bin t (fb : Frozen.bin) ~expected_id =
    if fb.b_id <> expected_id then
      invalid_step "thaw: bin ids not dense (found %d, expected %d)" fb.b_id
        expected_id;
    if R.dim fb.b_capacity <> R.dim t.capacity then
      invalid_step "thaw: bin %d has the wrong dimension" fb.b_id;
    if not (R.valid_capacity fb.b_capacity) then
      invalid_step "thaw: bin %d has a non-positive capacity" fb.b_id;
    let placed_at = Hashtbl.create 16 in
    List.iter (fun (time, item_id) -> Hashtbl.replace placed_at item_id time)
      fb.b_placements;
    if Option.is_none fb.b_closed && fb.b_active = [] then
      invalid_step "thaw: open bin %d has no active items" fb.b_id;
    if Option.is_some fb.b_closed && fb.b_active <> [] then
      invalid_step "thaw: closed bin %d still has active items" fb.b_id;
    let b =
      {
        id = fb.b_id;
        tag = fb.b_tag;
        capacity = fb.b_capacity;
        opened = fb.b_opened;
        closed = fb.b_closed;
        level = R.zero fb.b_capacity;
        max_level = fb.b_max_level;
        active = Hashtbl.create (max 8 (List.length fb.b_active));
        placements = List.rev fb.b_placements;
        view_cache = None;
      }
    in
    List.iter
      (fun (item_id, size) ->
        if R.dim size <> R.dim t.capacity then
          invalid_step "thaw: active item %d has the wrong dimension" item_id;
        if not (R.positive size) then
          invalid_step "thaw: active item %d has size <= 0" item_id;
        let arrival =
          match Hashtbl.find_opt placed_at item_id with
          | Some a -> a
          | None ->
              invalid_step "thaw: active item %d has no placement in bin %d"
                item_id fb.b_id
        in
        if Hashtbl.mem b.active item_id then
          invalid_step "thaw: active item %d listed twice in bin %d" item_id fb.b_id;
        Hashtbl.replace b.active item_id (arrival, size);
        b.level <- R.add b.level size;
        Hashtbl.replace t.item_bin item_id b)
      fb.b_active;
    if not (R.le b.level b.capacity) then
      invalid_step "thaw: bin %d over capacity" fb.b_id;
    register_bin t b;
    List.iter
      (fun (_, item_id) ->
        if Hashtbl.mem t.seen_items item_id then
          invalid_step "thaw: item id %d placed in two bins" item_id;
        Hashtbl.add t.seen_items item_id ())
      fb.b_placements

  let rebuild t ~seen (frozen : Frozen.t) =
    List.iteri (fun expected_id fb -> restore_bin t fb ~expected_id) frozen.s_bins;
    List.iter (fun id -> Hashtbl.replace t.seen_items id ()) seen;
    t.clock <- frozen.s_clock;
    t.violations <- frozen.s_violations

  (* [seen] adds ids consumed without a placement (a rejected arrival
     still uses up its id), which an image does not record. *)
  let restore ~audit ~profile ~tag_capacity ~seen ~handlers (frozen : Frozen.t) =
    let t =
      create ~audit ?profile ~tag_capacity ~handlers ~capacity:frozen.s_capacity ()
    in
    rebuild t ~seen frozen;
    t

  let thaw ?audit:audit_on ?sink ?metrics ?profile ?tag_capacity ~name ~handlers
      (frozen : Frozen.t) =
    let t =
      create ?audit:audit_on ?sink ?metrics ?profile ?tag_capacity ~handlers
        ~capacity:frozen.s_capacity ()
    in
    load_policy_state ~name (R.persistence handlers) frozen.s_policy_state;
    rebuild t ~seen:[] frozen;
    (* Always re-audit the rebuilt state: thaw is rare, corruption
       expensive. *)
    audit t;
    t
end

(* ---- the two instances ------------------------------------------------ *)

module Scalar = Make (struct
  type t = Rat.t
  type view = Bin.view
  type handlers = Policy.handlers

  let dim _ = 1
  let zero _ = Rat.zero
  let add = Rat.add
  let sub = Rat.sub
  let cmax = Rat.max
  let le a b = Rat.(a <= b)
  let equal = Rat.equal
  let is_zero = Rat.is_zero
  let positive r = Rat.sign r > 0
  let valid_capacity = positive
  let to_string = Rat.to_string
  let pp = Rat.pp
  let utilisation ~capacity level = Rat.div level capacity
  let scalar r = r

  let view ~id ~tag ~capacity ~level ~opened ~count =
    {
      Bin.bin_id = id;
      bin_tag = tag;
      bin_capacity = capacity;
      bin_level = level;
      bin_residual = Rat.sub capacity level;
      bin_opened = opened;
      bin_count = count;
    }

  let view_equal (v : Bin.view) (w : Bin.view) =
    v.bin_id = w.bin_id
    && String.equal v.bin_tag w.bin_tag
    && Rat.equal v.bin_capacity w.bin_capacity
    && Rat.equal v.bin_level w.bin_level
    && Rat.equal v.bin_residual w.bin_residual
    && Rat.equal v.bin_opened w.bin_opened
    && v.bin_count = w.bin_count

  let fits = Fit.fits
  let on_arrival (h : handlers) = h.on_arrival
  let on_departure (h : handlers) = h.on_departure
  let observes_departures (h : handlers) = h.on_departure != Policy.no_departure_handler
  let persistence (h : handlers) = h.persistence
  let arrive_event ~item ~size = Dbp_obs.Trace_event.Arrive { item; size }

  let bin_open_event ~bin ~tag ~capacity =
    Dbp_obs.Trace_event.Bin_open { bin; tag; capacity }

  let pack_event ~item ~bin ~level ~residual =
    Dbp_obs.Trace_event.Pack { item; bin; level; residual }
end)

(* At d = 1 the vector instance emits the scalar trace kinds, so its
   traces are byte-identical to the scalar engine's. *)
module Vector = Make (struct
  type t = Vec.t
  type view = Vec_policy.view
  type handlers = Vec_policy.handlers

  let dim = Vec.dim
  let zero v = Vec.zero ~dims:(Vec.dim v)
  let add = Vec.add
  let sub = Vec.sub
  let cmax = Vec.cmax
  let le = Vec.le
  let equal = Vec.equal
  let is_zero = Vec.is_zero
  let positive v = Vec.is_nonneg v && Vec.has_positive v

  let valid_capacity v =
    let rec go j = j >= Vec.dim v || (Rat.sign (Vec.get v j) > 0 && go (j + 1)) in
    go 0

  let to_string = Vec.to_string
  let pp = Vec.pp
  let utilisation ~capacity level = Vec.max_norm ~capacity level

  (* Fault and migration taps have scalar trace kinds only; the vector
     engine exposes neither [fail_bin] nor [migrate]. *)
  let scalar v =
    if Vec.dim v <> 1 then invalid_arg "Exact_engine.Vector: no vector fault kinds";
    Vec.get v 0

  let view ~id ~tag ~capacity ~level ~opened ~count =
    {
      Vec_policy.vbin_id = id;
      vbin_tag = tag;
      vbin_capacity = capacity;
      vbin_level = level;
      vbin_residual = Vec.sub capacity level;
      vbin_opened = opened;
      vbin_count = count;
    }

  let view_equal (v : view) (w : view) =
    v.vbin_id = w.vbin_id
    && String.equal v.vbin_tag w.vbin_tag
    && Vec.equal v.vbin_capacity w.vbin_capacity
    && Vec.equal v.vbin_level w.vbin_level
    && Vec.equal v.vbin_residual w.vbin_residual
    && Rat.equal v.vbin_opened w.vbin_opened
    && v.vbin_count = w.vbin_count

  let fits = Vec_policy.fits
  let on_arrival (h : handlers) = h.on_arrival
  let on_departure (h : handlers) = h.on_departure

  let observes_departures (h : handlers) =
    h.on_departure != Vec_policy.no_departure_handler

  let persistence (h : handlers) = h.persistence

  let arrive_event ~item ~size =
    if Vec.dim size = 1 then Dbp_obs.Trace_event.Arrive { item; size = Vec.get size 0 }
    else Dbp_obs.Trace_event.Varrive { item; sizes = size }

  let bin_open_event ~bin ~tag ~capacity =
    if Vec.dim capacity = 1 then
      Dbp_obs.Trace_event.Bin_open { bin; tag; capacity = Vec.get capacity 0 }
    else Dbp_obs.Trace_event.Vbin_open { bin; tag; capacities = capacity }

  let pack_event ~item ~bin ~level ~residual =
    if Vec.dim level = 1 then
      Dbp_obs.Trace_event.Pack
        { item; bin; level = Vec.get level 0; residual = Vec.get residual 0 }
    else Dbp_obs.Trace_event.Vpack { item; bin; levels = level; residuals = residual }
end)
