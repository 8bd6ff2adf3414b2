open Dbp_num

let log_src = Exact_engine.log_src

exception Invalid_decision = Exact_engine.Invalid_decision
exception Invalid_step = Exact_engine.Invalid_step

let invalid_decision fmt = Format.kasprintf (fun s -> raise (Invalid_decision s)) fmt
let invalid_step fmt = Format.kasprintf (fun s -> raise (Invalid_step s)) fmt

(* Item ids above this stay on the exact track: the fast store is
   dense in item id, so a huge id would force a huge allocation. *)
let max_fast_item = (1 lsl 23) - 1

(* Fast-track replay packs each event into one int:
   [(time_s << 25) | (kind << 24) | id].  The id field is 24 bits
   wide; [max_fast_item] (2^23 - 1) keeps every admissible id strictly
   below the kind bit, so an id can never carry into — and silently
   flip — the kind or time fields.  Ids above the bound (and off-grid
   or out-of-range times) must take the comparison-sorted event-array
   path instead; [pack_event_key] enforces both bounds so the
   invariant is checked at the packing site, not trusted from afar. *)
let event_key_id_bits = 24
let event_key_id_mask = (1 lsl event_key_id_bits) - 1
let event_key_kind_bit = 1 lsl event_key_id_bits
let event_key_time_shift = event_key_id_bits + 1

(* Scaled times must stay under 2^37 so the key (37 + 25 = 62 bits)
   remains a positive OCaml int for the radix sort. *)
let event_key_time_limit = 1 lsl 37

let () = assert (max_fast_item < event_key_id_mask)

let pack_event_key ~time_s ~arrival ~id =
  if id < 0 || id > max_fast_item then
    invalid_arg "Simulator.pack_event_key: id outside [0, max_fast_item]";
  if time_s < 0 || time_s >= event_key_time_limit then
    invalid_arg "Simulator.pack_event_key: scaled time out of range";
  (time_s lsl event_key_time_shift)
  lor (if arrival then event_key_kind_bit else 0)
  lor id

let unpack_event_key k =
  ( k lsr event_key_time_shift,
    k land event_key_kind_bit <> 0,
    k land event_key_id_mask )

(* LSD radix sort of non-negative keys, 16-bit digits.  Linear in the
   input against the comparison sort's n log n closure calls — the
   event stream and the finish-time timeline both sort scaled-integer
   keys this way on the fast track.  Passes whose digit is constant
   across the input (the common case for high digits) are skipped.
   Returns a sorted array that may or may not be the input array;
   the input is clobbered either way. *)
let radix_sort_pos a =
  let n = Array.length a in
  if n <= 4096 then begin
    (* Below this the per-pass digit histograms dominate; a comparison
       sort on immediate ints is faster and equally correct. *)
    Array.sort (fun (x : int) (y : int) -> Int.compare x y) a;
    a
  end
  else begin
    let tmp = Array.make n 0 in
    let count = Array.make 65536 0 in
    let src = ref a and dst = ref tmp in
    for pass = 0 to 3 do
      let shift = 16 * pass in
      let s = !src in
      Array.fill count 0 65536 0;
      for i = 0 to n - 1 do
        let d = (s.(i) lsr shift) land 0xffff in
        count.(d) <- count.(d) + 1
      done;
      if count.((s.(0) lsr shift) land 0xffff) <> n then begin
        let acc = ref 0 in
        for d = 0 to 65535 do
          let c = count.(d) in
          count.(d) <- !acc;
          acc := !acc + c
        done;
        let t = !dst in
        for i = 0 to n - 1 do
          let v = s.(i) in
          let d = (v lsr shift) land 0xffff in
          t.(count.(d)) <- v;
          count.(d) <- count.(d) + 1
        done;
        src := t;
        dst := s
      end
    done;
    !src
  end

module Online = struct
  (* The engine runs on one of two numeric tracks.  The [Exact] track
     is {!Exact_engine.Scalar}: boxed bins and gcd-normalised [Rat.t]
     arithmetic on every level update (see DESIGN.md "Simulator
     engine").  The [Fast] track keeps the same state as unboxed
     struct-of-arrays over scaled integers ([Fixed]): every size, time
     and level is a native int over the run's common grid denominator,
     so the commit path is pure int array arithmetic — no allocation,
     no gcd.  Per-event cost is O(open bins) on either track; on the
     fast track First Fit does better: a max-residual tree over the
     open slots ([fo_fit]) answers its arrivals in O(log open bins)
     with no view list at all.

     Admission is exact-or-refuse: the track is only entered when the
     whole instance lies on the grid ([grid_of_instance]), and any
     mid-run input that does not convert (an off-grid time from a
     fault injector, a tag capacity off the grid, an oversized id)
     triggers [degrade], which builds the exact engine from the fast
     store's checkpoint image and continues there.  Conversions both
     ways are exact and [Rat.make] always normalises, so the two tracks
     produce bit-identical packings, traces and snapshots. *)

  module Core = Exact_engine.Scalar

  type fast = {
    g : Fixed.scale;
    (* Bins, struct-of-arrays, dense by id; parallel arrays so the hot
       fields (level, capacity, max) are unboxed int reads.  The Rat
       columns cache the exact boxes handed in at open time — stored
       pointers, never recomputed. *)
    mutable fb_len : int;  (* bins ever opened *)
    mutable fb_tag : string array;
    mutable fb_cap_s : int array;
    mutable fb_cap : Rat.t array;
    mutable fb_level : int array;
    mutable fb_max : int array;
    mutable fb_active : int array;  (* active item count per bin *)
    mutable fb_opened : Rat.t array;
    mutable fb_closed : Rat.t option array;  (* None = open *)
    (* The same lifecycle instants as scaled ints, so [finish] can
       build the timeline and total cost without rational sorts. *)
    mutable fb_opened_s : int array;
    mutable fb_closed_s : int array;  (* valid iff fb_closed is Some *)
    mutable fb_items_rev : int list array;  (* ids ever placed, newest first *)
    (* Memoised policy views, by bin id, on the exact core's lazy rule:
       any level change drops the bin's view and the next view read
       rebuilds it, so events nobody observes never pay the two
       gcd-normalising conversions a view costs. *)
    mutable fb_view : Bin.view option array;
    (* The open subset: [fo_slots.(0 .. fo_len-1)] are bin ids in
       opening (= ascending id) order, and [fb_slot.(id)] is a bin's
       slot (-1 once closed). *)
    mutable fo_slots : int array;
    mutable fo_len : int;
    mutable fb_slot : int array;
    (* Max-residual tree over the same slots, never stale: leaf [s] is
       [fb_cap_s - fb_level] of the bin in slot [s].  It answers First
       Fit without views and the Any Fit violation check without a
       scan. *)
    fo_fit : Residual_tree.t;
    (* Items, dense by id.  [fi_bin] doubles as the seen-set:
       -2 = never seen, -1 = seen but inactive, >= 0 = active in that
       bin. *)
    mutable fi_bin : int array;
    mutable fi_size_s : int array;
    mutable fi_size : Rat.t array;
    mutable fi_arrival : Rat.t array;
    mutable fi_max_seen : int;
    mutable fi_seen : int;
    mutable fi_active : int;
    mutable violations : int;
    (* Clock, scaled; [min_int] = no event yet.  [f_now] caches the
       exact rational of the same instant, materialised lazily
       ([f_now_ok]) so scaled-entry events that never need the boxed
       time (a departure that closes nothing, under a no-op handler)
       never convert. *)
    mutable f_clock : int;
    mutable f_now : Rat.t;
    mutable f_now_ok : bool;
  }

  type track = Exact of Core.t | Fast of fast

  type t = {
    capacity : Rat.t;
    tag_capacity : string -> Rat.t;
    handlers : Policy.handlers;
    first_fit : string option;  (* [Policy.t.first_fit] *)
    audit : bool;  (* re-verify every invariant after every event *)
    profile : Dbp_obs.Profile.t option;
    mutable track : track;
  }

  (* ---- fast-track state ---------------------------------------------- *)

  let fast_create g =
    {
      g;
      fb_len = 0;
      fb_tag = [||];
      fb_cap_s = [||];
      fb_cap = [||];
      fb_level = [||];
      fb_max = [||];
      fb_active = [||];
      fb_opened = [||];
      fb_closed = [||];
      fb_opened_s = [||];
      fb_closed_s = [||];
      fb_items_rev = [||];
      fb_view = [||];
      fo_slots = [||];
      fo_len = 0;
      fb_slot = [||];
      fo_fit = Residual_tree.create ();
      fi_bin = [||];
      fi_size_s = [||];
      fi_size = [||];
      fi_arrival = [||];
      fi_max_seen = -1;
      fi_seen = 0;
      fi_active = 0;
      violations = 0;
      f_clock = min_int;
      f_now = Rat.zero;
      f_now_ok = false;
    }

  let grow_bin_arrays f =
    let n = Array.length f.fb_tag in
    let m = max 64 (2 * n) in
    let g a fill =
      let a' = Array.make m fill in
      Array.blit a 0 a' 0 n;
      a'
    in
    f.fb_tag <- g f.fb_tag "";
    f.fb_cap_s <- g f.fb_cap_s 0;
    f.fb_cap <- g f.fb_cap Rat.zero;
    f.fb_level <- g f.fb_level 0;
    f.fb_max <- g f.fb_max 0;
    f.fb_active <- g f.fb_active 0;
    f.fb_opened <- g f.fb_opened Rat.zero;
    f.fb_closed <- g f.fb_closed None;
    f.fb_opened_s <- g f.fb_opened_s 0;
    f.fb_closed_s <- g f.fb_closed_s 0;
    f.fb_items_rev <- g f.fb_items_rev [];
    f.fb_view <- g f.fb_view None;
    f.fb_slot <- g f.fb_slot (-1)

  let grow_item_arrays f item_id =
    let n = Array.length f.fi_bin in
    let m = max (max 1024 (2 * n)) (item_id + 1) in
    let g a fill =
      let a' = Array.make m fill in
      Array.blit a 0 a' 0 n;
      a'
    in
    f.fi_bin <- g f.fi_bin (-2);
    f.fi_size_s <- g f.fi_size_s 0;
    f.fi_size <- g f.fi_size Rat.zero;
    f.fi_arrival <- g f.fi_arrival Rat.zero

  (* A fresh view of bin [id] from its scaled state: the only place
     that pays the two gcd-normalising conversions. *)
  let fast_view f id =
    {
      Bin.bin_id = id;
      bin_tag = f.fb_tag.(id);
      bin_capacity = f.fb_cap.(id);
      bin_level = Fixed.to_rat f.g f.fb_level.(id);
      bin_residual = Fixed.to_rat f.g (f.fb_cap_s.(id) - f.fb_level.(id));
      bin_opened = f.fb_opened.(id);
      bin_count = f.fb_active.(id);
    }

  let cached_view f id =
    match f.fb_view.(id) with
    | Some v -> v
    | None ->
        let v = fast_view f id in
        f.fb_view.(id) <- Some v;
        v

  (* Re-derive an open bin's leaf after its level changed. *)
  let refresh_fit f id =
    Residual_tree.update f.fo_fit ~slot:f.fb_slot.(id)
      (f.fb_cap_s.(id) - f.fb_level.(id))

  let open_slot_append f id =
    let n = Array.length f.fo_slots in
    if f.fo_len >= n then begin
      let a = Array.make (max 64 (2 * n)) 0 in
      Array.blit f.fo_slots 0 a 0 n;
      f.fo_slots <- a
    end;
    f.fo_slots.(f.fo_len) <- id;
    f.fb_slot.(id) <- f.fo_len;
    Residual_tree.append f.fo_fit ~slot:f.fo_len
      (f.fb_cap_s.(id) - f.fb_level.(id));
    f.fo_len <- f.fo_len + 1

  let open_slot_remove f id =
    let slot = f.fb_slot.(id) in
    for s = slot to f.fo_len - 2 do
      let b = f.fo_slots.(s + 1) in
      f.fo_slots.(s) <- b;
      f.fb_slot.(b) <- s
    done;
    Residual_tree.remove f.fo_fit ~slot ~len:f.fo_len;
    f.fb_slot.(id) <- -1;
    f.fb_view.(id) <- None;
    f.fo_len <- f.fo_len - 1

  (* The policy-facing view list in opening order: a sequential walk
     of the dense slot array. *)
  let fast_views f =
    let rec go acc s =
      if s < 0 then acc else go (cached_view f f.fo_slots.(s) :: acc) (s - 1)
    in
    go [] (f.fo_len - 1)

  (* The current clock as an exact rational, converted at most once
     per tick.  The conversion is exact and [Rat.make]-normalised, so
     it is the very value the caller handed in. *)
  let fast_now_rat f =
    if f.f_now_ok then f.f_now
    else begin
      let r = Fixed.to_rat f.g f.f_clock in
      f.f_now <- r;
      f.f_now_ok <- true;
      r
    end

  let fast_now f = if f.f_clock = min_int then None else Some (fast_now_rat f)

  (* Scaled-entry clock advance: the boxed time, if ever needed this
     tick, comes from [fast_now_rat]. *)
  let fast_advance_clock_s f ~now_s =
    if f.f_clock <> min_int && now_s < f.f_clock then
      invalid_step "time went backwards: %a after %a" Rat.pp
        (Fixed.to_rat f.g now_s) Rat.pp (fast_now_rat f);
    if now_s <> f.f_clock then begin
      f.f_clock <- now_s;
      f.f_now_ok <- false
    end

  let fast_advance_clock f ~now ~now_s =
    fast_advance_clock_s f ~now_s;
    f.f_now <- now;
    f.f_now_ok <- true

  (* Fast-track sanitizer: re-derive every memoised scaled quantity
     from the placement lists and compare. *)
  let audit_fast f =
    let time = fast_now f in
    let fail ?bin_id ~check fmt = Audit.fail ?time ?bin_id ~check fmt in
    (* 1. Slot-array structure: slots hold distinct open bins in
       ascending id (= opening) order and agree with the back map. *)
    let in_list = Array.make (max 1 f.fb_len) false in
    if f.fo_len < 0 || f.fo_len > f.fb_len then
      fail ~check:"fast-open" "slot count %d out of range" f.fo_len;
    let last = ref (-1) in
    for s = 0 to f.fo_len - 1 do
      let id = f.fo_slots.(s) in
      if id < 0 || id >= f.fb_len then
        fail ~check:"fast-open" "slot %d points at unopened bin %d" s id;
      if id <= !last then
        fail ~check:"fast-open" ~bin_id:id "slots not in opening order";
      last := id;
      in_list.(id) <- true;
      if f.fb_slot.(id) <> s then
        fail ~check:"fast-open" ~bin_id:id "slot back-pointer broken"
    done;
    (* 1b. The max-residual tree: every leaf and inner node re-derived
       from the slots' levels. *)
    (match
       Residual_tree.check f.fo_fit ~len:f.fo_len ~residual:(fun s ->
           let id = f.fo_slots.(s) in
           f.fb_cap_s.(id) - f.fb_level.(id))
     with
    | Ok () -> ()
    | Error msg -> fail ~check:"fast-index" "%s" msg);
    (* 2. Per-bin memoised state from first principles. *)
    let active_total = ref 0 in
    for id = 0 to f.fb_len - 1 do
      let is_open = Option.is_none f.fb_closed.(id) in
      if is_open && not in_list.(id) then
        fail ~check:"fast-open" ~bin_id:id "open bin missing from the slot array";
      if (not is_open) && in_list.(id) then
        fail ~check:"fast-open" ~bin_id:id "closed bin still in the slot array";
      if (not is_open) && f.fb_slot.(id) >= 0 then
        fail ~check:"fast-open" ~bin_id:id "closed bin keeps a slot";
      let level = ref 0 and active = ref 0 in
      List.iter
        (fun i ->
          if f.fi_bin.(i) = id then begin
            level := !level + f.fi_size_s.(i);
            incr active
          end)
        f.fb_items_rev.(id);
      if (not is_open) && !active <> 0 then
        fail ~check:"fast-item" ~bin_id:id
          "closed bin still holds %d active items" !active;
      let expected_level = if is_open then !level else 0 in
      if f.fb_level.(id) <> expected_level then
        fail ~check:"fast-level" ~bin_id:id
          "memoised level %d but active items sum to %d" f.fb_level.(id)
          expected_level;
      if f.fb_active.(id) <> (if is_open then !active else 0) then
        fail ~check:"fast-level" ~bin_id:id
          "memoised active count %d but %d items are active" f.fb_active.(id)
          !active;
      if f.fb_level.(id) > f.fb_cap_s.(id) then
        fail ~check:"fast-level" ~bin_id:id "level above capacity";
      if f.fb_max.(id) < f.fb_level.(id) || f.fb_max.(id) > f.fb_cap_s.(id) then
        fail ~check:"fast-level" ~bin_id:id "max level out of range";
      if not (Rat.equal (Fixed.to_rat f.g f.fb_opened_s.(id)) f.fb_opened.(id))
      then fail ~check:"fast-time" ~bin_id:id "scaled open time diverges";
      (match f.fb_closed.(id) with
      | Some c when not (Rat.equal (Fixed.to_rat f.g f.fb_closed_s.(id)) c) ->
          fail ~check:"fast-time" ~bin_id:id "scaled close time diverges"
      | _ -> ());
      active_total := !active_total + (if is_open then !active else 0);
      (* A memoised view must agree with a fresh projection. *)
      match f.fb_view.(id) with
      | None -> ()
      | Some _ when not is_open ->
          fail ~check:"fast-view" ~bin_id:id "closed bin keeps a view"
      | Some v ->
          if
            v.Bin.bin_id <> id
            || v.Bin.bin_count <> f.fb_active.(id)
            || not (Rat.equal v.Bin.bin_level (Fixed.to_rat f.g f.fb_level.(id)))
            || not
                 (Rat.equal v.Bin.bin_residual
                    (Fixed.to_rat f.g (f.fb_cap_s.(id) - f.fb_level.(id))))
            || not (Rat.equal v.Bin.bin_capacity f.fb_cap.(id))
          then fail ~check:"fast-view" ~bin_id:id "stale memoised view"
    done;
    if !active_total <> f.fi_active then
      fail ~check:"fast-item" "%d items active across bins but counter says %d"
        !active_total f.fi_active;
    (* 3. Item table: seen/active counters and bin back-pointers. *)
    let seen = ref 0 and active = ref 0 in
    for i = 0 to f.fi_max_seen do
      match f.fi_bin.(i) with
      | -2 -> ()
      | -1 -> incr seen
      | b ->
          incr seen;
          incr active;
          if b < 0 || b >= f.fb_len then
            fail ~check:"fast-item" "item %d points at unknown bin %d" i b;
          if Option.is_some f.fb_closed.(b) then
            fail ~check:"fast-item" ~bin_id:b "item %d active in a closed bin" i
    done;
    if !seen <> f.fi_seen then
      fail ~check:"fast-item" "%d items seen but counter says %d" !seen
        f.fi_seen;
    if !active <> f.fi_active then
      fail ~check:"fast-item" "%d items active but counter says %d" !active
        f.fi_active

  let audit t = match t.track with Exact c -> Core.audit c | Fast f -> audit_fast f

  let create ?(audit = false) ?sink ?metrics ?profile ?grid ?tag_capacity
      ~policy ~capacity () =
    if Rat.sign capacity <= 0 then
      invalid_arg "Online.create: capacity must be positive";
    let tag_capacity =
      match tag_capacity with Some f -> f | None -> fun _ -> capacity
    in
    let handlers = policy.Policy.spawn ~capacity in
    (* A sink or metrics registry forces the exact track: emission
       wants the boxed values the fast store deliberately avoids
       materialising. *)
    let track =
      match grid with
      | Some g
        when Option.is_none sink && Option.is_none metrics
             && Option.is_some (Fixed.of_rat g capacity) ->
          Fast (fast_create g)
      | _ ->
          Exact
            (Core.create ~audit ?sink ?metrics ?profile ~tag_capacity ~handlers
               ~capacity ())
    in
    {
      capacity;
      tag_capacity;
      handlers;
      first_fit = policy.Policy.first_fit;
      audit;
      profile;
      track;
    }

  (* The fast store's checkpoint image, straight off the scaled store:
     every field either is the cached exact box or converts exactly, so
     it matches an exact-track freeze bit for bit. *)
  let fast_image t f ~policy_state : Core.Frozen.t =
    {
      Core.Frozen.s_capacity = t.capacity;
      s_clock = fast_now f;
      s_violations = f.violations;
      s_bins =
        List.init f.fb_len (fun id ->
            let items = List.rev f.fb_items_rev.(id) in
            {
              Core.Frozen.b_id = id;
              b_tag = f.fb_tag.(id);
              b_capacity = f.fb_cap.(id);
              b_opened = f.fb_opened.(id);
              b_closed = f.fb_closed.(id);
              b_max_level = Fixed.to_rat f.g f.fb_max.(id);
              b_placements = List.map (fun i -> (f.fi_arrival.(i), i)) items;
              b_active =
                List.filter_map
                  (fun i -> if f.fi_bin.(i) = id then Some (i, f.fi_size.(i)) else None)
                  items;
            });
      s_policy_state = policy_state;
    }

  (* Degrade: build the exact engine from the fast store's image around
     the live handlers and continue on the [Exact] track.  The image
     records placements only, so ids that were consumed without one (a
     rejected arrival) are carried across as seen. *)
  let degrade t f =
    let seen = ref [] in
    for i = f.fi_max_seen downto 0 do
      if f.fi_bin.(i) <> -2 then seen := i :: !seen
    done;
    let c =
      Core.restore ~audit:t.audit ~profile:t.profile ~tag_capacity:t.tag_capacity
        ~seen:!seen ~handlers:t.handlers
        (fast_image t f ~policy_state:None)
    in
    if t.audit then Core.audit c;
    t.track <- Exact c;
    c

  let now t = match t.track with Exact c -> Core.now c | Fast f -> fast_now f

  let open_bins t =
    match t.track with Exact c -> Core.open_bins c | Fast f -> fast_views f

  (* The fast arrival commit: raw int arithmetic on the dense store.
     [of_rat] bounds every admitted value by max_int/4, so the sums
     below cannot wrap.  [tok] is the open "commit" profile span. *)
  let commit_fast t f ~target ~item_id ~now ~size ~size_s tok =
    f.fb_level.(target) <- f.fb_level.(target) + size_s;
    if f.fb_level.(target) > f.fb_max.(target) then
      f.fb_max.(target) <- f.fb_level.(target);
    f.fb_active.(target) <- f.fb_active.(target) + 1;
    f.fb_items_rev.(target) <- item_id :: f.fb_items_rev.(target);
    f.fb_view.(target) <- None;
    refresh_fit f target;
    f.fi_bin.(item_id) <- target;
    f.fi_size_s.(item_id) <- size_s;
    f.fi_size.(item_id) <- size;
    f.fi_arrival.(item_id) <- now;
    f.fi_active <- f.fi_active + 1;
    Dbp_obs.Profile.leave t.profile "commit" tok;
    if t.audit then audit_fast f;
    target

  (* A [New_bin tag] decision on the fast track: opens the next bin
     and commits the item into it. *)
  let open_fast t f ~tag ~item_id ~now ~now_s ~size ~size_s tok =
    let cap = t.tag_capacity tag in
    match Fixed.of_rat f.g cap with
    | None ->
        (* The tag's capacity is off-grid: hand the already-made
           decision to the exact engine, whose views equal the fast
           ones the policy saw.  The policy must not run again. *)
        Dbp_obs.Profile.leave t.profile "commit" tok;
        Core.commit (degrade t f) ~now ~size ~item_id (Policy.New_bin tag)
    | Some cap_s ->
        (* Any Fit violation: some open bin had room after all. *)
        if Residual_tree.max_residual f.fo_fit >= size_s then
          f.violations <- f.violations + 1;
        if size_s > cap_s then
          invalid_decision
            "item %d (size %s) exceeds the capacity %s of a new '%s' bin"
            item_id (Rat.to_string size) (Rat.to_string cap) tag;
        let id = f.fb_len in
        if id >= Array.length f.fb_tag then grow_bin_arrays f;
        f.fb_tag.(id) <- tag;
        f.fb_cap_s.(id) <- cap_s;
        f.fb_cap.(id) <- cap;
        f.fb_level.(id) <- 0;
        f.fb_max.(id) <- 0;
        f.fb_active.(id) <- 0;
        f.fb_opened.(id) <- now;
        f.fb_closed.(id) <- None;
        f.fb_opened_s.(id) <- now_s;
        f.fb_items_rev.(id) <- [];
        f.fb_len <- id + 1;
        open_slot_append f id;
        commit_fast t f ~target:id ~item_id ~now ~size ~size_s tok

  let arrive_fast t f ~now ~size ~item_id ~now_s ~size_s =
    fast_advance_clock f ~now ~now_s;
    if size_s <= 0 then invalid_step "item %d has size <= 0" item_id;
    if item_id >= Array.length f.fi_bin then grow_item_arrays f item_id;
    if f.fi_bin.(item_id) <> -2 then invalid_step "item id %d reused" item_id;
    (* Mark seen before the policy runs, like the exact track: an id
       consumed by a rejected decision stays consumed. *)
    f.fi_bin.(item_id) <- -1;
    f.fi_seen <- f.fi_seen + 1;
    if item_id > f.fi_max_seen then f.fi_max_seen <- item_id;
    match t.first_fit with
    | Some tag ->
        (* First Fit off the index: the leftmost slot whose residual
           admits the item, in O(log open bins), with no view list and
           no handler call.  Slots ascend by bin id and scaled integers
           order exactly as the rationals they stand for, so this is
           the bin [Fit.first] would pick from the views.  The lookup
           is charged to the policy phase; there is no views phase. *)
        let tok = Dbp_obs.Profile.enter t.profile in
        let slot = Residual_tree.first_fit f.fo_fit size_s in
        Dbp_obs.Profile.leave t.profile "policy" tok;
        let tok = Dbp_obs.Profile.enter t.profile in
        if slot >= 0 then
          commit_fast t f ~target:f.fo_slots.(slot) ~item_id ~now ~size ~size_s
            tok
        else open_fast t f ~tag ~item_id ~now ~now_s ~size ~size_s tok
    | None -> (
        let tok = Dbp_obs.Profile.enter t.profile in
        let views = fast_views f in
        Dbp_obs.Profile.leave t.profile "views" tok;
        let tok = Dbp_obs.Profile.enter t.profile in
        let decision =
          t.handlers.Policy.on_arrival ~now ~bins:views ~size ~item_id
        in
        Dbp_obs.Profile.leave t.profile "policy" tok;
        let tok = Dbp_obs.Profile.enter t.profile in
        match decision with
        | Policy.Existing id ->
            if id < 0 || id >= f.fb_len then
              invalid_decision "policy chose unknown bin %d" id;
            if Option.is_some f.fb_closed.(id) then
              invalid_decision "policy chose closed bin %d" id;
            if f.fb_level.(id) + size_s > f.fb_cap_s.(id) then
              invalid_decision "item %d does not fit in bin %d" item_id id;
            commit_fast t f ~target:id ~item_id ~now ~size ~size_s tok
        | Policy.New_bin tag ->
            open_fast t f ~tag ~item_id ~now ~now_s ~size ~size_s tok)

  let arrive t ~now ~size ~item_id =
    match t.track with
    | Exact c -> Core.arrive c ~now ~size ~item_id
    | Fast f -> (
        match (Fixed.of_rat f.g now, Fixed.of_rat f.g size) with
        | Some now_s, Some size_s when item_id >= 0 && item_id <= max_fast_item
          ->
            arrive_fast t f ~now ~size ~item_id ~now_s ~size_s
        | _ -> Core.arrive (degrade t f) ~now ~size ~item_id)

  (* The clock is already advanced when this runs; the boxed time is
     materialised only if a bin closes or a real handler wants it. *)
  let depart_fast t f ~item_id ~now_s =
    let b =
      if item_id >= 0 && item_id < Array.length f.fi_bin then
        f.fi_bin.(item_id)
      else -2
    in
    if b < 0 then invalid_step "departure of unknown/inactive item %d" item_id;
    let tok = Dbp_obs.Profile.enter t.profile in
    f.fi_bin.(item_id) <- -1;
    f.fi_active <- f.fi_active - 1;
    let remaining = f.fb_active.(b) - 1 in
    f.fb_active.(b) <- remaining;
    (if remaining = 0 then begin
       f.fb_level.(b) <- 0;
       f.fb_closed.(b) <- Some (fast_now_rat f);
       f.fb_closed_s.(b) <- now_s;
       open_slot_remove f b
     end
     else begin
       f.fb_level.(b) <- f.fb_level.(b) - f.fi_size_s.(item_id);
       f.fb_view.(b) <- None;
       refresh_fit f b
     end);
    Dbp_obs.Profile.leave t.profile "commit" tok;
    (if t.handlers.Policy.on_departure != Policy.no_departure_handler
     then begin
       let tok = Dbp_obs.Profile.enter t.profile in
       let views = fast_views f in
       Dbp_obs.Profile.leave t.profile "views" tok;
       let tok = Dbp_obs.Profile.enter t.profile in
       t.handlers.Policy.on_departure ~now:(fast_now_rat f) ~bins:views ~item_id;
       Dbp_obs.Profile.leave t.profile "policy" tok
     end);
    if t.audit then audit_fast f

  let depart t ~now ~item_id =
    match t.track with
    | Exact c -> Core.depart c ~now ~item_id
    | Fast f -> (
        match Fixed.of_rat f.g now with
        | Some now_s ->
            fast_advance_clock f ~now ~now_s;
            depart_fast t f ~item_id ~now_s
        | None -> Core.depart (degrade t f) ~now ~item_id)

  (* Scaled-entry departure for the replay loop: the caller already
     knows the on-grid time, so the item record is never touched and
     no rational is built unless the event closes a bin.  [g] is the
     run's grid, needed only if the track degraded mid-run. *)
  let depart_scaled t g ~now_s ~item_id =
    match t.track with
    | Exact c -> Core.depart c ~now:(Fixed.to_rat g now_s) ~item_id
    | Fast f ->
        fast_advance_clock_s f ~now_s;
        depart_fast t f ~item_id ~now_s

  let fail_bin_fast t f ~now ~bin_id ~now_s =
    fast_advance_clock f ~now ~now_s;
    if bin_id < 0 || bin_id >= f.fb_len then
      invalid_step "fail_bin: unknown bin %d" bin_id;
    if Option.is_some f.fb_closed.(bin_id) then
      invalid_step "fail_bin: bin %d is already closed" bin_id;
    (* [fb_items_rev] is newest first; the fold re-reverses, so victims
       come out oldest placement first like the exact track. *)
    let victims =
      List.fold_left
        (fun acc i ->
          if f.fi_bin.(i) = bin_id then (i, f.fi_size.(i)) :: acc else acc)
        [] f.fb_items_rev.(bin_id)
    in
    List.iter
      (fun (i, _) ->
        f.fi_bin.(i) <- -1;
        f.fi_active <- f.fi_active - 1)
      victims;
    f.fb_active.(bin_id) <- 0;
    f.fb_level.(bin_id) <- 0;
    f.fb_closed.(bin_id) <- Some now;
    f.fb_closed_s.(bin_id) <- now_s;
    open_slot_remove f bin_id;
    (if t.handlers.Policy.on_departure != Policy.no_departure_handler
     then
       let views = fast_views f in
       List.iter
         (fun (item_id, _) ->
           t.handlers.Policy.on_departure ~now ~bins:views ~item_id)
         victims);
    if t.audit then audit_fast f;
    victims

  let fail_bin t ~now ~bin_id =
    match t.track with
    | Exact c -> Core.fail_bin c ~now ~bin_id
    | Fast f -> (
        match Fixed.of_rat f.g now with
        | Some now_s -> fail_bin_fast t f ~now ~bin_id ~now_s
        | None -> Core.fail_bin (degrade t f) ~now ~bin_id)

  let migrate_fast t f ~now ~item_id ~to_bin ~new_item_id ~now_s =
    fast_advance_clock f ~now ~now_s;
    let src =
      if item_id >= 0 && item_id < Array.length f.fi_bin then
        f.fi_bin.(item_id)
      else -2
    in
    if src < 0 then invalid_step "migrate: unknown/inactive item %d" item_id;
    if to_bin < 0 || to_bin >= f.fb_len then
      invalid_step "migrate: unknown destination bin %d" to_bin;
    if to_bin = src then
      invalid_step "migrate: item %d already lives in bin %d" item_id to_bin;
    if Option.is_some f.fb_closed.(to_bin) then
      invalid_step "migrate: destination bin %d is closed" to_bin;
    let size_s = f.fi_size_s.(item_id) in
    let size = f.fi_size.(item_id) in
    if f.fb_level.(to_bin) + size_s > f.fb_cap_s.(to_bin) then
      invalid_step "migrate: item %d (size %a) does not fit bin %d (residual %a)"
        item_id Rat.pp size to_bin Rat.pp
        (Fixed.to_rat f.g (f.fb_cap_s.(to_bin) - f.fb_level.(to_bin)));
    if new_item_id >= Array.length f.fi_bin then grow_item_arrays f new_item_id;
    if f.fi_bin.(new_item_id) <> -2 then
      invalid_step "migrate: item id %d reused" new_item_id;
    let tok = Dbp_obs.Profile.enter t.profile in
    (* Source side. *)
    f.fi_bin.(item_id) <- -1;
    let remaining = f.fb_active.(src) - 1 in
    f.fb_active.(src) <- remaining;
    let src_closed = remaining = 0 in
    (if src_closed then begin
       f.fb_level.(src) <- 0;
       f.fb_closed.(src) <- Some now;
       f.fb_closed_s.(src) <- now_s;
       open_slot_remove f src
     end
     else begin
       f.fb_level.(src) <- f.fb_level.(src) - size_s;
       f.fb_view.(src) <- None;
       refresh_fit f src
     end);
    (* Destination side, under the fresh id. *)
    f.fi_bin.(new_item_id) <- to_bin;
    f.fi_size_s.(new_item_id) <- size_s;
    f.fi_size.(new_item_id) <- size;
    f.fi_arrival.(new_item_id) <- now;
    f.fi_seen <- f.fi_seen + 1;
    if new_item_id > f.fi_max_seen then f.fi_max_seen <- new_item_id;
    f.fb_level.(to_bin) <- f.fb_level.(to_bin) + size_s;
    if f.fb_level.(to_bin) > f.fb_max.(to_bin) then
      f.fb_max.(to_bin) <- f.fb_level.(to_bin);
    f.fb_active.(to_bin) <- f.fb_active.(to_bin) + 1;
    f.fb_items_rev.(to_bin) <- new_item_id :: f.fb_items_rev.(to_bin);
    f.fb_view.(to_bin) <- None;
    refresh_fit f to_bin;
    Dbp_obs.Profile.leave t.profile "commit" tok;
    if t.audit then audit_fast f;
    src_closed

  let migrate t ~now ~item_id ~to_bin ~new_item_id =
    match t.track with
    | Exact c -> Core.migrate c ~now ~item_id ~to_bin ~new_item_id
    | Fast f -> (
        match Fixed.of_rat f.g now with
        | Some now_s when new_item_id >= 0 && new_item_id <= max_fast_item ->
            migrate_fast t f ~now ~item_id ~to_bin ~new_item_id ~now_s
        | _ -> Core.migrate (degrade t f) ~now ~item_id ~to_bin ~new_item_id)

  let bin_of_item t item_id =
    match t.track with
    | Exact c -> Core.bin_of_item c item_id
    | Fast f ->
        if
          item_id >= 0
          && item_id < Array.length f.fi_bin
          && f.fi_bin.(item_id) >= 0
        then Some f.fi_bin.(item_id)
        else None

  let active_items_in t bin_id =
    match t.track with
    | Exact c -> Core.active_items_in c bin_id
    | Fast f ->
        if bin_id < 0 || bin_id >= f.fb_len then []
        else
          List.filter_map
            (fun i ->
              if f.fi_bin.(i) = bin_id then Some (i, f.fi_size.(i)) else None)
            f.fb_items_rev.(bin_id)

  let level_of t bin_id =
    match t.track with
    | Exact c -> Core.level_of c bin_id
    | Fast f ->
        if bin_id >= 0 && bin_id < f.fb_len && Option.is_none f.fb_closed.(bin_id)
        then Some (Fixed.to_rat f.g f.fb_level.(bin_id))
        else None

  (* The timeline and exact total cost straight off the scaled
     lifecycle times: usage periods sum as plain ints, and the
     timeline's breakpoints come from a radix sort of
     [(time_s << 1) | close-bit] keys instead of a rational comparison
     sort.  The keys are read back to front: the count is 0 from the
     last time on, and a time whose opens and closes cancel leaves no
     breakpoint, so the list is built canonical and in order.  Every
     value converts exactly, so the results are bit-identical to
     [Exact_engine.timeline_and_cost]; [None] (negative times or an
     overflowing sum) sends the caller there. *)
  let fast_timeline_and_cost f =
    let m = f.fb_len in
    if m = 0 then Some (Step_fn.empty, Rat.zero)
    else begin
      let keys = Array.make (2 * m) 0 in
      let total = ref 0 in
      match
        for id = 0 to m - 1 do
          let o = f.fb_opened_s.(id) and c = f.fb_closed_s.(id) in
          if o < 0 || c < 0 then raise Exit;
          keys.(2 * id) <- o lsl 1;
          keys.((2 * id) + 1) <- (c lsl 1) lor 1;
          total := Fixed.add !total (c - o)
        done
      with
      | exception Exit -> None
      | exception Fixed.Overflow -> None
      | () ->
          let keys = radix_sort_pos keys in
          let points = ref [] in
          let v = ref 0 in
          let i = ref (Array.length keys - 1) in
          while !i >= 0 do
            let time = keys.(!i) lsr 1 in
            let d = ref 0 in
            while !i >= 0 && keys.(!i) lsr 1 = time do
              d := !d + (if keys.(!i) land 1 = 0 then 1 else -1);
              decr i
            done;
            if !d <> 0 then points := (Fixed.to_rat f.g time, !v) :: !points;
            v := !v - !d
          done;
          Some (Step_fn.of_breakpoints !points, Fixed.to_rat f.g !total)
    end

  let timeline_and_cost_of_records =
    Exact_engine.timeline_and_cost
      ~opened:(fun (b : Packing.bin_record) -> b.opened)
      ~closed:(fun (b : Packing.bin_record) -> b.closed)

  (* The shared [finish] tail: assignment and result assembly from the
     per-bin records, identical for both tracks. *)
  let finish_tail t ~instance ~records ~timeline ~total_cost ~violations =
    let packing =
      {
        Packing.instance;
        policy_name = "";
        bins = records;
        assignment =
          Exact_engine.assignment ~items:(Instance.size instance)
            ~bin_id:(fun (b : Packing.bin_record) -> b.bin_id)
            ~item_ids:(fun (b : Packing.bin_record) -> b.item_ids)
            records;
        timeline;
        total_cost;
        max_bins = Step_fn.max_value timeline;
        any_fit_violations = violations;
      }
    in
    if t.audit then Audit.check_packing packing;
    packing

  let finish t ~instance =
    let n = Instance.size instance in
    match t.track with
    | Exact c ->
        let records =
          Core.finish c ~items:n ~record:(fun (b : Core.bin) ~closed ->
              {
                Packing.bin_id = b.id;
                tag = b.tag;
                capacity = b.capacity;
                opened = b.opened;
                closed;
                item_ids = Core.item_ids b;
                placements = Core.placements b;
                max_level = b.max_level;
              })
        in
        let timeline, total_cost = timeline_and_cost_of_records records in
        finish_tail t ~instance ~records ~timeline ~total_cost
          ~violations:(Core.violations c)
    | Fast f ->
        if f.fi_active <> 0 then
          invalid_step "finish with %d items still active" f.fi_active;
        if f.fi_seen <> n then
          invalid_step "instance has %d items but %d were stepped" n f.fi_seen;
        let records =
          Array.init f.fb_len (fun id ->
              let closed =
                match f.fb_closed.(id) with
                | Some c -> c
                | None -> invalid_step "bin %d never closed" id
              in
              let item_ids = List.rev f.fb_items_rev.(id) in
              {
                Packing.bin_id = id;
                tag = f.fb_tag.(id);
                capacity = f.fb_cap.(id);
                opened = f.fb_opened.(id);
                closed;
                item_ids;
                placements =
                  List.map (fun i -> (f.fi_arrival.(i), i)) item_ids;
                max_level = Fixed.to_rat f.g f.fb_max.(id);
              })
        in
        let timeline, total_cost =
          match fast_timeline_and_cost f with
          | Some tc -> tc
          | None -> timeline_and_cost_of_records records
        in
        finish_tail t ~instance ~records ~timeline ~total_cost
          ~violations:f.violations

  (* A live bin record only exists on the exact track; hand the caller
     one by leaving the fast track first.  Cold path (tests and
     post-mortems), so the one-off materialisation is fine. *)
  let bin_handle t bin_id =
    match t.track with
    | Exact c -> Core.find_bin c bin_id
    | Fast f -> Core.find_bin (degrade t f) bin_id

  (* ---- checkpoint/restore ------------------------------------------- *)

  module Frozen = Core.Frozen

  let freeze t =
    match t.track with
    | Exact c -> Core.freeze c
    | Fast f ->
        fast_image t f
          ~policy_state:
            (Exact_engine.save_policy_state t.handlers.Policy.persistence)

  let thaw ?(audit = false) ?sink ?metrics ?profile ?tag_capacity ~policy
      (frozen : Frozen.t) =
    let capacity = frozen.s_capacity in
    let tag_capacity =
      match tag_capacity with Some f -> f | None -> fun _ -> capacity
    in
    let handlers = policy.Policy.spawn ~capacity in
    let c =
      Core.thaw ~audit ?sink ?metrics ?profile ~tag_capacity
        ~name:policy.Policy.name ~handlers frozen
    in
    {
      capacity;
      tag_capacity;
      handlers;
      first_fit = policy.Policy.first_fit;
      audit;
      profile;
      track = Exact c;
    }

  let track_name t = match t.track with Exact _ -> "exact" | Fast _ -> "fixed"
end

(* The run's common grid denominator: the lcm of every size/time
   denominator in the instance (capacity included), verified to admit
   every value within [Fixed.bound].  [None] means some value is off
   any affordable grid and the run must stay exact. *)
let grid_of_instance instance =
  let items = Instance.items instance in
  let add acc r = match acc with None -> None | Some s -> Fixed.including s r in
  let scale =
    Array.fold_left
      (fun acc (r : Item.t) ->
        add (add (add acc r.Item.size) r.Item.arrival) r.Item.departure)
      (add (Some Fixed.unit) (Instance.capacity instance))
      items
  in
  match scale with
  | None -> None
  | Some s ->
      let ok =
        Fixed.fits s (Instance.capacity instance)
        && Array.for_all
             (fun (r : Item.t) ->
               Fixed.fits s r.Item.size && Fixed.fits s r.Item.arrival
               && Fixed.fits s r.Item.departure)
             items
      in
      if ok then Some s else None

(* Streaming drivers (lib/serve) pick a grid by denominator up front;
   keeping the constructor here keeps Fixed confined (lint R7). *)
let grid_of_den = Fixed.scale_of_den

let apply_event online (e : Event.t) =
  match e.kind with
  | Event.Arrival ->
      ignore
        (Online.arrive online ~now:e.time ~size:e.item.Item.size
           ~item_id:e.item.Item.id)
  | Event.Departure -> Online.depart online ~now:e.time ~item_id:e.item.Item.id

let run ?audit ?sink ?metrics ?profile ?grid ?tag_capacity ?checkpoint_every
    ?on_checkpoint ~policy instance =
  let audit =
    (* Default from the environment so [DBP_AUDIT=1 dune runtest]
       audits the whole suite without touching any call site. *)
    match audit with Some b -> b | None -> Audit.enabled_from_env ()
  in
  (match checkpoint_every with
  | Some k when k <= 0 -> invalid_arg "Simulator.run: checkpoint_every <= 0"
  | _ -> ());
  let grid = match grid with Some g -> g | None -> grid_of_instance instance in
  let online =
    Online.create ~audit ?sink ?metrics ?profile ?grid ?tag_capacity ~policy
      ~capacity:(Instance.capacity instance) ()
  in
  let hook_after i =
    match (checkpoint_every, on_checkpoint) with
    | Some k, Some hook when (i + 1) mod k = 0 -> hook ~events_done:(i + 1) online
    | _ -> ()
  in
  (* Replay order as integer keys: [(time_s << 25) | (kind << 24) | id]
     with departures' kind bit 0 — integer order is exactly
     [Event.compare]'s (time, departures first, then item id; ids are
     unique), so the radix sort replaces both the event-record
     allocation and the comparison sort.  Only valid when every id can
     index a dense array and every time is an on-grid scaled integer
     small enough to keep the key positive; anything else replays the
     classic event array. *)
  let fast_keys () =
    match grid with
    | None -> None
    | Some g ->
        let items = Instance.items instance in
        let n = Array.length items in
        if n = 0 then None
        else
          let max_id =
            Array.fold_left (fun m (r : Item.t) -> max m r.Item.id) (-1) items
          in
          if max_id > max_fast_item || max_id >= (2 * n) + 1024 then None
          else begin
            let by_id = Array.make (max_id + 1) items.(0) in
            let seen = Array.make (max_id + 1) false in
            let keys = Array.make (2 * n) 0 in
            let lim = event_key_time_limit in
            match
              Array.iteri
                (fun i (r : Item.t) ->
                  if r.Item.id < 0 || seen.(r.Item.id) then raise Exit;
                  match
                    (Fixed.of_rat g r.Item.arrival, Fixed.of_rat g r.Item.departure)
                  with
                  | Some a, Some d when a >= 0 && d >= 0 && a < lim && d < lim ->
                      seen.(r.Item.id) <- true;
                      by_id.(r.Item.id) <- r;
                      keys.(2 * i) <-
                        pack_event_key ~time_s:a ~arrival:true ~id:r.Item.id;
                      keys.((2 * i) + 1) <-
                        pack_event_key ~time_s:d ~arrival:false ~id:r.Item.id
                  | _ -> raise Exit)
                items
            with
            | () -> Some (g, radix_sort_pos keys, by_id)
            | exception Exit -> None
          end
  in
  (match fast_keys () with
  | Some (g, keys, by_id) ->
      Array.iteri
        (fun i k ->
          let id = k land event_key_id_mask in
          (if k land event_key_kind_bit <> 0 then
             let r = by_id.(id) in
             ignore
               (Online.arrive online ~now:r.Item.arrival ~size:r.Item.size
                  ~item_id:id)
           else
             (* The key already encodes the on-grid departure time, so
                skip the [by_id] load entirely. *)
             Online.depart_scaled online g
               ~now_s:(k lsr event_key_time_shift) ~item_id:id);
          hook_after i)
        keys
  | None ->
      Array.iteri
        (fun i e ->
          apply_event online e;
          hook_after i)
        (Event.sorted_array_of_instance instance));
  let packing = Online.finish online ~instance in
  { packing with Packing.policy_name = policy.Policy.name }
