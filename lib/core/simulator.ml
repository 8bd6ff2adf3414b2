open Dbp_num

let log_src = Logs.Src.create "dbp.simulator" ~doc:"MinTotal DBP simulator"

module Log = (val Logs.src_log log_src : Logs.LOG)

exception Invalid_decision of string
exception Invalid_step of string

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
  (* Engine invariants (see DESIGN.md "Simulator engine" and "Numeric
     fast path"):

     - [store.(id)] holds every bin ever opened, densely indexed by id,
       so resolving a policy's [Existing id] is an array read.
     - [open_index] tracks exactly the open subset in opening order;
       the view list handed to policies is assembled from it in
       O(open bins), with per-bin views memoised inside [Bin].
     - [item_bin] maps each *active* item id to its bin; the item's
       stub is recovered from the bin's keyed active table, so
       [depart] does no list scan at all.

     Per-event cost is therefore O(open bins) — independent of how
     many bins the run has ever opened.  On the fixed-point track
     First Fit does better: a max-residual tree over the open slots
     ([fo_fit]) answers its arrivals in O(log open bins) with no view
     list at all; every other policy keeps the O(open bins) view pass.

     The engine runs on one of two numeric tracks.  The [Exact] track
     is the seed implementation above: boxed [Bin.t] records and
     gcd-normalised [Rat.t] arithmetic on every level update.  The
     [Fast] track keeps the same state as unboxed struct-of-arrays
     over scaled integers ([Fixed]): every size, time and level is a
     native int over the run's common grid denominator, so the commit
     path is pure int array arithmetic — no allocation, no gcd.
     Admission is exact-or-refuse: the track is only entered when the
     whole instance lies on the grid ([grid_of_instance]), and any
     mid-run input that does not convert (an off-grid time from a
     fault injector, a tag capacity off the grid, an oversized id)
     triggers [degrade], which materialises the equivalent exact state
     and continues on the [Exact] track.  Conversions both ways are
     exact and [Rat.make] always normalises, so the two tracks produce
     bit-identical packings, traces and snapshots. *)

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
    (* The open subset, materialised: [fo_views.(0 .. fo_len-1)] are
       policy views in opening (= ascending id) order, and
       [fb_slot.(id)] is a bin's slot (-1 once closed).  Assembling the
       policy's view list is a sequential walk of a dense array, not a
       pointer chase over per-bin records.  Invalidation is batched:
       commits only push the touched bin onto [fd_stack] and the stale
       slots are re-projected once, at the next view read — so events
       nobody observes (a departure under a no-op handler) never pay
       the two gcd-normalising conversions a view costs. *)
    mutable fo_views : Bin.view array;
    mutable fo_len : int;
    mutable fb_slot : int array;
    (* Max-residual tree over the same slots, never stale: leaf [s] is
       [fb_cap_s - fb_level] of the bin in slot [s].  It answers First
       Fit without views and the Any Fit violation check without a
       scan. *)
    fo_fit : Residual_tree.t;
    mutable fb_dirty : bool array;  (* gates [fd_stack] pushes *)
    mutable fd_stack : int array;
    mutable fd_len : int;
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
    (* Clock, scaled; [min_int] = no event yet.  [f_now] caches the
       exact rational of the same instant, materialised lazily
       ([f_now_ok]) so scaled-entry events that never need the boxed
       time (a departure that closes nothing, under a no-op handler)
       never convert. *)
    mutable f_clock : int;
    mutable f_now : Rat.t;
    mutable f_now_ok : bool;
  }

  type track = Exact | Fast of fast

  type t = {
    capacity : Rat.t;
    tag_capacity : string -> Rat.t;
    handlers : Policy.handlers;
    first_fit : string option;  (* [Policy.t.first_fit] *)
    mutable store : Bin.t array;  (* all bins ever, dense by id *)
    mutable bin_count : int;
    open_index : Open_index.t;
    item_bin : (int, Bin.t) Hashtbl.t;  (* active item -> its bin *)
    seen_items : (int, unit) Hashtbl.t;
    mutable clock : Rat.t option;
    mutable violations : int;
    audit : bool;  (* re-verify every invariant after every event *)
    (* Observability taps (lib/obs).  All three default to [None]; the
       disabled cost is one pattern match per event, so production
       runs pay nothing measurable (the acceptance bound is <= 5% on
       events/second, see test/test_obs.ml and the bench).  A sink or
       metrics registry forces the exact track: emission wants the
       boxed values the fast store deliberately avoids materialising. *)
    sink : Dbp_obs.Sink.t option;
    metrics : Dbp_obs.Metrics.t option;
    profile : Dbp_obs.Profile.t option;
    mutable track : track;
  }

  (* Sanitizer pass (audit mode): re-derive the memoised engine state
     from scratch after an event and compare.  O(total bins + active
     items) per call, so audit runs cost O(n) per event where the
     production path is O(open bins) — acceptable for tests/CI, which
     is what the mode is for. *)
  let audit_state t =
    let time = t.clock in
    let fail ?bin_id ~check fmt = Audit.fail ?time ?bin_id ~check fmt in
    (* 1. Open-index doubly-linked invariants. *)
    (match Open_index.validate t.open_index with
    | Ok () -> ()
    | Error msg -> fail ~check:"open-index" "%s" msg);
    (* 2. Store vs index agreement: the index holds exactly the open
       subset of the store, and slots alias the stored bins. *)
    for id = 0 to t.bin_count - 1 do
      let b = t.store.(id) in
      if b.Bin.id <> id then
        fail ~check:"store" ~bin_id:id "store slot %d holds bin id %d" id
          b.Bin.id;
      if Bin.is_open b && not (Open_index.mem t.open_index b) then
        fail ~check:"store" ~bin_id:id "open bin missing from the open index";
      if (not (Bin.is_open b)) && Open_index.mem t.open_index b then
        fail ~check:"store" ~bin_id:id "closed bin still in the open index";
      (* A closed bin holds nothing: a migration or eviction that
         closed it must have drained its active table and level. *)
      if not (Bin.is_open b) then begin
        if Bin.active_count b <> 0 then
          fail ~check:"item-bin" ~bin_id:id
            "closed bin still holds %d active items" (Bin.active_count b);
        if not (Rat.is_zero b.Bin.level) then
          fail ~check:"item-bin" ~bin_id:id "closed bin retains level %s"
            (Rat.to_string b.Bin.level)
      end
    done;
    (* 3. Per-bin memoised state (level, view cache, capacity). *)
    Open_index.iter
      (fun b ->
        if not (b == t.store.(b.Bin.id)) then
          fail ~check:"store" ~bin_id:b.Bin.id
            "index member is not the stored bin";
        Audit.check_bin ?time b)
      t.open_index;
    (* 4. item_bin consistency: active items and bins agree both ways. *)
    let active_total = ref 0 in
    Open_index.iter
      (fun b -> active_total := !active_total + Bin.active_count b)
      t.open_index;
    if Hashtbl.length t.item_bin <> !active_total then
      fail ~check:"item-bin" "%d tracked items but %d active across open bins"
        (Hashtbl.length t.item_bin) !active_total;
    Hashtbl.iter
      (fun item_id (b : Bin.t) ->
        if not (Bin.is_open b) then
          fail ~check:"item-bin" ~bin_id:b.Bin.id
            "item %d tracked in a closed bin" item_id;
        match Bin.find_active b item_id with
        | Some _ -> ()
        | None ->
            fail ~check:"item-bin" ~bin_id:b.Bin.id
              "item %d tracked but not active in its bin" item_id)
      t.item_bin;
    (* Reverse direction: every active item is tracked, and tracked in
       the bin that holds it — together with the count equality above
       this pins each item to exactly one bin (the migration-
       conservation invariant: a move re-points, never duplicates). *)
    Open_index.iter
      (fun b ->
        Hashtbl.iter
          (fun item_id _ ->
            match Hashtbl.find_opt t.item_bin item_id with
            | Some owner when owner == b -> ()
            | Some (owner : Bin.t) ->
                fail ~check:"item-bin" ~bin_id:b.Bin.id
                  "item %d active here but tracked in bin %d" item_id
                  owner.Bin.id
            | None ->
                fail ~check:"item-bin" ~bin_id:b.Bin.id
                  "item %d active but untracked" item_id)
          b.Bin.active)
      t.open_index

  let after_event t = if t.audit then audit_state t

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
      fo_views = [||];
      fo_len = 0;
      fb_slot = [||];
      fo_fit = Residual_tree.create ();
      fb_dirty = [||];
      fd_stack = [||];
      fd_len = 0;
      fi_bin = [||];
      fi_size_s = [||];
      fi_size = [||];
      fi_arrival = [||];
      fi_max_seen = -1;
      fi_seen = 0;
      fi_active = 0;
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
    f.fb_slot <- g f.fb_slot (-1);
    f.fb_dirty <- g f.fb_dirty false

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

  (* Refresh the touched bin's slot after a level/count change. *)
  let refresh_slot f id = f.fo_views.(f.fb_slot.(id)) <- fast_view f id

  (* Batched invalidation: a commit records which bin changed; the
     stale slots are re-projected together at the next view read. *)
  let mark_dirty f id =
    if not f.fb_dirty.(id) then begin
      f.fb_dirty.(id) <- true;
      let n = Array.length f.fd_stack in
      if f.fd_len >= n then begin
        let a = Array.make (max 64 (2 * n)) 0 in
        Array.blit f.fd_stack 0 a 0 n;
        f.fd_stack <- a
      end;
      f.fd_stack.(f.fd_len) <- id;
      f.fd_len <- f.fd_len + 1
    end

  let flush_views f =
    if f.fd_len > 0 then begin
      for i = 0 to f.fd_len - 1 do
        let id = f.fd_stack.(i) in
        f.fb_dirty.(id) <- false;
        (* A dirty bin may have closed before the flush; its slot is
           gone and there is nothing to refresh. *)
        if f.fb_slot.(id) >= 0 then refresh_slot f id
      done;
      f.fd_len <- 0
    end

  (* Re-derive an open bin's leaf after its level changed. *)
  let refresh_fit f id =
    Residual_tree.update f.fo_fit ~slot:f.fb_slot.(id)
      (f.fb_cap_s.(id) - f.fb_level.(id))

  let open_slot_append f id =
    let v = fast_view f id in
    let n = Array.length f.fo_views in
    if f.fo_len >= n then begin
      let a = Array.make (max 64 (2 * n)) v in
      Array.blit f.fo_views 0 a 0 n;
      f.fo_views <- a
    end;
    f.fo_views.(f.fo_len) <- v;
    f.fb_slot.(id) <- f.fo_len;
    Residual_tree.append f.fo_fit ~slot:f.fo_len
      (f.fb_cap_s.(id) - f.fb_level.(id));
    f.fo_len <- f.fo_len + 1

  let open_slot_remove f id =
    let slot = f.fb_slot.(id) in
    for s = slot to f.fo_len - 2 do
      let v = f.fo_views.(s + 1) in
      f.fo_views.(s) <- v;
      f.fb_slot.(v.Bin.bin_id) <- s
    done;
    Residual_tree.remove f.fo_fit ~slot ~len:f.fo_len;
    f.fb_slot.(id) <- -1;
    f.fo_len <- f.fo_len - 1

  (* The policy-facing view list in opening order: a sequential walk
     of the dense slot array. *)
  let fast_views f =
    flush_views f;
    let rec go acc s = if s < 0 then acc else go (f.fo_views.(s) :: acc) (s - 1) in
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
     from the placement lists and compare, mirroring [audit_state] on
     the struct-of-arrays store. *)
  let audit_fast _t f =
    flush_views f;
    let time = fast_now f in
    let fail ?bin_id ~check fmt = Audit.fail ?time ?bin_id ~check fmt in
    (* 1. Slot-array structure: slots hold distinct open bins in
       ascending id (= opening) order and agree with the back map. *)
    let in_list = Array.make (max 1 f.fb_len) false in
    if f.fo_len < 0 || f.fo_len > f.fb_len then
      fail ~check:"fast-open" "slot count %d out of range" f.fo_len;
    let last = ref (-1) in
    for s = 0 to f.fo_len - 1 do
      let id = f.fo_views.(s).Bin.bin_id in
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
           let id = f.fo_views.(s).Bin.bin_id in
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
      (* The materialised slot view must agree with a fresh projection. *)
      if is_open then begin
        let v = f.fo_views.(f.fb_slot.(id)) in
        if
          v.Bin.bin_id <> id
          || v.Bin.bin_count <> f.fb_active.(id)
          || not (Rat.equal v.Bin.bin_level (Fixed.to_rat f.g f.fb_level.(id)))
          || not
               (Rat.equal v.Bin.bin_residual
                  (Fixed.to_rat f.g (f.fb_cap_s.(id) - f.fb_level.(id))))
          || not (Rat.equal v.Bin.bin_capacity f.fb_cap.(id))
        then fail ~check:"fast-view" ~bin_id:id "stale slot view"
      end
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

  let audit t = match t.track with Exact -> audit_state t | Fast f -> audit_fast t f

  let create ?(audit = false) ?sink ?metrics ?profile ?grid ?tag_capacity
      ~policy ~capacity () =
    if Rat.sign capacity <= 0 then
      invalid_arg "Online.create: capacity must be positive";
    let tag_capacity =
      match tag_capacity with Some f -> f | None -> fun _ -> capacity
    in
    let track =
      match grid with
      | Some g when Option.is_none sink && Option.is_none metrics -> (
          match Fixed.of_rat g capacity with
          | Some _ -> Fast (fast_create g)
          | None -> Exact)
      | _ -> Exact
    in
    {
      capacity;
      tag_capacity;
      handlers = policy.Policy.spawn ~capacity;
      first_fit = policy.Policy.first_fit;
      store = [||];
      bin_count = 0;
      open_index = Open_index.create ();
      item_bin = Hashtbl.create 64;
      seen_items = Hashtbl.create 64;
      clock = None;
      violations = 0;
      audit;
      sink;
      metrics;
      profile;
      track;
    }

  let advance_clock t now =
    (match t.clock with
    | Some prev when Rat.(now < prev) ->
        invalid_step "time went backwards: %a after %a" Rat.pp now Rat.pp prev
    | _ -> ());
    t.clock <- Some now

  let now t =
    match t.track with Exact -> t.clock | Fast f -> fast_now f

  let open_bins t =
    match t.track with
    | Exact -> Open_index.views t.open_index
    | Fast f -> fast_views f

  let find_bin t id =
    if id >= 0 && id < t.bin_count then Some t.store.(id) else None

  let register_bin t b =
    let n = Array.length t.store in
    if t.bin_count >= n then begin
      let store = Array.make (max 16 (2 * n)) b in
      Array.blit t.store 0 store 0 n;
      t.store <- store
    end;
    t.store.(t.bin_count) <- b;
    t.bin_count <- t.bin_count + 1;
    Open_index.add t.open_index b

  (* Degrade: materialise the exact engine state from the scaled
     store and continue on the [Exact] track.  Every conversion is an
     exact [to_rat] of an on-grid value (and the cached Rat columns
     are the very boxes the caller handed in), so the switch is
     invisible: packings, traces and snapshots are bit-identical to a
     run that was exact from the start. *)
  let degrade t f =
    for id = 0 to f.fb_len - 1 do
      (* [fb_items_rev] is newest first; both folds re-reverse, so
         placements and actives come out oldest first as [Bin.restore]
         expects. *)
      let placements =
        List.fold_left
          (fun acc i -> (f.fi_arrival.(i), i) :: acc)
          [] f.fb_items_rev.(id)
      in
      let active_items =
        List.fold_left
          (fun acc i ->
            if f.fi_bin.(i) = id then
              Item.make ~id:i ~size:f.fi_size.(i) ~arrival:f.fi_arrival.(i)
                ~departure:(Rat.add f.fi_arrival.(i) Rat.one)
              :: acc
            else acc)
          [] f.fb_items_rev.(id)
      in
      let b =
        Bin.restore ~id ~tag:f.fb_tag.(id) ~capacity:f.fb_cap.(id)
          ~opened:f.fb_opened.(id) ~closed:f.fb_closed.(id)
          ~max_level:(Fixed.to_rat f.g f.fb_max.(id))
          ~placements ~active_items
      in
      register_bin t b;
      if not (Bin.is_open b) then Open_index.remove t.open_index b;
      List.iter
        (fun (r : Item.t) -> Hashtbl.replace t.item_bin r.Item.id b)
        active_items
    done;
    for i = 0 to f.fi_max_seen do
      if f.fi_bin.(i) <> -2 then Hashtbl.add t.seen_items i ()
    done;
    t.clock <- fast_now f;
    t.track <- Exact;
    if t.audit then audit_state t

  (* Observability emission helpers.  Each is one pattern match when
     the corresponding tap is off; event construction happens only
     inside the [Some] branch. *)
  module Obs = struct
    module E = Dbp_obs.Trace_event

    let emit t ~now kind_of =
      match t.sink with
      | None -> ()
      | Some s -> Dbp_obs.Sink.emit s ~time:now (kind_of ())

    let with_metrics t f =
      match t.metrics with None -> () | Some m -> f m

    (* Common to every event: the open-fleet gauge and its
       distribution over events (the "open-bin count" histogram). *)
    let fleet_metrics t m =
      let open_now = Open_index.cardinal t.open_index in
      Dbp_obs.Metrics.set_gauge m "open_bins" open_now;
      Dbp_obs.Metrics.observe_int m "open_bins" open_now

    (* A bin's usage period just ended (departure-close or failure):
       account its exact MinTotal contribution. *)
    let close_metrics m ~cost =
      Dbp_obs.Metrics.incr m "bins_closed";
      Dbp_obs.Metrics.add_rat m "bin_seconds" cost;
      Dbp_obs.Metrics.observe_rat m "bin_lifetime" cost
  end

  (* The arrival commit phase, shared between the exact track and the
     fast track's rare capacity-off-grid degrade: validates the
     already-made policy decision and mutates the exact store.  The
     decision must NOT be re-derived here — the policy already ran
     (and possibly advanced its internal state). *)
  let commit_arrival_exact t ~now ~size ~item_id ~views ~decision =
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
              if not (Bin.is_open b) then
                invalid_decision "policy chose closed bin %d" id
              else if not (Bin.fits b ~size) then
                invalid_decision "item %d does not fit in bin %d" item_id id
              else b)
      | Policy.New_bin tag ->
          if
            List.exists
              (fun (v : Bin.view) -> Rat.(size <= v.bin_residual))
              views
          then t.violations <- t.violations + 1;
          let cap = t.tag_capacity tag in
          if Rat.(size > cap) then
            invalid_decision
              "item %d (size %s) exceeds the capacity %s of a new '%s' bin"
              item_id (Rat.to_string size) (Rat.to_string cap) tag;
          let b = Bin.open_bin ~id:t.bin_count ~tag ~capacity:cap ~now in
          register_bin t b;
          b
    in
    (* The item's true departure time is not known yet; record a
       placeholder item and fix sizes/times from the instance at
       [finish].  Only id and size matter to the bin state. *)
    let stub =
      Item.make ~id:item_id ~size ~arrival:now
        ~departure:(Rat.add now Rat.one)
    in
    Bin.insert target ~now stub;
    Hashtbl.replace t.item_bin item_id target;
    Dbp_obs.Profile.leave t.profile "commit" tok;
    Obs.emit t ~now (fun () -> Obs.E.Arrive { item = item_id; size });
    if opened_new then
      Obs.emit t ~now (fun () ->
          Obs.E.Bin_open
            {
              bin = target.Bin.id;
              tag = target.Bin.tag;
              capacity = target.Bin.capacity;
            });
    Obs.emit t ~now (fun () ->
        Obs.E.Pack
          {
            item = item_id;
            bin = target.Bin.id;
            level = target.Bin.level;
            residual = Bin.residual target;
          });
    Obs.with_metrics t (fun m ->
        Dbp_obs.Metrics.incr m "arrivals";
        if opened_new then Dbp_obs.Metrics.incr m "bins_opened";
        Dbp_obs.Metrics.observe_rat m "utilisation_at_pack"
          (Rat.div target.Bin.level target.Bin.capacity);
        Obs.fleet_metrics t m);
    Log.debug (fun m ->
        m "t=%a item %d (size %a) -> bin %d [%s] level %a/%a" Rat.pp now
          item_id Rat.pp size target.Bin.id target.Bin.tag Rat.pp
          target.Bin.level Rat.pp target.Bin.capacity);
    after_event t;
    target.Bin.id

  let arrive_exact t ~now ~size ~item_id =
    advance_clock t now;
    if Rat.sign size <= 0 then invalid_step "item %d has size <= 0" item_id;
    if Hashtbl.mem t.seen_items item_id then
      invalid_step "item id %d reused" item_id;
    Hashtbl.add t.seen_items item_id ();
    let tok = Dbp_obs.Profile.enter t.profile in
    let views = open_bins t in
    Dbp_obs.Profile.leave t.profile "views" tok;
    let tok = Dbp_obs.Profile.enter t.profile in
    let decision = t.handlers.Policy.on_arrival ~now ~bins:views ~size ~item_id in
    Dbp_obs.Profile.leave t.profile "policy" tok;
    commit_arrival_exact t ~now ~size ~item_id ~views ~decision

  (* The fast arrival commit: raw int arithmetic on the dense store.
     [of_rat] bounds every admitted value by max_int/4, so the sums
     below cannot wrap.  [tok] is the open "commit" profile span. *)
  let commit_fast t f ~target ~item_id ~now ~size ~size_s tok =
    f.fb_level.(target) <- f.fb_level.(target) + size_s;
    if f.fb_level.(target) > f.fb_max.(target) then
      f.fb_max.(target) <- f.fb_level.(target);
    f.fb_active.(target) <- f.fb_active.(target) + 1;
    f.fb_items_rev.(target) <- item_id :: f.fb_items_rev.(target);
    mark_dirty f target;
    refresh_fit f target;
    f.fi_bin.(item_id) <- target;
    f.fi_size_s.(item_id) <- size_s;
    f.fi_size.(item_id) <- size;
    f.fi_arrival.(item_id) <- now;
    f.fi_active <- f.fi_active + 1;
    Dbp_obs.Profile.leave t.profile "commit" tok;
    if t.audit then audit_fast t f;
    target

  (* A [New_bin tag] decision on the fast track: opens the next bin
     and commits the item into it. *)
  let open_fast t f ~tag ~item_id ~now ~now_s ~size ~size_s tok =
    let cap = t.tag_capacity tag in
    match Fixed.of_rat f.g cap with
    | None ->
        (* The tag's capacity is off-grid: hand the already-made
           decision to the exact engine.  The policy must not run
           again; the exact views equal the fast ones it saw. *)
        Dbp_obs.Profile.leave t.profile "commit" tok;
        degrade t f;
        commit_arrival_exact t ~now ~size ~item_id ~views:(open_bins t)
          ~decision:(Policy.New_bin tag)
    | Some cap_s ->
        (* Any Fit violation: some open bin had room after all. *)
        if Residual_tree.max_residual f.fo_fit >= size_s then
          t.violations <- t.violations + 1;
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
          commit_fast t f ~target:f.fo_views.(slot).Bin.bin_id ~item_id ~now
            ~size ~size_s tok
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
    | Exact -> arrive_exact t ~now ~size ~item_id
    | Fast f -> (
        match (Fixed.of_rat f.g now, Fixed.of_rat f.g size) with
        | Some now_s, Some size_s when item_id >= 0 && item_id <= max_fast_item
          ->
            arrive_fast t f ~now ~size ~item_id ~now_s ~size_s
        | _ ->
            degrade t f;
            arrive_exact t ~now ~size ~item_id)

  let depart_exact t ~now ~item_id =
    advance_clock t now;
    match Hashtbl.find_opt t.item_bin item_id with
    | None -> invalid_step "departure of unknown/inactive item %d" item_id
    | Some b ->
        let tok = Dbp_obs.Profile.enter t.profile in
        let stub =
          match Bin.find_active b item_id with
          | Some stub -> stub
          | None -> invalid_step "item %d not active in its bin %d" item_id b.Bin.id
        in
        Bin.remove b ~now stub;
        let bin_closed = not (Bin.is_open b) in
        if bin_closed then Open_index.remove t.open_index b;
        Hashtbl.remove t.item_bin item_id;
        Dbp_obs.Profile.leave t.profile "commit" tok;
        Log.debug (fun m ->
            m "t=%a item %d departs bin %d%s" Rat.pp now item_id b.Bin.id
              (if bin_closed then " (bin closes)" else ""));
        (* A no-op departure handler needs no views: skip both phases
           entirely (the shared [Policy.no_departure_handler] is
           physically recognisable). *)
        (if t.handlers.Policy.on_departure != Policy.no_departure_handler
         then begin
           let tok = Dbp_obs.Profile.enter t.profile in
           let views = open_bins t in
           Dbp_obs.Profile.leave t.profile "views" tok;
           let tok = Dbp_obs.Profile.enter t.profile in
           t.handlers.Policy.on_departure ~now ~bins:views ~item_id;
           Dbp_obs.Profile.leave t.profile "policy" tok
         end);
        Obs.emit t ~now (fun () ->
            Obs.E.Depart
              {
                item = item_id;
                bin = b.Bin.id;
                held = Rat.sub now stub.Item.arrival;
              });
        if bin_closed then
          Obs.emit t ~now (fun () ->
              Obs.E.Bin_close
                {
                  bin = b.Bin.id;
                  opened = b.Bin.opened;
                  cost = Rat.sub now b.Bin.opened;
                });
        Obs.with_metrics t (fun m ->
            Dbp_obs.Metrics.incr m "departures";
            Dbp_obs.Metrics.observe_rat m "item_held"
              (Rat.sub now stub.Item.arrival);
            if bin_closed then
              Obs.close_metrics m ~cost:(Rat.sub now b.Bin.opened);
            Obs.fleet_metrics t m);
        after_event t

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
       mark_dirty f b;
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
    if t.audit then audit_fast t f

  let depart t ~now ~item_id =
    match t.track with
    | Exact -> depart_exact t ~now ~item_id
    | Fast f -> (
        match Fixed.of_rat f.g now with
        | Some now_s ->
            fast_advance_clock f ~now ~now_s;
            depart_fast t f ~item_id ~now_s
        | None ->
            degrade t f;
            depart_exact t ~now ~item_id)

  (* Scaled-entry departure for the replay loop: the caller already
     knows the on-grid time, so the item record is never touched and
     no rational is built unless the event closes a bin.  [g] is the
     run's grid, needed only if the track degraded mid-run. *)
  let depart_scaled t g ~now_s ~item_id =
    match t.track with
    | Exact -> depart_exact t ~now:(Fixed.to_rat g now_s) ~item_id
    | Fast f ->
        fast_advance_clock_s f ~now_s;
        depart_fast t f ~item_id ~now_s

  let fail_bin_exact t ~now ~bin_id =
    advance_clock t now;
    match find_bin t bin_id with
    | None -> invalid_step "fail_bin: unknown bin %d" bin_id
    | Some b ->
        if not (Bin.is_open b) then
          invalid_step "fail_bin: bin %d is already closed" bin_id;
        (* Oldest-placement-first, so re-dispatch order is deterministic
           and independent of table internals. *)
        let stubs = Bin.active_oldest_first b in
        let victims =
          List.map (fun (r : Item.t) -> (r.Item.id, r.Item.size)) stubs
        in
        List.iter
          (fun (stub : Item.t) ->
            Bin.remove b ~now stub;
            Hashtbl.remove t.item_bin stub.Item.id)
          stubs;
        (* An open bin always holds at least one item, so the eviction
           loop emptied it and [Bin.remove] closed it at [now]: the bin
           is charged exactly for [opened, now]. *)
        assert (not (Bin.is_open b));
        Open_index.remove t.open_index b;
        (* Departure handlers only observe the fleet, they cannot mutate
           it, so every eviction notification sees the same post-crash
           views: compute them once per fault, not once per victim. *)
        (if t.handlers.Policy.on_departure != Policy.no_departure_handler
         then
           let views = open_bins t in
           List.iter
             (fun (item_id, _) ->
               t.handlers.Policy.on_departure ~now ~bins:views ~item_id)
             victims);
        Obs.emit t ~now (fun () ->
            Obs.E.Fail_bin
              {
                bin = bin_id;
                victims = List.length victims;
                lost_level =
                  List.fold_left
                    (fun acc (_, size) -> Rat.add acc size)
                    Rat.zero victims;
              });
        Obs.emit t ~now (fun () ->
            Obs.E.Bin_close
              {
                bin = bin_id;
                opened = b.Bin.opened;
                cost = Rat.sub now b.Bin.opened;
              });
        Obs.with_metrics t (fun m ->
            Dbp_obs.Metrics.incr m "bin_failures";
            Dbp_obs.Metrics.add m "items_evicted" (List.length victims);
            Obs.close_metrics m ~cost:(Rat.sub now b.Bin.opened);
            Obs.fleet_metrics t m);
        Log.debug (fun m ->
            m "t=%a bin %d FAILS, %d items evicted" Rat.pp now bin_id
              (List.length victims));
        after_event t;
        victims

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
    if t.audit then audit_fast t f;
    victims

  let fail_bin t ~now ~bin_id =
    match t.track with
    | Exact -> fail_bin_exact t ~now ~bin_id
    | Fast f -> (
        match Fixed.of_rat f.g now with
        | Some now_s -> fail_bin_fast t f ~now ~bin_id ~now_s
        | None ->
            degrade t f;
            fail_bin_exact t ~now ~bin_id)

  (* Live migration: the limited-recourse repacking primitive
     (lib/repack).  The active item leaves its bin and re-enters
     [to_bin] at the same instant under a fresh id, so the effective
     instance stays segment-shaped (each id occupies exactly one bin
     over one interval) and [finish]/[Packing.validate] need no new
     cases.  Accounting splits exactly at [now]: if the move empties
     the source it closes and is charged for [opened, now] — precisely
     the bin-seconds a consolidation reclaims.  O(1): two hashtable
     updates, one doubly-linked unlink, no policy callback (migration
     is the repacker's decision, not the packing policy's; the policy
     observes the new fleet through its next views). *)
  let migrate_exact t ~now ~item_id ~to_bin ~new_item_id =
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
    if dst.Bin.id = src.Bin.id then
      invalid_step "migrate: item %d already lives in bin %d" item_id to_bin;
    if not (Bin.is_open dst) then
      invalid_step "migrate: destination bin %d is closed" to_bin;
    let stub =
      match Bin.find_active src item_id with
      | Some stub -> stub
      | None ->
          invalid_step "migrate: item %d not active in its bin %d" item_id
            src.Bin.id
    in
    let size = stub.Item.size in
    if not (Bin.fits dst ~size) then
      invalid_step "migrate: item %d (size %a) does not fit bin %d (residual %a)"
        item_id Rat.pp size to_bin Rat.pp (Bin.residual dst);
    if Hashtbl.mem t.seen_items new_item_id then
      invalid_step "migrate: item id %d reused" new_item_id;
    Hashtbl.add t.seen_items new_item_id ();
    let src_level_before = src.Bin.level
    and dst_level_before = dst.Bin.level in
    let tok = Dbp_obs.Profile.enter t.profile in
    Bin.remove src ~now stub;
    let src_closed = not (Bin.is_open src) in
    if src_closed then Open_index.remove t.open_index src;
    Hashtbl.remove t.item_bin item_id;
    let stub' =
      Item.make ~id:new_item_id ~size ~arrival:now
        ~departure:(Rat.add now Rat.one)
    in
    Bin.insert dst ~now stub';
    Hashtbl.replace t.item_bin new_item_id dst;
    Dbp_obs.Profile.leave t.profile "commit" tok;
    Obs.emit t ~now (fun () ->
        Obs.E.Migrate
          {
            item = item_id;
            new_item = new_item_id;
            from_bin = src.Bin.id;
            to_bin = dst.Bin.id;
            size;
          });
    if src_closed then
      Obs.emit t ~now (fun () ->
          Obs.E.Bin_close
            {
              bin = src.Bin.id;
              opened = src.Bin.opened;
              cost = Rat.sub now src.Bin.opened;
            });
    Obs.with_metrics t (fun m ->
        Dbp_obs.Metrics.incr m "migrations";
        Dbp_obs.Metrics.add_rat m "migrated_volume" size;
        if src_closed then
          Obs.close_metrics m ~cost:(Rat.sub now src.Bin.opened);
        Obs.fleet_metrics t m);
    Log.debug (fun m ->
        m "t=%a item %d (size %a) migrates bin %d -> bin %d as item %d%s"
          Rat.pp now item_id Rat.pp size src.Bin.id dst.Bin.id new_item_id
          (if src_closed then " (source closes)" else ""));
    if t.audit then
      Audit.check_move ~time:now ~size ~src ~dst ~src_level_before
        ~dst_level_before ~item_id ~new_item_id ();
    after_event t;
    src_closed

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
       mark_dirty f src;
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
    mark_dirty f to_bin;
    refresh_fit f to_bin;
    Dbp_obs.Profile.leave t.profile "commit" tok;
    if t.audit then audit_fast t f;
    src_closed

  let migrate t ~now ~item_id ~to_bin ~new_item_id =
    match t.track with
    | Exact -> migrate_exact t ~now ~item_id ~to_bin ~new_item_id
    | Fast f -> (
        match Fixed.of_rat f.g now with
        | Some now_s when new_item_id >= 0 && new_item_id <= max_fast_item ->
            migrate_fast t f ~now ~item_id ~to_bin ~new_item_id ~now_s
        | _ ->
            degrade t f;
            migrate_exact t ~now ~item_id ~to_bin ~new_item_id)

  let bin_of_item t item_id =
    match t.track with
    | Exact ->
        Hashtbl.find_opt t.item_bin item_id
        |> Option.map (fun (b : Bin.t) -> b.Bin.id)
    | Fast f ->
        if
          item_id >= 0
          && item_id < Array.length f.fi_bin
          && f.fi_bin.(item_id) >= 0
        then Some f.fi_bin.(item_id)
        else None

  let active_items_in t bin_id =
    match t.track with
    | Exact -> (
        match find_bin t bin_id with
        | None -> []
        | Some b ->
            List.map
              (fun (r : Item.t) -> (r.id, r.size))
              (Bin.active_newest_first b))
    | Fast f ->
        if bin_id < 0 || bin_id >= f.fb_len then []
        else
          List.filter_map
            (fun i ->
              if f.fi_bin.(i) = bin_id then Some (i, f.fi_size.(i)) else None)
            f.fb_items_rev.(bin_id)

  let level_of t bin_id =
    match t.track with
    | Exact -> (
        match find_bin t bin_id with
        | Some b when Bin.is_open b -> Some b.Bin.level
        | _ -> None)
    | Fast f ->
        if bin_id >= 0 && bin_id < f.fb_len && Option.is_none f.fb_closed.(bin_id)
        then Some (Fixed.to_rat f.g f.fb_level.(bin_id))
        else None

  (* Timeline and exact total cost from the per-bin records — the
     exact track's (and the fallback's) way. *)
  let timeline_and_cost_of_records records =
    let timeline =
      Array.to_list records
      |> List.concat_map (fun (b : Packing.bin_record) ->
             [ (b.opened, 1); (b.closed, -1) ])
      |> Step_fn.of_deltas
    in
    let total_cost =
      Array.fold_left
        (fun acc (b : Packing.bin_record) ->
          Rat.add acc (Rat.sub b.closed b.opened))
        Rat.zero records
    in
    (timeline, total_cost)

  (* The same two results straight off the scaled lifecycle times:
     usage periods sum as plain ints, and the timeline's breakpoints
     come from a radix sort of [(time_s << 1) | close-bit] keys
     instead of a rational comparison sort.  Every value converts
     exactly, so the results are bit-identical to
     [timeline_and_cost_of_records]; [None] (negative times or an
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
          let n2 = Array.length keys in
          let points = ref [] in
          let v = ref 0 in
          let i = ref 0 in
          while !i < n2 do
            let time = keys.(!i) lsr 1 in
            let d = ref 0 in
            while !i < n2 && keys.(!i) lsr 1 = time do
              d := !d + (if keys.(!i) land 1 = 0 then 1 else -1);
              incr i
            done;
            v := !v + !d;
            points := (Fixed.to_rat f.g time, !v) :: !points
          done;
          Some
            ( Step_fn.of_breakpoints (List.rev !points),
              Fixed.to_rat f.g !total )
    end

  (* The shared [finish] tail: assignment and result assembly from the
     per-bin records, identical for both tracks. *)
  let finish_tail t ~instance ~records ~timeline ~total_cost =
    let n = Instance.size instance in
    let assignment = Array.make n (-1) in
    Array.iter
      (fun (b : Packing.bin_record) ->
        List.iter
          (fun item_id ->
            if item_id < 0 || item_id >= n then
              invalid_step "item id %d outside instance" item_id;
            assignment.(item_id) <- b.bin_id)
          b.item_ids)
      records;
    Array.iteri
      (fun i bin_id ->
        if bin_id < 0 then invalid_step "item %d never packed" i)
      assignment;
    let packing =
      {
        Packing.instance;
        policy_name = "";
        bins = records;
        assignment;
        timeline;
        total_cost;
        max_bins = Step_fn.max_value timeline;
        any_fit_violations = t.violations;
      }
    in
    if t.audit then Audit.check_packing packing;
    packing

  let finish t ~instance =
    match t.track with
    | Exact ->
        if Hashtbl.length t.item_bin <> 0 then
          invalid_step "finish with %d items still active"
            (Hashtbl.length t.item_bin);
        let n = Instance.size instance in
        if Hashtbl.length t.seen_items <> n then
          invalid_step "instance has %d items but %d were stepped" n
            (Hashtbl.length t.seen_items);
        let records =
          Array.init t.bin_count (fun i ->
              let b = t.store.(i) in
              let closed =
                match b.Bin.closed with
                | Some c -> c
                | None -> invalid_step "bin %d never closed" b.Bin.id
              in
              {
                Packing.bin_id = b.Bin.id;
                tag = b.Bin.tag;
                capacity = b.Bin.capacity;
                opened = b.Bin.opened;
                closed;
                item_ids = List.rev b.Bin.all_items;
                placements = List.rev b.Bin.placements;
                max_level = b.Bin.max_level;
              })
        in
        let timeline, total_cost = timeline_and_cost_of_records records in
        finish_tail t ~instance ~records ~timeline ~total_cost
    | Fast f ->
        if f.fi_active <> 0 then
          invalid_step "finish with %d items still active" f.fi_active;
        let n = Instance.size instance in
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

  let bin_handle t bin_id =
    (* A live [Bin.t] alias only exists on the exact track; hand the
       caller one by leaving the fast track first.  Cold path (tests
       and post-mortems), so the one-off materialisation is fine. *)
    (match t.track with Fast f -> degrade t f | Exact -> ());
    find_bin t bin_id

  (* ---- checkpoint/restore ------------------------------------------- *)

  (* The frozen image keeps only the non-derivable engine state.  Per
     bin that is the identity, the lifecycle times and the placement
     history; [level], [all_items], the open index, [item_bin] and
     [seen_items] are all re-derived on thaw, so a snapshot cannot
     carry an internally inconsistent cache.  Active stubs are stored
     as (item id, size): the stub's arrival is its placement time by
     construction (see [arrive]), so it comes back from the placement
     list. *)
  module Frozen = struct
    type bin = {
      b_id : int;
      b_tag : string;
      b_capacity : Rat.t;
      b_opened : Rat.t;
      b_closed : Rat.t option;
      b_max_level : Rat.t;
      b_placements : (Rat.t * int) list;  (* oldest placement first *)
      b_active : (int * Rat.t) list;  (* (item, size), oldest first *)
    }

    type t = {
      s_capacity : Rat.t;
      s_clock : Rat.t option;
      s_violations : int;
      s_bins : bin list;  (* id order *)
      s_policy_state : string option;
    }
  end

  let freeze t : Frozen.t =
    let policy_state =
      match t.handlers.Policy.persistence with
      | Policy.Stateless -> None
      | Policy.Persistent io -> Some (io.Policy.save ())
      | Policy.Volatile ->
          invalid_step
            "freeze: the policy's internal state is volatile (no \
             save/load support), this run cannot checkpoint"
    in
    let bins =
      match t.track with
      | Exact ->
          List.init t.bin_count (fun id ->
              let b = t.store.(id) in
              {
                Frozen.b_id = b.Bin.id;
                b_tag = b.Bin.tag;
                b_capacity = b.Bin.capacity;
                b_opened = b.Bin.opened;
                b_closed = b.Bin.closed;
                b_max_level = b.Bin.max_level;
                b_placements = List.rev b.Bin.placements;
                b_active =
                  Bin.active_oldest_first b
                  |> List.map (fun (r : Item.t) -> (r.Item.id, r.Item.size));
              })
      | Fast f ->
          (* Straight off the scaled store: every field either is the
             cached exact box or converts exactly, so the snapshot
             bytes match an exact-track freeze bit for bit. *)
          List.init f.fb_len (fun id ->
              let items = List.rev f.fb_items_rev.(id) in
              {
                Frozen.b_id = id;
                b_tag = f.fb_tag.(id);
                b_capacity = f.fb_cap.(id);
                b_opened = f.fb_opened.(id);
                b_closed = f.fb_closed.(id);
                b_max_level = Fixed.to_rat f.g f.fb_max.(id);
                b_placements = List.map (fun i -> (f.fi_arrival.(i), i)) items;
                b_active =
                  List.filter_map
                    (fun i ->
                      if f.fi_bin.(i) = id then Some (i, f.fi_size.(i))
                      else None)
                    items;
              })
    in
    {
      Frozen.s_capacity = t.capacity;
      s_clock = now t;
      s_violations = t.violations;
      s_bins = bins;
      s_policy_state = policy_state;
    }

  let thaw ?(audit = false) ?sink ?metrics ?profile ?tag_capacity ~policy
      (frozen : Frozen.t) =
    let t =
      create ~audit ?sink ?metrics ?profile ?tag_capacity ~policy
        ~capacity:frozen.Frozen.s_capacity ()
    in
    (match (t.handlers.Policy.persistence, frozen.Frozen.s_policy_state) with
    | Policy.Stateless, None -> ()
    | Policy.Persistent io, Some blob -> io.Policy.load blob
    | Policy.Persistent _, None ->
        invalid_step
          "thaw: snapshot carries no state for stateful policy %s"
          policy.Policy.name
    | Policy.Stateless, Some _ ->
        invalid_step "thaw: snapshot carries state but policy %s is stateless"
          policy.Policy.name
    | Policy.Volatile, _ ->
        invalid_step "thaw: policy %s has volatile (unrestorable) state"
          policy.Policy.name);
    List.iteri
      (fun expected_id (fb : Frozen.bin) ->
        if fb.Frozen.b_id <> expected_id then
          invalid_step "thaw: bin ids not dense (found %d, expected %d)"
            fb.Frozen.b_id expected_id;
        let placed_at = Hashtbl.create 16 in
        List.iter
          (fun (time, item_id) -> Hashtbl.replace placed_at item_id time)
          fb.Frozen.b_placements;
        let active_items =
          List.map
            (fun (item_id, size) ->
              if Rat.sign size <= 0 then
                invalid_step "thaw: active item %d has size <= 0" item_id;
              match Hashtbl.find_opt placed_at item_id with
              | None ->
                  invalid_step
                    "thaw: active item %d has no placement in bin %d"
                    item_id fb.Frozen.b_id
              | Some arrival ->
                  (* Same placeholder departure as [arrive]'s stub. *)
                  Item.make ~id:item_id ~size ~arrival
                    ~departure:(Rat.add arrival Rat.one))
            fb.Frozen.b_active
        in
        (if fb.Frozen.b_closed = None && active_items = [] then
           invalid_step "thaw: open bin %d has no active items"
             fb.Frozen.b_id);
        (if fb.Frozen.b_closed <> None && active_items <> [] then
           invalid_step "thaw: closed bin %d still has active items"
             fb.Frozen.b_id);
        let b =
          Bin.restore ~id:fb.Frozen.b_id ~tag:fb.Frozen.b_tag
            ~capacity:fb.Frozen.b_capacity ~opened:fb.Frozen.b_opened
            ~closed:fb.Frozen.b_closed ~max_level:fb.Frozen.b_max_level
            ~placements:fb.Frozen.b_placements ~active_items
        in
        if Rat.(b.Bin.level > b.Bin.capacity) then
          invalid_step "thaw: bin %d over capacity" fb.Frozen.b_id;
        register_bin t b;
        if not (Bin.is_open b) then Open_index.remove t.open_index b;
        List.iter
          (fun (r : Item.t) -> Hashtbl.replace t.item_bin r.Item.id b)
          active_items;
        List.iter
          (fun (_, item_id) ->
            if Hashtbl.mem t.seen_items item_id then
              invalid_step "thaw: item id %d placed in two bins" item_id;
            Hashtbl.add t.seen_items item_id ())
          fb.Frozen.b_placements)
      frozen.Frozen.s_bins;
    t.clock <- frozen.Frozen.s_clock;
    t.violations <- frozen.Frozen.s_violations;
    (* Always re-audit the rebuilt state: thaw is rare, corruption
       expensive. *)
    audit_state t;
    t

  let track_name t = match t.track with Exact -> "exact" | Fast _ -> "fixed"
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
