(** The event-driven MinTotal DBP simulator.

    {!run} replays a full instance through a policy.  {!Online} is the
    interactive stepping interface underneath it: callers inject
    arrivals and departures one at a time and can observe the resulting
    packing state between steps — exactly the power an adaptive
    adversary has in the competitive-analysis game (used by
    [Dbp_adversary] for the Theorem 1 and 2 constructions). *)

open Dbp_num

val log_src : Logs.src
(** Placement/departure events are logged here at debug level; enable
    with [Logs.Src.set_level Simulator.log_src (Some Logs.Debug)] or
    the CLI's [--verbose]. *)

exception Invalid_decision of string
(** A policy chose a closed bin, an unknown bin, or a bin where the
    item does not fit. *)

exception Invalid_step of string
(** An {!Online} caller broke the protocol: time went backwards, an
    unknown item departed, an item id was reused, an unknown or
    already-closed bin was failed, or [finish] was called with items
    still active. *)

module Online : sig
  type t

  val create :
    ?audit:bool ->
    ?sink:Dbp_obs.Sink.t ->
    ?metrics:Dbp_obs.Metrics.t ->
    ?profile:Dbp_obs.Profile.t ->
    ?grid:Fixed.scale ->
    ?tag_capacity:(string -> Rat.t) ->
    policy:Policy.t ->
    capacity:Rat.t ->
    unit ->
    t
  (** [capacity] is the base (the paper's uniform [W]); [tag_capacity]
      optionally gives bins opened under a tag their own capacity
      (heterogeneous server types).  Defaults to the base for every
      tag.  [audit] (default [false]) turns on the sanitizer: every
      event re-verifies the engine's memoised state and raises
      {!Audit.Audit_violation} on the first divergence (see
      {!Audit}).

      The three observability taps all default to off and are
      guaranteed not to change any packing decision: [sink] receives
      every engine event as a structured {!Dbp_obs.Trace_event.t}
      (arrive / pack / depart / bin_open / bin_close / fail_bin),
      [metrics] accumulates counters, gauges and histograms
      (arrivals, departures, bins opened/closed, open-bin counts,
      per-bin utilisation at pack time, item held times, exact
      bin-seconds), and [profile] accrues per-phase wall time
      ("views" — open-fleet view assembly, "policy" — the policy
      handler, "commit" — state mutation).

      [grid] (usually {!grid_of_instance}) opts the engine onto the
      fixed-point fast track: all sizes, times and levels become
      native ints scaled by the grid denominator, stored unboxed in
      struct-of-arrays form, and the commit path does no rational
      arithmetic at all.  Admission is exact-or-refuse — the track is
      taken only if [capacity] converts exactly, and any later input
      off the grid (a time, a tag capacity, an out-of-range id) makes
      the engine fall back to the exact track ({!Exact_engine.Scalar})
      by restoring it from the fast store's {!Frozen} image, so
      results are bit-identical either way.  A [sink] or [metrics]
      tap forces the exact track. *)

  val arrive : t -> now:Rat.t -> size:Rat.t -> item_id:int -> int
  (** Feeds an arrival to the policy; returns the id of the bin the
      item was placed in.  Item ids must be fresh, and [now] must not
      precede any earlier step. *)

  val depart : t -> now:Rat.t -> item_id:int -> unit
  (** The item leaves; its bin closes if it empties. *)

  val fail_bin : t -> now:Rat.t -> bin_id:int -> (int * Rat.t) list
  (** Crashes an open bin at [now] (server failure / spot preemption):
      every active item inside is evicted and the bin closes, so it is
      charged exactly for [[opened, now]] — failed capacity still pays
      for its open interval.  Returns the evicted [(item_id, size)]
      pairs in packing order; evicted items are no longer active (a
      later {!depart} for one raises {!Invalid_step}) and their ids
      stay used.  Callers that re-dispatch evicted sessions must feed
      them back through {!arrive} under fresh item ids — that is what
      [Dbp_faults.Injector] does.
      @raise Invalid_step if the bin is unknown or already closed, or
      if [now] precedes an earlier step. *)

  val migrate :
    t -> now:Rat.t -> item_id:int -> to_bin:int -> new_item_id:int -> bool
  (** Live migration — the limited-recourse repacking primitive
      ([Dbp_repack]): atomically moves the active item [item_id] into
      the open bin [to_bin], where it continues as the fresh id
      [new_item_id].  The old id retires (stays used); exact
      accounting splits at [now]: the item's first segment ends here,
      and if the move emptied the source bin, the bin closes and is
      charged exactly for [[opened, now]].  Returns [true] iff the
      source closed.  O(1) per move; no policy handler runs —
      migration is the caller's (repacker's) decision, and the policy
      sees the new fleet through its next views.  Emits a [Migrate]
      trace event (plus [Bin_close] if the source closed) and accrues
      [migrations]/[migrated_volume] metrics.  Callers building an
      effective instance must end [item_id]'s segment and start
      [new_item_id]'s at [now] — that is what [Dbp_repack.Runner] and
      the fault injector's migration ladder do.
      @raise Invalid_step if the item is not active, the destination
      is unknown, closed or the item's own bin, the item does not fit,
      [new_item_id] was already used, or [now] precedes an earlier
      step. *)

  val now : t -> Rat.t option
  (** Time of the latest step. *)

  val open_bins : t -> Bin.view list
  (** Views of the open bins in opening order. *)

  val bin_of_item : t -> int -> int option
  (** Bin currently holding an active item. *)

  val active_items_in : t -> int -> (int * Rat.t) list
  (** [(item_id, size)] of active items in a bin, most recent first. *)

  val level_of : t -> int -> Rat.t option
  (** Current level of an open bin. *)

  val finish : t -> instance:Instance.t -> Packing.t
  (** Assembles the packing result.  The instance must contain exactly
      the items that were stepped through (same ids, sizes and times);
      all items must have departed.  In audit mode the assembled
      packing is additionally checked for cost conservation
      ({!Audit.check_packing}). *)

  val audit : t -> unit
  (** Runs the full invariant audit immediately, regardless of the
      [?audit] flag: open-index structure, store/index agreement,
      memoised per-bin state vs recompute, item-tracking consistency.
      @raise Audit.Audit_violation on the first divergence. *)

  val bin_handle : t -> int -> Exact_engine.Scalar.bin option
  (** The underlying mutable bin record of the exact engine (leaving
      the fast track first).  Exposed for the auditor's negative tests
      (corrupt a field, assert {!audit} catches it); mutating it from
      anywhere else breaks the engine's invariants for real. *)

  (** The checkpointable image of a running engine: exactly the
      non-derivable state.  Levels, the open index, item tracking and
      item-seen sets are re-derived on {!thaw}, so a frozen image (or
      a snapshot file decoded into one) can never rebuild an engine
      with an inconsistent cache. *)
  module Frozen : sig
    type bin = Exact_engine.Scalar.Frozen.bin = {
      b_id : int;
      b_tag : string;
      b_capacity : Rat.t;
      b_opened : Rat.t;
      b_closed : Rat.t option;
      b_max_level : Rat.t;
      b_placements : (Rat.t * int) list;
          (** Every placement ever, oldest first. *)
      b_active : (int * Rat.t) list;
          (** [(item_id, size)] still inside, oldest placement
              first.  An active item's arrival is its placement time,
              so it is not stored separately. *)
    }

    type t = Exact_engine.Scalar.Frozen.t = {
      s_capacity : Rat.t;
      s_clock : Rat.t option;
      s_violations : int;
      s_bins : bin list;  (** In id order; ids are dense from 0. *)
      s_policy_state : string option;
          (** The policy's {!Policy.state_io} blob, if stateful. *)
    }
  end

  val freeze : t -> Frozen.t
  (** Captures the full engine state between events.
      @raise Invalid_step if the policy's state is
      {!Policy.Volatile} — such a run cannot checkpoint. *)

  val thaw :
    ?audit:bool ->
    ?sink:Dbp_obs.Sink.t ->
    ?metrics:Dbp_obs.Metrics.t ->
    ?profile:Dbp_obs.Profile.t ->
    ?tag_capacity:(string -> Rat.t) ->
    policy:Policy.t ->
    Frozen.t ->
    t
  (** Rebuilds an engine that continues the frozen run bit-identically:
      feeding it the remaining events yields the same packing, cost and
      trace events as the uninterrupted run.  The policy must be the
      same as the frozen run's (same name, same seed); its internal
      state is restored through {!Policy.state_io}.  The rebuilt state
      is always re-audited (the full {!audit} pass), regardless of
      [?audit].
      @raise Invalid_step on an inconsistent image (non-dense bin ids,
      active items without placements, over-capacity bins, policy
      state present/absent against the policy's declared persistence,
      or a volatile policy). *)

  val track_name : t -> string
  (** ["fixed"] while the engine runs on the scaled-integer fast
      track, ["exact"] otherwise (including after a fallback).  For
      benchmarks and tests; results never depend on it. *)
end

val max_fast_item : int
(** [2^23 - 1] — the largest item id the fixed-point fast track
    accepts.  The fast stores are dense in item id, and the packed
    replay key below reserves 24 bits for the id: keeping admissible
    ids strictly below the kind bit means an id can never carry into
    the kind or time fields.  Larger ids fall back to the exact
    track and the comparison-sorted event array. *)

val event_key_time_limit : int
(** [2^37] — exclusive bound on the scaled times a packed replay key
    can carry (37 time bits + 25 layout bits = 62, so keys stay
    positive OCaml ints for the radix sort). *)

val pack_event_key : time_s:int -> arrival:bool -> id:int -> int
(** The fast track's replay key, [(time_s << 25) | (kind << 24) | id]
    with departures' kind bit 0: integer order is exactly
    {!Event.compare}'s (time, departures first, then item id).
    Exposed so tests can pin the layout at its boundaries.
    @raise Invalid_argument if [id] is outside [0, max_fast_item] or
    [time_s] outside [0, event_key_time_limit). *)

val unpack_event_key : int -> int * bool * int
(** [(time_s, arrival, id)] — left inverse of {!pack_event_key}. *)

val grid_of_instance : Instance.t -> Fixed.scale option
(** The instance's common grid: the least denominator under which the
    capacity and every item size, arrival and departure are exactly
    representable scaled integers within {!Fixed.bound}.  [None] if no
    such affordable grid exists — the run then stays on exact
    arithmetic.  Pass the result to {!Online.create}'s [?grid]. *)

val grid_of_den : int -> Fixed.scale option
(** The grid with denominator [d], or [None] if [d] is outside the
    affordable range.  For streaming drivers that pick the grid up
    front (no instance to inspect) — the engine still degrades to
    exact arithmetic losslessly on any off-grid input. *)

val apply_event : Online.t -> Event.t -> unit
(** Feeds one instance event (arrival or departure) to the engine —
    the replay step {!run} is built from, exposed so checkpoint
    drivers can stop after, and resume from, an exact event index. *)

val run :
  ?audit:bool ->
  ?sink:Dbp_obs.Sink.t ->
  ?metrics:Dbp_obs.Metrics.t ->
  ?profile:Dbp_obs.Profile.t ->
  ?grid:Fixed.scale option ->
  ?tag_capacity:(string -> Rat.t) ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(events_done:int -> Online.t -> unit) ->
  policy:Policy.t ->
  Instance.t ->
  Packing.t
(** Replays the instance's event stream (departures before arrivals at
    equal times, arrivals in submission order) and assembles the
    result.  [audit] defaults to {!Audit.enabled_from_env}, so setting
    [DBP_AUDIT=1] audits every run in the process.  [sink], [metrics]
    and [profile] are the observability taps of {!Online.create}; a
    traced or metered run produces a bit-identical packing to an
    untraced one.  [grid] overrides the numeric track choice
    ([Some None] forces exact arithmetic); by default the run computes
    {!grid_of_instance} itself and takes the fast track whenever the
    instance lies on a grid.

    [checkpoint_every] (with [on_checkpoint]) calls the hook after
    every [k]-th event with the engine mid-run — the periodic
    checkpoint tap; the hook typically calls {!Online.freeze} and
    hands the image to [Dbp_checkpoint].  Neither option changes any
    packing decision.
    @raise Invalid_argument if [checkpoint_every <= 0]. *)
