(** The event-driven DVBP simulator: the vector twin of {!Simulator}.

    Levels, capacities and item demands are {!Dbp_num.Vec.t}s; fit is
    component-wise.  The engine is {!Exact_engine.Vector}, the same
    exact core as the scalar engine's exact track instantiated over
    vectors, so bin store, open list, auditor, taps and checkpoint
    image are shared code, and protocol errors raise the scalar
    {!Simulator.Invalid_step}/{!Simulator.Invalid_decision} with the
    scalar messages.

    At [d = 1] the engine replays the scalar event order, makes the
    scalar policies' decisions (via {!Vec_policy}'s [scalar] twins or
    {!Vec_policy.lift_scalar}) and emits the scalar trace kinds, so
    its packings, costs, traces and checkpoints are bit-identical to
    {!Simulator}'s — the property the QCheck embedding suite pins
    across all registry policies. *)

open Dbp_num

(** One bin of a finished vector packing. *)
type bin_record = {
  vr_id : int;
  vr_tag : string;
  vr_capacity : Vec.t;
  vr_opened : Rat.t;
  vr_closed : Rat.t;
  vr_item_ids : int list;  (** Every item ever packed, packing order. *)
  vr_placements : (Rat.t * int) list;
  vr_max_level : Vec.t;  (** Component-wise peak. *)
}

(** The vector analogue of {!Packing.t}. *)
type result = {
  r_instance : Vec_instance.t;
  r_policy_name : string;
  r_bins : bin_record array;  (** Indexed by [vr_id]. *)
  r_assignment : int array;  (** Item id to bin id. *)
  r_timeline : Step_fn.t;  (** Open bins over time. *)
  r_total_cost : Rat.t;  (** Exact MinTotal objective. *)
  r_max_bins : int;
  r_any_fit_violations : int;
}

val validate : result -> (unit, string) Stdlib.result
(** Independent replay check: every item packed exactly once inside
    its bin's usage period, no per-dimension capacity ever exceeded,
    timeline and total cost consistent with the bin records. *)

module Online : sig
  type t

  val create :
    ?audit:bool ->
    ?sink:Dbp_obs.Sink.t ->
    ?metrics:Dbp_obs.Metrics.t ->
    policy:Vec_policy.t ->
    capacity:Vec.t ->
    unit ->
    t
  (** [audit] re-verifies the memoised state after every event
      ({!Audit.Audit_violation} on divergence).
      @raise Invalid_argument if a capacity component is not
      positive. *)

  val arrive : t -> now:Rat.t -> size:Vec.t -> item_id:int -> int
  (** @raise Simulator.Invalid_step on a protocol violation (reused
      id, time going backwards, dimension mismatch, non-positive
      demand), {!Simulator.Invalid_decision} on a bad policy choice. *)

  val depart : t -> now:Rat.t -> item_id:int -> unit

  val now : t -> Rat.t option
  val open_bins : t -> Vec_policy.view list
  val bin_of_item : t -> int -> int option
  val level_of : t -> int -> Vec.t option

  val finish : t -> instance:Vec_instance.t -> result

  val audit : t -> unit
  (** The full invariant pass, regardless of the [?audit] flag. *)

  (** The checkpointable image: exactly the non-derivable state, like
      the scalar {!Simulator.Online.Frozen}. *)
  module Frozen : sig
    type bin = Exact_engine.Vector.Frozen.bin = {
      b_id : int;
      b_tag : string;
      b_capacity : Vec.t;
      b_opened : Rat.t;
      b_closed : Rat.t option;
      b_max_level : Vec.t;
      b_placements : (Rat.t * int) list;  (** Oldest first. *)
      b_active : (int * Vec.t) list;  (** Oldest placement first. *)
    }

    type t = Exact_engine.Vector.Frozen.t = {
      s_capacity : Vec.t;
      s_clock : Rat.t option;
      s_violations : int;
      s_bins : bin list;  (** Id order; ids dense from 0. *)
      s_policy_state : string option;
    }
  end

  val freeze : t -> Frozen.t
  (** @raise Simulator.Invalid_step if the policy is volatile. *)

  val thaw :
    ?audit:bool ->
    ?sink:Dbp_obs.Sink.t ->
    ?metrics:Dbp_obs.Metrics.t ->
    policy:Vec_policy.t ->
    Frozen.t ->
    t
  (** Rebuilds an engine continuing the frozen run bit-identically;
      the rebuilt state is always re-audited.
      @raise Simulator.Invalid_step on an inconsistent image. *)
end

val apply_event : Online.t -> Vec_instance.event -> unit

val run :
  ?audit:bool ->
  ?sink:Dbp_obs.Sink.t ->
  ?metrics:Dbp_obs.Metrics.t ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(events_done:int -> Online.t -> unit) ->
  policy:Vec_policy.t ->
  Vec_instance.t ->
  result
(** Replays {!Vec_instance.sorted_events} and assembles the result.
    [audit] defaults to {!Audit.enabled_from_env}.
    [checkpoint_every]/[on_checkpoint] are the periodic checkpoint
    tap, as in {!Simulator.run}. *)
