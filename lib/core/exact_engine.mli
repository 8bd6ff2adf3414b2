(** The exact engine, once for every resource.

    One event-driven Any Fit engine over exact arithmetic, written once
    and instantiated for the scalar resource ({!Scalar}: [Rat.t] sizes,
    {!Bin.view}s, {!Policy.handlers}) and for vectors ({!Vector}:
    [Vec.t] demands, {!Vec_policy.view}s, {!Vec_policy.handlers}).
    [Simulator.Online]'s exact track and [Vec_simulator.Online] are
    thin wrappers over these instances; the scalar fixed-point track
    stays concrete in [Simulator] and degrades into {!Scalar} through
    a {!S.Frozen} image.

    The engine owns the bin store, the open-bin list, item tracking,
    the runtime auditor (families ["open-index"], ["store"],
    ["item-bin"], ["bin"], ["migration"]), the sink/metrics/profile
    taps, arrive/commit/depart/fail_bin/migrate and freeze/thaw. *)

open Dbp_num

exception Invalid_decision of string
(** Re-exported as [Simulator.Invalid_decision]. *)

exception Invalid_step of string
(** Re-exported as [Simulator.Invalid_step]. *)

val log_src : Logs.src
(** ["dbp.simulator"], re-exported as [Simulator.log_src]. *)

(** What the engine needs to know about a resource: see
    {!Exact_engine_intf.RESOURCE}. *)
module type RESOURCE = Exact_engine_intf.RESOURCE

(** The open subset of a store, in opening (= ascending id) order: a
    doubly-linked list threaded through flat arrays indexed by bin id.
    {!add} and {!remove} are O(1). *)
module Open_list : sig
  type t

  val create : unit -> t

  val add : t -> int -> unit
  (** Appends a freshly opened bin.
      @raise Invalid_argument if it is already a member or its id does
      not exceed every member's (opening order violated). *)

  val remove : t -> int -> unit
  (** @raise Invalid_argument if the bin is not a member. *)

  val mem : t -> int -> bool
  val cardinal : t -> int

  val to_list : t -> int list
  (** Members in opening order. *)

  val validate : t -> is_open:(int -> bool) -> (unit, string) result
  (** Re-derives every link invariant from scratch (symmetry,
      membership, opening order, count, cycle freedom) and checks
      [is_open] of every member, for the auditor. *)
end

(** One instance of the engine: see {!Exact_engine_intf.S}. *)
module type S = Exact_engine_intf.S

module Make (R : RESOURCE) :
  S with type size = R.t and type view = R.view and type handlers = R.handlers

module Scalar :
  S
    with type size = Rat.t
     and type view = Bin.view
     and type handlers = Policy.handlers

module Vector :
  S
    with type size = Vec.t
     and type view = Vec_policy.view
     and type handlers = Vec_policy.handlers

val save_policy_state : Policy.persistence -> string option
(** The {!S.Frozen.t.s_policy_state} of a spawned policy.
    @raise Invalid_step if it is {!Policy.Volatile}. *)

val timeline_and_cost :
  opened:('r -> Rat.t) -> closed:('r -> Rat.t) -> 'r array -> Step_fn.t * Rat.t
(** The open-bin timeline and the exact total cost of finished bins. *)

val assignment :
  items:int -> bin_id:('r -> int) -> item_ids:('r -> int list) -> 'r array -> int array
(** Item id to bin id over finished bins.
    @raise Invalid_step if an id lies outside [0, items) or an item
    was never packed. *)
