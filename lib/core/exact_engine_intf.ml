(* The module types of {!Exact_engine}, declared once for both its
   implementation and its interface. *)

open Dbp_num

(** What the engine needs to know about a resource. *)
module type RESOURCE = sig
  type t
  (** A size, level or capacity. *)

  type view
  (** The policy-facing projection of an open bin. *)

  type handlers
  (** A spawned policy. *)

  val dim : t -> int

  val zero : t -> t
  (** The zero of the argument's shape. *)

  val add : t -> t -> t
  val sub : t -> t -> t

  val cmax : t -> t -> t
  (** Component-wise maximum. *)

  val le : t -> t -> bool
  (** Component-wise [<=]: the fit relation. *)

  val equal : t -> t -> bool
  val is_zero : t -> bool

  val positive : t -> bool
  (** An admissible item size. *)

  val valid_capacity : t -> bool
  val to_string : t -> string
  val pp : Format.formatter -> t -> unit

  val utilisation : capacity:t -> t -> Rat.t
  (** The ["utilisation_at_pack"] metric of a level. *)

  val scalar : t -> Rat.t
  (** The value the fault and migration taps report: their trace kinds
      are scalar only. *)

  val view :
    id:int -> tag:string -> capacity:t -> level:t -> opened:Rat.t -> count:int -> view

  val view_equal : view -> view -> bool
  val fits : view -> size:t -> bool

  val on_arrival :
    handlers -> now:Rat.t -> bins:view list -> size:t -> item_id:int -> Policy.decision

  val on_departure : handlers -> now:Rat.t -> bins:view list -> item_id:int -> unit

  val observes_departures : handlers -> bool
  (** False for the shared no-op departure handler: the engine then
      skips view assembly on departures. *)

  val persistence : handlers -> Policy.persistence
  val arrive_event : item:int -> size:t -> Dbp_obs.Trace_event.kind
  val bin_open_event : bin:int -> tag:string -> capacity:t -> Dbp_obs.Trace_event.kind

  val pack_event :
    item:int -> bin:int -> level:t -> residual:t -> Dbp_obs.Trace_event.kind
end

(** One instance of the engine. *)
module type S = sig
  type size
  type view
  type handlers

  (** A bin of the store.  Mutable so the auditor's negative tests can
      corrupt it; mutating it anywhere else breaks the engine. *)
  type bin = {
    id : int;  (** Opening-order index: bin [i] of the paper is id [i]. *)
    tag : string;  (** Policy-private label (e.g. MFF's ["large"]). *)
    capacity : size;
    opened : Rat.t;
    mutable closed : Rat.t option;  (** Set when the last item leaves. *)
    mutable level : size;  (** Total size of the items inside. *)
    mutable max_level : size;
    active : (int, Rat.t * size) Hashtbl.t;
        (** Items inside: id to (placement time, size). *)
    mutable placements : (Rat.t * int) list;
        (** (time, item id) of every packing into this bin, newest
            first: the reference points [t_{i,j}] of Section 4.3. *)
    mutable view_cache : view option;
        (** Memoised {!view}; dropped on every level change. *)
  }

  val view : bin -> view
  (** The policy-facing projection, memoised: the physically same view
      until the bin's next insert or removal. *)

  val to_view : bin -> view
  (** Always a fresh projection. *)

  val item_ids : bin -> int list
  (** Every item ever packed into the bin, oldest first. *)

  val placements : bin -> (Rat.t * int) list
  (** {!bin.placements}, oldest first. *)

  type t

  val create :
    ?audit:bool ->
    ?sink:Dbp_obs.Sink.t ->
    ?metrics:Dbp_obs.Metrics.t ->
    ?profile:Dbp_obs.Profile.t ->
    ?tag_capacity:(string -> size) ->
    handlers:handlers ->
    capacity:size ->
    unit ->
    t
  (** As [Simulator.Online.create], with the policy already spawned.
      @raise Invalid_argument if [capacity] is not valid. *)

  val arrive : t -> now:Rat.t -> size:size -> item_id:int -> int

  val commit : t -> now:Rat.t -> size:size -> item_id:int -> Policy.decision -> int
  (** The commit phase of an arrival whose clock advance, id
      bookkeeping and policy call already happened: validates the
      decision and places the item.  The policy does not run again. *)

  val depart : t -> now:Rat.t -> item_id:int -> unit
  val fail_bin : t -> now:Rat.t -> bin_id:int -> (int * size) list

  val migrate :
    t -> now:Rat.t -> item_id:int -> to_bin:int -> new_item_id:int -> bool

  val now : t -> Rat.t option
  val violations : t -> int
  val auditing : t -> bool
  val open_bins : t -> view list
  val find_bin : t -> int -> bin option
  val bin_of_item : t -> int -> int option
  val active_items_in : t -> int -> (int * size) list
  val level_of : t -> int -> size option

  val audit : t -> unit
  (** The full invariant pass.
      @raise Audit.Audit_violation on the first divergence. *)

  val finish : t -> items:int -> record:(bin -> closed:Rat.t -> 'r) -> 'r array
  (** The closed bins in id order, each turned into a record, after
      checking that exactly [items] ids were stepped, none is still
      active and every bin closed. *)

  (** The checkpointable image: exactly the non-derivable state. *)
  module Frozen : sig
    type bin = {
      b_id : int;
      b_tag : string;
      b_capacity : size;
      b_opened : Rat.t;
      b_closed : Rat.t option;
      b_max_level : size;
      b_placements : (Rat.t * int) list;  (** Oldest first. *)
      b_active : (int * size) list;  (** Oldest placement first. *)
    }

    type t = {
      s_capacity : size;
      s_clock : Rat.t option;
      s_violations : int;
      s_bins : bin list;  (** Id order; ids dense from 0. *)
      s_policy_state : string option;
    }
  end

  val freeze : t -> Frozen.t
  (** @raise Invalid_step if the policy's state is volatile. *)

  val restore :
    audit:bool ->
    profile:Dbp_obs.Profile.t option ->
    tag_capacity:(string -> size) ->
    seen:int list ->
    handlers:handlers ->
    Frozen.t ->
    t
  (** Rebuilds an engine, with no sink or metrics registry, from an
      image around live [handlers], whose state is left alone.  [seen]
      adds item ids that were consumed without a placement (a rejected
      arrival still uses up its id).
      @raise Invalid_step on an inconsistent image. *)

  val thaw :
    ?audit:bool ->
    ?sink:Dbp_obs.Sink.t ->
    ?metrics:Dbp_obs.Metrics.t ->
    ?profile:Dbp_obs.Profile.t ->
    ?tag_capacity:(string -> size) ->
    name:string ->
    handlers:handlers ->
    Frozen.t ->
    t
  (** {!restore} after loading the image's policy state into freshly
      spawned [handlers] (policy [name] in messages), then a full
      {!audit}.
      @raise Invalid_step on an inconsistent image or a policy state
      present or absent against the policy's persistence. *)
end
