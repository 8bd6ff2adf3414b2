(** Online policies for Dynamic Vector Bin Packing.

    Same shape as the scalar {!Policy}: a policy spawns per-run
    handlers; on each arrival the handler sees the open fleet (in
    opening order) and the item's demand vector, and answers with an
    existing bin or a new one.  Fitting is component-wise
    ({!Dbp_num.Vec.le} of demand vs residual); the Any Fit family
    ranks fitting bins by a {!norm} of the residual, normalised
    per-dimension by capacity — the max-component norm is the
    [_maxDims] idiom of multi-resource schedulers, the sum norm its
    L1 counterpart.  At [d = 1] both norms reduce to [residual / W],
    so Best/Worst Fit make exactly their scalar decisions; each
    native policy records its scalar twin in [scalar] and the QCheck
    suite holds the two engines bit-identical on embedded scalar
    instances. *)

open Dbp_num

type view = {
  vbin_id : int;
  vbin_tag : string;
  vbin_capacity : Vec.t;
  vbin_level : Vec.t;
  vbin_residual : Vec.t;
  vbin_opened : Rat.t;
  vbin_count : int;
}

type decision = Policy.decision = Existing of int | New_bin of string
(** The scalar decision type, re-exported: one engine commits both. *)

type handlers = {
  on_arrival :
    now:Rat.t -> bins:view list -> size:Vec.t -> item_id:int -> decision;
  on_departure : now:Rat.t -> bins:view list -> item_id:int -> unit;
  persistence : Policy.persistence;
}

type t = {
  name : string;
  scalar : Policy.t option;
      (** The policy this one reproduces decision-for-decision at
          [d = 1] (uniform capacity), when one exists. *)
  spawn : capacity:Vec.t -> handlers;
}

val fits : view -> size:Vec.t -> bool
(** Component-wise: the demand is [<=] the residual in every
    dimension. *)

val no_departure_handler : now:Rat.t -> bins:view list -> item_id:int -> unit
(** Shared no-op; the engine recognises it physically and skips view
    assembly on departures, like the scalar engine. *)

type norm = Max | Sum

val norm_name : norm -> string
(** ["max"] / ["sum"]. *)

val score : norm -> capacity:Vec.t -> Vec.t -> Rat.t
(** {!Vec.max_norm} or {!Vec.sum_norm} of a residual. *)

val first_fit : t
(** Earliest-opened fitting bin. *)

val best_fit : norm -> t
(** Fitting bin with the smallest residual under the norm (ties to
    the earliest opened). *)

val worst_fit : norm -> t
(** Fitting bin with the largest residual under the norm (ties to the
    earliest opened). *)

val next_fit : t
(** The latest-opened open bin if the item fits there, else a new
    bin — the scalar Next Fit rule verbatim. *)

val lift_scalar : Policy.t -> t
(** Wraps any scalar policy for [d = 1] vector runs: views are
    projected onto their single component and handed to the scalar
    handlers unchanged (state, persistence and decisions included).
    The spawned handlers
    @raise Invalid_argument when the capacity is not 1-dimensional. *)

val all : t list
(** The native vector family: first-fit, best-fit:max, best-fit:sum,
    worst-fit:max, worst-fit:sum, next-fit. *)

val names : string list

val find : ?seed:int64 -> string -> t option
(** ["best-fit:sum"], ["worst-fit"] (norm defaults to max),
    ["first-fit"], ["next-fit"], plus every scalar registry name via
    {!lift_scalar} (usable at [d = 1] only). *)
