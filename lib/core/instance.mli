(** A MinTotal DBP problem instance: an item list plus the bin capacity.

    Carries the instance-level quantities the paper's bounds are stated
    in: the span, the total resource demand [u(R)], and the max/min
    item interval length ratio [mu]. *)

open Dbp_num

type t = private { items : Item.t array; capacity : Rat.t }

val create : capacity:Rat.t -> Item.t list -> t
(** Items are kept in the given order (the submission order used to
    break ties between simultaneous arrivals) and re-numbered with
    ids [0 .. n-1].
    @raise Invalid_argument if [capacity <= 0], the list is empty, or
    some item has [size > capacity] (it could never be packed). *)

val of_array : capacity:Rat.t -> Item.t array -> t
(** [create] on an array, without a list: the instance takes the array
    over and renumbers it in place, so the caller must not use it
    again.  Makes every check [create] makes, in the same order. *)

val items : t -> Item.t array
val capacity : t -> Rat.t
val size : t -> int
val item : t -> int -> Item.t

val packing_period : t -> Interval.t
(** [[min arrival, max departure]]. *)

val span : t -> Rat.t
(** [span(R)]: measure of the union of the item intervals (Figure 1). *)

val total_demand : t -> Rat.t
(** [u(R) = sum of s(r) * len(I(r))]. *)

val min_interval_length : t -> Rat.t
val max_interval_length : t -> Rat.t

val mu : t -> Rat.t
(** The max/min item interval length ratio [mu >= 1]. *)

val max_size : t -> Rat.t
val min_size : t -> Rat.t

val active_at : t -> Rat.t -> Item.t list
(** Items whose half-open activity window contains the time. *)

val active_count : t -> Step_fn.t
(** The number of active items as a step function of time. *)

val sizes_below : t -> Rat.t -> bool
(** [sizes_below t threshold]: all item sizes are [< threshold] — the
    "small items" premise of Theorem 4. *)

val sizes_at_least : t -> Rat.t -> bool
(** All item sizes are [>= threshold] — the premise of Theorem 3. *)

val event_times : t -> Rat.t list
(** Sorted distinct arrival/departure times. *)

val restrict : t -> f:(Item.t -> bool) -> t option
(** Sub-instance of the items satisfying [f] (same capacity), or [None]
    if no item does.  Item ids are re-numbered. *)

val pp : Format.formatter -> t -> unit

(** {1 Transforms}

    The MinTotal cost model has two exact symmetries, used by the test
    suite as whole-pipeline invariants: scaling time scales every
    algorithm's cost by the same factor, and scaling sizes together
    with the capacity changes nothing. *)

val scale_time : t -> factor:Rat.t -> t
(** Multiplies every arrival and departure by [factor > 0].
    @raise Invalid_argument if [factor <= 0]. *)

val shift_time : t -> offset:Rat.t -> t
(** Adds [offset] to every arrival and departure. *)

val scale_sizes : t -> factor:Rat.t -> t
(** Multiplies every size and the capacity by [factor > 0].
    @raise Invalid_argument if [factor <= 0]. *)
