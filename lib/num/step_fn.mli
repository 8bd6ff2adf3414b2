(** Integer-valued piecewise-constant (step) functions of rational time.

    The number of open bins [n(t)] maintained by an online algorithm,
    and the optimal repacking size [OPT(R,t)], are both step functions
    that change only at item arrival/departure events.  The total cost
    of a packing is the integral of [n(t)] over the packing period
    (times the cost rate [C]), which this module computes exactly. *)

type t
(** A right-continuous step function with bounded support: the value is
    0 outside [[start, stop]]. *)

val empty : t
(** The identically-zero function. *)

val of_breakpoints : (Rat.t * int) list -> t
(** [of_breakpoints [(t0, v0); (t1, v1); ...]] is the function equal to
    [v0] on [[t0, t1)), [v1] on [[t1, t2)), ..., and [0] before [t0] and
    from the last breakpoint on (the last value must be 0).
    Breakpoints must be strictly increasing in time.  One pass over
    the list, which is returned as it is when it is canonical already
    (no two consecutive equal values, first value non-zero); only a
    non-canonical list is copied.
    @raise Invalid_argument on unsorted input or nonzero final value. *)

val of_deltas : (Rat.t * int) list -> t
(** [of_deltas events] builds the function whose value jumps by the
    given signed amount at each time.  Events need not be sorted;
    deltas at equal times are merged.  The deltas must globally cancel
    (the function returns to 0).  Costs one array of the events and
    its sort, O(n log n) comparisons, and the breakpoint list itself.
    @raise Invalid_argument when the deltas do not cancel. *)

val value_at : t -> Rat.t -> int
(** Right-continuous evaluation: the value on [[t, t + dt)). *)

val integral : t -> Rat.t
(** Exact integral over the whole support: one rational subtraction,
    product and sum per piece, with no other allocation, summed last
    piece first. *)

val integral_over : t -> Interval.t -> Rat.t
(** Exact integral restricted to an interval. *)

val max_value : t -> int
(** Maximum value attained (0 for {!empty}).  For a packing timeline
    this is the classical DBP objective: the maximum number of bins
    ever used. *)

val support : t -> Interval.t option
(** Smallest interval outside which the function is 0. *)

val measure_positive : t -> Rat.t
(** Total length of time where the value is [> 0] — the span of the
    item list when applied to the active-item count. *)

val add : t -> t -> t
val scale : t -> int -> t
val map : t -> f:(int -> int) -> t
(** Applies [f] pointwise; [f 0] must be [0]. *)

val breakpoints : t -> (Rat.t * int) list
(** Canonical breakpoint list ([of_breakpoints] round-trips). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
