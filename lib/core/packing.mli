(** The complete result of packing an instance with an online policy.

    Carries everything the analysis layer needs: per-bin usage periods
    [I_i] (indexed in opening order, as in Section 4.3), the full
    placement history behind the reference points [t_{i,j}], the open
    bin count timeline [A(R,t)], and the exact total cost
    [A_total(R)] for cost rate [C = 1]. *)

open Dbp_num

type bin_record = {
  bin_id : int;  (** Opening-order index [i] of bin [b_i]. *)
  tag : string;
  capacity : Rat.t;  (** This bin's own capacity (uniform [W] in the
                         paper's model; per-type in the fleet layer). *)
  opened : Rat.t;  (** [I_i^-]. *)
  closed : Rat.t;  (** [I_i^+]. *)
  item_ids : int list;  (** Every item ever packed, in packing order. *)
  placements : (Rat.t * int) list;
      (** (time, item id) of each packing, in time order. *)
  max_level : Rat.t;
}

type t = {
  instance : Instance.t;
  policy_name : string;
  bins : bin_record array;  (** Indexed by [bin_id]. *)
  assignment : int array;  (** Item id to bin id. *)
  timeline : Step_fn.t;  (** [A(R,t)]: open bins over time. *)
  total_cost : Rat.t;  (** [A_total(R)] with [C = 1]. *)
  max_bins : int;  (** Classical DBP objective: max bins ever open. *)
  any_fit_violations : int;
      (** Times a new bin was opened although some open bin fitted.
          0 for every Any Fit algorithm; positive for e.g. MFF. *)
}

val bins_used : t -> int
val usage_period : bin_record -> Interval.t
val cost : t -> rate:Rat.t -> Rat.t
(** [A_total(R)] for bin cost rate [C = rate]. *)

val bin_of_item : t -> int -> bin_record
val is_any_fit : t -> bool

val validate : t -> (unit, string) result
(** Full independent replay check: every item is packed exactly once,
    within its bin's usage period; no bin ever exceeds capacity; the
    timeline matches the bins' usage periods; the total cost equals
    both the timeline integral and the sum of usage period lengths.
    Used by the test suite on every packing it produces, and by
    [dbp simulate] on every run.

    It shares no code with the engine (no [Fixed], no engine module):
    one mark array finds each item in its bin's list; each bin's level
    is replayed in exact rationals on one reused scratch array, sorted
    by time with departures first; the open and close times, sorted as
    two arrays (the open times only when they are not in order
    already), are walked against the timeline's breakpoints.  The
    checks run in that order and the first failure is the result; when
    several bins exceed their capacity, the last one in [bins] is
    named. *)

val pp_summary : Format.formatter -> t -> unit
