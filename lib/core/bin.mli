(** The read-only projection of an open bin that policies see.

    The engine ({!Exact_engine}, and the fixed-point track of
    {!Simulator}) owns the bins themselves; a view deliberately omits
    the departure times of the items inside, keeping algorithms
    honestly online.  Each bin may carry its own capacity: the paper's
    model uses one uniform capacity [W], but bins opened under
    different tags can differ (see [Simulator.Online.create]'s
    [tag_capacity]). *)

open Dbp_num

type view = {
  bin_id : int;  (** Opening-order index: bin [i] of the paper is id [i]. *)
  bin_tag : string;  (** Policy-private label (e.g. MFF's ["large"]/["small"]). *)
  bin_capacity : Rat.t;
  bin_level : Rat.t;
  bin_residual : Rat.t;
  bin_opened : Rat.t;
  bin_count : int;  (** Number of items currently inside. *)
}
