(** Dense exact-rational resource vectors: the numeric substrate of
    Dynamic Vector Bin Packing (DVBP).

    An item demands, and a bin offers, a quantity in each of [d >= 1]
    resource dimensions (GPU, CPU, RAM, bandwidth, ...).  Components
    are exact {!Rat.t}s; every operation is component-wise and exact,
    so the scalar model is literally the [d = 1] special case —
    {!scalar}/{!get} embed and project without any loss, and the
    vector engine's [d = 1] runs are bit-identical to the scalar one.

    Fitting is the component-wise partial order {!le}: an item fits a
    bin iff its demand is [<=] the residual in {e every} dimension.
    Any Fit policies rank fitting bins by a norm of the residual —
    {!max_norm} (the [_maxDims] idiom of multi-resource schedulers) or
    {!sum_norm} — both normalised per-dimension by capacity so
    heterogeneous capacities compare meaningfully. *)

type t
(** A vector with [dim >= 1] components.  Immutable. *)

val make : Rat.t list -> t
(** @raise Invalid_argument on the empty list. *)

val of_array : Rat.t array -> t
(** Copies. @raise Invalid_argument on the empty array. *)

val init : int -> (int -> Rat.t) -> t
(** @raise Invalid_argument if [d < 1]. *)

val scalar : Rat.t -> t
(** The [d = 1] embedding. *)

val const : dims:int -> Rat.t -> t
val zero : dims:int -> t
val ones : dims:int -> t

val dim : t -> int
val get : t -> int -> Rat.t
val to_list : t -> Rat.t list
val to_array : t -> Rat.t array
(** A fresh copy; mutating it cannot affect the vector. *)

val add : t -> t -> t
(** Component-wise. @raise Invalid_argument on a dimension mismatch
    (likewise for every binary operation below). *)

val sub : t -> t -> t

val cmax : t -> t -> t
(** Component-wise maximum (the running peak level of a bin). *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Lexicographic; a total order for sorting, {e not} the fit order. *)

val le : t -> t -> bool
(** [le a b] iff [a] is [<=] [b] in every component: the DVBP fit
    relation (item demand vs bin residual). *)

val is_nonneg : t -> bool
val has_positive : t -> bool
val is_zero : t -> bool

val truncate : t -> dims:int -> t
(** The first [dims] components — projecting a full resource profile
    onto a lower-dimensional model.  [truncate v ~dims:(dim v)] is
    [v].  @raise Invalid_argument unless [1 <= dims <= dim v]. *)

val max_component : t -> Rat.t
val sum : t -> Rat.t

val max_norm : capacity:t -> t -> Rat.t
(** [max_i v_i / W_i]: the largest per-dimension fraction of capacity.
    At [d = 1] this is [v / W] — the same order as the raw scalar, so
    Best/Worst Fit under this norm reproduce their scalar decisions.
    @raise Division_by_zero on a zero capacity component. *)

val sum_norm : capacity:t -> t -> Rat.t
(** [sum_i v_i / W_i]: total normalised load across dimensions.  Also
    [v / W] at [d = 1]. *)

val to_string : t -> string
(** Components comma-joined in {!Rat.to_string} form: ["1/2,3,7/5"].
    At [d = 1] exactly [Rat.to_string]. *)

val of_string : string -> t
(** Parses the {!to_string} format. @raise Failure on malformed
    input (including the empty string). *)

val pp : Format.formatter -> t -> unit
