(** Max-residual segment tree over the fast track's open slots.

    The fixed-point engine keeps its open bins in a dense slot array in
    opening (= ascending id) order.  This tree mirrors that array: leaf
    [s] holds the scaled residual capacity of the bin in slot [s], and
    every inner node the maximum of its two children.  First Fit's
    choice — the earliest-opened bin the item fits — is then the
    leftmost leaf with residual [>= size], found by one root-to-leaf
    descent in O(log open bins) instead of a scan over every open bin.

    Leaves at or past the slot count hold [-1], below every residual,
    so they never answer a query.  The tree is keyed by slot, not bin
    id, so its size follows the peak open population rather than the
    number of bins ever opened; it grows by doubling (64 leaves at
    least).  All per-event operations ({!update}, {!append},
    {!remove}, {!first_fit}, {!max_residual}) allocate nothing apart
    from {!append}'s occasional doubling. *)

type t

val create : unit -> t

val append : t -> slot:int -> int -> unit
(** [append t ~slot r] fills slot [slot] — the first unused one — with
    residual [r], doubling the tree first when it is full. *)

val update : t -> slot:int -> int -> unit
(** [update t ~slot r] sets slot [slot]'s residual to [r] and
    re-derives its ancestors, stopping at the first one whose maximum
    does not change. *)

val remove : t -> slot:int -> len:int -> unit
(** [remove t ~slot ~len] drops slot [slot] out of the first [len]
    slots: every later slot shifts one to the left, as the engine's
    slot array does when a bin closes, and slot [len - 1] empties.
    Re-derives the ancestors of the shifted range, so it costs
    O(len - slot + log len). *)

val first_fit : t -> int -> int
(** [first_fit t size] is the leftmost slot whose residual is
    [>= size], or [-1] if none is.  [size] must be positive. *)

val max_residual : t -> int
(** The largest residual over all slots ([-1] when none is filled). *)

val check : t -> len:int -> residual:(int -> int) -> (unit, string) result
(** Re-derives every leaf and inner node from scratch, for the runtime
    auditor: slots below [len] must hold [residual s], the rest [-1],
    and every inner node the maximum of its children. *)
