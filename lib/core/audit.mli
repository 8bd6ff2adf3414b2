(** Runtime invariant auditor for the O(open-bins) engine.

    Enabling audit mode ({!Simulator.Online.create}'s [?audit], the
    [DBP_AUDIT] environment variable, or `dbp check --audit`) makes the
    engine re-verify its memoised state against a recompute-from-
    scratch after every event: capacity never exceeded, the open-index
    doubly-linked invariants, memoised views = recomputed views, and —
    at {!Simulator.Online.finish} — cost conservation (total cost =
    sum of bin open intervals = timeline integral).  The first
    divergence raises {!Audit_violation} with a structured payload.

    The auditor exists because the paper's Theorems 1–5 only hold
    under exact accounting: a silently corrupted level or cost would
    invalidate every reported ratio while still "looking plausible".
    Audit mode costs O(total state) per event and is for tests/CI, not
    production runs. *)

open Dbp_num

type violation = {
  check : string;
      (** Which invariant family: ["bin"], ["open-index"],
          ["item-bin"], ["store"], ["migration"],
          ["cost-conservation"], ["packing"]; on the fixed-point
          track ["fast-open"], ["fast-index"] (the max-residual
          tree), ["fast-level"], ["fast-time"], ["fast-view"],
          ["fast-item"]. *)
  time : Rat.t option;  (** Simulation clock when detected. *)
  bin_id : int option;
  detail : string;
}

exception Audit_violation of violation

val violation_to_string : violation -> string

val fail :
  ?time:Rat.t ->
  ?bin_id:int ->
  check:string ->
  ('a, Format.formatter, unit, 'b) format4 ->
  'a
(** Raises {!Audit_violation} with a formatted detail message. *)

val enabled_from_env : unit -> bool
(** True iff [DBP_AUDIT] is set to [1]/[true]/[yes]/[on].
    {!Simulator.run} uses it as the default audit setting, so
    [DBP_AUDIT=1 dune runtest] audits the whole test suite. *)

val check_bin : ?time:Rat.t -> Bin.t -> unit
(** Memoised level/view/max-level vs a recompute from the active
    table; capacity; open-implies-nonempty.
    @raise Audit_violation on the first divergence. *)

val check_move :
  ?time:Rat.t ->
  size:Rat.t ->
  src:Bin.t ->
  dst:Bin.t ->
  src_level_before:Rat.t ->
  dst_level_before:Rat.t ->
  item_id:int ->
  new_item_id:int ->
  unit ->
  unit
(** Migration-conservation invariants, checked by the engine after
    every {!Simulator.Online.migrate} in audit mode: the moved volume
    left the source exactly (or the source closed holding exactly the
    moved item), entered the destination exactly, capacity still
    holds, and the item is tracked in exactly one bin — active in the
    destination under [new_item_id], absent from the source.
    [src_level_before]/[dst_level_before] are the levels immediately
    before the move.  @raise Audit_violation on the first
    divergence. *)

val check_packing : Packing.t -> unit
(** Cost conservation plus full structural re-validation of a finished
    packing.  @raise Audit_violation on the first divergence. *)
