(** Runtime invariant auditor for the O(open-bins) engine.

    Enabling audit mode ({!Simulator.Online.create}'s [?audit], the
    [DBP_AUDIT] environment variable, or `dbp check --audit`) makes the
    engine re-verify its memoised state against a recompute-from-
    scratch after every event: capacity never exceeded, the open-index
    doubly-linked invariants, memoised views = recomputed views, and —
    at {!Simulator.Online.finish} — cost conservation (total cost =
    sum of bin open intervals = timeline integral).  The first
    divergence raises {!Audit_violation} with a structured payload.

    This module holds the violation type and the packing-level check;
    the per-event checks live with the state they re-derive: the exact
    engine's families in {!Exact_engine} (shared by the scalar exact
    track and the vector engine) and the [fast-*] families in
    {!Simulator}'s fixed-point track.

    The auditor exists because the paper's Theorems 1–5 only hold
    under exact accounting: a silently corrupted level or cost would
    invalidate every reported ratio while still "looking plausible".
    Audit mode costs O(total state) per event and is for tests/CI, not
    production runs. *)

open Dbp_num

type violation = {
  check : string;
      (** Which invariant family: in the exact engine (scalar and
          vector alike) ["bin"], ["open-index"], ["item-bin"],
          ["store"], ["migration"]; on finished packings
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

val check_packing : Packing.t -> unit
(** Cost conservation plus full structural re-validation of a finished
    packing.  @raise Audit_violation on the first divergence. *)
