(** The online packing-algorithm interface.

    The simulator owns bins and cost accounting; an algorithm is a
    {e policy} that, for each arriving item, looks at the read-only
    views of the currently open bins (in opening order, the paper's
    [b_1, b_2, ...]) and either picks an existing bin or asks for a new
    one.  Policies may be stateful: {!t.spawn} builds a fresh handler
    pair per simulation run, so runs never leak state into each other.

    The simulator rejects a decision to place an item into a bin where
    it does not fit — a policy cannot cheat on capacity. *)

open Dbp_num

type decision =
  | Existing of int  (** Bin id of an open bin the item fits into. *)
  | New_bin of string  (** Open a fresh bin with this tag. *)

type state_io = { save : unit -> string; load : string -> unit }
(** Serialisation hooks over a spawned handler pair's internal state.
    [save] renders the state as an opaque string; [load] overwrites the
    state from a previously saved string (raising [Invalid_argument] on
    a corrupt blob).  The contract backing checkpoint/restore: after
    [load (save ())] the handlers behave bit-identically to the
    original. *)

type persistence =
  | Stateless  (** No internal state: a fresh spawn resumes exactly. *)
  | Persistent of state_io
      (** Internal state (e.g. an RNG) with full save/load support. *)
  | Volatile
      (** Internal state that cannot be serialised; such a policy
          refuses to checkpoint ([Simulator.Online.freeze] raises). *)

type handlers = {
  on_arrival :
    now:Rat.t -> bins:Bin.view list -> size:Rat.t -> item_id:int -> decision;
      (** [bins] lists all open bins in opening order. *)
  on_departure : now:Rat.t -> bins:Bin.view list -> item_id:int -> unit;
      (** Called after the item left (and its bin possibly closed). *)
  persistence : persistence;
      (** How this spawn's internal state checkpoints. *)
}

type t = {
  name : string;
  spawn : capacity:Rat.t -> handlers;
  first_fit : string option;
      (** [Some tag] only on {!First_fit.policy}: the policy is plain
          First Fit, opening new bins under [tag].  The engine's
          fixed-point track then answers its arrivals from a
          max-residual index over the open bins, in O(log open bins),
          without building the view list or calling [on_arrival]; the
          decision is the one the handler would take.  {!make} and
          {!stateless} set [None], so every wrapper and custom policy
          keeps the views path — and a [{ h with on_arrival }] wrapper
          of the handlers cannot inherit the shortcut. *)
}

val make :
  name:string -> (capacity:Rat.t -> handlers) -> t
(** A policy on the views path ([first_fit = None]). *)

val stateless :
  name:string ->
  (capacity:Rat.t -> now:Rat.t -> bins:Bin.view list -> size:Rat.t -> decision) ->
  t
(** Builds a policy from a pure bin-choice function (no departures,
    no internal state) — enough for the whole Any Fit family. *)

val no_departure_handler :
  now:Rat.t -> bins:Bin.view list -> item_id:int -> unit
