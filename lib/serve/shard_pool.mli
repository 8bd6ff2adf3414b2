(** Worker domains behind per-shard FIFO mailboxes.

    The fleet service runs one {!Dbp_core.Simulator.Online} engine per
    shard, each owned by a dedicated OCaml 5 domain.  This module is
    the generic substrate: [shards] domains, each draining its own
    mailbox in submission order, posting responses to a shared outbox.
    A worker wakes, transfers its {e whole} mailbox, and processes the
    batch before looking again: whatever accumulated while the shard
    was busy is handled in one sweep and posted in one outbox append,
    amortising the wakeup.  The owner learns of a post through the
    {!wakeup_fd} descriptor, so it can wait on the pool and its own
    input in one [select] and answer as soon as a shard answers.

    Together with [lib/experiments/registry.ml] this is one of the two
    sanctioned homes for [Domain]/[Atomic]/[Mutex]/[Condition] (lint
    R5 and typed T3); everywhere else parallelism must go through one
    of the two.

    Failure contract: a handler exception kills its shard — the
    shard's queued work is discarded, the first failure (pool-wide) is
    parked with its backtrace, and {!poll}, {!quiesce}, {!shutdown}
    and {!submit} re-raise/refuse from then on.  Per-request ordering
    within a shard is FIFO; responses from different shards interleave
    arbitrarily. *)

type ('req, 'resp) t

exception Stopped
(** Raised by {!submit} after {!shutdown} or after a shard failure. *)

val create :
  shards:int -> handler:(shard:int -> 'req -> 'resp list) -> ('req, 'resp) t
(** Spawns [shards] worker domains.  [handler ~shard req] runs on
    shard [shard]'s domain; any state it reaches must be owned by that
    shard alone (build per-shard state before [create] — the spawn
    edge publishes it safely).
    @raise Invalid_argument if [shards < 1]. *)

val shards : _ t -> int

val submit : ('req, _) t -> shard:int -> 'req -> unit
(** Enqueue on a shard's mailbox; never blocks on the worker.
    @raise Stopped if the pool is shut down or has failed.
    @raise Invalid_argument if [shard] is out of range. *)

val wakeup_fd : _ t -> Unix.file_descr
(** The read end of a non-blocking self-pipe: readable whenever a
    response or a parked failure may be waiting.  A worker writes one
    byte when its post turns the outbox from empty to non-empty, and
    one when it parks a failure; {!poll} drains the pipe first and the
    outbox second, so a response is never left in the outbox with no
    byte behind it.  A wake-up can be spurious ({!quiesce} drains the
    outbox but not the pipe), so a readable descriptor may yield an
    empty {!poll}.  For the owner's [select] only: never read it
    directly.  Closed by {!shutdown}. *)

val poll : (_, 'resp) t -> (int * 'resp) list
(** Drain the wake-up pipe, then whatever responses are ready,
    [(shard, response)] in completion order, without blocking.
    Re-raises a parked shard failure (with its original backtrace).
    Returns [[]] after {!shutdown}. *)

val quiesce : (_, 'resp) t -> (int * 'resp) list
(** Block until every submitted request has been processed, then
    drain the outbox.  Re-raises a parked shard failure (with its
    original backtrace). *)

val shutdown : (_, 'resp) t -> (int * 'resp) list
(** Stop accepting work, let each shard drain its mailbox, join every
    domain, close both ends of the wake-up pipe, and return the
    remaining responses.  Idempotent (second call returns []).
    Re-raises a parked shard failure after all domains are joined and
    the pipe is closed. *)

val spawn_background : (unit -> 'a) -> unit -> 'a
(** [spawn_background f] runs [f] on a fresh domain immediately and
    returns its join: calling the result blocks until [f] finishes
    and returns its value, re-raising [f]'s exception with the
    original backtrace.  The serve CLI uses it to run the daemon side
    of an in-process socketpair while the caller drives the client
    side. *)
