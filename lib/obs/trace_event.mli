(** The structured engine-event trace: schema ["dbp-trace/2"].

    Every event the simulator (and the fault injector) can produce,
    stamped with a monotonic sequence number and the exact rational
    simulation time.  Events serialise to NDJSON — one flat JSON
    object per line, integers and strings only, rationals rendered as
    strings ([3/10] style) so nothing is ever rounded.

    The kinds map onto the paper's event model (see DESIGN.md
    "Observability"): [Arrive]/[Depart] are the endpoints of an item's
    active interval [I(r)], [Bin_open]/[Bin_close] delimit a bin's
    usage period (the quantity Theorem 4 decomposes), [Pack] records
    the placement decision with the post-insert level, and
    [Fail_bin]/[Retry]/[Shed]/[Resume] come from the fault-injection
    layer.

    Version 2 adds the vector kinds [Varrive]/[Vpack]/[Vbin_open] for
    multi-resource (DVBP) runs; their per-dimension payloads are
    {!Dbp_num.Vec.to_string} comma-joined rationals.  The scalar kinds
    serialise byte-identically to version 1, so every [dbp-trace/1]
    stream validates as [dbp-trace/2] — and a [d = 1] vector run emits
    exactly the scalar kinds, keeping the embedding bit-identical. *)

open Dbp_num

type kind =
  | Arrive of { item : int; size : Rat.t }
  | Pack of { item : int; bin : int; level : Rat.t; residual : Rat.t }
      (** [level]/[residual] are the bin's state {e after} the insert:
          the per-bin utilisation at pack time. *)
  | Depart of { item : int; bin : int; held : Rat.t }
      (** [held] is the time the item spent packed (departure minus
          placement instant). *)
  | Bin_open of { bin : int; tag : string; capacity : Rat.t }
  | Bin_close of { bin : int; opened : Rat.t; cost : Rat.t }
      (** [cost] is the closed usage period's length — exactly what
          the bin contributes to the MinTotal objective. *)
  | Fail_bin of { bin : int; victims : int; lost_level : Rat.t }
  | Migrate of {
      item : int;
      new_item : int;
      from_bin : int;
      to_bin : int;
      size : Rat.t;
    }
      (** A live migration (limited-recourse repacking): the active
          item left [from_bin] and re-entered [to_bin] at the same
          instant under the fresh id [new_item] — both bins' exact
          accounting splits at this timestamp. *)
  | Retry of { item : int; attempt : int }
  | Shed of { item : int }
  | Resume of { item : int; latency : Rat.t }
  | Varrive of { item : int; sizes : Vec.t }
      (** A multi-resource arrival: the item's demand vector. *)
  | Vpack of { item : int; bin : int; levels : Vec.t; residuals : Vec.t }
      (** Vector placement; [levels]/[residuals] are per-dimension
          state {e after} the insert. *)
  | Vbin_open of { bin : int; tag : string; capacities : Vec.t }

type t = { seq : int; time : Rat.t; kind : kind }

val schema : string
(** ["dbp-trace/2"]. *)

val kind_name : kind -> string

val escape : string -> string
(** The body of a JSON string literal: double quote, backslash and
    newline backslash-escaped, other control bytes as [\u00XX].  The
    JSON-string escaper for dbp_obs and its users (lib/lint keeps its
    own: it links only compiler-libs); {!parse_flat_object} decodes it
    back to the original for any ASCII input. *)

val to_ndjson : t -> string
(** One JSON object, no trailing newline. *)

val of_ndjson : string -> (t, string) result
(** Strict schema validation: unknown kinds, missing/extra/duplicate
    keys, wrong value types and malformed rationals are all errors. *)

type value = Int of int | Str of string

val parse_flat_object : string -> ((string * value) list, string) result
(** The strict minimal JSON reader behind {!of_ndjson}: one flat
    object whose values are integers or strings; nesting, floats,
    booleans and duplicate keys are rejected.  Exposed so sibling
    NDJSON schemas (the checkpoint format) parse with the same
    strictness.  Fields come back in source order. *)

type event = t
(** Alias so {!Feed}'s signature can name the event type. *)

type stream_error = { line : int; byte : int; message : string }
(** A stream-validation failure: [line] is the 1-based non-blank line
    number, [byte] the absolute offset of that line's first byte in
    the stream — socket servers report it so a client can locate the
    offending frame even when chunk boundaries hid the line
    structure. *)

val stream_error_to_string : stream_error -> string
(** ["line %d (byte %d): %s"]. *)

(** Incremental whole-stream validation over arbitrary read chunks.

    A [Feed] accepts the stream in whatever pieces the transport
    delivers — a chunk may end mid-line — and returns events as their
    lines complete, enforcing the same invariants as {!parse_all}:
    every line parses strictly, sequence numbers are exactly
    [seq_start, seq_start+1, ...], timestamps never decrease.
    {!Feed.close} flushes a final line that lacks its trailing
    newline (what a short read or an unterminated file leaves
    behind).  After an error the feed is poisoned: every further call
    returns the same {!stream_error}.

    The two line shapes a serve client sends are read in place, from
    the caller's string, with no copy: an [arrive] line
    [{"seq":S,"t":"T","kind":"arrive","item":I,"size":"Z"}] and a
    [depart] line
    [{"seq":S,"t":"T","kind":"depart","item":I,"bin":B,"held":"H"}],
    keys in exactly that order, no blanks or escapes, nothing after
    the ['}'] but the tolerated ['\r'], [S >= 0], and every number a
    {!Dbp_num.Rat.plain_int} or {!Dbp_num.Rat.of_plain} numeral.
    Every other line goes to {!of_ndjson}, which gives the same event
    for any line the scanner reads and is the only code that reports
    an error.  Only a line split across two chunks is copied. *)
module Feed : sig
  type nonrec t

  val create : ?seq_start:int -> unit -> t
  (** [seq_start] (default 0) positions the sequence check — a
      consumer resuming mid-stream (checkpoint thaw, per-connection
      framing) starts where it left off. *)

  val feed : t -> ?off:int -> ?len:int -> string -> (event list, stream_error) result
  (** Consume [len] bytes of [s] starting at [off] (defaults: the
      whole string) and return the events whose lines completed, in
      stream order.  @raise Invalid_argument if [off]/[len] do not
      describe a substring of [s]. *)

  val close : t -> (event list, stream_error) result
  (** Signal end of stream: commits a pending unterminated final
      line, if any. *)

  val bytes_consumed : t -> int
  (** Absolute offset of the first byte not yet part of a committed
      line — the resume point after a short read. *)

  val next_seq : t -> int
  (** The sequence number the next event must carry. *)
end

val parse_all : string -> (t list, string) result
(** Validates a whole NDJSON document (blank lines ignored): every
    line parses, sequence numbers are exactly [0, 1, 2, ...] and
    timestamps never decrease.  A final line without its trailing
    newline is accepted.  Errors carry the 1-based line number and
    absolute byte offset ({!stream_error_to_string} format). *)

val pp : Format.formatter -> t -> unit
