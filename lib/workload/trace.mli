(** CSV (de)serialisation of instances.

    Format: a header line [# capacity=<rational>], then a column header
    [id,size,arrival,departure], then one row per item with exact
    rational fields ([3/10] style), in submission order.  Round-trips
    losslessly.

    Parsing never raises a bare [Failure], [Division_by_zero] or
    [Rat.Overflow]: every malformed input, a zero denominator and
    [min_int] included, maps to a {!Parse_error} carrying the 1-based
    line number and, where it applies, the offending field — so the
    CLI can print a readable diagnostic instead of a backtrace.

    {!of_string} scans the text once, by index.  A row whose four
    fields are plain decimals ([n] or [n/d], each part an optional
    ['-'] and at most 18 digits, so it cannot overflow) goes straight
    from the bytes into the item array.  Every other row, and every
    row that fails a check, goes to the one row parser, which reads
    every syntax [int_of_string] accepts ([+5], [0x1F], [1_000],
    blanks around a field) and is the only code that reports a row
    error.  Ids are checked against an int array once every row has
    parsed, and each item is placed at its id. *)

open Dbp_core

type parse_error = {
  line : int;  (** 1-based line number in the input text/file. *)
  field : string option;
      (** ["id"], ["size"], ["arrival"], ["departure"] or ["capacity"]
          when a specific field is at fault; [None] for structural
          errors. *)
  message : string;
}

exception Parse_error of parse_error

val parse_error_to_string : parse_error -> string
val pp_parse_error : Format.formatter -> parse_error -> unit

val to_string : Instance.t -> string

val of_string : string -> Instance.t
(** Ids are parsed and preserved: rows may appear in any order, but
    their ids must be distinct and form a permutation of [0..n-1]
    (what {!to_string} always writes, and the only id assignment
    [Instance.create]'s positional renumbering can keep stable).
    Duplicate ids are reported with the line that first used the id.
    @raise Parse_error on malformed input: missing/bad capacity header,
    wrong column header (the exact text [id,size,arrival,departure] is
    required), wrong field count, bad id column, non-rational fields,
    non-positive or over-capacity sizes, and departure-before-arrival
    rows. *)

val save : Instance.t -> path:string -> unit

val load : path:string -> Instance.t
(** @raise Parse_error as {!of_string}; [Sys_error] on unreadable
    paths. *)
