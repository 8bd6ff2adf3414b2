(** A single lint finding: rule, severity, position, message. *)

type severity = Error | Warning

type t = {
  rule : string;  (** "R1".."R6", or "parse" for unreadable sources. *)
  severity : severity;
  path : string;  (** As given to the scanner (cwd-relative in the CLI). *)
  line : int;  (** 1-based. *)
  col : int;  (** 0-based, matching compiler locations. *)
  message : string;
}

val make :
  rule:string ->
  severity:severity ->
  path:string ->
  line:int ->
  col:int ->
  string ->
  t

val compare : t -> t -> int
(** Orders by path, then line, column and rule — the report order. *)

val message_hash : t -> string
(** First 8 hex chars of the MD5 of the message — the stable,
    position-independent core of the fingerprint. *)

val fingerprint : t -> string
(** [rule|path|m<message-hash>] — the baseline-file identity of a
    finding.  Positions are deliberately excluded so edits above a
    baselined finding do not invalidate it; [Lint.fingerprints]
    appends an occurrence index ([|0], [|1], …) when the same message
    fires more than once in one file. *)

val severity_to_string : severity -> string
val to_human : t -> string
val to_json : t -> string
val json_escape : string -> string
