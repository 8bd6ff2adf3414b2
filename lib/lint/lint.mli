(** Lint driver: source discovery, parsing, baseline bookkeeping and
    report rendering for the `dbp check --lint` subcommand and the
    dune [@lint] alias. *)

type report = {
  findings : Finding.t list;  (** New findings, not in the baseline. *)
  baselined : int;  (** Findings suppressed by the baseline. *)
  stale_baseline : string list;
      (** Baseline fingerprints that no longer fire (fixed or moved —
          time to regenerate the baseline). *)
  files_scanned : int;
}

val lint_source : path:string -> source:string -> Finding.t list
(** Lints one implementation given as a string; [path] drives rule
    scoping.  A file that does not parse yields a single ["parse"]
    finding rather than an exception. *)

val lint_file : string -> Finding.t list

val discover : roots:string list -> string list
(** All [.ml] files under the roots, sorted, skipping [_build] and
    friends.  @raise Failure if a root does not exist. *)

val load_baseline : string -> string list
(** Fingerprints from a baseline file; [[]] if the file is absent.
    Lines starting with [#] and blank lines are ignored. *)

val save_baseline : path:string -> Finding.t list -> unit
(** Writes occurrence-indexed [rule|path|m<hash>|k] fingerprints. *)

val fingerprints : Finding.t list -> (Finding.t * string) list
(** Occurrence-indexed fingerprints in report order: [rule|path|m<hash>|k]
    where [k] numbers findings sharing rule, path and message. *)

val report_of :
  baseline:string list -> files_scanned:int -> Finding.t list -> report
(** Baseline bookkeeping over an already-collected finding set — shared
    by the syntactic tier, the typed tier ({!Typed_lint}) and combined
    runs. *)

val collect : roots:string list -> unit -> Finding.t list * int
(** Raw findings plus the number of files scanned, without baseline
    bookkeeping — combine with {!report_of} to merge tiers. *)

val run : ?baseline:string list -> roots:string list -> unit -> report
val run_sources : ?baseline:string list -> (string * string) list -> report
(** [run_sources [(path, source); ...]] — the in-memory variant the
    fixture tests use. *)

val errors : report -> Finding.t list

val exit_code : ?strict:bool -> report -> int
(** [--strict]: any new finding fails (1).  Default: only
    error-severity findings fail. *)

val render_human : report -> string
val render_json : report -> string
