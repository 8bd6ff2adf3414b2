(** The typed lint tier (T1..T4), run over compiler typedtrees.

    Where the parsetree tier ({!Rules}, R1..R7) matches tokens, this
    tier reads inferred types out of [.cmt] artifacts: T1 flags a
    polymorphic comparison/hash instantiated at any type that
    {e contains} [Rat.t] (structural walk: tuples, records, options,
    lists, via a cross-file taint fixpoint over type declarations);
    T2 flags [Fixed.t] in any inferred or declared type outside
    [lib/num] and [lib/core/simulator.ml], including through aliases
    ([type t = Fixed.t] resolves to the real path in a typedtree);
    T3 flags mutable state captured by closures handed to
    [Domain.spawn] outside the approved parallel runner; T4 counts
    boxed allocations and [Rat.t] temporaries inside the engine's
    commit/view functions and its placement index against per-function
    budgets.  See DESIGN.md
    "Correctness tooling" for each rule's remaining blind spots. *)

val all_typed_rules : Rules.rule list
val find_typed_rule : string -> Rules.rule

val t4_max_boxed : int
val t4_max_rat_temps : int
(** The T4 gate for the engine core: a commit/view function in
    [lib/core/simulator.ml] may allocate at most this many boxed values
    / Rat.t-returning applications (statically counted) before it is
    flagged.  The placement index's per-event functions
    ([lib/core/residual_tree.ml]) get none at all. *)

val t4_budget : path:string -> string -> (int * int) option
(** [t4_budget ~path name] is the [(boxed, Rat temporaries)] budget of
    binding [name] in file [path] if it is part of the engine's
    per-event core, [None] otherwise. *)

val norm_unit : string -> string
(** Strips dune's [Lib__Module] mangling: ["Dbp_num__Rat"] → ["Rat"]. *)

val path_key : unit_name:string -> Path.t -> string
(** Normalised constructor/value key, e.g. ["Rat.t"], ["Stdlib.="],
    ["Domain.spawn"].  [unit_name] qualifies local ([Pident])
    declarations. *)

(** The containment taint closed over every scanned declaration:
    constructor keys whose definitions (transitively) contain [Rat.t],
    [Fixed.t], or mutable state. *)
type taint = {
  rat : (string, unit) Hashtbl.t;
  fixed : (string, unit) Hashtbl.t;
  mut : (string, unit) Hashtbl.t;
}

type decl
(** A type-declaration digest used by the taint fixpoint. *)

val collect_decls :
  unit_name:string -> path:string -> Typedtree.structure -> decl list

val close_taint : decl list -> taint
(** Fixpoint over all scanned files' declarations, so containment
    propagates through aliases/records/variants in any declaration
    order.  Fixed-taint only propagates through declarations outside
    the R7 allowlist. *)

val check :
  path:string ->
  unit_name:string ->
  taint:taint ->
  Typedtree.structure ->
  Finding.t list
(** Runs T1..T4 over one typed implementation.  [path] drives scoping
    exactly as in the syntactic tier (so fixtures mirror the repo
    layout); [unit_name] is the compilation unit (for qualifying local
    type paths). *)
