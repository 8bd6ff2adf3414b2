(* The typed lint tier (T1..T4) over compiler-emitted typedtrees.

   Where the parsetree tier (R1..R7) greps tokens, this tier reads the
   inferred types out of `.cmt` artifacts: T1 sees every
   instantiation of a polymorphic comparison at a type that *contains*
   [Rat.t] (tuples, records, options, lists — via a cross-file taint
   fixpoint over type declarations), T2 sees [Fixed.t] crossing the
   numeric-kernel boundary even through aliases ([type t = Fixed.t]
   resolves to the real path in a typedtree), T3 sees mutable state
   captured by closures handed to [Domain.spawn], and T4 counts boxed
   allocations and rational temporaries inside the engine's
   commit/view functions.

   Residual blind spots (documented in DESIGN.md): [Fixed.t] is a
   transparent [int] alias, so a value whose inferred type already
   collapsed to [int] is indistinguishable from an int (the alias
   *declarations* and explicit [Fixed.t] flows are what T2 catches);
   inside [lib/num/rat.ml] itself the local [t] is not recognised as
   [Rat.t]; and T3 cannot see through a closure bound to a variable
   before reaching [Domain.spawn]. *)

open Typedtree

let all_typed_rules =
  [
    {
      Rules.id = "T1";
      severity = Finding.Error;
      title = "typed-rat-compare";
      what =
        "a polymorphic comparison or hash (Stdlib =/<>/</<=/>/>=/\
         compare/min/max, Hashtbl.hash) instantiated at a type that \
         contains Rat.t — including tuples, records, options and \
         lists of rationals, found by a structural walk of the \
         inferred type; use Rat.equal / Rat.compare / a typed \
         comparison";
    };
    {
      Rules.id = "T2";
      severity = Finding.Error;
      title = "fixed-escape";
      what =
        "Fixed.t (a raw scaled integer) occurring in an inferred or \
         declared type outside lib/num and lib/core/simulator.ml — \
         including through type aliases, which resolve to the real \
         path in a typedtree (Fixed.scale, the opaque grid handle, \
         is the sanctioned API currency and stays allowed)";
    };
    {
      Rules.id = "T3";
      severity = Finding.Error;
      title = "typed-domain-confinement";
      what =
        "mutable state (ref, Atomic.t, Hashtbl.t, arrays, mutable \
         record fields) captured by a closure handed to Domain.spawn \
         outside the approved parallel runners \
         (lib/experiments/registry.ml, lib/serve/shard_pool.ml) — \
         the data-race groundwork for sharded fleet service";
    };
    {
      Rules.id = "T4";
      severity = Finding.Warning;
      title = "hot-path-alloc";
      what =
        "boxed allocations (closures, tuples, records, non-constant \
         constructors) or Rat.t-returning applications beyond a \
         threshold inside the engine's commit/view functions in \
         lib/core/simulator.ml and the placement index in \
         lib/core/residual_tree.ml — the static side of the bench \
         --assert-floor perf gate";
    };
  ]

let find_typed_rule id = List.find (fun r -> r.Rules.id = id) all_typed_rules

(* T4 thresholds: the commit/view core as shipped sits under these; a
   regression that reintroduces rational arithmetic or closure churn
   on the per-event path trips the gate. *)
let t4_max_boxed = 3
let t4_max_rat_temps = 4

(* ---- path keys ------------------------------------------------------- *)

(* Normalised constructor keys: the last module component (with dune's
   [Lib__Module] mangling stripped) dot the type/value name, so
   [Dbp_num__Rat.t], [Dbp_num.Rat.t] and a test fixture's local
   [Rat.t] all key as "Rat.t". *)

let norm_unit name =
  let n = String.length name in
  let rec go i start =
    if i + 1 >= n then start
    else if name.[i] = '_' && name.[i + 1] = '_' then go (i + 2) (i + 2)
    else go (i + 1) start
  in
  let start = go 0 0 in
  if start >= n then name else String.sub name start (n - start)

let predef_types =
  [
    "int"; "char"; "string"; "bytes"; "float"; "bool"; "unit"; "exn";
    "array"; "list"; "option"; "nativeint"; "int32"; "int64"; "lazy_t";
    "floatarray"; "extension_constructor";
  ]

let rec module_last = function
  | Path.Pident id -> norm_unit (Ident.name id)
  | Path.Pdot (_, s) -> norm_unit s
  | Path.Papply (_, p) -> module_last p
  | Path.Pextra_ty (p, _) -> module_last p

let path_key ~unit_name p =
  match p with
  | Path.Pident id ->
      let n = Ident.name id in
      if List.mem n predef_types then n else unit_name ^ "." ^ n
  | Path.Pdot (m, n) -> module_last m ^ "." ^ n
  | Path.Papply (_, p) -> module_last p
  | Path.Pextra_ty (p, _) -> module_last p

(* ---- structural type walk ------------------------------------------- *)

(* Visits every type-constructor path in a type expression.  [arrows]
   controls whether the walk descends into function types: T1/T2 do
   (the instantiated type of a comparison primitive *is* an arrow);
   T3 does not (a function value is not itself shared mutable
   state). *)
let iter_constrs ?(arrows = true) ~f ty =
  let visited = Hashtbl.create 16 in
  let rec go ty =
    let id = Types.get_id ty in
    if not (Hashtbl.mem visited id) then begin
      Hashtbl.add visited id ();
      match Types.get_desc ty with
      | Types.Tconstr (p, args, _) ->
          f p;
          List.iter go args
      | Types.Ttuple l -> List.iter go l
      | Types.Tarrow (_, a, b, _) -> if arrows then (go a; go b)
      | Types.Tpoly (t, _) -> go t
      | Types.Tvariant row ->
          List.iter
            (fun (_, rf) ->
              match Types.row_field_repr rf with
              | Types.Rpresent (Some t) -> go t
              | Types.Reither (_, ts, _) -> List.iter go ts
              | _ -> ())
            (Types.row_fields row)
      | _ -> ()
    end
  in
  go ty

let type_mentions ?arrows ~unit_name ~tainted ty =
  let found = ref false in
  iter_constrs ?arrows
    ~f:(fun p -> if tainted (path_key ~unit_name p) then found := true)
    ty;
  !found

(* ---- taint ----------------------------------------------------------- *)

(* A declaration digest: the keys its right-hand side mentions, plus
   whether it declares a mutable record field.  Collected per scanned
   file, then closed into three taint sets by a fixpoint so
   containment propagates through aliases, records and variants in
   any declaration order — across files. *)
type decl = {
  d_key : string;
  d_contains : string list;
  d_mutable_field : bool;
  d_path : string;  (* source path of the declaring file *)
  d_loc : Location.t;
}

let decl_of_type_declaration ~unit_name ~path (td : Typedtree.type_declaration)
    =
  let keys = ref [] in
  let add ty =
    iter_constrs ~f:(fun p -> keys := path_key ~unit_name p :: !keys) ty
  in
  let t = td.typ_type in
  Option.iter add t.Types.type_manifest;
  let mutable_field = ref false in
  let add_labels lds =
    List.iter
      (fun (ld : Types.label_declaration) ->
        if ld.Types.ld_mutable = Asttypes.Mutable then mutable_field := true;
        add ld.Types.ld_type)
      lds
  in
  (match t.Types.type_kind with
  | Types.Type_record (lds, _) -> add_labels lds
  | Types.Type_variant (cds, _) ->
      List.iter
        (fun (cd : Types.constructor_declaration) ->
          match cd.Types.cd_args with
          | Types.Cstr_tuple ts -> List.iter add ts
          | Types.Cstr_record lds -> add_labels lds)
        cds
  | Types.Type_abstract | Types.Type_open -> ());
  {
    d_key = unit_name ^ "." ^ Ident.name td.typ_id;
    d_contains = List.sort_uniq String.compare !keys;
    d_mutable_field = !mutable_field;
    d_path = path;
    d_loc = td.typ_loc;
  }

(* Built-in seeds for the mutable-state taint: the stdlib's shared
   mutable containers, plus raw arrays and bytes. *)
let builtin_mutable =
  [
    "Stdlib.ref"; "ref"; "array"; "bytes"; "Atomic.t"; "Hashtbl.t";
    "Queue.t"; "Stack.t"; "Buffer.t";
  ]

type taint = {
  rat : (string, unit) Hashtbl.t;
  fixed : (string, unit) Hashtbl.t;
  mut : (string, unit) Hashtbl.t;
}

let is_rat_key k = k = "Rat.t"
let is_fixed_key k = k = "Fixed.t"

let close_taint decls =
  let rat = Hashtbl.create 64 in
  let fixed = Hashtbl.create 16 in
  let mut = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace mut k ()) builtin_mutable;
  let changed = ref true in
  let tainted tbl k = Hashtbl.mem tbl k in
  while !changed do
    changed := false;
    List.iter
      (fun d ->
        let mark tbl cond =
          if cond && not (Hashtbl.mem tbl d.d_key) then begin
            Hashtbl.replace tbl d.d_key ();
            changed := true
          end
        in
        mark rat
          (List.exists (fun k -> is_rat_key k || tainted rat k) d.d_contains);
        (* Fixed-taint only propagates through declarations *outside*
           the allowlist: lib/num's own scale/ops and the engine's
           internals are the sanctioned home, not an escape. *)
        mark fixed
          ((not (Rules.r7_allowlisted d.d_path))
          && List.exists
               (fun k -> is_fixed_key k || tainted fixed k)
               d.d_contains);
        mark mut
          (d.d_mutable_field
          || List.exists (fun k -> tainted mut k) d.d_contains))
      decls
  done;
  { rat; fixed; mut }

(* Declarations key by their *innermost enclosing module* — the same
   component [path_key] sees at use sites (a use of the injector's
   [Frozen.fev] resolves to [...Injector.Frozen.fev], whose last module
   component is "Frozen", not the unit name). *)
let collect_decls ~unit_name ~path str =
  let acc = ref [] in
  let current = ref (norm_unit unit_name) in
  let default = Tast_iterator.default_iterator in
  let it =
    {
      default with
      Tast_iterator.type_declaration =
        (fun self td ->
          acc := decl_of_type_declaration ~unit_name:!current ~path td :: !acc;
          default.Tast_iterator.type_declaration self td);
      Tast_iterator.module_binding =
        (fun self mb ->
          let saved = !current in
          (match mb.mb_name.Location.txt with
          | Some n -> current := n
          | None -> ());
          default.Tast_iterator.module_binding self mb;
          current := saved);
    }
  in
  it.Tast_iterator.structure it str;
  !acc

(* ---- the pass -------------------------------------------------------- *)

type ctx = {
  path : string;
  unit_name : string;
  taint : taint;
  mutable findings : Finding.t list;
  seen : (string * int * int, unit) Hashtbl.t;  (* rule, line, col *)
  exempt : (int * int, unit) Hashtbl.t;
      (* T1: ident locations proven safe by their application context
         (comparison against a constant constructor). *)
}

let report ctx ~rule ~loc fmt =
  let r = find_typed_rule rule in
  let pos = loc.Location.loc_start in
  let line = pos.Lexing.pos_lnum
  and col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol in
  Printf.ksprintf
    (fun message ->
      if not (Hashtbl.mem ctx.seen (rule, line, col)) then begin
        Hashtbl.replace ctx.seen (rule, line, col) ();
        ctx.findings <-
          Finding.make ~rule:r.Rules.id ~severity:r.Rules.severity
            ~path:ctx.path ~line ~col message
          :: ctx.findings
      end)
    fmt

let contains_rat ctx ty =
  type_mentions ~unit_name:ctx.unit_name
    ~tainted:(fun k -> is_rat_key k || Hashtbl.mem ctx.taint.rat k)
    ty

let contains_fixed ctx ty =
  type_mentions ~unit_name:ctx.unit_name
    ~tainted:(fun k -> is_fixed_key k || Hashtbl.mem ctx.taint.fixed k)
    ty

let contains_mutable ctx ty =
  type_mentions ~arrows:false ~unit_name:ctx.unit_name
    ~tainted:(fun k -> Hashtbl.mem ctx.taint.mut k)
    ty

let short_type ty = Format.asprintf "%a" Printtyp.type_expr ty

(* T1: the polymorphic comparison/hash primitives, recognised by their
   resolved path — a locally shadowed [compare] resolves elsewhere and
   is naturally exempt. *)
let poly_compare_keys =
  [
    "Stdlib.="; "Stdlib.<>"; "Stdlib.compare"; "Stdlib.<"; "Stdlib.<=";
    "Stdlib.>"; "Stdlib.>="; "Stdlib.min"; "Stdlib.max"; "Hashtbl.hash";
    "Hashtbl.seeded_hash"; "Hashtbl.hash_param";
  ]

(* Binary comparisons whose result cannot reach a [Rat.t] when one
   operand is a constant (nullary) constructor: the runtime compares
   an immediate against a block and stops at the tag, so [xs = []] and
   [o <> None] never recurse into the rationals inside.  [Hashtbl.hash]
   and partial applications get no such out. *)
let const_exempt_keys = [ "Stdlib.="; "Stdlib.<>"; "Stdlib.compare" ]

let is_const_construct e =
  match e.exp_desc with
  | Texp_construct (_, cd, []) -> cd.Types.cstr_arity = 0
  | Texp_variant (_, None) -> true
  | _ -> false

let loc_pos loc =
  let pos = loc.Location.loc_start in
  (pos.Lexing.pos_lnum, pos.Lexing.pos_cnum - pos.Lexing.pos_bol)

let exempt_const_compare ctx ~key fn args =
  if List.mem key const_exempt_keys then
    match args with
    | [ (Asttypes.Nolabel, Some a); (Asttypes.Nolabel, Some b) ]
      when is_const_construct a || is_const_construct b ->
        Hashtbl.replace ctx.exempt (loc_pos fn.exp_loc) ()
    | _ -> ()

let check_t1 ctx ~loc key e =
  if
    List.mem key poly_compare_keys
    && (not (Hashtbl.mem ctx.exempt (loc_pos loc)))
    && contains_rat ctx e.exp_type
  then
    report ctx ~rule:"T1" ~loc
      "polymorphic %s instantiated at %s, which contains Rat.t; use \
       Rat.equal / Rat.compare / a typed comparison"
      key (short_type e.exp_type)

(* T2: any inferred or declared type mentioning Fixed.t outside the
   allowlist.  Expression-level detection anchors on identifiers (every
   flow of a scaled value passes through one); declaration-level
   detection sees resolved paths, which is what closes the
   [type t = Fixed.t] alias hole. *)
let check_t2_expr ctx ~loc e =
  if contains_fixed ctx e.exp_type then
    report ctx ~rule:"T2" ~loc
      "inferred type %s contains Fixed.t outside lib/num and the two-track \
       engine (lib/core/simulator.ml); keep scaled integers behind the \
       engine boundary"
      (short_type e.exp_type)

(* ---- T3: mutable capture by spawned closures ------------------------- *)

let spawn_keys = [ "Domain.spawn" ]

(* Idents bound by patterns anywhere inside [e] (function parameters,
   lets, match cases): captures are the used idents minus these. *)
let bound_idents_in e =
  let acc = ref [] in
  let default = Tast_iterator.default_iterator in
  let it =
    {
      default with
      Tast_iterator.pat =
        (fun (type k) self (p : k general_pattern) ->
          (match p.pat_desc with
          | Tpat_var (id, _) -> acc := id :: !acc
          | Tpat_alias (_, id, _) -> acc := id :: !acc
          | _ -> ());
          default.Tast_iterator.pat self p);
    }
  in
  it.Tast_iterator.expr it e;
  !acc

let check_t3_spawn ctx spawn_arg =
  let bound = bound_idents_in spawn_arg in
  let is_bound id = List.exists (Ident.same id) bound in
  let default = Tast_iterator.default_iterator in
  let it =
    {
      default with
      Tast_iterator.expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) ->
              let free =
                match p with Path.Pident id -> not (is_bound id) | _ -> true
              in
              if free && contains_mutable ctx e.exp_type then
                report ctx ~rule:"T3" ~loc:e.exp_loc
                  "%s : %s is mutable state captured by a closure passed to \
                   Domain.spawn outside the approved parallel runners \
                   (lib/experiments/registry.ml, lib/serve/shard_pool.ml); \
                   confine shared state to a runner or pass immutable \
                   snapshots"
                  (Path.name p) (short_type e.exp_type)
          | _ -> ());
          default.Tast_iterator.expr self e);
    }
  in
  it.Tast_iterator.expr it spawn_arg

(* ---- T4: allocation census of the commit/view core ------------------- *)

(* The fast-track per-event core, by file and name, with each
   function's (boxed, Rat temporaries) budget.  The exact engine
   (lib/core/exact_engine.ml) is the boxed fallback the fast path
   exists to avoid, so it has no budget, and reporting helpers like
   [fast_timeline_and_cost] run once per run, not per event.  The
   placement index's per-event operations allocate nothing at all;
   its amortised doubling ([grow]) and audit check are left out. *)
let t4_hot_functions =
  let core = (t4_max_boxed, t4_max_rat_temps) and index = (0, 0) in
  [
    ( "lib/core/simulator.ml",
      List.map
        (fun n -> (n, core))
        [
          "commit_fast"; "open_fast"; "fast_view"; "cached_view";
          "refresh_fit"; "open_slot_append"; "open_slot_remove";
          "fast_views"; "fast_advance_clock_s"; "fast_advance_clock";
        ] );
    ( "lib/core/residual_tree.ml",
      List.map
        (fun n -> (n, index))
        [ "max_of"; "update"; "append"; "remove"; "first_fit"; "max_residual" ]
    );
  ]

let t4_budget ~path name =
  List.find_map
    (fun (file, fns) ->
      if Rules.has_infix ~infix:file path then List.assoc_opt name fns else None)
    t4_hot_functions

type census = {
  mutable closures : int;
  mutable tuples : int;
  mutable records : int;
  mutable constructs : int;
  mutable rat_temps : int;
}

(* Calls that only run on a panic branch: the census skips their whole
   argument subtree (format-string literals compile to constructor
   nests, and a cold [invalid_step] message must not count against the
   per-event budget). *)
let cold_call p =
  let n = Path.last p in
  n = "failwith" || n = "raise" || n = "raise_notrace"
  || (String.length n >= 8 && String.sub n 0 8 = "invalid_")

let census_of ctx body =
  let c = { closures = 0; tuples = 0; records = 0; constructs = 0; rat_temps = 0 } in
  let default = Tast_iterator.default_iterator in
  let it =
    {
      default with
      Tast_iterator.expr =
        (fun self e ->
          match e.exp_desc with
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _)
            when cold_call p ->
              ()
          | _ ->
              (match e.exp_desc with
              | Texp_function _ -> c.closures <- c.closures + 1
              | Texp_tuple _ -> c.tuples <- c.tuples + 1
              | Texp_record _ -> c.records <- c.records + 1
              | Texp_construct (_, _, args) when args <> [] ->
                  c.constructs <- c.constructs + 1
              | Texp_apply _ when contains_rat ctx e.exp_type ->
                  c.rat_temps <- c.rat_temps + 1
              | _ -> ());
              default.Tast_iterator.expr self e);
    }
  in
  (* Strip the outermost parameter chain: the function's own lambda
     nodes are its calling convention, not per-event allocation. *)
  let rec strip e =
    match e.exp_desc with
    | Texp_function { cases = [ { c_rhs; c_guard = None; _ } ]; _ } ->
        strip c_rhs
    | _ -> e
  in
  let body = strip body in
  (match body.exp_desc with
  | Texp_function { cases; _ } ->
      List.iter
        (fun cs ->
          Option.iter (it.Tast_iterator.expr it) cs.c_guard;
          it.Tast_iterator.expr it cs.c_rhs)
        cases
  | _ -> it.Tast_iterator.expr it body);
  c

let check_t4 ctx ~loc name (max_boxed, max_rat) body =
  let c = census_of ctx body in
  let boxed = c.closures + c.tuples + c.records + c.constructs in
  if Sys.getenv_opt "DBP_LINT_T4_DEBUG" <> None then
    Printf.eprintf "T4 census %s: boxed=%d (c=%d t=%d r=%d k=%d) rat=%d\n%!"
      name boxed c.closures c.tuples c.records c.constructs c.rat_temps;
  if boxed > max_boxed || c.rat_temps > max_rat then
    report ctx ~rule:"T4" ~loc
      "hot commit/view function %s allocates on the per-event path: %d \
       boxed (%d closures, %d tuples, %d records, %d constructors; max %d) \
       and %d Rat.t temporaries (max %d); keep the commit core on unboxed \
       scaled ints"
      name boxed c.closures c.tuples c.records c.constructs max_boxed
      c.rat_temps max_rat

(* ---- entry point ----------------------------------------------------- *)

let check ~path ~unit_name ~taint str =
  let ctx =
    {
      path;
      unit_name;
      taint;
      findings = [];
      seen = Hashtbl.create 64;
      exempt = Hashtbl.create 16;
    }
  in
  let t2_scope = not (Rules.r7_allowlisted path) in
  let t3_scope = not (Rules.r5_allowlisted path) in
  let fixed_ctor k = is_fixed_key k || Hashtbl.mem taint.fixed k in
  let default = Tast_iterator.default_iterator in
  let it =
    {
      default with
      Tast_iterator.expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) ->
              let key = path_key ~unit_name p in
              check_t1 ctx ~loc:e.exp_loc key e;
              if t2_scope then check_t2_expr ctx ~loc:e.exp_loc e
          | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as fn), args)
            ->
              let key = path_key ~unit_name p in
              exempt_const_compare ctx ~key fn args;
              if t3_scope && List.mem key spawn_keys then
                List.iter
                  (fun (_, arg) -> Option.iter (check_t3_spawn ctx) arg)
                  args
          | _ -> ());
          default.Tast_iterator.expr self e);
      Tast_iterator.typ =
        (fun self ct ->
          (match ct.ctyp_desc with
          | Ttyp_constr (p, _, _)
            when t2_scope && fixed_ctor (path_key ~unit_name p) ->
              report ctx ~rule:"T2" ~loc:ct.ctyp_loc
                "declared type mentions Fixed.t (as %s) outside lib/num and \
                 the two-track engine (lib/core/simulator.ml); aliases do \
                 not hide the scaled representation from the typed tier"
                (Path.name p)
          | _ -> ());
          default.Tast_iterator.typ self ct);
      Tast_iterator.value_binding =
        (fun self vb ->
          (match vb.vb_pat.pat_desc with
          | Tpat_var (_, { txt = name; _ }) -> (
              match t4_budget ~path name with
              | Some budget ->
                  check_t4 ctx ~loc:vb.vb_pat.pat_loc name budget vb.vb_expr
              | None -> ())
          | _ -> ());
          default.Tast_iterator.value_binding self vb);
    }
  in
  it.Tast_iterator.structure it str;
  List.sort Finding.compare ctx.findings
