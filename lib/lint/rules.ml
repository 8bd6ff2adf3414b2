(* The seeded rule set (R1..R7) over the compiler-libs parsetree.

   The pass is purely syntactic: no type information is available, so
   every rule is a conservative heuristic with its blind spots
   documented in DESIGN.md ("Correctness tooling").  The repo-wide
   guarantee comes from the combination with the runtime auditor
   ([Dbp_core.Audit]), which checks the dynamic invariants the linter
   cannot see. *)

open Parsetree

type rule = {
  id : string;
  severity : Finding.severity;
  title : string;
  what : string;  (* one-line description, for --rules and the docs *)
}

let all_rules =
  [
    {
      id = "R1";
      severity = Finding.Error;
      title = "no-float-in-exact-core";
      what =
        "float literals, float operators (+. etc.), Float.* and bare \
         float conversions are banned in the exact-arithmetic \
         libraries (lib/core, lib/analysis, lib/adversary, \
         lib/repack, and lib/num/vec.ml's exact vector kernel); use \
         Rat (display-only modules stats/chart/timeline_render are \
         exempt)";
    };
    {
      id = "R2";
      severity = Finding.Error;
      title = "no-float-equality";
      what =
        "= / <> with a float literal operand anywhere; use an epsilon \
         test or Float.equal deliberately";
    };
    {
      id = "R3";
      severity = Finding.Warning;
      title = "no-polymorphic-compare-on-rat";
      what =
        "polymorphic = / <> / compare / Hashtbl.hash where a Rat.t \
         could flow (operand mentions Rat, or bare unshadowed \
         compare); use Rat.equal / Rat.compare / Int.compare";
    };
    {
      id = "R4";
      severity = Finding.Warning;
      title = "no-catch-all-try";
      what =
        "try ... with _ -> swallows every exception (including \
         Audit_violation and Rat.Overflow); match the exceptions you \
         mean";
    };
    {
      id = "R5";
      severity = Finding.Error;
      title = "confine-domain-primitives";
      what =
        "Domain / Atomic / Mutex / Condition / Thread usage is \
         confined to lib/experiments/registry.ml and \
         lib/serve/shard_pool.ml (the approved parallel runners); \
         new shared state must go through one of them";
    };
    {
      id = "R6";
      severity = Finding.Warning;
      title = "no-list-scans-in-hot-path";
      what =
        "List.mem / List.find / List.assoc / List.nth (and variants) \
         and Rat.sum-over-a-list in the O(open-bins) engine and \
         policy modules, the per-draw workload sampler, the \
         per-event repacker (budget/planner/runner), and the fault \
         injector's per-event degradation ladder reintroduce \
         linear scans and per-element rational folds those paths \
         were rewritten to avoid (fit.ml's vetted open-fleet scan is \
         the allowed primitive; fold the dense array instead)";
    };
    {
      id = "R7";
      severity = Finding.Error;
      title = "confine-fixed-point";
      what =
        "Fixed.t construction and scaled-integer arithmetic are \
         confined to lib/num and lib/core/simulator.ml (the \
         two-track engine); everywhere else stays on exact Rat so a \
         raw scaled int can never leak into results";
    };
  ]

let find_rule id = List.find (fun r -> r.id = id) all_rules

(* ---- path scoping --------------------------------------------------- *)

let has_infix ~infix path =
  let n = String.length path and m = String.length infix in
  let rec go i = i + m <= n && (String.sub path i m = infix || go (i + 1)) in
  m > 0 && go 0

let basename path =
  match String.rindex_opt path '/' with
  | None -> path
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)

(* Display-only modules: they summarise already-converted floats for
   human-facing tables and ASCII/SVG charts; nothing exact flows
   through them. *)
let r1_display_exempt path =
  has_infix ~infix:"lib/analysis/" path
  && List.mem (basename path)
       [ "stats.ml"; "chart.ml"; "timeline_render.ml" ]

let r1_applies path =
  (has_infix ~infix:"lib/core/" path
  || has_infix ~infix:"lib/analysis/" path
  || has_infix ~infix:"lib/adversary/" path
  || has_infix ~infix:"lib/repack/" path
  (* The vector kernel shares Rat's exactness contract; the rest of
     lib/num (rat.ml's own conversions, fixed.ml) stays exempt. *)
  || has_infix ~infix:"lib/num/vec.ml" path)
  && not (r1_display_exempt path)

(* The two sanctioned homes for domain-parallel primitives: the
   experiment runner and the fleet service's shard pool.  Everything
   else must route parallelism through one of them. *)
let r5_allowlisted path =
  has_infix ~infix:"lib/experiments/registry.ml" path
  || has_infix ~infix:"lib/serve/shard_pool.ml" path

let r6_hot_modules =
  [
    "simulator.ml"; "exact_engine.ml"; "residual_tree.ml"; "packing.ml";
    "event.ml";
    (* The per-arrival policy handlers are on the same O(open bins)
       event path as the engine itself.  [fit.ml] stays exempt: its
       single vetted scan over the open-fleet view is the primitive
       the policies are allowed to share. *)
    "first_fit.ml"; "best_fit.ml"; "worst_fit.ml"; "last_fit.ml";
    "next_fit.ml"; "random_fit.ml"; "harmonic_fit.ml";
    "modified_first_fit.ml"; "policy.ml";
    (* The vector policy family replays the same O(open bins)
       per-event path; the instance module feeds its event loop. *)
    "vec_policy.ml"; "vec_instance.ml";
  ]

(* The workload sampler draws once per generated item, so a linear
   scan there is O(catalog) per draw — the Discrete_sizes List.nth
   regression this extension was added to catch. *)
let r6_workload_modules = [ "generator.ml" ]

(* The repacker plans after every departure instant and meters every
   move, so its budget, planner and runner sit on the same per-event
   path as the engine. *)
let r6_repack_modules = [ "budget.ml"; "repack_policy.ml"; "runner.ml" ]

(* The degradation ladder (migrate -> evict/retry -> shed) runs per
   fault event, putting the injector on the same hot path as the
   repack runner. *)
let r6_faults_modules = [ "injector.ml" ]

let r7_allowlisted path =
  has_infix ~infix:"lib/num/" path
  || has_infix ~infix:"lib/core/simulator.ml" path

let r6_applies path =
  (has_infix ~infix:"lib/core/" path && List.mem (basename path) r6_hot_modules)
  || has_infix ~infix:"lib/workload/" path
     && List.mem (basename path) r6_workload_modules
  || has_infix ~infix:"lib/repack/" path
     && List.mem (basename path) r6_repack_modules
  || has_infix ~infix:"lib/faults/" path
     && List.mem (basename path) r6_faults_modules

(* ---- longident helpers ---------------------------------------------- *)

let rec longident_root = function
  | Longident.Lident s -> s
  | Longident.Ldot (l, _) -> longident_root l
  | Longident.Lapply (l, _) -> longident_root l

let longident_to_string l = String.concat "." (Longident.flatten l)

let float_operators = [ "+."; "-."; "*."; "/."; "**"; "~-."; "~+." ]

let float_stdlib_fns =
  [
    "float_of_int"; "int_of_float"; "float_of_string";
    "float_of_string_opt"; "truncate"; "sqrt"; "exp"; "log"; "log10";
    "mod_float"; "abs_float"; "nan"; "infinity"; "neg_infinity";
    "epsilon_float"; "max_float"; "min_float";
  ]

let domain_modules = [ "Domain"; "Atomic"; "Mutex"; "Condition"; "Thread"; "Semaphore" ]

let r6_banned_list_fns =
  [
    "mem"; "memq"; "find"; "find_opt"; "find_index"; "assoc"; "assoc_opt";
    "assq"; "assq_opt"; "mem_assoc"; "mem_assq"; "nth"; "nth_opt";
  ]

(* Rat.* functions whose result is *not* a Rat.t: a mention under one
   of these does not put a rational on either side of a comparison. *)
let rat_escaping_fns =
  [
    "sign"; "num"; "den"; "floor"; "ceil"; "to_float"; "to_string";
    "hash"; "is_zero"; "is_integer"; "compare"; "equal"; "pp"; "pp_float";
  ]

(* Does the expression subtree mention a value of (plausible) type
   [Rat.t]?  True for any [Rat.x] reference except the escaping
   functions above, and for [Rat.(...)] local opens. *)
let mentions_rat expr =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = Longident.Ldot (Longident.Lident "Rat", fn); _ }
            when List.mem fn rat_escaping_fns ->
              ()
          | Pexp_ident { txt; _ } when longident_root txt = "Rat" ->
              found := true
          | Pexp_open
              ( { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ },
                _ )
            when longident_root txt = "Rat" ->
              found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr self e)
    }
  in
  it.expr it expr;
  !found

(* ---- the pass ------------------------------------------------------- *)

type ctx = {
  path : string;
  mutable findings : Finding.t list;
  (* Earliest line of a *structure-level* [let compare] binding: from
     there on, bare [compare] is the file's own.  Local bindings do
     not touch this — they are tracked by [compare_shadow_depth]
     while their scope is being visited, so a shadow inside one
     function no longer suppresses findings in later functions. *)
  mutable toplevel_compare_from : int option;
  (* Depth of enclosing scopes (let-in, fun parameter, match case)
     that rebind [compare]. *)
  mutable compare_shadow_depth : int;
  (* Depth of enclosing [Rat.(...)] / [let open Rat in] scopes, where
     (=) is Rat's own exact comparison, not the polymorphic one. *)
  mutable rat_open_depth : int;
}

let report ctx ~rule ~loc fmt =
  let r = find_rule rule in
  let pos = loc.Location.loc_start in
  let line = pos.Lexing.pos_lnum
  and col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol in
  Printf.ksprintf
    (fun message ->
      ctx.findings <-
        Finding.make ~rule:r.id ~severity:r.severity ~path:ctx.path ~line ~col
          message
        :: ctx.findings)
    fmt

let compare_is_shadowed ctx line =
  ctx.compare_shadow_depth > 0
  ||
  match ctx.toplevel_compare_from with Some l -> line >= l | None -> false

let check_ident ctx ~loc txt =
  let root = longident_root txt in
  let name = longident_to_string txt in
  (* R1: float operators, Float.*, bare float conversions. *)
  if r1_applies ctx.path then begin
    (match txt with
    | Longident.Lident op when List.mem op float_operators ->
        report ctx ~rule:"R1" ~loc "float operator (%s) in exact-arithmetic library" op
    | Longident.Lident fn when List.mem fn float_stdlib_fns ->
        report ctx ~rule:"R1" ~loc "float primitive %s in exact-arithmetic library" fn
    | _ -> ());
    if root = "Float" then
      report ctx ~rule:"R1" ~loc "Float.* (%s) in exact-arithmetic library" name
  end;
  (* R5: domain-parallel primitives outside the approved runner. *)
  if List.mem root domain_modules && not (r5_allowlisted ctx.path) then
    report ctx ~rule:"R5" ~loc
      "%s outside the approved parallel runners \
       (lib/experiments/registry.ml, lib/serve/shard_pool.ml)"
      name;
  (* R3 (part): the polymorphic comparison/hash primitives themselves,
     applied or passed as arguments (e.g. [List.sort compare]). *)
  (match txt with
  | Longident.Ldot (Longident.Lident "Hashtbl", ("hash" | "seeded_hash" | "hash_param")) ->
      report ctx ~rule:"R3" ~loc
        "%s is the polymorphic hash; use Rat.hash / a typed hash" name
  | Longident.Lident "compare"
    when not
           (compare_is_shadowed ctx loc.Location.loc_start.Lexing.pos_lnum) ->
      report ctx ~rule:"R3" ~loc
        "bare polymorphic compare; use Rat.compare / Int.compare / a typed \
         comparison"
  | Longident.Ldot (Longident.Lident "Stdlib", "compare") ->
      report ctx ~rule:"R3" ~loc
        "Stdlib.compare is the polymorphic comparison; use Rat.compare / \
         Int.compare / a typed comparison"
  | _ -> ());
  (* R7: the fixed-point module must not leak out of the numeric
     kernel and the engine that owns the fallback contract. *)
  if List.mem "Fixed" (Longident.flatten txt) && not (r7_allowlisted ctx.path)
  then
    report ctx ~rule:"R7" ~loc
      "%s outside lib/num and the two-track engine \
       (lib/core/simulator.ml); pass exact Rat values and let the \
       engine decide the representation"
      name;
  (* R6: linear list scans in the hot-path engine modules. *)
  match txt with
  | Longident.Ldot (Longident.Lident "List", fn)
    when List.mem fn r6_banned_list_fns && r6_applies ctx.path ->
      report ctx ~rule:"R6" ~loc
        "List.%s in a hot-path engine module (O(n) scan); use the dense \
         store / Exact_engine.Open_list / a hashtable"
        fn
  | Longident.Ldot (Longident.Lident "Rat", "sum") when r6_applies ctx.path ->
      report ctx ~rule:"R6" ~loc
        "Rat.sum folds a list on a hot path; fold the dense array with \
         Rat.add instead"
  | _ -> ()

let is_float_literal e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | _ -> false

let check_apply ctx ~loc fn args =
  match fn.pexp_desc with
  | Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); _ }
  | Pexp_ident
      { txt = Longident.Ldot (Longident.Lident "Stdlib", (("=" | "<>") as op)); _ }
    -> (
      let operands = List.map snd args in
      (* R2: float-literal equality, anywhere. *)
      if List.exists is_float_literal operands then
        report ctx ~rule:"R2" ~loc
          "float %s comparison against a literal; use an epsilon test or \
           Float.equal deliberately"
          op
      (* R3: polymorphic equality with a rational on either side.
         Inside Rat.(...) the operator is Rat's own exact one. *)
      else if ctx.rat_open_depth = 0 && List.exists mentions_rat operands then
        report ctx ~rule:"R3" ~loc
          "polymorphic %s on a Rat.t-bearing expression; use Rat.equal" op)
  | _ -> ()

let is_rat_open_expr ctx e =
  ignore ctx;
  match e.pexp_desc with
  | Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }, _)
    ->
      longident_root txt = "Rat"
  | _ -> false

(* Does the pattern bind the name [compare] anywhere (var, alias,
   inside a tuple/record/or-pattern)? *)
let pat_binds_compare pat =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_var { txt = "compare"; _ }
          | Ppat_alias (_, { txt = "compare"; _ }) ->
              found := true
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
    }
  in
  it.pat it pat;
  !found

let with_compare_shadow ctx f =
  ctx.compare_shadow_depth <- ctx.compare_shadow_depth + 1;
  f ();
  ctx.compare_shadow_depth <- ctx.compare_shadow_depth - 1

(* A match/function/try case: the rebinding is in scope for the guard
   and the right-hand side only. *)
let visit_case ctx (self : Ast_iterator.iterator) c =
  self.pat self c.pc_lhs;
  let visit () =
    Option.iter (self.expr self) c.pc_guard;
    self.expr self c.pc_rhs
  in
  if pat_binds_compare c.pc_lhs then with_compare_shadow ctx visit
  else visit ()

let case_rebinds c = pat_binds_compare c.pc_lhs

let check ~path structure =
  let ctx =
    {
      path;
      findings = [];
      toplevel_compare_from = None;
      compare_shadow_depth = 0;
      rat_open_depth = 0;
    }
  in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> check_ident ctx ~loc:e.pexp_loc txt
          | Pexp_constant (Pconst_float _) when r1_applies ctx.path ->
              report ctx ~rule:"R1" ~loc:e.pexp_loc
                "float literal in exact-arithmetic library; use Rat.make"
          | Pexp_apply (fn, args) -> check_apply ctx ~loc:e.pexp_loc fn args
          | Pexp_try (_, cases) ->
              List.iter
                (fun c ->
                  match (c.pc_lhs.ppat_desc, c.pc_guard) with
                  | Ppat_any, None ->
                      report ctx ~rule:"R4" ~loc:c.pc_lhs.ppat_loc
                        "catch-all try ... with _ swallows every exception; \
                         match the exceptions you mean"
                  | _ -> ())
                cases
          | _ -> ());
          if is_rat_open_expr ctx e then begin
            ctx.rat_open_depth <- ctx.rat_open_depth + 1;
            default.expr self e;
            ctx.rat_open_depth <- ctx.rat_open_depth - 1
          end
          else
            (* Local [compare] rebindings shadow only their own scope
               (binding extents), not the rest of the file. *)
            match e.pexp_desc with
            | Pexp_let (rf, vbs, body)
              when List.exists (fun vb -> pat_binds_compare vb.pvb_pat) vbs ->
                let visit_vbs () = List.iter (self.value_binding self) vbs in
                if rf = Asttypes.Recursive then
                  with_compare_shadow ctx (fun () ->
                      visit_vbs ();
                      self.expr self body)
                else begin
                  visit_vbs ();
                  with_compare_shadow ctx (fun () -> self.expr self body)
                end
            | Pexp_fun (_, default_arg, pat, body) when pat_binds_compare pat
              ->
                Option.iter (self.expr self) default_arg;
                self.pat self pat;
                with_compare_shadow ctx (fun () -> self.expr self body)
            | Pexp_function cases when List.exists case_rebinds cases ->
                List.iter (visit_case ctx self) cases
            | Pexp_match (scrut, cases) when List.exists case_rebinds cases ->
                self.expr self scrut;
                List.iter (visit_case ctx self) cases
            | Pexp_try (body, cases) when List.exists case_rebinds cases ->
                self.expr self body;
                List.iter (visit_case ctx self) cases
            | _ -> default.expr self e);
      structure_item =
        (fun self item ->
          (* A structure-level [let compare] genuinely shadows the rest
             of the file (modulo its own non-recursive RHS, where the
             watermark is conservative). *)
          (match item.pstr_desc with
          | Pstr_value (_, vbs)
            when List.exists (fun vb -> pat_binds_compare vb.pvb_pat) vbs ->
              let line = item.pstr_loc.Location.loc_start.Lexing.pos_lnum in
              ctx.toplevel_compare_from <-
                (match ctx.toplevel_compare_from with
                | Some l -> Some (min l line)
                | None -> Some line)
          | _ -> ());
          default.structure_item self item);
      typ =
        (fun self t ->
          (match t.ptyp_desc with
          | Ptyp_constr ({ txt = Longident.Lident "float"; _ }, _)
            when r1_applies ctx.path ->
              report ctx ~rule:"R1" ~loc:t.ptyp_loc
                "float type annotation in exact-arithmetic library; use Rat.t"
          | Ptyp_constr ({ txt; _ }, _)
            when List.mem "Fixed" (Longident.flatten txt)
                 && not (r7_allowlisted ctx.path) ->
              report ctx ~rule:"R7" ~loc:t.ptyp_loc
                "%s type outside lib/num and the two-track engine \
                 (lib/core/simulator.ml); keep scaled integers behind the \
                 engine boundary"
                (longident_to_string txt)
          | _ -> ());
          default.typ self t);
    }
  in
  it.structure it structure;
  List.sort Finding.compare ctx.findings
