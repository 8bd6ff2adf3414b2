(* Engine equivalence: the O(open-bins) simulator must be bit-identical
   to the retained seed engine ([Simulator_naive]) — same packings,
   same costs, same any-fit violations — across every policy, random
   seeds, and fail_bin storms.  Plus unit tests for the open-bin index
   invariants (opening order, per-bin view-cache invalidation). *)

open Dbp_num
open Dbp_core
open Test_util

(* ---- deep packing equality ----------------------------------------- *)

let bin_record_equal (a : Packing.bin_record) (b : Packing.bin_record) =
  a.Packing.bin_id = b.Packing.bin_id
  && String.equal a.tag b.tag
  && Rat.equal a.capacity b.capacity
  && Rat.equal a.opened b.opened
  && Rat.equal a.closed b.closed
  && a.item_ids = b.item_ids
  && List.length a.placements = List.length b.placements
  && List.for_all2
       (fun (t1, i1) (t2, i2) -> Rat.equal t1 t2 && i1 = i2)
       a.placements b.placements
  && Rat.equal a.max_level b.max_level

let packing_equal (a : Packing.t) (b : Packing.t) =
  String.equal a.Packing.policy_name b.Packing.policy_name
  && Rat.equal a.total_cost b.total_cost
  && a.max_bins = b.max_bins
  && a.any_fit_violations = b.any_fit_violations
  && a.assignment = b.assignment
  && Step_fn.equal a.timeline b.timeline
  && Array.length a.bins = Array.length b.bins
  && Array.for_all2 bin_record_equal a.bins b.bins

let check_equivalent ~what instance policy =
  let fast = Simulator.run ~policy instance in
  let naive = Simulator_naive.run ~policy instance in
  if not (packing_equal fast naive) then
    Alcotest.failf "%s: engines diverge under %s (fast %a vs seed %a)" what
      policy.Policy.name Packing.pp_summary fast Packing.pp_summary naive

(* ---- equivalence on generated workloads ----------------------------- *)

let equivalence_seeds = [ 7L; 19L; 23L; 31L; 42L ]

let test_generated_equivalence () =
  List.iter
    (fun seed ->
      let instance =
        Dbp_workload.Generator.generate ~seed
          { Dbp_workload.Spec.default with Dbp_workload.Spec.count = 400 }
      in
      List.iter
        (check_equivalent
           ~what:(Printf.sprintf "generated seed %Ld" seed)
           instance)
        (Algorithms.all ()))
    equivalence_seeds

let prop_equivalence =
  qcheck ~count:60 "engines bit-identical on random instances"
    (instance_gen ()) (fun instance ->
      List.for_all
        (fun policy ->
          packing_equal
            (Simulator.run ~policy instance)
            (Simulator_naive.run ~policy instance))
        (Algorithms.all ()))

(* ---- equivalence under fail_bin storms ------------------------------ *)

(* The reference side of a lockstep storm: the seed engine, or the
   exact track of the real one where the seed engine cannot follow
   ([migrate]). *)
type reference = {
  r_arrive : now:Rat.t -> size:Rat.t -> item_id:int -> int;
  r_depart : now:Rat.t -> item_id:int -> unit;
  r_fail_bin : now:Rat.t -> bin_id:int -> (int * Rat.t) list;
  r_migrate : now:Rat.t -> item_id:int -> to_bin:int -> new_item_id:int -> bool;
  r_open_bins : unit -> Bin.view list;
  r_finish : instance:Instance.t -> Packing.t;
}

let naive_reference policy =
  let o = Simulator_naive.Online.create ~policy ~capacity:Rat.one () in
  {
    r_arrive = Simulator_naive.Online.arrive o;
    r_depart = Simulator_naive.Online.depart o;
    r_fail_bin = Simulator_naive.Online.fail_bin o;
    r_migrate =
      (fun ~now:_ ~item_id:_ ~to_bin:_ ~new_item_id:_ ->
        Alcotest.fail "the seed engine has no migrate");
    r_open_bins = (fun () -> Simulator_naive.Online.open_bins o);
    r_finish = Simulator_naive.Online.finish o;
  }

let exact_reference policy =
  let o = Simulator.Online.create ~policy ~capacity:Rat.one () in
  {
    r_arrive = Simulator.Online.arrive o;
    r_depart = Simulator.Online.depart o;
    r_fail_bin = Simulator.Online.fail_bin o;
    r_migrate = Simulator.Online.migrate o;
    r_open_bins = (fun () -> Simulator.Online.open_bins o);
    r_finish = Simulator.Online.finish o;
  }

(* What a storm does per integer step. *)
type shape = {
  size_max : int;  (* sizes k/size_den, 1 <= k <= size_max *)
  size_den : int;
  arrivals_max : int;  (* 1 .. arrivals_max arrivals *)
  departures : int;  (* up to this many departures *)
  migrations : int;  (* up to this many live migrations *)
  crash_one_in : int;  (* a crash between steps with probability 1/n *)
  victim : Dbp_rand.Pcg32.t -> crash:int -> open_bins:int -> int;
      (* opening-order position of the bin a crash strikes *)
  off_grid_at : int option;
      (* a step that ends in a crash at an off-grid instant *)
}

(* A few dozen bins of twelfths, crashes at random positions. *)
let sparse =
  {
    size_max = 12;
    size_den = 12;
    arrivals_max = 3;
    departures = 1;
    migrations = 0;
    crash_one_in = 3;
    victim = (fun rng ~crash:_ ~open_bins -> Dbp_rand.Pcg32.next_int rng open_bins);
    off_grid_at = None;
  }

(* Hundreds of open bins: sizes in (0, 1/10] and sessions that mostly
   outlive the storm.  Crashes take the leftmost, the rightmost and a
   middle open bin in turn. *)
let dense =
  {
    size_max = 12;
    size_den = 120;
    arrivals_max = 40;
    departures = 2;
    migrations = 0;
    crash_one_in = 8;
    victim =
      (fun _ ~crash ~open_bins ->
        match crash mod 3 with
        | 0 -> 0
        | 1 -> open_bins - 1
        | _ -> open_bins / 2);
    off_grid_at = None;
  }

(* What a storm exercised, for the legs that must prove their reach. *)
type coverage = {
  mutable max_open : int;
  mutable ties : int;
      (* arrivals whose first fitting bin shares its residual with a
         later fitting bin *)
  mutable crashed_left : int;
  mutable crashed_middle : int;
  mutable crashed_right : int;
  mutable migrated : int;
  mutable open_off_grid : int;  (* open bins the off-grid crash met *)
}

let count_tie cov views ~size =
  match
    List.filter (fun (v : Bin.view) -> Rat.(size <= v.Bin.bin_residual)) views
  with
  | first :: later ->
      if
        List.exists
          (fun (v : Bin.view) -> Rat.equal v.Bin.bin_residual first.Bin.bin_residual)
          later
      then cov.ties <- cov.ties + 1
  | [] -> ()

(* Drives the engine and a reference in lockstep through a seeded
   random session workload with crashes striking between the integer
   steps, asserting identical observable state throughout and
   identical packings at the end.  Mirrors what [Dbp_faults.Injector]
   does to the engine, without the retry machinery in the way. *)
let run_storm ?grid ?(audit = false) ?(shape = sparse)
    ?(reference = naive_reference) ~seed ~steps policy =
  let rng = Dbp_rand.Pcg32.create seed in
  let fast = Simulator.Online.create ~audit ?grid ~policy ~capacity:Rat.one () in
  let ref_ = reference policy in
  let cov =
    {
      max_open = 0;
      ties = 0;
      crashed_left = 0;
      crashed_middle = 0;
      crashed_right = 0;
      migrated = 0;
      open_off_grid = 0;
    }
  in
  let next_id = ref 0 in
  let crashes = ref 0 in
  let active : (int, Rat.t * Rat.t) Hashtbl.t = Hashtbl.create 64 in
  (* id -> (size, arrival) *)
  let stopped = ref [] in
  (* (id, size, arrival, stop) *)
  let stop ~at id =
    let size, arrival = Hashtbl.find active id in
    Hashtbl.remove active id;
    stopped := (id, size, arrival, at) :: !stopped
  in
  let views_agree ~at =
    let vf = Simulator.Online.open_bins fast in
    let vn = ref_.r_open_bins () in
    if vf <> vn then
      Alcotest.failf "open-bin views diverge at t=%a under %s" Rat.pp at
        policy.Policy.name;
    cov.max_open <- max cov.max_open (List.length vf)
  in
  (* Active items that arrived before [now], in id order: the ones
     whose segment can end now without being empty. *)
  let settled ~now =
    Hashtbl.fold
      (fun id (_, arrival) acc -> if Rat.(arrival < now) then id :: acc else acc)
      active []
    |> List.sort compare
  in
  for step = 0 to steps - 1 do
    let now = Rat.of_int step in
    (* a few arrivals *)
    let arrivals = 1 + Dbp_rand.Pcg32.next_int rng shape.arrivals_max in
    for _ = 1 to arrivals do
      let size =
        Rat.make (1 + Dbp_rand.Pcg32.next_int rng shape.size_max) shape.size_den
      in
      let id = !next_id in
      incr next_id;
      count_tie cov (ref_.r_open_bins ()) ~size;
      let bf = Simulator.Online.arrive fast ~now ~size ~item_id:id in
      let bn = ref_.r_arrive ~now ~size ~item_id:id in
      Alcotest.(check int) "same placement" bf bn;
      Hashtbl.replace active id (size, now)
    done;
    views_agree ~at:now;
    (* departures of random active items that arrived earlier *)
    for _ = 1 to shape.departures do
      match settled ~now with
      | [] -> ()
      | ids ->
          let id = List.nth ids (Dbp_rand.Pcg32.next_int rng (List.length ids)) in
          Simulator.Online.depart fast ~now ~item_id:id;
          ref_.r_depart ~now ~item_id:id;
          stop ~at:now id;
          views_agree ~at:now
    done;
    (* live migrations of settled items into another bin with room *)
    for _ = 1 to shape.migrations do
      match settled ~now with
      | [] -> ()
      | ids -> (
          let id = List.nth ids (Dbp_rand.Pcg32.next_int rng (List.length ids)) in
          let size, _ = Hashtbl.find active id in
          let home = Simulator.Online.bin_of_item fast id in
          match
            List.filter
              (fun (v : Bin.view) ->
                Some v.Bin.bin_id <> home && Rat.(size <= v.Bin.bin_residual))
              (Simulator.Online.open_bins fast)
          with
          | [] -> ()
          | dests ->
              let to_bin =
                (List.nth dests
                   (Dbp_rand.Pcg32.next_int rng (List.length dests)))
                  .Bin.bin_id
              in
              let new_item_id = !next_id in
              incr next_id;
              let cf =
                Simulator.Online.migrate fast ~now ~item_id:id ~to_bin
                  ~new_item_id
              in
              let cn = ref_.r_migrate ~now ~item_id:id ~to_bin ~new_item_id in
              Alcotest.(check bool) "same source close" cf cn;
              stop ~at:now id;
              Hashtbl.replace active new_item_id (size, now);
              cov.migrated <- cov.migrated + 1;
              views_agree ~at:now)
    done;
    (* crash between steps: strike the same bin in both engines *)
    let off_grid = shape.off_grid_at = Some step in
    if off_grid || Dbp_rand.Pcg32.next_int rng shape.crash_one_in = 0 then begin
      let at = Rat.add now (if off_grid then Rat.make 1 7 else Rat.make 1 2) in
      match Simulator.Online.open_bins fast with
      | [] -> ()
      | views ->
          let n = List.length views in
          if off_grid then cov.open_off_grid <- n;
          let pos = shape.victim rng ~crash:!crashes ~open_bins:n in
          incr crashes;
          if n >= 3 then
            if pos = 0 then cov.crashed_left <- cov.crashed_left + 1
            else if pos = n - 1 then cov.crashed_right <- cov.crashed_right + 1
            else cov.crashed_middle <- cov.crashed_middle + 1;
          let victim = (List.nth views pos).Bin.bin_id in
          let ef = Simulator.Online.fail_bin fast ~now:at ~bin_id:victim in
          let en = ref_.r_fail_bin ~now:at ~bin_id:victim in
          Alcotest.(check (list (pair int rat)))
            "same evictions in same order" ef en;
          List.iter (fun (id, _) -> stop ~at id) ef;
          views_agree ~at
    end
  done;
  (* drain the survivors *)
  let finis = Rat.of_int steps in
  Hashtbl.fold (fun id _ acc -> id :: acc) active []
  |> List.sort compare
  |> List.iter (fun id ->
         Simulator.Online.depart fast ~now:finis ~item_id:id;
         ref_.r_depart ~now:finis ~item_id:id;
         stop ~at:finis id);
  views_agree ~at:finis;
  let effective =
    Instance.create ~capacity:Rat.one
      (List.rev_map
         (fun (id, size, arrival, stop) ->
           Item.make ~id ~size ~arrival ~departure:stop)
         (List.sort (fun (a, _, _, _) (b, _, _, _) -> compare b a) !stopped))
  in
  let pf = Simulator.Online.finish fast ~instance:effective in
  let pn = ref_.r_finish ~instance:effective in
  if not (packing_equal pf pn) then
    Alcotest.failf "storm packings diverge under %s (seed %Ld)"
      policy.Policy.name seed;
  (fast, cov)

let test_storm_equivalence () =
  List.iter
    (fun seed ->
      List.iter
        (fun p -> ignore (run_storm ~seed ~steps:40 p))
        (Algorithms.all ()))
    [ 3L; 5L; 8L; 13L; 21L ]

(* Same storms on the fixed-point track: sizes are twelfths and crash
   instants halves, so a 1/24 grid admits every input and the fast
   store's arrive/depart/fail_bin paths run scaled end to end. *)
let test_fixed_storm_equivalence () =
  let grid =
    match Fixed.scale_of_den 24 with Some s -> s | None -> assert false
  in
  List.iter
    (fun seed ->
      List.iter
        (fun p -> ignore (run_storm ~grid ~seed ~steps:40 p))
        (Algorithms.all ()))
    [ 3L; 13L; 21L ]

(* ---- dense storms: First Fit off the max-residual index ------------- *)

(* Sizes are 120ths and crash instants halves, so a 1/120 grid admits
   every on-grid input and 1/7 lies off it. *)
let dense_grid =
  match Fixed.scale_of_den 120 with Some s -> s | None -> assert false

(* Hundreds of open bins under an audited fast engine, so the tree is
   re-derived after every event: it doubles from 64 leaves past 128
   and 256, residuals tie, and the leftmost, rightmost and middle open
   bins fail. *)
let test_dense_storm () =
  let fast, cov =
    run_storm ~grid:dense_grid ~audit:true ~shape:dense ~seed:5L ~steps:340
      First_fit.policy
  in
  Alcotest.(check string) "stayed fixed" "fixed" (Simulator.Online.track_name fast);
  Alcotest.(check bool)
    (Printf.sprintf "at least 300 bins open at once (%d)" cov.max_open)
    true (cov.max_open >= 300);
  Alcotest.(check bool) "equal residuals tie" true (cov.ties > 0);
  Alcotest.(check bool)
    "leftmost, rightmost and middle open bins fail" true
    (cov.crashed_left > 0 && cov.crashed_right > 0 && cov.crashed_middle > 0)

(* The seed engine has no migrate: this leg checks against the exact
   track of the real engine. *)
let test_dense_storm_migrate () =
  let fast, cov =
    run_storm ~grid:dense_grid ~audit:true
      ~shape:{ dense with migrations = 2 }
      ~reference:exact_reference ~seed:8L ~steps:200 First_fit.policy
  in
  Alcotest.(check string) "stayed fixed" "fixed" (Simulator.Online.track_name fast);
  Alcotest.(check bool) "items migrated" true (cov.migrated > 100)

(* A crash at an off-grid instant mid-storm degrades the fast engine to
   the exact track; nothing observable may change. *)
let test_dense_storm_degrade () =
  let fast, cov =
    run_storm ~grid:dense_grid ~audit:true
      ~shape:{ dense with off_grid_at = Some 150 }
      ~seed:13L ~steps:200 First_fit.policy
  in
  Alcotest.(check string) "degraded" "exact" (Simulator.Online.track_name fast);
  Alcotest.(check bool)
    (Printf.sprintf "dense when it degraded (%d open)" cov.open_off_grid)
    true (cov.open_off_grid >= 100)

(* ---- the max-residual tree against a plain array -------------------- *)

(* Random appends, updates and removals, each followed by a query for
   every size and the root, checked against a linear scan of a model
   array — and the tree's own full re-derivation. *)
let prop_residual_tree =
  qcheck ~count:200 "max-residual tree answers like a linear scan"
    QCheck2.Gen.(
      list_size (int_range 1 300)
        (triple (int_range 0 9) (int_range 0 1000) (int_range 0 12)))
    (fun ops ->
      let t = Residual_tree.create () in
      let model = ref [||] in
      let len () = Array.length !model in
      List.for_all
        (fun (op, at, v) ->
          (match op with
          | 0 | 1 | 2 | 3 ->
              Residual_tree.append t ~slot:(len ()) v;
              model := Array.append !model [| v |]
          | 4 | 5 | 6 when len () > 0 ->
              let slot = at mod len () in
              Residual_tree.update t ~slot v;
              !model.(slot) <- v
          | _ when len () > 0 ->
              let slot = at mod len () in
              Residual_tree.remove t ~slot ~len:(len ());
              model :=
                Array.append
                  (Array.sub !model 0 slot)
                  (Array.sub !model (slot + 1) (len () - slot - 1))
          | _ -> ());
          let scan size =
            let rec go s =
              if s >= len () then -1 else if !model.(s) >= size then s else go (s + 1)
            in
            go 0
          in
          Residual_tree.check t ~len:(len ()) ~residual:(fun s -> !model.(s))
          = Ok ()
          && Residual_tree.max_residual t = Array.fold_left max (-1) !model
          && List.for_all
               (fun size -> Residual_tree.first_fit t size = scan size)
               (List.init 13 (fun k -> k + 1)))
        ops)

(* ---- allocation pin: First Fit off the index ------------------------ *)

(* Minor words one fast-track First Fit arrival allocates when it lands
   in an existing bin with [n] bins open.  Every bin but the newest is
   full, so the lookup walks to the rightmost slot; on the views path
   the same arrival cost three words per open bin. *)
let ff_arrival_words n =
  let grid =
    match Fixed.scale_of_den 4 with Some s -> s | None -> assert false
  in
  let o =
    Simulator.Online.create ~grid ~policy:First_fit.policy ~capacity:Rat.one ()
  in
  for id = 0 to n - 2 do
    ignore (Simulator.Online.arrive o ~now:Rat.zero ~size:Rat.one ~item_id:id)
  done;
  ignore (Simulator.Online.arrive o ~now:Rat.zero ~size:(r 1 2) ~item_id:(n - 1));
  let now = Rat.one and size = r 1 4 in
  let before = Gc.minor_words () in
  let bin = Simulator.Online.arrive o ~now ~size ~item_id:n in
  let words = int_of_float (Gc.minor_words () -. before) in
  Alcotest.(check string) "fast track" "fixed" (Simulator.Online.track_name o);
  Alcotest.(check int) "lands in the newest bin" (n - 1) bin;
  words

let test_ff_arrival_allocation () =
  let small = ff_arrival_words 100 and large = ff_arrival_words 10_000 in
  Alcotest.(check bool)
    (Printf.sprintf "<= 16 words with 100 bins open (%d)" small)
    true (small <= 16);
  Alcotest.(check bool)
    (Printf.sprintf "<= 16 words with 10000 bins open (%d)" large)
    true (large <= 16);
  Alcotest.(check int) "independent of the open population" small large

(* The fast track memoises views per bin on the exact core's lazy
   rule: a view read re-projects exactly the bins whose level changed
   since the last read, and hands back the physically same record for
   every other bin. *)
let test_fast_views_memoised () =
  let grid =
    match Fixed.scale_of_den 4 with Some s -> s | None -> assert false
  in
  let o =
    Simulator.Online.create ~grid ~policy:Best_fit.policy ~capacity:Rat.one ()
  in
  ignore (Simulator.Online.arrive o ~now:Rat.zero ~size:Rat.one ~item_id:0);
  ignore (Simulator.Online.arrive o ~now:Rat.zero ~size:(r 1 2) ~item_id:1);
  let first = Simulator.Online.open_bins o in
  ignore (Simulator.Online.arrive o ~now:Rat.zero ~size:(r 1 4) ~item_id:2);
  let second = Simulator.Online.open_bins o in
  let third = Simulator.Online.open_bins o in
  Alcotest.(check string) "fast track" "fixed" (Simulator.Online.track_name o);
  match (first, second, third) with
  | [ a0; a1 ], [ b0; b1 ], [ c0; c1 ] ->
      Alcotest.(check bool) "untouched bin's view reused" true (a0 == b0);
      Alcotest.(check bool) "touched bin's view rebuilt" true (not (a1 == b1));
      Alcotest.(check int) "rebuilt view sees the arrival" 2 b1.Bin.bin_count;
      Alcotest.(check bool) "a quiet read rebuilds nothing" true
        (b0 == c0 && b1 == c1)
  | _ -> Alcotest.fail "expected two open bins"

(* ---- two-track engine: fixed fast path vs forced exact -------------- *)

(* [run] picks the fixed-point track by itself (grid_of_instance);
   [~grid:None] pins the exact track.  The packings must be
   bit-identical — cost strings, timelines, placements, the lot. *)
let test_fixed_vs_exact_runs () =
  List.iter
    (fun seed ->
      let instance =
        Dbp_workload.Generator.generate ~seed
          { Dbp_workload.Spec.default with Dbp_workload.Spec.count = 300 }
      in
      Alcotest.(check bool)
        "workload grid found" true
        (Simulator.grid_of_instance instance <> None);
      List.iter
        (fun policy ->
          let fast = Simulator.run ~policy instance in
          let exact = Simulator.run ~grid:None ~policy instance in
          if not (packing_equal fast exact) then
            Alcotest.failf "fixed/exact tracks diverge under %s (seed %Ld)"
              policy.Policy.name seed)
        (Algorithms.all ()))
    [ 11L; 42L ]

(* Mid-run degrade: the first off-grid size must flip the engine to
   the exact track without disturbing any observable state. *)
let test_degrade_mid_run () =
  let grid =
    match Fixed.scale_of_den 4 with Some s -> s | None -> assert false
  in
  let policy = Best_fit.policy in
  let fast = Simulator.Online.create ~grid ~policy ~capacity:Rat.one () in
  let exact = Simulator.Online.create ~policy ~capacity:Rat.one () in
  Alcotest.(check string)
    "starts fixed" "fixed"
    (Simulator.Online.track_name fast);
  Alcotest.(check string)
    "no grid means exact" "exact"
    (Simulator.Online.track_name exact);
  let drive o =
    ignore (Simulator.Online.arrive o ~now:Rat.zero ~size:(r 1 2) ~item_id:0);
    ignore (Simulator.Online.arrive o ~now:(r 1 2) ~size:(r 1 4) ~item_id:1);
    (* 1/3 is off the 1/4 grid: this arrival degrades the fast engine *)
    ignore (Simulator.Online.arrive o ~now:Rat.one ~size:(r 1 3) ~item_id:2);
    Simulator.Online.depart o ~now:(ri 2) ~item_id:0;
    ignore (Simulator.Online.arrive o ~now:(ri 2) ~size:(r 3 4) ~item_id:3);
    Simulator.Online.depart o ~now:(ri 3) ~item_id:1;
    Simulator.Online.depart o ~now:(ri 3) ~item_id:2;
    Simulator.Online.depart o ~now:(ri 4) ~item_id:3
  in
  drive fast;
  drive exact;
  Alcotest.(check string)
    "degraded to exact" "exact"
    (Simulator.Online.track_name fast);
  let vf = Simulator.Online.open_bins fast
  and ve = Simulator.Online.open_bins exact in
  Alcotest.(check bool) "views identical after degrade" true (vf = ve);
  let instance =
    Instance.create ~capacity:Rat.one
      [
        Item.make ~id:0 ~size:(r 1 2) ~arrival:Rat.zero ~departure:(ri 2);
        Item.make ~id:1 ~size:(r 1 4) ~arrival:(r 1 2) ~departure:(ri 3);
        Item.make ~id:2 ~size:(r 1 3) ~arrival:Rat.one ~departure:(ri 3);
        Item.make ~id:3 ~size:(r 3 4) ~arrival:(ri 2) ~departure:(ri 4);
      ]
  in
  let pf = Simulator.Online.finish fast ~instance
  and pe = Simulator.Online.finish exact ~instance in
  if not (packing_equal pf pe) then
    Alcotest.fail "degraded packing diverges from always-exact"

(* An arrival the policy cannot place still consumes its id, and the
   id stays consumed across a degrade: the fast store's image records
   placements only, so the seen set must be carried over. *)
let test_rejected_id_survives_degrade () =
  let grid =
    match Fixed.scale_of_den 4 with Some s -> s | None -> assert false
  in
  let o =
    Simulator.Online.create ~grid ~policy:First_fit.policy ~capacity:Rat.one ()
  in
  ignore (Simulator.Online.arrive o ~now:Rat.zero ~size:(r 1 2) ~item_id:0);
  (match Simulator.Online.arrive o ~now:Rat.zero ~size:(ri 2) ~item_id:1 with
  | _ -> Alcotest.fail "an oversized item was placed"
  | exception Simulator.Invalid_decision _ -> ());
  Alcotest.(check string) "still fixed" "fixed" (Simulator.Online.track_name o);
  (* 1/3 is off the 1/4 grid: this departure degrades the engine. *)
  Simulator.Online.depart o ~now:(r 1 3) ~item_id:0;
  Alcotest.(check string) "degraded" "exact" (Simulator.Online.track_name o);
  Alcotest.check_raises "the rejected id stays used"
    (Simulator.Invalid_step "item id 1 reused") (fun () ->
      ignore (Simulator.Online.arrive o ~now:Rat.one ~size:(r 1 4) ~item_id:1))

(* ---- open-bin list invariants -------------------------------------- *)

module Open_list = Exact_engine.Open_list
module Core = Exact_engine.Scalar

let test_index_opening_order () =
  let ix = Open_list.create () in
  Alcotest.(check int) "empty" 0 (Open_list.cardinal ix);
  List.iter (Open_list.add ix) [ 0; 1; 2; 3 ];
  Alcotest.(check (list int)) "opening order" [ 0; 1; 2; 3 ] (Open_list.to_list ix);
  Open_list.remove ix 1;
  Alcotest.(check (list int)) "middle removal" [ 0; 2; 3 ] (Open_list.to_list ix);
  Open_list.remove ix 0;
  Alcotest.(check (list int)) "head removal" [ 2; 3 ] (Open_list.to_list ix);
  Open_list.remove ix 3;
  Alcotest.(check (list int)) "tail removal" [ 2 ] (Open_list.to_list ix);
  Alcotest.(check int) "cardinal" 1 (Open_list.cardinal ix);
  Alcotest.(check bool) "member" true (Open_list.mem ix 2);
  Alcotest.(check bool) "removed" false (Open_list.mem ix 3);
  Open_list.add ix 9;
  Alcotest.(check (list int)) "append after gaps" [ 2; 9 ] (Open_list.to_list ix);
  Alcotest.(check bool)
    "structure validates" true
    (Open_list.validate ix ~is_open:(fun _ -> true) = Ok ())

let raises_invalid_arg name f =
  Alcotest.(check bool) name true
    (try
       f ();
       false
     with Invalid_argument _ -> true)

let test_index_misuse () =
  let ix = Open_list.create () in
  Open_list.add ix 5;
  raises_invalid_arg "double add" (fun () -> Open_list.add ix 5);
  raises_invalid_arg "out-of-order id" (fun () -> Open_list.add ix 3);
  raises_invalid_arg "removing a non-member" (fun () -> Open_list.remove ix 7);
  Open_list.remove ix 5;
  raises_invalid_arg "double remove" (fun () -> Open_list.remove ix 5)

(* The exact core under First Fit, capacity 1. *)
let core () =
  Core.create
    ~handlers:(First_fit.policy.Policy.spawn ~capacity:Rat.one)
    ~capacity:Rat.one ()

let test_view_cache_invalidation () =
  let c = core () in
  ignore (Core.arrive c ~now:Rat.zero ~size:(r 1 4) ~item_id:0);
  let b = Option.get (Core.find_bin c 0) in
  let v1 = Core.view b in
  Alcotest.(check bool) "memoised view physically reused" true
    (v1 == Core.view b);
  ignore (Core.arrive c ~now:Rat.zero ~size:(r 1 4) ~item_id:1);
  let v2 = Core.view b in
  Alcotest.(check bool) "insert invalidates the cache" true (not (v1 == v2));
  Alcotest.(check int) "fresh view sees the insert" 2 v2.Bin.bin_count;
  check_rat "fresh view level" (r 1 2) v2.Bin.bin_level;
  Alcotest.(check bool) "fresh view memoised again" true (v2 == Core.view b);
  Core.depart c ~now:Rat.one ~item_id:0;
  let v3 = Core.view b in
  Alcotest.(check bool) "remove invalidates the cache" true (not (v2 == v3));
  Alcotest.(check int) "count after remove" 1 v3.Bin.bin_count;
  Core.depart c ~now:Rat.two ~item_id:1;
  Alcotest.(check bool) "empty bin closed" true (Option.is_some b.Core.closed);
  Alcotest.(check int) "closed view count" 0 (Core.view b).Bin.bin_count

let test_index_views_reuse_cached () =
  let c = core () in
  ignore (Core.arrive c ~now:Rat.zero ~size:Rat.one ~item_id:0);
  ignore (Core.arrive c ~now:Rat.zero ~size:(r 1 2) ~item_id:1);
  let first = Core.open_bins c in
  (* Bin 0 is full, so First Fit touches bin 1 only. *)
  ignore (Core.arrive c ~now:Rat.zero ~size:(r 1 4) ~item_id:2);
  let second = Core.open_bins c in
  (match (first, second) with
  | [ a0; _ ], [ c0; c1 ] ->
      Alcotest.(check bool) "untouched bin's view physically reused" true
        (a0 == c0);
      Alcotest.(check int) "touched bin's view rebuilt" 2 c1.Bin.bin_count
  | _ -> Alcotest.fail "expected two views");
  Alcotest.(check bool) "list rebuilt each call" true (not (first == second))

(* ---- packed event keys: id-overflow audit --------------------------- *)

let test_event_key_boundaries () =
  (* Round trip at the exact corners of the packed layout. *)
  List.iter
    (fun (time_s, arrival, id) ->
      let k = Simulator.pack_event_key ~time_s ~arrival ~id in
      Alcotest.(check bool) "key non-negative" true (k >= 0);
      let t', a', i' = Simulator.unpack_event_key k in
      Alcotest.(check int) "time survives" time_s t';
      Alcotest.(check bool) "kind survives" arrival a';
      Alcotest.(check int) "id survives" id i')
    [
      (0, false, 0);
      (0, true, Simulator.max_fast_item);
      (Simulator.event_key_time_limit - 1, true, Simulator.max_fast_item);
      (Simulator.event_key_time_limit - 1, false, 0);
    ];
  (* An id one past the guard would carry into the kind bit; the
     packer must refuse rather than silently corrupt the order. *)
  List.iter
    (fun (time_s, id) ->
      match Simulator.pack_event_key ~time_s ~arrival:true ~id with
      | _ -> Alcotest.failf "packed out-of-range id %d" id
      | exception Invalid_argument _ -> ())
    [
      (0, Simulator.max_fast_item + 1);
      (0, -1);
      (Simulator.event_key_time_limit, 0);
      (-1, 0);
    ]

let prop_event_key_order =
  qcheck ~count:500 "packed keys sort like (time, departures-first, id)"
    QCheck2.Gen.(
      pair
        (triple (int_bound 1000000) bool (int_bound Simulator.max_fast_item))
        (triple (int_bound 1000000) bool (int_bound Simulator.max_fast_item)))
    (fun ((t1, a1, i1), (t2, a2, i2)) ->
      let k1 = Simulator.pack_event_key ~time_s:t1 ~arrival:a1 ~id:i1 in
      let k2 = Simulator.pack_event_key ~time_s:t2 ~arrival:a2 ~id:i2 in
      let expect =
        if t1 <> t2 then compare t1 t2
        else if a1 <> a2 then compare a1 a2 (* false (departure) first *)
        else compare i1 i2
      in
      compare k1 k2 = expect
      && Simulator.unpack_event_key k1 = (t1, a1, i1))

let suite =
  [
    Alcotest.test_case "generated workloads: engines bit-identical" `Quick
      test_generated_equivalence;
    Alcotest.test_case "event key boundaries" `Quick test_event_key_boundaries;
    prop_event_key_order;
    prop_equivalence;
    Alcotest.test_case "fail_bin storms: engines bit-identical" `Quick
      test_storm_equivalence;
    Alcotest.test_case "dense First Fit storm: index audited, bit-identical"
      `Quick test_dense_storm;
    Alcotest.test_case "dense storm with migrations vs the exact track" `Quick
      test_dense_storm_migrate;
    Alcotest.test_case "dense storm degrading mid-run" `Quick
      test_dense_storm_degrade;
    prop_residual_tree;
    Alcotest.test_case "First Fit arrival allocation is flat" `Quick
      test_ff_arrival_allocation;
    Alcotest.test_case "fast-track views memoised per bin" `Quick
      test_fast_views_memoised;
    Alcotest.test_case "fixed-track storms: engines bit-identical" `Quick
      test_fixed_storm_equivalence;
    Alcotest.test_case "fixed vs forced-exact runs bit-identical" `Quick
      test_fixed_vs_exact_runs;
    Alcotest.test_case "mid-run degrade is invisible" `Quick
      test_degrade_mid_run;
    Alcotest.test_case "a rejected arrival's id survives a degrade" `Quick
      test_rejected_id_survives_degrade;
    Alcotest.test_case "open-bin index: opening order" `Quick
      test_index_opening_order;
    Alcotest.test_case "open-bin index: misuse raises" `Quick test_index_misuse;
    Alcotest.test_case "bin view cache invalidation" `Quick
      test_view_cache_invalidation;
    Alcotest.test_case "index views reuse cached bin views" `Quick
      test_index_views_reuse_cached;
  ]
