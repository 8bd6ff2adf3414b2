(* The runtime invariant auditor: audit mode must be a pure observer
   (audited runs bit-identical to unaudited ones across every policy,
   including under fault injection), and deliberately corrupted engine
   or packing state must raise [Audit_violation] with the right
   invariant family. *)

open Dbp_num
open Dbp_core
open Test_util

(* ---- audit mode never steers the engine ----------------------------- *)

let audit_seeds = [ 11L; 29L; 43L ]

let test_audit_transparent () =
  List.iter
    (fun seed ->
      let instance =
        Dbp_workload.Generator.generate ~seed
          { Dbp_workload.Spec.default with Dbp_workload.Spec.count = 250 }
      in
      List.iter
        (fun policy ->
          let audited = Simulator.run ~audit:true ~policy instance in
          let plain = Simulator.run ~audit:false ~policy instance in
          if not (Test_engine.packing_equal audited plain) then
            Alcotest.failf "audited run diverges under %s (seed %Ld)"
              policy.Policy.name seed)
        (Algorithms.all ()))
    audit_seeds

let prop_audit_transparent =
  qcheck ~count:40 "audited runs bit-identical on random instances"
    (instance_gen ()) (fun instance ->
      List.for_all
        (fun policy ->
          Test_engine.packing_equal
            (Simulator.run ~audit:true ~policy instance)
            (Simulator.run ~audit:false ~policy instance))
        (Algorithms.all ()))

(* Crash storms through the injector, audited: every fail_bin /
   re-dispatch cycle passes the full invariant sweep, and the audited
   faulty packing matches the unaudited one. *)
let test_audit_under_faults () =
  let instance =
    Dbp_workload.Generator.generate ~seed:7L
      { Dbp_workload.Spec.default with Dbp_workload.Spec.count = 150 }
  in
  let horizon = Interval.hi (Instance.packing_period instance) in
  let plan = Dbp_faults.Fault_plan.poisson_crashes ~seed:5L ~rate:1.5 ~horizon in
  List.iter
    (fun policy ->
      let audited = Dbp_faults.Injector.run ~audit:true ~plan ~policy instance in
      let plain = Dbp_faults.Injector.run ~audit:false ~plan ~policy instance in
      if
        not
          (Test_engine.packing_equal audited.Dbp_faults.Injector.packing
             plain.Dbp_faults.Injector.packing)
      then
        Alcotest.failf "audited faulty run diverges under %s"
          policy.Policy.name)
    (Algorithms.all ())

(* ---- corruption is caught, by invariant family ---------------------- *)

module Core = Exact_engine.Scalar

let engine_with_items () =
  let t = Simulator.Online.create ~policy:First_fit.policy ~capacity:Rat.one () in
  ignore (Simulator.Online.arrive t ~now:Rat.zero ~size:(r 1 2) ~item_id:0);
  ignore (Simulator.Online.arrive t ~now:(r 1 2) ~size:(r 1 4) ~item_id:1);
  t

let bin0 t =
  match Simulator.Online.bin_handle t 0 with
  | Some b -> b
  | None -> Alcotest.fail "bin 0 missing"

let expect_violation ~family f =
  match f () with
  | () -> Alcotest.failf "corruption not caught (wanted a %s violation)" family
  | exception Audit.Audit_violation v ->
      Alcotest.(check string) "violation family" family v.Audit.check

let test_healthy_engine_passes () =
  let t = engine_with_items () in
  Simulator.Online.audit t

let test_corrupt_level () =
  let t = engine_with_items () in
  let b = bin0 t in
  b.Core.level <- Rat.add b.Core.level (r 1 8);
  expect_violation ~family:"bin" (fun () -> Simulator.Online.audit t)

let test_corrupt_view_cache () =
  let t = engine_with_items () in
  let b = bin0 t in
  let v = Core.view b in
  b.Core.view_cache <- Some { v with Bin.bin_level = Rat.zero };
  expect_violation ~family:"bin" (fun () -> Simulator.Online.audit t)

(* Closing a bin behind the index's back surfaces in the open-index
   walk (every reachable slot must hold an open bin), which runs
   before the store sweep. *)
let test_corrupt_closed_flag () =
  let t = engine_with_items () in
  let b = bin0 t in
  b.Core.closed <- Some Rat.zero;
  expect_violation ~family:"open-index" (fun () -> Simulator.Online.audit t)

let test_corrupt_item_tracking () =
  let t = engine_with_items () in
  let b = bin0 t in
  (* Drop item 0 from the bin consistently (level, max_level and view
     cache all patched up) so only the simulator's item->bin tracking
     disagrees: the layered sweep must still catch it. *)
  Hashtbl.remove b.Core.active 0;
  b.Core.level <- r 1 4;
  b.Core.max_level <- r 1 4;
  b.Core.view_cache <- None;
  expect_violation ~family:"item-bin" (fun () -> Simulator.Online.audit t)

let test_corrupt_total_cost () =
  let instance =
    Instance.create ~capacity:Rat.one
      [
        Item.make ~id:0 ~size:(r 1 2) ~arrival:Rat.zero ~departure:Rat.one;
        Item.make ~id:1 ~size:(r 1 4) ~arrival:(r 1 2) ~departure:(r 3 2);
      ]
  in
  let packing = Simulator.run ~policy:First_fit.policy instance in
  Audit.check_packing packing;
  let tampered =
    { packing with Packing.total_cost = Rat.add packing.Packing.total_cost Rat.one }
  in
  expect_violation ~family:"cost-conservation" (fun () ->
      Audit.check_packing tampered)

(* ---- DBP_AUDIT environment toggle ----------------------------------- *)

let test_env_toggle () =
  let original = Sys.getenv_opt "DBP_AUDIT" in
  Unix.putenv "DBP_AUDIT" "1";
  Alcotest.(check bool) "1 enables" true (Audit.enabled_from_env ());
  Unix.putenv "DBP_AUDIT" "on";
  Alcotest.(check bool) "on enables" true (Audit.enabled_from_env ());
  Unix.putenv "DBP_AUDIT" "0";
  Alcotest.(check bool) "0 disables" false (Audit.enabled_from_env ());
  Unix.putenv "DBP_AUDIT" (Option.value original ~default:"")

let suite =
  [
    Alcotest.test_case "audited runs identical (generated)" `Quick
      test_audit_transparent;
    prop_audit_transparent;
    Alcotest.test_case "audited runs identical under faults" `Quick
      test_audit_under_faults;
    Alcotest.test_case "healthy engine passes" `Quick test_healthy_engine_passes;
    Alcotest.test_case "corrupted level caught" `Quick test_corrupt_level;
    Alcotest.test_case "corrupted view cache caught" `Quick
      test_corrupt_view_cache;
    Alcotest.test_case "corrupted closed flag caught" `Quick
      test_corrupt_closed_flag;
    Alcotest.test_case "corrupted item tracking caught" `Quick
      test_corrupt_item_tracking;
    Alcotest.test_case "tampered total cost caught" `Quick
      test_corrupt_total_cost;
    Alcotest.test_case "DBP_AUDIT env toggle" `Quick test_env_toggle;
  ]
