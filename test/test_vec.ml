(* The vector layer: Vec arithmetic, the DVBP engine, and
   the d=1 embedding — a scalar instance pushed through the vector
   engine must be bit-identical to the scalar engine (same packing,
   same cost, same trace bytes, same metrics) across every registry
   policy, with checkpoints resuming mid-run. *)

open Dbp_num
open Dbp_core
open Test_util

let vec = Alcotest.testable Vec.pp Vec.equal
let v l = Vec.make (List.map (fun (n, d) -> Rat.make n d) l)

(* ---- Vec arithmetic -------------------------------------------------- *)

let test_vec_basics () =
  let a = v [ (1, 2); (3, 4) ] and b = v [ (1, 4); (1, 4) ] in
  Alcotest.(check int) "dim" 2 (Vec.dim a);
  Alcotest.check vec "add" (v [ (3, 4); (1, 1) ]) (Vec.add a b);
  Alcotest.check vec "sub" (v [ (1, 4); (1, 2) ]) (Vec.sub a b);
  Alcotest.check vec "cmax" (v [ (1, 2); (3, 4) ]) (Vec.cmax a b);
  Alcotest.(check bool) "le yes" true (Vec.le b a);
  Alcotest.(check bool) "le no" false (Vec.le a b);
  Alcotest.(check bool) "le partial" false
    (Vec.le (v [ (1, 8); (7, 8) ]) a);
  check_rat "max_component" (r 3 4) (Vec.max_component a);
  check_rat "sum" (r 5 4) (Vec.sum a);
  Alcotest.(check int) "compare lex" (-1)
    (compare (Vec.compare (v [ (1, 2); (1, 4) ]) a) 0);
  Alcotest.check vec "truncate" (Vec.scalar (r 1 2)) (Vec.truncate a ~dims:1);
  Alcotest.check_raises "empty make"
    (Invalid_argument "Vec.make: empty component list") (fun () ->
      ignore (Vec.make []));
  Alcotest.check_raises "dim mismatch"
    (Invalid_argument "Vec.add: dimension mismatch (2 vs 1)") (fun () ->
      ignore (Vec.add a (Vec.scalar Rat.one)))

let test_vec_norms () =
  let capacity = v [ (2, 1); (1, 1) ] in
  let x = v [ (1, 1); (1, 4) ] in
  check_rat "max_norm" (r 1 2) (Vec.max_norm ~capacity x);
  check_rat "sum_norm" (r 3 4) (Vec.sum_norm ~capacity x);
  (* At d=1 both norms are level / capacity. *)
  let c1 = Vec.scalar (ri 2) and x1 = Vec.scalar (r 1 2) in
  check_rat "max_norm d1" (r 1 4) (Vec.max_norm ~capacity:c1 x1);
  check_rat "sum_norm d1" (r 1 4) (Vec.sum_norm ~capacity:c1 x1)

let test_vec_strings () =
  let a = v [ (1, 2); (-3, 4); (5, 1) ] in
  Alcotest.(check string) "to_string" "1/2,-3/4,5" (Vec.to_string a);
  Alcotest.check vec "round trip" a (Vec.of_string (Vec.to_string a));
  (* d=1 renders exactly like the scalar, so scalar trace payloads
     embed unchanged. *)
  Alcotest.(check string) "scalar render" (Rat.to_string (r 7 3))
    (Vec.to_string (Vec.scalar (r 7 3)));
  Alcotest.check_raises "empty" (Failure "Vec.of_string: empty string")
    (fun () -> ignore (Vec.of_string ""))

(* ---- the d=1 embedding ---------------------------------------------- *)

let vec_of_packing_bin (b : Vec_simulator.bin_record) =
  ( b.Vec_simulator.vr_id,
    b.vr_tag,
    b.vr_capacity,
    b.vr_opened,
    b.vr_closed,
    b.vr_item_ids,
    b.vr_placements,
    b.vr_max_level )

let check_embedded ~what ?(compare_names = true) instance (vp : Vec_policy.t)
    (sp : Policy.t) =
  let sbuf = Buffer.create 4096 and vbuf = Buffer.create 4096 in
  let smet = Dbp_obs.Metrics.create () and vmet = Dbp_obs.Metrics.create () in
  let scalar =
    Simulator.run ~audit:true ~sink:(Dbp_obs.Sink.to_buffer sbuf) ~metrics:smet
      ~policy:sp instance
  in
  let vinst = Vec_instance.of_scalar instance in
  let vector =
    Vec_simulator.run ~audit:true ~sink:(Dbp_obs.Sink.to_buffer vbuf)
      ~metrics:vmet ~policy:vp vinst
  in
  if compare_names then
    Alcotest.(check string)
      (what ^ ": policy name") scalar.Packing.policy_name
      vector.Vec_simulator.r_policy_name;
  check_rat (what ^ ": total cost") scalar.Packing.total_cost
    vector.Vec_simulator.r_total_cost;
  Alcotest.(check string)
    (what ^ ": cost string")
    (Rat.to_string scalar.Packing.total_cost)
    (Rat.to_string vector.r_total_cost);
  Alcotest.(check int) (what ^ ": max bins") scalar.Packing.max_bins
    vector.r_max_bins;
  Alcotest.(check int)
    (what ^ ": violations") scalar.Packing.any_fit_violations
    vector.r_any_fit_violations;
  Alcotest.(check (array int))
    (what ^ ": assignment") scalar.Packing.assignment vector.r_assignment;
  Alcotest.check step_fn (what ^ ": timeline") scalar.Packing.timeline
    vector.r_timeline;
  Alcotest.(check int)
    (what ^ ": bin count")
    (Array.length scalar.Packing.bins)
    (Array.length vector.r_bins);
  Array.iteri
    (fun i (sb : Packing.bin_record) ->
      let id, tag, capacity, opened, closed, item_ids, placements, max_level =
        vec_of_packing_bin vector.r_bins.(i)
      in
      Alcotest.(check int) (what ^ ": bin id") sb.Packing.bin_id id;
      Alcotest.(check string) (what ^ ": bin tag") sb.tag tag;
      Alcotest.check vec
        (what ^ ": bin capacity")
        (Vec.scalar sb.capacity) capacity;
      check_rat (what ^ ": bin opened") sb.opened opened;
      check_rat (what ^ ": bin closed") sb.closed closed;
      Alcotest.(check (list int)) (what ^ ": bin items") sb.item_ids item_ids;
      Alcotest.(check bool)
        (what ^ ": bin placements") true
        (List.length sb.placements = List.length placements
        && List.for_all2
             (fun (t1, i1) (t2, i2) -> Rat.equal t1 t2 && i1 = i2)
             sb.placements placements);
      Alcotest.check vec (what ^ ": bin peak") (Vec.scalar sb.max_level)
        max_level)
    scalar.Packing.bins;
  Alcotest.(check string)
    (what ^ ": trace bytes") (Buffer.contents sbuf) (Buffer.contents vbuf);
  Alcotest.(check bool)
    (what ^ ": metrics") true
    (Dbp_obs.Metrics.counters smet = Dbp_obs.Metrics.counters vmet
    && Dbp_obs.Metrics.gauges smet = Dbp_obs.Metrics.gauges vmet
    && List.length (Dbp_obs.Metrics.rat_sums smet)
       = List.length (Dbp_obs.Metrics.rat_sums vmet)
    && List.for_all2
         (fun (n1, r1) (n2, r2) -> String.equal n1 n2 && Rat.equal r1 r2)
         (Dbp_obs.Metrics.rat_sums smet)
         (Dbp_obs.Metrics.rat_sums vmet));
  match Vec_simulator.validate vector with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: vector validate: %s" what e

let embedding_seeds = [ 5L; 42L; 1234L ]

(* Every registry policy, lifted: the vector engine replays the scalar
   decisions, trace and metrics byte-for-byte. *)
let test_lifted_embedding () =
  List.iter
    (fun seed ->
      let instance =
        Dbp_workload.Generator.generate ~seed
          { Dbp_workload.Spec.default with Dbp_workload.Spec.count = 300 }
      in
      List.iter
        (fun (sp : Policy.t) ->
          check_embedded
            ~what:(Printf.sprintf "seed %Ld lifted %s" seed sp.Policy.name)
            instance (Vec_policy.lift_scalar sp) sp)
        (Algorithms.all ~seed ()))
    embedding_seeds

(* The native vector Any Fit family makes the scalar decisions at d=1
   (norms reduce to residual/W); only the policy name differs. *)
let test_native_twins () =
  let instance =
    Dbp_workload.Generator.generate ~seed:42L
      { Dbp_workload.Spec.default with Dbp_workload.Spec.count = 300 }
  in
  List.iter
    (fun (vp : Vec_policy.t) ->
      match vp.Vec_policy.scalar with
      | None -> ()
      | Some sp ->
          check_embedded ~compare_names:false
            ~what:(Printf.sprintf "native %s" vp.Vec_policy.name)
            instance vp sp)
    Vec_policy.all

(* QCheck: random instances, every policy, engines bit-identical. *)
let embedding_property =
  QCheck2.Test.make ~count:60 ~name:"d=1 vector run embeds scalar run"
    (instance_gen ~max_items:25 ())
    (fun instance ->
      List.iter
        (fun (sp : Policy.t) ->
          check_embedded
            ~what:("qcheck " ^ sp.Policy.name)
            instance
            (Vec_policy.lift_scalar sp)
            sp)
        (Algorithms.all ());
      true)

(* ---- genuinely multi-dimensional runs ------------------------------- *)

(* Hand-built d=2 instance: item 1 fits bin 0 on dimension 0 but not on
   dimension 1, so component-wise fitting must open a second bin. *)
let test_d2_componentwise_fit () =
  let capacity = v [ (1, 1); (1, 1) ] in
  let item ~id size arrival departure =
    {
      Vec_instance.id;
      size;
      arrival = ri arrival;
      departure = ri departure;
    }
  in
  let inst =
    Vec_instance.create ~capacity
      [
        item ~id:0 (v [ (1, 4); (3, 4) ]) 0 10;
        item ~id:1 (v [ (1, 4); (1, 2) ]) 1 10;
        item ~id:2 (v [ (1, 2); (1, 4) ]) 2 10;
      ]
  in
  let result =
    Vec_simulator.run ~audit:true ~policy:Vec_policy.first_fit inst
  in
  (* Item 1 needs 1/2 on dim 1 where bin 0 has only 1/4 left; item 2
     then fits bin 0 exactly. *)
  Alcotest.(check (array int)) "assignment" [| 0; 1; 0 |] result.r_assignment;
  Alcotest.(check int) "max bins" 2 result.r_max_bins;
  check_rat "cost" (ri 19) result.r_total_cost;
  (match Vec_simulator.validate result with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validate: %s" e);
  Alcotest.check vec "peak bin 0"
    (v [ (3, 4); (1, 1) ])
    result.r_bins.(0).vr_max_level

let test_d2_norms_disagree () =
  (* A residual profile where the max and sum norms rank bins
     differently: residuals (1/2, 1/2) vs (3/5, 1/5).
     max: 1/2 < 3/5 picks the first; sum: 1 > 4/5 picks the second. *)
  let capacity = v [ (1, 1); (1, 1) ] in
  let item ~id size arrival departure =
    {
      Vec_instance.id;
      size;
      arrival = ri arrival;
      departure = ri departure;
    }
  in
  let inst =
    Vec_instance.create ~capacity
      [
        item ~id:0 (v [ (1, 2); (1, 2) ]) 0 10;
        item ~id:1 (v [ (2, 5); (4, 5) ]) 0 10;
        item ~id:2 (v [ (1, 20); (1, 10) ]) 1 10;
      ]
  in
  let run p = (Vec_simulator.run ~audit:true ~policy:p inst).r_assignment in
  Alcotest.(check (array int))
    "best-fit:max" [| 0; 1; 0 |]
    (run (Vec_policy.best_fit Vec_policy.Max));
  Alcotest.(check (array int))
    "best-fit:sum" [| 0; 1; 1 |]
    (run (Vec_policy.best_fit Vec_policy.Sum))

let d2_instance_gen_static seed =
  let rng = Dbp_rand.Splitmix64.create seed in
  let items =
    List.init 120 (fun id ->
        let comp () = Rat.make (1 + Dbp_rand.Splitmix64.next_int rng 40) 40 in
        let arrival = Rat.make (Dbp_rand.Splitmix64.next_int rng 200) 4 in
        let dur = Rat.add Rat.one (Rat.make (Dbp_rand.Splitmix64.next_int rng 16) 4) in
        {
          Vec_instance.id;
          size = Vec.make [ comp (); comp () ];
          arrival;
          departure = Rat.add arrival dur;
        })
  in
  Vec_instance.create ~capacity:(Vec.ones ~dims:2) items

(* ---- checkpointing --------------------------------------------------- *)

(* Freeze mid-run, thaw, replay the tail: identical to the
   uninterrupted run; freeze of the thawed engine equals the image. *)
let test_checkpoint_resume () =
  let inst = d2_instance_gen_static 99L in
  List.iter
    (fun (vp : Vec_policy.t) ->
      let whole = Vec_simulator.run ~audit:true ~policy:vp inst in
      let events = Vec_instance.sorted_events inst in
      let cut = Array.length events / 2 in
      let eng =
        Vec_simulator.Online.create ~audit:true ~policy:vp
          ~capacity:(Vec_instance.capacity inst) ()
      in
      Array.iteri
        (fun i ev -> if i < cut then Vec_simulator.apply_event eng ev)
        events;
      let image = Vec_simulator.Online.freeze eng in
      let eng2 = Vec_simulator.Online.thaw ~audit:true ~policy:vp image in
      Alcotest.(check bool)
        (vp.Vec_policy.name ^ ": refreeze equals image")
        true
        (Vec_simulator.Online.freeze eng2 = image);
      Array.iteri
        (fun i ev -> if i >= cut then Vec_simulator.apply_event eng2 ev)
        events;
      let resumed = Vec_simulator.Online.finish eng2 ~instance:inst in
      check_rat
        (vp.Vec_policy.name ^ ": resumed cost")
        whole.r_total_cost resumed.r_total_cost;
      Alcotest.(check (array int))
        (vp.Vec_policy.name ^ ": resumed assignment")
        whole.r_assignment resumed.r_assignment;
      Alcotest.check step_fn
        (vp.Vec_policy.name ^ ": resumed timeline")
        whole.r_timeline resumed.r_timeline)
    Vec_policy.all

(* Vector snapshots: dbp-checkpoint/2 serialisation round-trips, the
   resumed run is bit-identical (driver-level verify), and inspect
   summarises without an instance. *)
let test_vector_snapshot () =
  let inst = d2_instance_gen_static 13L in
  let total = Array.length (Vec_instance.sorted_events inst) in
  List.iter
    (fun at ->
      let snap =
        Dbp_checkpoint.Checkpoint.save_vector_at ~policy_name:"best-fit:sum"
          ~at inst
      in
      let text = Dbp_checkpoint.Snapshot.to_string snap in
      Alcotest.(check bool)
        (Printf.sprintf "at %d: schema v2" at)
        true
        (String.length text > 30
        && String.sub text 0 30 = "{\"schema\":\"dbp-checkpoint/2\",\"");
      (match Dbp_checkpoint.Snapshot.of_string text with
      | Error e -> Alcotest.failf "at %d: parse failed: %s" at e
      | Ok snap2 ->
          Alcotest.(check string)
            (Printf.sprintf "at %d: byte round trip" at)
            text
            (Dbp_checkpoint.Snapshot.to_string snap2);
          let v = Dbp_checkpoint.Checkpoint.verify_vector inst snap2 in
          if not v.Dbp_checkpoint.Checkpoint.ok then
            Alcotest.failf "at %d: verify: %s" at
              (String.concat "; " v.mismatches));
      let summary = Dbp_checkpoint.Checkpoint.inspect snap in
      Alcotest.(check bool)
        (Printf.sprintf "at %d: inspect names the kind" at)
        true
        (String.length summary > 0))
    [ 0; total / 3; total ]

let suite =
  [
    Alcotest.test_case "vec basics" `Quick test_vec_basics;
    Alcotest.test_case "vec norms" `Quick test_vec_norms;
    Alcotest.test_case "vec strings" `Quick test_vec_strings;
    Alcotest.test_case "lifted embedding" `Quick test_lifted_embedding;
    Alcotest.test_case "native twins" `Quick test_native_twins;
    QCheck_alcotest.to_alcotest embedding_property;
    Alcotest.test_case "d2 componentwise fit" `Quick test_d2_componentwise_fit;
    Alcotest.test_case "d2 norms disagree" `Quick test_d2_norms_disagree;
    Alcotest.test_case "checkpoint resume" `Quick test_checkpoint_resume;
    Alcotest.test_case "vector snapshot" `Quick test_vector_snapshot;
  ]
