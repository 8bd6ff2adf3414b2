(* The fleet service: shard-pool ordering and failure contracts, the
   router's pool split, bit-identity of a one-shard fleet against the
   batch simulator, exact cost additivity across shards, shard-loss
   degradation under migration budgets, and the socketpair replay
   path end-to-end. *)

open Dbp_num
open Dbp_core
open Dbp_serve
open Test_util

(* ---- shard pool ------------------------------------------------------ *)

let test_pool_fifo_per_shard () =
  let pool =
    Shard_pool.create ~shards:3 ~handler:(fun ~shard req ->
        [ (shard * 1000) + (req * 2) ])
  in
  for i = 0 to 99 do
    Shard_pool.submit pool ~shard:(i mod 3) i
  done;
  let out = Shard_pool.quiesce pool in
  Alcotest.(check int) "one response per request" 100 (List.length out);
  (* Within a shard the mailbox is FIFO, so responses come back in
     submission order even though shards interleave arbitrarily. *)
  for k = 0 to 2 do
    let mine = List.filter_map
        (fun (shard, r) -> if shard = k then Some r else None)
        out
    in
    let expected =
      List.init 100 Fun.id
      |> List.filter (fun i -> i mod 3 = k)
      |> List.map (fun i -> (k * 1000) + (i * 2))
    in
    Alcotest.(check (list int))
      (Printf.sprintf "shard %d FIFO" k)
      expected mine
  done;
  Alcotest.(check (list (pair int int))) "shutdown drains nothing" []
    (Shard_pool.shutdown pool)

let test_pool_batches_survive_idle () =
  (* Responses submitted while the worker sleeps are all processed by
     the next wakeup; poll eventually sees every one. *)
  let pool = Shard_pool.create ~shards:1 ~handler:(fun ~shard:_ r -> [ r ]) in
  for round = 0 to 4 do
    for i = 0 to 19 do
      Shard_pool.submit pool ~shard:0 ((round * 20) + i)
    done;
    ignore (Shard_pool.poll pool)
  done;
  let rest = Shard_pool.quiesce pool in
  ignore (Shard_pool.shutdown pool);
  Alcotest.(check bool) "quiesce flushed the tail" true
    (List.length rest <= 100)

let test_pool_failure_contract () =
  let pool =
    Shard_pool.create ~shards:2 ~handler:(fun ~shard:_ req ->
        if req = 13 then failwith "boom-13";
        [ req ])
  in
  for i = 0 to 30 do
    Shard_pool.submit pool ~shard:(i mod 2) i
  done;
  (match Shard_pool.quiesce pool with
  | _ -> Alcotest.fail "quiesce should re-raise the shard failure"
  | exception Failure msg ->
      Alcotest.(check string) "original exception" "boom-13" msg);
  (match Shard_pool.submit pool ~shard:0 99 with
  | () -> Alcotest.fail "submit should refuse after a failure"
  | exception Shard_pool.Stopped -> ());
  (* Shutdown re-raises the parked failure after joining domains. *)
  match Shard_pool.shutdown pool with
  | _ -> Alcotest.fail "shutdown should re-raise the shard failure"
  | exception Failure msg ->
      Alcotest.(check string) "parked failure" "boom-13" msg

(* ---- router ---------------------------------------------------------- *)

let test_router_pool_split () =
  let router =
    Router.create ~policy:Router.Size_class ~shards:4 ~capacity:Rat.one
      ~k:Rat.two
  in
  let alive _ = true in
  (* Large items (>= 1/2) own shard 0, MFF's dedicated pool. *)
  Alcotest.(check int) "large -> shard 0" 0
    (Router.route router ~alive ~size:(r 1 2) ~item_id:7);
  Alcotest.(check int) "whole bin -> shard 0" 0
    (Router.route router ~alive ~size:Rat.one ~item_id:8);
  (* Small items spread over 1..shards-1 by size class, never shard 0,
     and identically-sized items land together. *)
  List.iter
    (fun (num, den) ->
      let s1 = Router.route router ~alive ~size:(r num den) ~item_id:1 in
      let s2 = Router.route router ~alive ~size:(r num den) ~item_id:999 in
      Alcotest.(check int)
        (Printf.sprintf "size %d/%d is sticky" num den)
        s1 s2;
      Alcotest.(check bool) "small avoids the large pool" true (s1 >= 1))
    [ (1, 3); (1, 4); (1, 7); (2, 5); (1, 100) ];
  (* A dead nominal shard reroutes to a live one. *)
  let nominal = Router.route router ~alive ~size:(r 1 3) ~item_id:1 in
  let rerouted =
    Router.route router
      ~alive:(fun s -> s <> nominal)
      ~size:(r 1 3) ~item_id:1
  in
  Alcotest.(check bool) "reroutes off a dead shard" true (rerouted <> nominal)

(* ---- fleet vs batch simulator --------------------------------------- *)

let fleet_summary ?(shards = 1) ?(budget = Dbp_repack.Budget.unlimited)
    ~policy instance =
  let cfg =
    {
      (Serve.default_config ()) with
      Serve.shards;
      policy;
      policy_name = policy.Policy.name;
      capacity = Instance.capacity instance;
      budget;
    }
  in
  let fleet = Serve.Fleet.create cfg in
  let events = Event.sorted_array_of_instance instance in
  Array.iteri
    (fun i (e : Event.t) ->
      match e.Event.kind with
      | Event.Arrival ->
          Serve.Fleet.arrive fleet ~seq:i ~now:e.Event.time
            ~size:e.Event.item.Item.size ~item:e.Event.item.Item.id
      | Event.Departure ->
          Serve.Fleet.depart fleet ~now:e.Event.time
            ~item:e.Event.item.Item.id)
    events;
  let placements, frozen = Serve.Fleet.snapshot fleet in
  let su = Serve.Fleet.summarize fleet frozen in
  Serve.Fleet.shutdown fleet;
  (placements, su)

let test_one_shard_bit_identical () =
  List.iter
    (fun seed ->
      let instance =
        Dbp_workload.Generator.generate ~seed
          { Dbp_workload.Spec.default with Dbp_workload.Spec.count = 120 }
      in
      List.iter
        (fun (policy : Policy.t) ->
          let batch = Simulator.run ~policy instance in
          let placements, su = fleet_summary ~policy instance in
          Alcotest.(check string)
            (Printf.sprintf "cost string, %s seed %Ld" policy.Policy.name seed)
            (Rat.to_string batch.Packing.total_cost)
            (Rat.to_string su.Serve.su_cost);
          Alcotest.(check int)
            (Printf.sprintf "bins opened, %s seed %Ld" policy.Policy.name seed)
            (Array.length batch.Packing.bins)
            su.Serve.su_bins_opened;
          (* Same engine, same order: the fleet's placements are the
             batch assignment verbatim. *)
          List.iter
            (fun (p : Serve.placement) ->
              Alcotest.(check int)
                (Printf.sprintf "item %d bin" p.Serve.p_item)
                batch.Packing.assignment.(p.Serve.p_item)
                p.Serve.p_bin)
            placements)
        (Algorithms.all ()))
    [ 7L; 42L ]

let prop_one_shard_cost =
  qcheck ~count:40 "one-shard fleet cost bit-identical on random instances"
    (instance_gen ()) (fun instance ->
      List.for_all
        (fun (policy : Policy.t) ->
          let batch = Simulator.run ~policy instance in
          let _, su = fleet_summary ~policy instance in
          String.equal
            (Rat.to_string batch.Packing.total_cost)
            (Rat.to_string su.Serve.su_cost))
        [
          Option.get (Algorithms.find "first-fit");
          Option.get (Algorithms.find "best-fit");
          Option.get (Algorithms.find "mff");
        ])

let prop_shard_costs_sum =
  qcheck ~count:40 "fleet cost is the exact sum of per-shard costs"
    (instance_gen ()) (fun instance ->
      List.for_all
        (fun shards ->
          let _, su =
            fleet_summary ~shards
              ~policy:(Option.get (Algorithms.find "first-fit"))
              instance
          in
          let sum =
            Array.fold_left Rat.add Rat.zero su.Serve.su_shard_costs
          in
          Rat.equal sum su.Serve.su_cost
          && Array.length su.Serve.su_shard_costs = shards)
        [ 2; 3; 5 ])

(* ---- shard loss ------------------------------------------------------ *)

(* Three shards, one resident item on each: a large one on shard 0 and
   two smalls whose size classes land on shards 1 and 2. *)
let seed_three_shards fleet =
  Serve.Fleet.arrive fleet ~seq:0 ~now:Rat.one ~size:(r 3 4) ~item:0;
  Serve.Fleet.arrive fleet ~seq:1 ~now:Rat.one ~size:(r 1 4) ~item:1;
  Serve.Fleet.arrive fleet ~seq:2 ~now:Rat.one ~size:(r 1 3) ~item:2;
  ignore (Serve.Fleet.quiesce fleet)

let test_shard_loss_migrates () =
  let policy = Option.get (Algorithms.find "first-fit") in
  let cfg =
    { (Serve.default_config ()) with Serve.shards = 3; policy }
  in
  let fleet = Serve.Fleet.create cfg in
  seed_three_shards fleet;
  (* Fail both small shards.  Item 1 (size 1/4, class 4) starts on
     shard 1 and is rerouted to shard 2 when shard 1 dies; when shard
     2 dies both smalls move again to shard 0 — three migrations,
     nothing shed under an unlimited budget, and departures still
     resolve by client id. *)
  ignore (Serve.Fleet.fail_shard fleet ~now:Rat.two 1);
  ignore (Serve.Fleet.fail_shard fleet ~now:Rat.two 2);
  let _, frozen = Serve.Fleet.snapshot fleet in
  let su = Serve.Fleet.summarize fleet frozen in
  Alcotest.(check int) "nothing shed" 0 su.Serve.su_shed;
  Alcotest.(check int) "three migrations" 3 su.Serve.su_migrated;
  Alcotest.(check int) "all three still active" 3 su.Serve.su_active;
  Alcotest.(check int) "one live shard left" 1 su.Serve.su_live;
  Serve.Fleet.depart fleet ~now:(Rat.of_int 3) ~item:0;
  Serve.Fleet.depart fleet ~now:(Rat.of_int 3) ~item:1;
  Serve.Fleet.depart fleet ~now:(Rat.of_int 3) ~item:2;
  let _, frozen = Serve.Fleet.snapshot fleet in
  let su = Serve.Fleet.summarize fleet frozen in
  Serve.Fleet.shutdown fleet;
  Alcotest.(check int) "all departed" 0 su.Serve.su_active;
  Alcotest.(check int) "departures counted" 3 su.Serve.su_departures

let test_shard_loss_sheds_on_zero_budget () =
  let policy = Option.get (Algorithms.find "first-fit") in
  let cfg =
    {
      (Serve.default_config ()) with
      Serve.shards = 3;
      policy;
      budget = Dbp_repack.Budget.zero;
    }
  in
  let fleet = Serve.Fleet.create cfg in
  seed_three_shards fleet;
  ignore (Serve.Fleet.fail_shard fleet ~now:Rat.two 1);
  ignore (Serve.Fleet.fail_shard fleet ~now:Rat.two 2);
  let _, frozen = Serve.Fleet.snapshot fleet in
  let su = Serve.Fleet.summarize fleet frozen in
  Alcotest.(check int) "no recourse: nothing migrates" 0 su.Serve.su_migrated;
  Alcotest.(check int) "both smalls shed" 2 su.Serve.su_shed;
  Alcotest.(check int) "only the large survives" 1 su.Serve.su_active;
  (* A departure for a shed session is accepted silently — the client
     cannot know its session died with the shard. *)
  Serve.Fleet.depart fleet ~now:(Rat.of_int 3) ~item:1;
  (* But an unknown item is still a protocol error. *)
  (match Serve.Fleet.depart fleet ~now:(Rat.of_int 3) ~item:77 with
  | () -> Alcotest.fail "unknown depart should raise"
  | exception Serve.Protocol _ -> ());
  Serve.Fleet.shutdown fleet

let test_fail_last_shard_rejected () =
  let fleet = Serve.Fleet.create (Serve.default_config ()) in
  (match Serve.Fleet.fail_shard fleet ~now:Rat.one 0 with
  | _ -> Alcotest.fail "killing the last shard should be rejected"
  | exception Invalid_argument _ -> ());
  Serve.Fleet.shutdown fleet

(* ---- protocol validation --------------------------------------------- *)

let test_protocol_rejections () =
  let fleet = Serve.Fleet.create (Serve.default_config ()) in
  Serve.Fleet.arrive fleet ~seq:0 ~now:Rat.one ~size:(r 1 2) ~item:5;
  (match Serve.Fleet.arrive fleet ~seq:1 ~now:Rat.one ~size:(r 1 2) ~item:5 with
  | () -> Alcotest.fail "duplicate arrival should raise"
  | exception Serve.Protocol _ -> ());
  (match
     Serve.Fleet.arrive fleet ~seq:2 ~now:(r 1 2) ~size:(r 1 2) ~item:6
   with
  | () -> Alcotest.fail "time regression should raise"
  | exception Serve.Protocol _ -> ());
  (match Serve.Fleet.arrive fleet ~seq:3 ~now:Rat.two ~size:Rat.two ~item:7 with
  | () -> Alcotest.fail "oversized item should raise"
  | exception Serve.Protocol _ -> ());
  Serve.Fleet.shutdown fleet

(* A hostile event kind (newline, control byte, bare backslash) comes
   back quoted in the error reply: the reply must still be one NDJSON
   line the strict reader accepts, and its message must carry the
   client's kind intact. *)
let test_error_reply_framing () =
  let kind = "a\nb\001\\x" in
  let line = {|{"seq":0,"t":"0","kind":"a\nb\u0001\\x"}|} ^ "\n" in
  let in_r, in_w = Unix.pipe () and out_r, out_w = Unix.pipe () in
  ignore (Unix.write_substring in_w line 0 (String.length line));
  Unix.close in_w;
  let result =
    Serve.run_stream (Serve.default_config ()) ~input:in_r ~output:out_w ()
  in
  Unix.close in_r;
  Unix.close out_w;
  let buf = Buffer.create 256 and chunk = Bytes.create 256 in
  let rec drain () =
    match Unix.read out_r chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
  in
  drain ();
  Unix.close out_r;
  (match result with
  | Ok _ -> Alcotest.fail "a hostile kind was served"
  | Error _ -> ());
  match String.split_on_char '\n' (Buffer.contents buf) with
  | [ reply; "" ] -> (
      match Dbp_obs.Trace_event.parse_flat_object reply with
      | Error msg -> Alcotest.failf "reply is not one JSON object: %s" msg
      | Ok fields -> (
          match List.assoc_opt "message" fields with
          | Some (Dbp_obs.Trace_event.Str message) ->
              Alcotest.(check bool)
                "the message quotes the client's kind" true
                (contains ~sub:("\"" ^ kind ^ "\"") message)
          | _ -> Alcotest.fail "reply has no message"))
  | lines -> Alcotest.failf "expected one reply line, got %d" (List.length lines - 1)

(* ---- replay end-to-end ----------------------------------------------- *)

let test_replay_socketpair_end_to_end () =
  let instance =
    Dbp_workload.Generator.generate ~seed:23L
      { Dbp_workload.Spec.default with Dbp_workload.Spec.count = 60 }
  in
  let policy = Option.get (Algorithms.find "first-fit") in
  let cfg = { (Serve.default_config ()) with Serve.policy } in
  let batch = Simulator.run ~policy instance in
  let lines = ref 0 in
  match Serve.replay cfg ~echo:(fun _ -> incr lines) instance with
  | Error msg -> Alcotest.failf "replay failed: %s" msg
  | Ok summary ->
      Alcotest.(check bool) "summary line" true
        (contains ~sub:{|"kind":"summary"|} summary);
      Alcotest.(check bool) "cost bit-identical over the wire" true
        (contains
           ~sub:
             (Printf.sprintf {|"cost":"%s"|}
                (Rat.to_string batch.Packing.total_cost))
           summary);
      Alcotest.(check int) "every arrival answered"
        (Instance.size instance) !lines

let suite =
  [
    Alcotest.test_case "shard pool FIFO per shard" `Quick
      test_pool_fifo_per_shard;
    Alcotest.test_case "shard pool batch drain" `Quick
      test_pool_batches_survive_idle;
    Alcotest.test_case "shard pool failure contract" `Quick
      test_pool_failure_contract;
    Alcotest.test_case "router pool split" `Quick test_router_pool_split;
    Alcotest.test_case "one shard bit-identical" `Quick
      test_one_shard_bit_identical;
    Alcotest.test_case "shard loss migrates within budget" `Quick
      test_shard_loss_migrates;
    Alcotest.test_case "shard loss sheds on zero budget" `Quick
      test_shard_loss_sheds_on_zero_budget;
    Alcotest.test_case "last shard cannot fail" `Quick
      test_fail_last_shard_rejected;
    Alcotest.test_case "protocol rejections" `Quick test_protocol_rejections;
    Alcotest.test_case "error replies stay one NDJSON line" `Quick
      test_error_reply_framing;
    Alcotest.test_case "replay socketpair end-to-end" `Quick
      test_replay_socketpair_end_to_end;
    prop_one_shard_cost;
    prop_shard_costs_sum;
  ]
