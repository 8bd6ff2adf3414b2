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

let readable ?(timeout = 1.0) fd =
  match Unix.select [ fd ] [] [] timeout with [], _, _ -> false | _ -> true

let test_pool_failure_contract () =
  let pool =
    Shard_pool.create ~shards:2 ~handler:(fun ~shard:_ req ->
        if req = 13 then failwith "boom-13";
        [ req ])
  in
  (* Shard 1 may fail while the loop still runs; from then on submit
     refuses with [Stopped], as documented, so the loop stops there. *)
  let rec submit_from i =
    if i <= 30 then
      match Shard_pool.submit pool ~shard:(i mod 2) i with
      | () -> submit_from (i + 1)
      | exception Shard_pool.Stopped -> ()
  in
  submit_from 0;
  (match Shard_pool.quiesce pool with
  | _ -> Alcotest.fail "quiesce should re-raise the shard failure"
  | exception Failure msg ->
      Alcotest.(check string) "original exception" "boom-13" msg);
  (match Shard_pool.submit pool ~shard:0 99 with
  | () -> Alcotest.fail "submit should refuse after a failure"
  | exception Shard_pool.Stopped -> ());
  Alcotest.(check bool) "wake-up descriptor readable once the failure is parked"
    true
    (readable (Shard_pool.wakeup_fd pool));
  (* Shutdown re-raises the parked failure after joining domains. *)
  match Shard_pool.shutdown pool with
  | _ -> Alcotest.fail "shutdown should re-raise the shard failure"
  | exception Failure msg ->
      Alcotest.(check string) "parked failure" "boom-13" msg

(* A failure is a wake-up of its own: with no response ever posted, the
   byte the owner wakes on can only be the failure's, and [poll]
   re-raises the handler's exception. *)
let test_pool_poll_reraises () =
  let pool =
    Shard_pool.create ~shards:1 ~handler:(fun ~shard:_ _ -> failwith "boom-poll")
  in
  Shard_pool.submit pool ~shard:0 ();
  Alcotest.(check bool) "a parked failure wakes the owner" true
    (readable (Shard_pool.wakeup_fd pool));
  (match Shard_pool.poll pool with
  | _ -> Alcotest.fail "poll should re-raise the shard failure"
  | exception Failure msg ->
      Alcotest.(check string) "original exception" "boom-poll" msg);
  match Shard_pool.shutdown pool with
  | _ -> Alcotest.fail "shutdown should re-raise the shard failure"
  | exception Failure _ -> ()

(* The owner polls only when [select] says the wake-up descriptor is
   readable.  Bursts of requests (every third answered with nothing)
   alternate with pauses and with waits for every answer; a wait that
   times out with an answer still owed is a lost wake-up. *)
let prop_wakeup_storm =
  qcheck ~count:200 "no lost wake-up under bursts and pauses"
    QCheck2.Gen.(
      pair (int_range 1 3)
        (list_size (int_range 1 12) (pair (int_range 0 64) (int_range 0 3))))
    (fun (shards, script) ->
      let pool =
        Shard_pool.create ~shards ~handler:(fun ~shard:_ r ->
            if r mod 3 = 0 then [] else [ r ])
      in
      let fd = Shard_pool.wakeup_fd pool in
      let sent = ref 0 and owed = ref 0 and got = ref 0 and lost = ref false in
      let take () = got := !got + List.length (Shard_pool.poll pool) in
      let wait_all () =
        while (not !lost) && !got < !owed do
          if readable fd then take () else lost := true
        done
      in
      List.iter
        (fun (burst, pause) ->
          for _ = 1 to burst do
            Shard_pool.submit pool ~shard:(!sent mod shards) !sent;
            if !sent mod 3 <> 0 then incr owed;
            incr sent;
            if readable ~timeout:0.0 fd then take ()
          done;
          if pause = 0 then wait_all ()
          else Unix.sleepf (float_of_int pause *. 1e-4))
        script;
      wait_all ();
      ignore (Shard_pool.shutdown pool);
      (not !lost) && !got = !owed)

(* Each pool owns a pipe; shutdown closes both ends, also when it
   re-raises a parked failure. *)
let test_pool_fds_released () =
  let fd_dir = "/proc/self/fd" in
  if Sys.file_exists fd_dir then begin
    let count () = Array.length (Sys.readdir fd_dir) in
    let before = count () in
    for cycle = 1 to 50 do
      let failing = cycle mod 2 = 0 in
      let pool =
        Shard_pool.create ~shards:2 ~handler:(fun ~shard:_ r ->
            if failing then failwith "boom-fd";
            [ r ])
      in
      Shard_pool.submit pool ~shard:(cycle mod 2) cycle;
      match Shard_pool.shutdown pool with
      | _ -> if failing then Alcotest.fail "shutdown should re-raise"
      | exception Failure _ -> ()
    done;
    Alcotest.(check int) "open descriptors after 50 pools" before (count ())
  end

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

(* ---- the wire: prompt answers, exact bytes, one connection at a time -- *)

(* The wire format as a Printf format string: the oracle the in-place
   formatter must match byte for byte. *)
let oracle_line (p : Serve.placement) =
  Printf.sprintf {|{"kind":"place","seq":%d,"item":%d,"bin":%d,"shard":%d}|}
    p.Serve.p_seq p.Serve.p_item p.Serve.p_bin p.Serve.p_shard

let placement_gen =
  let field = QCheck2.Gen.(oneof [ oneofl [ 0; max_int; min_int; -1 ]; int ]) in
  QCheck2.Gen.map4
    (fun s i b k -> { Serve.p_seq = s; p_item = i; p_bin = b; p_shard = k })
    field field field field

let drain_available fd into =
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | n when n > 0 ->
        Buffer.add_subbytes into chunk 0 n;
        go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ()

let prop_outbuf_bytes =
  qcheck ~count:200 "buffered placement bytes equal placement_line"
    QCheck2.Gen.(
      list_size (int_range 0 400) (pair placement_gen (int_range 0 7)))
    (fun script ->
      let r, w = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock r;
      Unix.set_nonblock w;
      let ob = Serve.Outbuf.create () and got = Buffer.create 4096 in
      let flush () =
        Serve.Outbuf.write_some ob w;
        drain_available r got
      in
      List.iter
        (fun (p, f) ->
          Serve.Outbuf.add_placement ob p;
          if f = 0 then flush ())
        script;
      while not (Serve.Outbuf.is_empty ob) do
        flush ()
      done;
      Unix.close r;
      Unix.close w;
      let ps = List.map fst script in
      List.for_all (fun p -> Serve.placement_line p = oracle_line p) ps
      && Buffer.contents got
         = String.concat "" (List.map (fun p -> Serve.placement_line p ^ "\n") ps))

(* Lines from a connection, each awaited for at most [timeout]
   seconds; [None] at end of stream. *)
type line_reader = { rfd : Unix.file_descr; part : Buffer.t; chunk : Bytes.t }

let line_reader ?(chunk = 4096) rfd =
  { rfd; part = Buffer.create 256; chunk = Bytes.create chunk }

let read_line ?(timeout = 5.0) lr =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let s = Buffer.contents lr.part in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear lr.part;
        Buffer.add_substring lr.part s (i + 1) (String.length s - i - 1);
        Some (String.sub s 0 i)
    | None -> (
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0.0 then Alcotest.fail "no line from the daemon in time";
        match Unix.select [ lr.rfd ] [] [] left with
        | [], _, _ -> go ()
        | _ -> (
            match Unix.read lr.rfd lr.chunk 0 (Bytes.length lr.chunk) with
            | 0 ->
                Buffer.clear lr.part;
                if s = "" then None else Some s
            | n ->
                Buffer.add_subbytes lr.part lr.chunk 0 n;
                go ()))
  in
  go ()

let read_all ?timeout lr =
  let rec go acc =
    match read_line ?timeout lr with
    | None -> List.rev acc
    | Some l -> go (l :: acc)
  in
  go []

let write_all fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let arrive_line ~seq ~time ~item ~size =
  Printf.sprintf {|{"seq":%d,"t":"%d","kind":"arrive","item":%d,"size":"%s"}|}
    seq time item size
  ^ "\n"

let depart_line ~seq ~time ~item =
  Printf.sprintf
    {|{"seq":%d,"t":"%d","kind":"depart","item":%d,"bin":-1,"held":"0"}|} seq
    time item
  ^ "\n"

let int_fields line =
  match Dbp_obs.Trace_event.parse_flat_object line with
  | Error e -> Alcotest.failf "reply %S: %s" line e
  | Ok fields ->
      fun key ->
        match List.assoc_opt key fields with
        | Some (Dbp_obs.Trace_event.Int i) -> i
        | _ -> Alcotest.failf "reply %S has no %s" line key

let is_kind kind line =
  contains ~sub:(Printf.sprintf {|{"kind":"%s"|} kind) line

(* The daemon side of a socketpair on a background domain. *)
let with_stream_daemon cfg f =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let join =
    Shard_pool.spawn_background (fun () ->
        Fun.protect
          ~finally:(fun () -> Unix.close a)
          (fun () -> Serve.run_stream cfg ~input:a ~output:a ()))
  in
  let v = Fun.protect ~finally:(fun () -> Unix.close b) (fun () -> f b) in
  match join () with
  | Ok _ -> v
  | Error e -> Alcotest.failf "daemon: %s" e

(* A client that sends one arrival and waits gets its answer as soon as
   the shard has placed it, not on the loop's 0.2 s timeout. *)
let test_lone_arrivals_answered () =
  with_stream_daemon (Serve.default_config ()) (fun fd ->
      let lr = line_reader fd in
      for i = 0 to 19 do
        let t0 = Unix.gettimeofday () in
        write_all fd (arrive_line ~seq:i ~time:(i + 1) ~item:i ~size:"1/100");
        match read_line lr with
        | None -> Alcotest.fail "daemon closed the stream"
        | Some line ->
            let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
            Alcotest.(check int) "answer to this arrival" i (int_fields line "seq");
            if ms > 50.0 then
              Alcotest.failf "arrival %d answered after %.1f ms" i ms
      done;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      match read_all lr with
      | [ summary ] ->
          Alcotest.(check bool) "summary last" true (is_kind "summary" summary)
      | lines -> Alcotest.failf "%d lines after the stream ended" (List.length lines))

(* The whole stream goes in before the client reads a byte, so the
   daemon's buffer backs up behind a full socket; the client then
   drains it 97 bytes at a time.  Every arrival is answered exactly
   once, under its own sequence number. *)
let test_slow_reader_every_line_once () =
  let n = 20_000 in
  let stream = Buffer.create (n * 140) in
  let item_of_seq = Hashtbl.create n in
  let seq = ref 0 in
  for i = 0 to n - 1 do
    Buffer.add_string stream
      (arrive_line ~seq:!seq ~time:(2 * i) ~item:i ~size:"1/10");
    Hashtbl.replace item_of_seq !seq i;
    incr seq;
    if i >= 5 then begin
      Buffer.add_string stream
        (depart_line ~seq:!seq ~time:((2 * i) + 1) ~item:(i - 5));
      incr seq
    end
  done;
  with_stream_daemon (Serve.default_config ()) (fun fd ->
      write_all fd (Buffer.contents stream);
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let lines = read_all (line_reader ~chunk:97 fd) in
      let seen = Hashtbl.create n in
      let places = List.filter (is_kind "place") lines in
      List.iter
        (fun line ->
          let get = int_fields line in
          let s = get "seq" in
          if Hashtbl.mem seen s then Alcotest.failf "seq %d answered twice" s;
          Hashtbl.replace seen s ();
          match Hashtbl.find_opt item_of_seq s with
          | Some item -> Alcotest.(check int) "item of its seq" item (get "item")
          | None -> Alcotest.failf "seq %d is not an arrival" s)
        places;
      Alcotest.(check int) "one answer per arrival" n (Hashtbl.length seen);
      Alcotest.(check int) "answers plus one summary" (n + 1) (List.length lines);
      Alcotest.(check bool) "summary last" true
        (is_kind "summary" (List.nth lines n)))

(* One bad client must not take the fleet down.  Three clients in turn
   on one daemon: one floods arrivals and hangs up without reading,
   one sends a malformed line, and one departs a session the first
   left behind, then replays its own.  The daemon keeps serving, none
   of the first client's placements reach a later one, and it returns
   [Ok] when told to stop. *)
let test_listener_outlives_bad_clients () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dbp-serve-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  let lfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 4;
  let stop = Atomic.make false in
  let cfg = { (Serve.default_config ()) with Serve.grid_den = Some 1000 } in
  let join =
    Shard_pool.spawn_background (fun () ->
        Serve.run_listener cfg ~should_stop:(fun () -> Atomic.get stop) lfd)
  in
  let connect () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  in
  let own = 40 in
  Fun.protect
    ~finally:(fun () -> Atomic.set stop true)
    (fun () ->
      (* 1: flood, then hang up with every placement unread. *)
      let fd = connect () in
      let flood = Buffer.create (30_000 * 70) in
      for i = 0 to 29_999 do
        Buffer.add_string flood
          (arrive_line ~seq:i ~time:1 ~item:i ~size:"1/1000")
      done;
      (match write_all fd (Buffer.contents flood) with
      | () -> ()
      | exception Unix.Unix_error (Unix.EPIPE, _, _) -> ());
      Unix.close fd;
      (* 2: one malformed line, one error line back, then the close. *)
      let fd = connect () in
      write_all fd "garbage\n";
      let lines = read_all (line_reader fd) in
      Unix.close fd;
      (match lines with
      | [ line ] ->
          Alcotest.(check bool) "an error line" true (is_kind "error" line)
      | _ ->
          Alcotest.failf "malformed client got %d lines, want 1"
            (List.length lines));
      (* 3: depart the flood's item 0, then a stream of its own. *)
      let fd = connect () in
      let stream = Buffer.create 4096 in
      Buffer.add_string stream (depart_line ~seq:0 ~time:2 ~item:0);
      for j = 0 to own - 1 do
        Buffer.add_string stream
          (arrive_line ~seq:(1 + j) ~time:(3 + j) ~item:(1_000_000 + j)
             ~size:"1/4")
      done;
      for j = 0 to own - 1 do
        Buffer.add_string stream
          (depart_line ~seq:(1 + own + j) ~time:(3 + own + j)
             ~item:(1_000_000 + j))
      done;
      write_all fd (Buffer.contents stream);
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let lines = read_all (line_reader fd) in
      Unix.close fd;
      let places = List.filter (is_kind "place") lines in
      Alcotest.(check int) "one answer per own arrival" own
        (List.length places);
      List.iteri
        (fun j line ->
          let get = int_fields line in
          Alcotest.(check int) "own sequence number" (1 + j) (get "seq");
          Alcotest.(check int) "own item" (1_000_000 + j) (get "item"))
        (List.sort
           (fun a b -> compare (int_fields a "seq") (int_fields b "seq"))
           places);
      match List.filter (fun l -> not (is_kind "place" l)) lines with
      | [ summary ] ->
          Alcotest.(check bool) "summary line" true (is_kind "summary" summary);
          Alcotest.(check int) "the flood's item 0 departed too" (own + 1)
            (int_fields summary "departures")
      | _ -> Alcotest.failf "replay client got %d other lines" (List.length lines - own));
  let result = join () in
  Unix.close lfd;
  Sys.remove path;
  match result with
  | Ok su ->
      Alcotest.(check int) "departures in the final summary" (own + 1)
        su.Serve.su_departures
  | Error e -> Alcotest.failf "daemon stopped: %s" e

(* A second replay of the same trace is rejected at its first event
   (it precedes the fleet clock), and the daemon closes while the
   client is still sending: the client must report the daemon's error
   line, not its own broken pipe. *)
let test_replay_rejected_names_daemon_error () =
  Serve.ignore_sigpipe ();
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dbp-serve-replay-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  let lfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 4;
  let stop = Atomic.make false in
  let cfg = { (Serve.default_config ()) with Serve.grid_den = Some 10000 } in
  let join =
    Shard_pool.spawn_background (fun () ->
        Serve.run_listener cfg ~should_stop:(fun () -> Atomic.get stop) lfd)
  in
  let instance =
    Dbp_workload.Generator.generate ~seed:42L
      { Dbp_workload.Spec.default with Dbp_workload.Spec.count = 20_000 }
  in
  let replay () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.connect fd (Unix.ADDR_UNIX path);
        Serve.replay_client fd instance)
  in
  (* The daemon stops and its socket goes even when a check fails. *)
  let daemon = ref (Ok ()) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      daemon := Result.map ignore (join ());
      Unix.close lfd;
      Sys.remove path)
    (fun () ->
      (match replay () with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "first replay failed: %s" e);
      for attempt = 1 to 10 do
        match replay () with
        | Ok _ -> Alcotest.failf "replay %d of an old stream succeeded" attempt
        | Error e ->
            if not (contains ~sub:"precedes the stream clock" e) then
              Alcotest.failf "replay %d: want the daemon's error, got %S"
                attempt e
      done);
  match !daemon with
  | Ok () -> ()
  | Error e -> Alcotest.failf "daemon stopped: %s" e

let suite =
  [
    Alcotest.test_case "shard pool FIFO per shard" `Quick
      test_pool_fifo_per_shard;
    Alcotest.test_case "shard pool batch drain" `Quick
      test_pool_batches_survive_idle;
    Alcotest.test_case "shard pool failure contract" `Quick
      test_pool_failure_contract;
    Alcotest.test_case "shard pool poll re-raises a failure" `Quick
      test_pool_poll_reraises;
    prop_wakeup_storm;
    Alcotest.test_case "shard pool releases its descriptors" `Quick
      test_pool_fds_released;
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
    prop_outbuf_bytes;
    Alcotest.test_case "lone arrivals answered within 50 ms" `Quick
      test_lone_arrivals_answered;
    Alcotest.test_case "slow reader gets every line once" `Quick
      test_slow_reader_every_line_once;
    Alcotest.test_case "listener outlives bad clients" `Quick
      test_listener_outlives_bad_clients;
    prop_one_shard_cost;
    prop_shard_costs_sum;
    Alcotest.test_case "rejected replay names the daemon's error" `Quick
      test_replay_rejected_names_daemon_error;
  ]
