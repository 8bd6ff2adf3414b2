(* The benchmark's own tests: the percentile and sample-count rule, the
   open-loop schedule arithmetic, the wire form of the generated
   stream, and a tiny smoke run of each workload against the real
   daemon and `dbp simulate`.

   Usage: test_perfbench.exe PATH-TO-DBP *)

open Dbp_num
open Dbp_core
open Dbp_perfbench
module TE = Dbp_obs.Trace_event

(* Absolute, since the smoke runs work in a temporary directory. *)
let dbp =
  let p = Sys.argv.(1) in
  if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p

(* ---- percentiles ------------------------------------------------------ *)

let test_rank () =
  Alcotest.(check int) "p99 of 1000 is rank 990" 990 (Stats.rank ~n:1000 ~p:99);
  Alcotest.(check int) "ten beyond it" 10 (Stats.beyond ~n:1000 ~p:99);
  Alcotest.(check bool) "1000 samples support a p99" true (Stats.supported ~n:1000 ~p:99);
  Alcotest.(check bool) "999 do not" false (Stats.supported ~n:999 ~p:99);
  Alcotest.(check bool) "nor does none" false (Stats.supported ~n:0 ~p:50);
  Alcotest.(check int) "p50 of one sample" 1 (Stats.rank ~n:1 ~p:50);
  Alcotest.(check int) "p100 is the last" 7 (Stats.rank ~n:7 ~p:100)

let test_percentile () =
  let a = Array.init 200 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p50" 100.0 (Stats.percentile a ~p:50);
  Alcotest.(check (float 0.0)) "p99" 198.0 (Stats.percentile a ~p:99);
  Alcotest.(check (float 0.0)) "p100" 200.0 (Stats.percentile a ~p:100);
  Alcotest.(check (float 0.0)) "odd median" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "even median" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

(* ---- the open-loop schedule ------------------------------------------ *)

let test_schedule () =
  let due = Stats.due_ns ~start_ns:1_000 ~rate:2000.0 in
  Alcotest.(check int) "first event at the start" 1_000 (due 0);
  Alcotest.(check int) "every 500 us" 501_000 (due 1);
  Alcotest.(check int) "no drift after an hour" (1_000 + 3_600_000_000_000) (due (2000 * 3600));
  let due = Stats.due_ns ~start_ns:0 ~rate:60_000.0 in
  for k = 0 to 10_000 do
    let gap = due (k + 1) - due k in
    if gap < 16_666 || gap > 16_667 then Alcotest.failf "gap %d ns after event %d" gap k
  done;
  Alcotest.(check int) "events in 1.2 s at 2000/s" 2400 (Stats.events_for ~rate:2000.0 ~seconds:1.2)

let test_ladder_grid () =
  for k = 0 to 300 do
    let r = Stats.ladder_rate (k + 1) /. Stats.ladder_rate k in
    if r <= 1.0 || r > 1.05 then Alcotest.failf "steps %d and %d are %.4fx apart" k (k + 1) r
  done;
  List.iter
    (fun rate ->
      let k = Stats.ladder_index_below rate in
      if Stats.ladder_rate k > rate || Stats.ladder_rate (k + 1) <= rate then
        Alcotest.failf "ladder_index_below %.1f = %d" rate k)
    [ 1000.0; 1039.9; 1040.0; 12_345.6; 60_000.0; 1.0e6 ]

(* A phase is invalid when the generator was late on most events, or
   very late at the end; a few host stalls leave it valid. *)
let test_behind () =
  let phase late =
    let s = Client.Samples.create () in
    List.iter (Client.Samples.add s) late;
    { Client.o_rate = 2000.0; o_lat = Client.Samples.create (); o_late = s; o_arrivals = 0;
      o_backlogged = false; o_inflight_max = 0 }
  in
  let on_time = List.init 99 (fun _ -> 50.0) in
  Alcotest.(check bool) "on time" false (Client.behind (phase on_time));
  Alcotest.(check bool) "a few stalls" false
    (Client.behind (phase (List.init 40 (fun _ -> 9000.0) @ on_time)));
  Alcotest.(check bool) "late on most events" true
    (Client.behind (phase (List.init 60 (fun _ -> 3000.0) @ List.init 40 (fun _ -> 50.0))));
  Alcotest.(check bool) "far behind at the end" true (Client.behind (phase (on_time @ [ 150_000.0 ])))

(* ---- the generated stream --------------------------------------------- *)

let stream_of (w : Workloads.t) ~events =
  let src = Stream.create w.Workloads.shape ~seed:7 in
  let cur = Stream.cursor src in
  let head = List.init events (fun _ -> Stream.next cur) in
  let rec drain acc = match Stream.next_departure cur with None -> List.rev acc | Some e -> drain (e :: acc) in
  (src, Stream.delivered cur, head @ drain [])

let test_stream_wire (w : Workloads.t) () =
  let _, _, evs = stream_of w ~events:5000 in
  let o = Stream.Obuf.create () in
  List.iteri (fun seq e -> Stream.add_line o ~seq e) evs;
  match TE.parse_all (Bytes.sub_string o.Stream.Obuf.b 0 o.Stream.Obuf.len) with
  | Error m -> Alcotest.failf "parse_all: %s" m
  | Ok parsed ->
      Alcotest.(check int) "every event parses" (List.length evs) (List.length parsed);
      List.iter2
        (fun (e : Stream.event) (p : TE.t) ->
          match p.TE.kind with
          | TE.Arrive { item; size } when e.Stream.arrival ->
              Alcotest.(check int) "item" e.Stream.item item;
              Alcotest.(check string) "size" (Rat.to_string (Stream.rat_of_scaled e.Stream.size_s)) (Rat.to_string size)
          | TE.Depart { item; _ } when not e.Stream.arrival -> Alcotest.(check int) "item" e.Stream.item item
          | _ -> Alcotest.fail "event kind changed on the wire")
        evs parsed

(* The stream must come out in the engine's replay order, or
   Simulator.run on the items sent would not be the daemon's run. *)
let test_stream_order (w : Workloads.t) () =
  let src, items, evs = stream_of w ~events:5000 in
  let replay = Event.sorted_array_of_instance (Stream.instance src ~items) in
  Alcotest.(check int) "same length" (Array.length replay) (List.length evs);
  List.iteri
    (fun i (e : Stream.event) ->
      let r = replay.(i) in
      if r.Event.item.Item.id <> e.Stream.item || (r.Event.kind = Event.Arrival) <> e.Stream.arrival then
        Alcotest.failf "event %d differs from the replay order" i)
    evs

(* ---- smoke runs ----------------------------------------------------------- *)

let tiny (w : Workloads.t) = { w with Workloads.warmup_events = 2000 }

let in_temp_dir f =
  let dir = Filename.temp_dir "perfbench" "" in
  let here = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir here;
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    f

(* Warm-up, a short open-loop phase, drain: every answer and the
   daemon's exact cost checked against Simulator.run. *)
let test_smoke_serve (w : Workloads.t) () =
  in_temp_dir (fun () ->
      let d, src, c, _ = Client.start ~dbp:dbp ~log:"serve.log" (tiny w) ~seed:3 in
      Fun.protect
        ~finally:(fun () -> ignore (Client.stop_daemon d))
        (fun () ->
          let r = Client.open_loop c ~rate:Workloads.low_rate ~n:400 in
          Client.guard_band c ~rate:Workloads.low_rate;
          Alcotest.(check int) "every open-loop arrival timed" r.Client.o_arrivals r.Client.o_lat.Client.Samples.n;
          let summary = Client.finish c in
          (match Client.stop_daemon d with
          | Unix.WEXITED 0 -> ()
          | _ -> Alcotest.fail "dbp serve did not exit cleanly");
          let ok, _ =
            Serve_run.check_against_batch c src ~summary ~from_item:0 ~since_s:0 ~until_s:c.Client.last_time_s
          in
          Alcotest.(check bool) "daemon agrees with Simulator.run" true ok))

let test_smoke_batch () =
  in_temp_dir (fun () ->
      let inst =
        Dbp_workload.Generator.generate ~seed:5L { Dbp_workload.Spec.default with Dbp_workload.Spec.count = 2000 }
      in
      Dbp_workload.Trace.save inst ~path:"t.csv";
      let ic = Unix.open_process_args_in dbp [| "dbp"; "simulate"; "--trace"; "t.csv"; "--policy"; "first-fit" |] in
      let first = List.hd (String.split_on_char '\n' (In_channel.input_all ic)) in
      (match Unix.close_process_in ic with Unix.WEXITED 0 -> () | _ -> Alcotest.fail "dbp simulate failed");
      let want = Format.asprintf "%a" Packing.pp_summary (Simulator.run ~policy:(Probe.first_fit ()) inst) in
      Alcotest.(check string) "printed summary" want first)

(* Every per-layer measurement on a small stream. *)
let test_smoke_layers () =
  in_temp_dir (fun () ->
      let w = tiny Workloads.serve_dense in
      let s = Layers.build w ~seed:4 ~meas:2000 in
      let r = Layers.rats s in
      let eps, _ = Layers.engine_plain s r in
      let tr = Layers.engine_traced s r in
      let c = Layers.engine_counted s r in
      Alcotest.(check bool) "throughputs" true (eps > 0.0 && tr.Layers.t_events_per_s > 0.0);
      let k = c.Layers.counts in
      Alcotest.(check bool) "examined within offered" true (k.Probe.examined <= k.Probe.offered);
      let text = Layers.wire s in
      let _, words, bytes = Layers.feed s text in
      Alcotest.(check bool) "feed allocates and reads bytes" true (words > 0.0 && bytes > 0.0);
      ignore (Layers.sock_in s text);
      ignore (Layers.wire_out s c);
      let mb = Layers.fleet s r c in
      Alcotest.(check bool) "paced answers seen" true (Array.length mb.Layers.visible > 0);
      let m = Layers.batch (Stream.instance s.Layers.src ~items:s.Layers.items) ~path:"t.csv" in
      Alcotest.(check int) "batch figures" 6 (List.length m))

let () =
  let per_workload name f = List.map (fun (w : Workloads.t) -> Alcotest.test_case (name ^ " " ^ w.Workloads.name) `Quick (f w)) Workloads.all in
  Alcotest.run ~argv:[| Sys.argv.(0) |] "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile rank and support" `Quick test_rank;
          Alcotest.test_case "percentile and median" `Quick test_percentile;
          Alcotest.test_case "open-loop schedule" `Quick test_schedule;
          Alcotest.test_case "generator behind its schedule" `Quick test_behind;
          Alcotest.test_case "ladder grid" `Quick test_ladder_grid;
        ] );
      ("stream", per_workload "wire form parses" test_stream_wire @ per_workload "replay order" test_stream_order);
      ( "smoke",
        per_workload "serve" test_smoke_serve
        @ [
            Alcotest.test_case "batch simulate" `Quick test_smoke_batch;
            Alcotest.test_case "layers" `Quick test_smoke_layers;
          ] );
    ]
