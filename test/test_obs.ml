(* The observability layer: NDJSON trace round-trips, engine traces
   that validate against the schema, bit-identity of traced runs,
   metrics aggregates vs brute force, and profile span bookkeeping. *)

open Dbp_num
open Dbp_core
open Dbp_obs
open Test_util

(* ---- trace event round-trips ---------------------------------------- *)

let all_kinds =
  [
    Trace_event.Arrive { item = 3; size = r 4911 10000 };
    Trace_event.Pack { item = 3; bin = 1; level = r 1 2; residual = r 1 2 };
    Trace_event.Depart { item = 3; bin = 1; held = r 7 3 };
    Trace_event.Bin_open { bin = 1; tag = "ff"; capacity = Rat.one };
    Trace_event.Bin_close { bin = 1; opened = Rat.zero; cost = r 9 4 };
    Trace_event.Fail_bin { bin = 1; victims = 2; lost_level = r 5 6 };
    Trace_event.Retry { item = 3; attempt = 2 };
    Trace_event.Shed { item = 3 };
    Trace_event.Resume { item = 3; latency = r 1 4 };
  ]

let test_ndjson_round_trip () =
  List.iteri
    (fun i kind ->
      let ev = { Trace_event.seq = i; time = r (i + 1) 3; kind } in
      let line = Trace_event.to_ndjson ev in
      match Trace_event.of_ndjson line with
      | Ok back ->
          Alcotest.(check bool)
            (Printf.sprintf "%s round-trips" (Trace_event.kind_name kind))
            true (back = ev)
      | Error msg ->
          Alcotest.failf "%s failed to parse back: %s" line msg)
    all_kinds

let test_ndjson_rejects_malformed () =
  let bad =
    [
      "{\"seq\":0,\"t\":\"1\",\"kind\":\"arrive\",\"item\":0}" (* missing size *);
      "{\"seq\":0,\"t\":\"1\",\"kind\":\"arrive\",\"item\":0,\"size\":\"1/2\",\"x\":1}"
      (* unknown key *);
      "{\"seq\":0,\"t\":\"1\",\"kind\":\"nope\",\"item\":0}" (* unknown kind *);
      "{\"seq\":0,\"seq\":1,\"t\":\"1\",\"kind\":\"shed\",\"item\":0}"
      (* duplicate key *);
      "{\"seq\":0,\"t\":\"1/0\",\"kind\":\"shed\",\"item\":0}" (* bad rational *);
      "{\"seq\":0,\"t\":\"1\",\"kind\":\"shed\",\"item\":\"x\"}" (* wrong type *);
      "{\"seq\":0,\"t\":\"1\",\"kind\":\"shed\",\"item\":0} trailing";
      "not json at all";
    ]
  in
  List.iter
    (fun line ->
      match Trace_event.of_ndjson line with
      | Ok _ -> Alcotest.failf "accepted malformed line: %s" line
      | Error _ -> ())
    bad;
  (* [\u] takes exactly four hex digits: no '_' *)
  match Trace_event.of_ndjson {|{"seq":0,"t":"\u0_31","kind":"shed","item":0}|} with
  | Ok _ -> Alcotest.fail "accepted \\u0_31"
  | Error msg ->
      Alcotest.(check string) "escape message" {|unsupported \u escape '\u0_31'|} msg

let test_parse_all_sequencing () =
  let ev seq time kind = { Trace_event.seq; time; kind } in
  let shed = Trace_event.Shed { item = 0 } in
  let doc evs =
    String.concat "" (List.map (fun e -> Trace_event.to_ndjson e ^ "\n") evs)
  in
  (match Trace_event.parse_all (doc [ ev 0 Rat.zero shed; ev 1 Rat.one shed ]) with
  | Ok evs -> Alcotest.(check int) "two events" 2 (List.length evs)
  | Error msg -> Alcotest.failf "valid doc rejected: %s" msg);
  (match Trace_event.parse_all (doc [ ev 0 Rat.zero shed; ev 2 Rat.one shed ]) with
  | Ok _ -> Alcotest.fail "seq gap accepted"
  | Error msg ->
      Alcotest.(check bool) "gap error names line 2" true
        (contains ~sub:"line 2" msg));
  match Trace_event.parse_all (doc [ ev 0 Rat.one shed; ev 1 Rat.zero shed ]) with
  | Ok _ -> Alcotest.fail "time decrease accepted"
  | Error _ -> ()

(* ---- engine traces --------------------------------------------------- *)

let generate n seed =
  Dbp_workload.Generator.generate ~seed
    { Dbp_workload.Spec.default with Dbp_workload.Spec.count = n }

let traced_run ~policy instance =
  let buf = Buffer.create 4096 in
  let sink = Sink.to_buffer buf in
  let packing = Simulator.run ~sink ~policy instance in
  (packing, Buffer.contents buf, Sink.emitted sink)

let count_kind evs name =
  List.length
    (List.filter
       (fun (e : Trace_event.t) -> Trace_event.kind_name e.kind = name)
       evs)

let test_engine_trace_validates () =
  let instance = generate 120 11L in
  List.iter
    (fun policy ->
      let packing, body, emitted = traced_run ~policy instance in
      match Trace_event.parse_all body with
      | Error msg ->
          Alcotest.failf "%s trace invalid: %s" policy.Policy.name msg
      | Ok evs ->
          Alcotest.(check int) "every emission is a line" emitted
            (List.length evs);
          let n = Instance.size instance in
          Alcotest.(check int) "one arrive per item" n (count_kind evs "arrive");
          Alcotest.(check int) "one pack per item" n (count_kind evs "pack");
          Alcotest.(check int) "one depart per item" n (count_kind evs "depart");
          let bins = Packing.bins_used packing in
          Alcotest.(check int) "one open per bin" bins
            (count_kind evs "bin_open");
          Alcotest.(check int) "one close per bin" bins
            (count_kind evs "bin_close");
          (* the traced bin_close costs must sum to the exact objective *)
          let close_cost =
            Rat.sum
              (List.filter_map
                 (fun (e : Trace_event.t) ->
                   match e.Trace_event.kind with
                   | Trace_event.Bin_close { cost; _ } -> Some cost
                   | _ -> None)
                 evs)
          in
          check_rat "bin_close costs sum to total cost"
            packing.Packing.total_cost close_cost)
    (Algorithms.all ())

let test_traced_run_bit_identical () =
  let instance = generate 200 12L in
  List.iter
    (fun policy ->
      let traced, _, _ = traced_run ~policy instance in
      let metrics = Metrics.create () in
      let profile = Profile.create () in
      let metered = Simulator.run ~metrics ~profile ~policy instance in
      let plain = Simulator.run ~policy instance in
      check_rat
        (policy.Policy.name ^ ": traced cost identical")
        plain.Packing.total_cost traced.Packing.total_cost;
      Alcotest.(check bool)
        (policy.Policy.name ^ ": traced assignment identical")
        true
        (traced.Packing.assignment = plain.Packing.assignment);
      check_rat
        (policy.Policy.name ^ ": metered cost identical")
        plain.Packing.total_cost metered.Packing.total_cost;
      Alcotest.(check bool)
        (policy.Policy.name ^ ": metered assignment identical")
        true
        (metered.Packing.assignment = plain.Packing.assignment))
    (Algorithms.all ())

let test_injector_trace () =
  let instance = generate 150 13L in
  let horizon = Dbp_num.Interval.hi (Instance.packing_period instance) in
  let plan =
    Dbp_faults.Fault_plan.poisson_crashes ~seed:13L ~rate:2.0 ~horizon
  in
  let config =
    { Dbp_faults.Injector.default_config with
      Dbp_faults.Injector.launch_failure_prob = 0.2;
      max_pending = Some 3 }
  in
  let buf = Buffer.create 4096 in
  let sink = Sink.to_buffer buf in
  let metrics = Metrics.create () in
  let r =
    Dbp_faults.Injector.run ~sink ~metrics ~config ~plan
      ~policy:First_fit.policy instance
  in
  let res = r.Dbp_faults.Injector.resilience in
  match Trace_event.parse_all (Buffer.contents buf) with
  | Error msg -> Alcotest.failf "injector trace invalid: %s" msg
  | Ok evs ->
      Alcotest.(check int) "fail_bin events = faults injected"
        res.Dbp_faults.Resilience.faults_injected
        (count_kind evs "fail_bin");
      Alcotest.(check int) "retry events = retries counter"
        res.Dbp_faults.Resilience.retries (count_kind evs "retry");
      Alcotest.(check int) "resume events = resumed counter"
        res.Dbp_faults.Resilience.resumed_sessions
        (count_kind evs "resume");
      Alcotest.(check int) "shed events = shed + lost"
        (res.Dbp_faults.Resilience.shed_requests
        + res.Dbp_faults.Resilience.lost_sessions)
        (count_kind evs "shed");
      Alcotest.(check int) "metrics retries counter agrees"
        res.Dbp_faults.Resilience.retries (Metrics.counter metrics "retries");
      Alcotest.(check int) "metrics bin_failures counter agrees"
        res.Dbp_faults.Resilience.faults_injected
        (Metrics.counter metrics "bin_failures")

(* ---- metrics --------------------------------------------------------- *)

let test_metrics_registry () =
  let instance = generate 100 14L in
  let metrics = Metrics.create () in
  let packing = Simulator.run ~metrics ~policy:First_fit.policy instance in
  let n = Instance.size instance in
  Alcotest.(check int) "arrivals" n (Metrics.counter metrics "arrivals");
  Alcotest.(check int) "departures" n (Metrics.counter metrics "departures");
  Alcotest.(check int) "bins opened" (Packing.bins_used packing)
    (Metrics.counter metrics "bins_opened");
  Alcotest.(check int) "bins closed" (Packing.bins_used packing)
    (Metrics.counter metrics "bins_closed");
  Alcotest.(check int) "all bins closed at the end" 0
    (match Metrics.gauge metrics "open_bins" with Some g -> g | None -> -1);
  (* the exact rational sum is the MinTotal objective, bit for bit *)
  (match Metrics.rat_sum metrics "bin_seconds" with
  | Some s -> check_rat "bin_seconds = total cost" packing.Packing.total_cost s
  | None -> Alcotest.fail "bin_seconds sum missing");
  (* incrementally maintained aggregates vs brute force over the raw
     observations, for every histogram *)
  List.iter
    (fun (name, data) ->
      match Metrics.hist_aggregates metrics name with
      | None -> Alcotest.failf "aggregates missing for %s" name
      | Some agg ->
          Alcotest.(check int)
            (name ^ ": count") (Array.length data)
            agg.Metrics.agg_count;
          Alcotest.(check (float 1e-9))
            (name ^ ": sum")
            (Array.fold_left ( +. ) 0.0 data)
            agg.Metrics.agg_sum;
          Alcotest.(check (float 0.0))
            (name ^ ": min")
            (Array.fold_left Float.min infinity data)
            agg.Metrics.agg_min;
          Alcotest.(check (float 0.0))
            (name ^ ": max")
            (Array.fold_left Float.max neg_infinity data)
            agg.Metrics.agg_max)
    (Metrics.histograms metrics);
  Alcotest.(check int) "one utilisation observation per pack" n
    (match Metrics.observations metrics "utilisation_at_pack" with
    | Some a -> Array.length a
    | None -> -1)

let test_metrics_empty () =
  let m = Metrics.create () in
  Alcotest.(check bool) "fresh registry is empty" true (Metrics.is_empty m);
  Alcotest.(check int) "unknown counter reads 0" 0 (Metrics.counter m "nope");
  Alcotest.(check bool) "unknown histogram" true
    (Metrics.observations m "nope" = None);
  Metrics.incr m "x";
  Alcotest.(check bool) "no longer empty" false (Metrics.is_empty m)

(* ---- profile --------------------------------------------------------- *)

let test_profile_spans () =
  let instance = generate 80 15L in
  let profile = Profile.create () in
  ignore (Simulator.run ~profile ~policy:Best_fit.policy instance);
  let spans = Profile.spans profile in
  let n = Instance.size instance in
  List.iter
    (fun phase ->
      match List.find_opt (fun (p, _, _) -> p = phase) spans with
      | None -> Alcotest.failf "phase %s missing from profile" phase
      | Some (_, seconds, calls) ->
          Alcotest.(check bool) (phase ^ ": non-negative time") true
            (seconds >= 0.0);
          (* Arrivals and departures both cross the commit phase, but
             a policy without a departure handler skips views/policy on
             departures entirely — so those two phases tick once per
             item, commit twice. *)
          let expected = if phase = "commit" then 2 * n else n in
          Alcotest.(check int) (phase ^ ": calls") expected calls)
    [ "views"; "policy"; "commit" ];
  Alcotest.(check bool) "total = sum of spans" true
    (Float.abs
       (Profile.total profile
       -. List.fold_left (fun acc (_, s, _) -> acc +. s) 0.0 spans)
    < 1e-9);
  Profile.reset profile;
  Alcotest.(check int) "reset clears spans" 0
    (List.length (Profile.spans profile))

let test_sink_null_counts () =
  let sink = Sink.null () in
  Sink.emit sink ~time:Rat.zero (Trace_event.Shed { item = 0 });
  Sink.emit sink ~time:Rat.one (Trace_event.Shed { item = 1 });
  Alcotest.(check int) "null sink still counts sequence" 2 (Sink.emitted sink)

(* ---- property: random event streams round-trip ----------------------- *)

let kind_gen =
  QCheck2.Gen.(
    let pos = map2 (fun n d -> Rat.make n d) (int_range 0 50) (int_range 1 9) in
    oneof
      [
        map2 (fun i s -> Trace_event.Arrive { item = i; size = s })
          (int_range 0 999) pos;
        map3
          (fun i b l ->
            Trace_event.Pack { item = i; bin = b; level = l; residual = l })
          (int_range 0 999) (int_range 0 99) pos;
        map2 (fun i a -> Trace_event.Retry { item = i; attempt = a })
          (int_range 0 999) (int_range 0 9);
        map (fun i -> Trace_event.Shed { item = i }) (int_range 0 999);
        map3
          (fun b t c ->
            Trace_event.Bin_open { bin = b; tag = t; capacity = c })
          (int_range 0 99)
          (string_size ~gen:printable (int_range 0 8))
          pos;
      ])

(* ---- incremental feed: partial reads, missing final newline --------- *)

let feed_doc_events () =
  List.mapi
    (fun i kind -> { Trace_event.seq = i; time = Rat.of_int i; kind })
    [
      Trace_event.Arrive { item = 0; size = r 1 3 };
      Trace_event.Pack { item = 0; bin = 0; level = r 1 3; residual = r 2 3 };
      Trace_event.Shed { item = 1 };
      Trace_event.Retry { item = 1; attempt = 1 };
      Trace_event.Depart { item = 0; bin = 0; held = r 5 2 };
    ]

let test_feed_split_at_every_byte () =
  (* A valid stream must parse identically however the transport
     fragments it: split the document at every byte boundary and feed
     the two halves separately. *)
  let evs = feed_doc_events () in
  let doc =
    String.concat "" (List.map (fun e -> Trace_event.to_ndjson e ^ "\n") evs)
  in
  for cut = 0 to String.length doc do
    let feed = Trace_event.Feed.create () in
    let got = ref [] in
    let push chunk =
      match Trace_event.Feed.feed feed chunk with
      | Ok es -> got := !got @ es
      | Error e ->
          Alcotest.failf "split at %d: %s" cut
            (Trace_event.stream_error_to_string e)
    in
    push (String.sub doc 0 cut);
    push (String.sub doc cut (String.length doc - cut));
    (match Trace_event.Feed.close feed with
    | Ok es -> got := !got @ es
    | Error e ->
        Alcotest.failf "close after split at %d: %s" cut
          (Trace_event.stream_error_to_string e));
    if !got <> evs then Alcotest.failf "split at %d reordered events" cut
  done

let test_feed_final_line_without_newline () =
  let evs = feed_doc_events () in
  let doc =
    String.concat "\n" (List.map Trace_event.to_ndjson evs)
    (* no trailing newline *)
  in
  let feed = Trace_event.Feed.create () in
  let first =
    match Trace_event.Feed.feed feed doc with
    | Ok es -> es
    | Error e -> Alcotest.failf "%s" (Trace_event.stream_error_to_string e)
  in
  Alcotest.(check int) "terminated lines parse eagerly"
    (List.length evs - 1) (List.length first);
  match Trace_event.Feed.close feed with
  | Ok [ last ] ->
      Alcotest.(check bool) "final unterminated line parses" true
        (last = List.nth evs (List.length evs - 1))
  | Ok other -> Alcotest.failf "close returned %d events" (List.length other)
  | Error e -> Alcotest.failf "%s" (Trace_event.stream_error_to_string e)

let test_feed_reports_byte_offsets () =
  let feed = Trace_event.Feed.create () in
  let good = {|{"seq":0,"t":"1","kind":"shed","item":4}|} ^ "\n" in
  (match Trace_event.Feed.feed feed good with
  | Ok [ _ ] -> ()
  | Ok _ | Error _ -> Alcotest.fail "good line should parse");
  (* Deliver the bad line in two fragments so the reported offset must
     come from stream accounting, not the chunk. *)
  (match Trace_event.Feed.feed feed "not js" with
  | Ok [] -> ()
  | Ok _ | Error _ -> Alcotest.fail "partial line should stay buffered");
  match Trace_event.Feed.feed feed "on\n" with
  | Ok _ -> Alcotest.fail "malformed line should fail"
  | Error e ->
      Alcotest.(check int) "line number" 2 e.Trace_event.line;
      Alcotest.(check int) "byte offset of the offending line"
        (String.length good) e.Trace_event.byte;
      (* Poisoned: later feeds keep failing with the same error. *)
      (match Trace_event.Feed.feed feed good with
      | Ok _ -> Alcotest.fail "feed should stay poisoned"
      | Error e' -> Alcotest.(check int) "same byte" e.Trace_event.byte
            e'.Trace_event.byte);
      Alcotest.(check int) "bytes_consumed stops at the bad line"
        (String.length good)
        (Trace_event.Feed.bytes_consumed feed)

let prop_feed_fragmentation =
  qcheck ~count:200 "feed is fragmentation-invariant"
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 12) kind_gen)
        (list_size (int_range 1 8) (int_range 1 30)))
    (fun (kinds, cuts) ->
      let evs =
        List.mapi
          (fun i kind -> { Trace_event.seq = i; time = Rat.of_int i; kind })
          kinds
      in
      let doc =
        String.concat ""
          (List.map (fun e -> Trace_event.to_ndjson e ^ "\n") evs)
      in
      let feed = Trace_event.Feed.create () in
      let got = ref [] in
      let ok = ref true in
      let push s =
        match Trace_event.Feed.feed feed s with
        | Ok es -> got := !got @ es
        | Error _ -> ok := false
      in
      let n = String.length doc in
      let pos = ref 0 in
      List.iter
        (fun w ->
          if !pos < n then begin
            let w = min w (n - !pos) in
            push (String.sub doc !pos w);
            pos := !pos + w
          end)
        cuts;
      if !pos < n then push (String.sub doc !pos (n - !pos));
      (match Trace_event.Feed.close feed with
      | Ok es -> got := !got @ es
      | Error _ -> ok := false);
      !ok && !got = evs
      && Trace_event.Feed.bytes_consumed feed = String.length doc)

let prop_tests =
  [
    prop_feed_fragmentation;
    qcheck ~count:300 "random events survive NDJSON round-trip"
      QCheck2.Gen.(list_size (int_range 0 20) kind_gen)
      (fun kinds ->
        let evs =
          List.mapi
            (fun i kind -> { Trace_event.seq = i; time = Rat.of_int i; kind })
            kinds
        in
        let doc =
          String.concat ""
            (List.map (fun e -> Trace_event.to_ndjson e ^ "\n") evs)
        in
        match Trace_event.parse_all doc with
        | Ok back -> back = evs
        | Error _ -> false);
  ]

let suite =
  [
    Alcotest.test_case "ndjson round trip" `Quick test_ndjson_round_trip;
    Alcotest.test_case "ndjson rejects malformed" `Quick
      test_ndjson_rejects_malformed;
    Alcotest.test_case "parse_all sequencing" `Quick test_parse_all_sequencing;
    Alcotest.test_case "feed split at every byte" `Quick
      test_feed_split_at_every_byte;
    Alcotest.test_case "feed final line without newline" `Quick
      test_feed_final_line_without_newline;
    Alcotest.test_case "feed reports byte offsets" `Quick
      test_feed_reports_byte_offsets;
    Alcotest.test_case "engine trace validates" `Quick
      test_engine_trace_validates;
    Alcotest.test_case "traced run bit-identical" `Quick
      test_traced_run_bit_identical;
    Alcotest.test_case "injector trace" `Quick test_injector_trace;
    Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
    Alcotest.test_case "metrics empty" `Quick test_metrics_empty;
    Alcotest.test_case "profile spans" `Quick test_profile_spans;
    Alcotest.test_case "null sink counts" `Quick test_sink_null_counts;
  ]
  @ prop_tests
