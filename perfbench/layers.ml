(* The traced run: per-layer figures for one workload.

   Every figure is taken from this file, around calls into a layer's
   public functions; nothing inside lib/ is instrumented.  The engine
   is replayed three times on the same stream: plain (the spans-off
   baseline), with the Dbp_obs.Profile tap and per-call clocks (the
   traced harness; the throughput gap between the two is the tracing
   overhead), and with allocation probes and the counting policy
   wrapper (counts only; these repeat exactly for a given seed).

   The stream is the workload's own: [warm] events to reach its regime,
   [meas] measured events, then every departure still owed. *)

open Dbp_num
open Dbp_core
open Cli
module TE = Dbp_obs.Trace_event
module Serve = Dbp_serve.Serve

let now_ns = Probe.now_ns

type stream = {
  evs : Stream.event array;
  warm : int;
  meas : int;
  items : int;
  src : Stream.t;
}

let build (w : Workloads.t) ~seed ~meas =
  let src = Stream.create w.Workloads.shape ~seed in
  let cur = Stream.cursor src in
  let warm = w.Workloads.warmup_events in
  let head = List.init (warm + meas) (fun _ -> Stream.next cur) in
  let rec drain acc = match Stream.next_departure cur with None -> List.rev acc | Some e -> drain (e :: acc) in
  let evs = Array.of_list (head @ drain []) in
  { evs; warm; meas; items = Stream.delivered cur; src }

let measured s i = i >= s.warm && i < s.warm + s.meas
let arrivals_in s lo hi =
  let k = ref 0 in
  for i = lo to hi - 1 do
    if s.evs.(i).Stream.arrival then incr k
  done;
  !k

let ns_per total n = if n = 0 then 0.0 else float_of_int total /. float_of_int n

(* ---- engine --------------------------------------------------------- *)

let grid () =
  match Simulator.grid_of_den Stream.quantum with Some g -> g | None -> fail "grid 1/%d refused" Stream.quantum

type rats = { times : Rat.t array; sizes : Rat.t array }

let rats s =
  {
    times = Array.map (fun (e : Stream.event) -> Stream.rat_of_scaled e.Stream.time_s) s.evs;
    sizes = Array.map (fun (e : Stream.event) -> Stream.rat_of_scaled e.Stream.size_s) s.evs;
  }

let step eng r s i =
  let e = s.evs.(i) in
  if e.Stream.arrival then
    ignore (Simulator.Online.arrive eng ~now:r.times.(i) ~size:r.sizes.(i) ~item_id:e.Stream.item)
  else Simulator.Online.depart eng ~now:r.times.(i) ~item_id:e.Stream.item

let finish_engine eng =
  let track = Simulator.Online.track_name eng in
  if track <> "fixed" then fail "engine-only replay ran on the %s track, want fixed" track

(* Spans off: the single-threaded baseline. *)
let engine_plain s r =
  let eng = Simulator.Online.create ~grid:(grid ()) ~policy:(Probe.first_fit ()) ~capacity:Rat.one () in
  for i = 0 to s.warm - 1 do step eng r s i done;
  let gc0 = (Gc.quick_stat ()).Gc.minor_collections in
  let t0 = now_ns () in
  for i = s.warm to s.warm + s.meas - 1 do step eng r s i done;
  let dt = now_ns () - t0 in
  let gcs = (Gc.quick_stat ()).Gc.minor_collections - gc0 in
  for i = s.warm + s.meas to Array.length s.evs - 1 do step eng r s i done;
  finish_engine eng;
  (float_of_int s.meas /. (float_of_int dt /. 1e9), float_of_int gcs /. (float_of_int s.meas /. 1000.0))

type traced = {
  t_events_per_s : float;
  arrive_ns : float;
  depart_ns : float;
  views_ns : float;  (* per arrival *)
  policy_ns : float;  (* per arrival *)
  commit_ns : float;  (* per event *)
}

(* The Profile tap plus a clock pair around every call. *)
let engine_traced s r =
  let prof = Dbp_obs.Profile.create () in
  let eng =
    Simulator.Online.create ~profile:prof ~grid:(grid ()) ~policy:(Probe.first_fit ()) ~capacity:Rat.one ()
  in
  for i = 0 to s.warm - 1 do step eng r s i done;
  Dbp_obs.Profile.reset prof;
  let arr_ns = ref 0 and dep_ns = ref 0 in
  let t0 = now_ns () in
  for i = s.warm to s.warm + s.meas - 1 do
    let a = now_ns () in
    step eng r s i;
    let d = now_ns () - a in
    if s.evs.(i).Stream.arrival then arr_ns := !arr_ns + d else dep_ns := !dep_ns + d
  done;
  let dt = now_ns () - t0 in
  let spans = Dbp_obs.Profile.spans prof in
  for i = s.warm + s.meas to Array.length s.evs - 1 do step eng r s i done;
  finish_engine eng;
  let arrivals = arrivals_in s s.warm (s.warm + s.meas) in
  let span name = match List.find_opt (fun (n, _, _) -> n = name) spans with Some (_, sec, _) -> sec *. 1e9 | None -> 0.0 in
  let per x n = if n = 0 then 0.0 else x /. float_of_int n in
  {
    t_events_per_s = float_of_int s.meas /. (float_of_int dt /. 1e9);
    arrive_ns = ns_per !arr_ns arrivals;
    depart_ns = ns_per !dep_ns (s.meas - arrivals);
    views_ns = per (span "views") arrivals;
    policy_ns = per (span "policy") arrivals;
    commit_ns = per (span "commit") s.meas;
  }

type counted = {
  words_arrival : float;
  words_departure : float;
  counts : Probe.counts;
  open_mean : float;
  open_max : int;
  bins_opened : int;
  close_frac : float;
  bins : int array;  (* per item *)
}

(* Allocation probes (minor words; the clock is not read) and the
   counting policy wrapper.  The open-bin bookkeeping happens outside
   the probe window. *)
let engine_counted s r =
  let first_item =
    let rec go i = if i >= Array.length s.evs then s.items else if measured s i && s.evs.(i).Stream.arrival then s.evs.(i).Stream.item else go (i + 1) in
    go s.warm
  in
  let counts = Probe.counts ~from_item:first_item () in
  let eng =
    Simulator.Online.create ~grid:(grid ()) ~policy:(Probe.counting (Probe.first_fit ()) counts) ~capacity:Rat.one ()
  in
  let bins = Array.make s.items (-1) in
  let fill = ref (Array.make 1024 0) in
  let open_now = ref 0 and open_sum = ref 0 and open_max = ref 0 and opened = ref 0 in
  let closes = ref 0 and departures = ref 0 in
  let w_arr = ref 0.0 and w_dep = ref 0.0 in
  let next_bin = ref 0 in
  for i = 0 to Array.length s.evs - 1 do
    let e = s.evs.(i) in
    let m = measured s i in
    if e.Stream.arrival then begin
      let w0 = Gc.minor_words () in
      let b = Simulator.Online.arrive eng ~now:r.times.(i) ~size:r.sizes.(i) ~item_id:e.Stream.item in
      let w1 = Gc.minor_words () in
      bins.(e.Stream.item) <- b;
      if m then begin
        w_arr := !w_arr +. (w1 -. w0);
        open_sum := !open_sum + !open_now
      end;
      if b >= Array.length !fill then fill := Array.append !fill (Array.make (Array.length !fill) 0);
      if b >= !next_bin then begin
        next_bin := b + 1;
        incr open_now;
        if m then incr opened
      end;
      (!fill).(b) <- (!fill).(b) + 1;
      if m && !open_now > !open_max then open_max := !open_now
    end
    else begin
      let w0 = Gc.minor_words () in
      Simulator.Online.depart eng ~now:r.times.(i) ~item_id:e.Stream.item;
      let w1 = Gc.minor_words () in
      let b = bins.(e.Stream.item) in
      (!fill).(b) <- (!fill).(b) - 1;
      let closed = (!fill).(b) = 0 in
      if closed then decr open_now;
      if m then begin
        w_dep := !w_dep +. (w1 -. w0);
        incr departures;
        if closed then incr closes
      end
    end
  done;
  finish_engine eng;
  let arrivals = arrivals_in s s.warm (s.warm + s.meas) in
  {
    words_arrival = !w_arr /. float_of_int (max 1 arrivals);
    words_departure = !w_dep /. float_of_int (max 1 !departures);
    counts;
    open_mean = Probe.per !open_sum arrivals;
    open_max = !open_max;
    bins_opened = !opened;
    close_frac = Probe.per !closes !departures;
    bins;
  }

(* ---- wire ----------------------------------------------------------- *)

(* The whole stream as the client sends it; [marks.(i)] is the byte
   offset where event [i] starts. *)
let wire s =
  let o = Stream.Obuf.create () in
  let marks = Array.make (Array.length s.evs + 1) 0 in
  Array.iteri
    (fun i e ->
      marks.(i) <- o.Stream.Obuf.len;
      Stream.add_line o ~seq:i e)
    s.evs;
  marks.(Array.length s.evs) <- o.Stream.Obuf.len;
  (Bytes.sub_string o.Stream.Obuf.b 0 o.Stream.Obuf.len, marks)

let chunk = 65536

(* Feed parses the measured segment in socket-read-sized chunks, each
   copied out of the read buffer first as the daemon does. *)
let feed s (text, marks) =
  let lo = marks.(s.warm) and hi = marks.(s.warm + s.meas) in
  let f = TE.Feed.create ~seq_start:s.warm () in
  let buf = Bytes.of_string text in
  let ns = ref 0 and words = ref 0.0 and got = ref 0 in
  let pos = ref lo in
  while !pos < hi do
    let n = min chunk (hi - !pos) in
    let w0 = Probe.alloc_words () in
    let t0 = now_ns () in
    (match TE.Feed.feed f (Bytes.sub_string buf !pos n) with
    | Ok evs -> got := !got + List.length evs
    | Error e -> fail "feed: %s" (TE.stream_error_to_string e));
    ns := !ns + (now_ns () - t0);
    words := !words +. (Probe.alloc_words () -. w0);
    pos := !pos + n
  done;
  if !got <> s.meas then fail "feed returned %d events of %d" !got s.meas;
  (ns_per !ns s.meas, !words /. float_of_int s.meas, float_of_int (hi - lo) /. float_of_int s.meas)

(* A socketpair driven from one thread: [a] writes without blocking,
   [b] is read whenever [a] would block. *)
let with_pair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  Unix.set_nonblock b;
  Fun.protect ~finally:(fun () -> Unix.close a; Unix.close b) (fun () -> f a b)

let rec write_all a s off len ~drain =
  if len > 0 then
    match Unix.write_substring a s off len with
    | k -> write_all a s (off + k) (len - k) ~drain
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        drain ();
        write_all a s off len ~drain

(* Reads of the inbound stream through a socketpair, 64 KiB at a time,
   as the daemon's session loop issues them. *)
let sock_in s (text, marks) =
  let lo = marks.(s.warm) and hi = marks.(s.warm + s.meas) in
  with_pair (fun a b ->
      let buf = Bytes.create chunk in
      let rd = ref 0 and got = ref 0 in
      let drain () =
        let rec go () =
          let t0 = now_ns () in
          match Unix.read b buf 0 chunk with
          | k ->
              rd := !rd + (now_ns () - t0);
              got := !got + k;
              go ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        in
        go ()
      in
      let pos = ref lo in
      while !pos < hi do
        let n = min chunk (hi - !pos) in
        write_all a text !pos n ~drain;
        drain ();
        pos := !pos + n
      done;
      if !got <> hi - lo then fail "socket delivered %d of %d bytes" !got (hi - lo);
      ns_per !rd s.meas)

(* Placement lines as the daemon formats them, and their writes: one
   write per line, as the daemon's output queue issues them. *)
let wire_out s (c : counted) =
  let lines = ref [] and fmt_ns = ref 0 and n = ref 0 in
  for i = s.warm to s.warm + s.meas - 1 do
    let e = s.evs.(i) in
    if e.Stream.arrival then begin
      let p = { Serve.p_seq = i; p_item = e.Stream.item; p_bin = c.bins.(e.Stream.item); p_shard = 0 } in
      let t0 = now_ns () in
      let l = Serve.placement_line p ^ "\n" in
      fmt_ns := !fmt_ns + (now_ns () - t0);
      lines := l :: !lines;
      incr n
    end
  done;
  let lines = List.rev !lines in
  with_pair (fun a b ->
      let buf = Bytes.create chunk in
      let drain () =
        let rec go () =
          match Unix.read b buf 0 chunk with
          | _ -> go ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        in
        go ()
      in
      let wr = ref 0 and bytes = ref 0 in
      List.iter
        (fun l ->
          let t0 = now_ns () in
          write_all a l 0 (String.length l) ~drain;
          wr := !wr + (now_ns () - t0);
          bytes := !bytes + String.length l)
        lines;
      drain ();
      (ns_per !fmt_ns !n, ns_per !wr s.meas, float_of_int !bytes /. float_of_int (max 1 !n)))

(* ---- fleet front and mailbox ---------------------------------------- *)

let te_event s r i =
  let e = s.evs.(i) in
  {
    TE.seq = i;
    time = r.times.(i);
    kind =
      (if e.Stream.arrival then TE.Arrive { item = e.Stream.item; size = r.sizes.(i) }
       else TE.Depart { item = e.Stream.item; bin = -1; held = Rat.zero });
  }

type mailbox = {
  apply_ns : float;
  route_ns : float;
  visible : float array;  (* us from apply to visible, sorted *)
  first_poll_hit : float;
  per_poll : float;
  backlog_max : int;
}

(* The daemon's loop, run in process: apply a read's worth of events,
   poll the shard mailbox once.  The warm-up and the second half of the
   measured segment go through in 64 KiB-sized chunks back to back (the
   saturated loop; [Fleet.apply] is timed there).  The first half is
   paced at the low rate, one event per read: between events the
   mailbox is polled continuously to see when each answer becomes
   visible, while the one poll right after each apply is the one the
   daemon makes.  [placements_per_poll] is the saturated loop's batch:
   answers collected per poll after a chunk. *)
let fleet s r (c : counted) =
  let cfg = { (Serve.default_config ()) with Serve.grid_den = Some Stream.quantum; policy = Probe.first_fit () } in
  let fl = Serve.Fleet.create cfg in
  Fun.protect
    ~finally:(fun () -> Serve.Fleet.shutdown fl)
    (fun () ->
      let seen = Array.make s.items false in
      let applied_at = Array.make s.items 0 in
      let visible = Client.Samples.create () in
      let outstanding = ref 0 and backlog_max = ref 0 in
      let take now pls =
        List.iter
          (fun (p : Serve.placement) ->
            if seen.(p.Serve.p_item) then fail "placement for item %d seen twice" p.Serve.p_item;
            if p.Serve.p_bin <> c.bins.(p.Serve.p_item) then
              fail "fleet placed item %d in bin %d, the engine in %d" p.Serve.p_item p.Serve.p_bin
                c.bins.(p.Serve.p_item);
            seen.(p.Serve.p_item) <- true;
            decr outstanding;
            if applied_at.(p.Serve.p_item) > 0 then
              Client.Samples.add visible (float_of_int (now - applied_at.(p.Serve.p_item)) /. 1000.0))
          pls
      in
      let apply i =
        Serve.Fleet.apply fl (te_event s r i);
        if s.evs.(i).Stream.arrival then incr outstanding
      in
      let polls = ref 0 and polled = ref 0 in
      let chunked lo hi ~timed =
        let ns = ref 0 and i = ref lo in
        (* About one 64 KiB read of stream lines. *)
        let events_per_chunk = 900 in
        while !i < hi do
          let stop = min hi (!i + events_per_chunk) in
          let t0 = now_ns () in
          for k = !i to stop - 1 do apply k done;
          if timed then ns := !ns + (now_ns () - t0);
          let pls = Serve.Fleet.placements fl in
          if timed then begin
            incr polls;
            polled := !polled + List.length pls
          end;
          take (now_ns ()) pls;
          i := stop
        done;
        !ns
      in
      ignore (chunked 0 s.warm ~timed:false);
      take (now_ns ()) (Serve.Fleet.quiesce fl);
      (* Paced: the low rate, one event per read. *)
      let half = s.warm + (s.meas / 2) in
      let paced = min (half - s.warm) (int_of_float (Workloads.low_rate *. 1.5)) in
      let hits = ref 0 and paced_arrivals = ref 0 in
      let start = now_ns () in
      for k = 0 to paced - 1 do
        let i = s.warm + k in
        let due = Stats.due_ns ~start_ns:start ~rate:Workloads.low_rate k in
        while now_ns () < due do
          take (now_ns ()) (Serve.Fleet.placements fl)
        done;
        apply i;
        let e = s.evs.(i) in
        let t = now_ns () in
        if e.Stream.arrival then begin
          applied_at.(e.Stream.item) <- t;
          incr paced_arrivals
        end;
        let pls = Serve.Fleet.placements fl in
        if e.Stream.arrival && List.exists (fun (p : Serve.placement) -> p.Serve.p_item = e.Stream.item) pls
        then incr hits;
        take (now_ns ()) pls;
        if !outstanding > !backlog_max then backlog_max := !outstanding
      done;
      take (now_ns ()) (Serve.Fleet.quiesce fl);
      let lo = s.warm + paced and hi = s.warm + s.meas in
      let apply_ns = chunked lo hi ~timed:true in
      ignore (chunked hi (Array.length s.evs) ~timed:false);
      take (now_ns ()) (Serve.Fleet.quiesce fl);
      Array.iteri (fun item ok -> if not ok then fail "fleet never answered item %d" item) seen;
      (* Routing alone, over the measured arrivals. *)
      let router = Dbp_serve.Router.create ~policy:Dbp_serve.Router.Size_class ~shards:1 ~capacity:Rat.one ~k:Rat.two in
      let routed = ref 0 in
      let t0 = now_ns () in
      for i = s.warm to s.warm + s.meas - 1 do
        if s.evs.(i).Stream.arrival then begin
          ignore (Dbp_serve.Router.route router ~alive:(fun _ -> true) ~size:r.sizes.(i) ~item_id:s.evs.(i).Stream.item);
          incr routed
        end
      done;
      let route_ns = ns_per (now_ns () - t0) !routed in
      {
        apply_ns = ns_per apply_ns (hi - lo);
        route_ns;
        visible = Client.Samples.sorted visible;
        first_poll_hit = Probe.per !hits !paced_arrivals;
        per_poll = Probe.per !polled !polls;
        backlog_max = !backlog_max;
      })

(* ---- batch layers ---------------------------------------------------- *)

let timed_alloc f =
  Gc.compact ();
  let w0 = Probe.alloc_words () in
  let t0 = now_ns () in
  let x = f () in
  let dt = now_ns () - t0 in
  (x, dt, Probe.alloc_words () -. w0)

(* What `dbp simulate` does, call by call, on [inst] saved as a CSV. *)
let batch inst ~path =
  Dbp_workload.Trace.save inst ~path;
  let loaded, load_ns, load_words = timed_alloc (fun () -> Dbp_workload.Trace.load ~path) in
  let n = Instance.size loaded in
  let _, mu_ns, _ = timed_alloc (fun () -> Instance.mu loaded) in
  let packing, run_ns, run_words = timed_alloc (fun () -> Simulator.run ~policy:(Probe.first_fit ()) loaded) in
  let ok, validate_ns, _ = timed_alloc (fun () -> Packing.validate packing) in
  (match ok with Ok () -> () | Error m -> fail "Packing.validate: %s" m);
  Sys.remove path;
  let nf = float_of_int n in
  [
    ("csv.load_ns_per_item", float_of_int load_ns /. nf, "ns");
    ("csv.alloc_words_per_item", load_words /. nf, "words");
    ("mu.ns_per_item", float_of_int mu_ns /. nf, "ns");
    ("replay.ns_per_event", float_of_int run_ns /. (2.0 *. nf), "ns");
    ("replay.alloc_words_per_event", run_words /. (2.0 *. nf), "words");
    ("validate.ns_per_item", float_of_int validate_ns /. nf, "ns");
  ]

(* ---- the command ------------------------------------------------------ *)

let measured_events (w : Workloads.t) =
  match w.Workloads.name with "serve-dense" -> 40_000 | _ -> 200_000

let cmd args =
  let w = workload args in
  let seed = int_of_string (arg args "seed") in
  let seconds = float_of_string (arg args "seconds") in
  check_pin ();
  let s = build w ~seed ~meas:(measured_events w) in
  let r = rats s in
  let t_build = now_ns () in
  let plain_eps, gcs = engine_plain s r in
  let tr = engine_traced s r in
  let c = engine_counted s r in
  report "  engine: %.0f ev/s plain, %.0f ev/s traced (%.1f s)" plain_eps tr.t_events_per_s
    (Probe.seconds_since t_build);
  let text = wire s in
  let feed_ns, feed_words, bytes_in = feed s text in
  let read_ns = sock_in s text in
  let fmt_ns, write_ns, bytes_out = wire_out s c in
  let mb = fleet s r c in
  let v = mb.visible in
  if not (Stats.supported ~n:(Array.length v) ~p:99) then
    fail "mailbox: %d paced answers cannot support a p99" (Array.length v);
  let inst =
    if w.Workloads.name = "batch-replay" then Workloads.batch_instance ~seed
    else Stream.instance s.src ~items:s.items
  in
  let batch_metrics = batch inst ~path:"layers-trace.csv" in
  (* A short serve run for the generator's own validity figures, the
     tail percentiles and the SLO ladder. *)
  let sr =
    Serve_run.run ~dbp:(arg args "dbp") w ~seed ~rounds:(Serve_run.rounds_for ~seconds:(seconds /. 2.0))
      ~setups:1 ~saturation:true ~ladder:true
  in
  let late = Client.Samples.sorted sr.Serve_run.late in
  let k = c.counts in
  let metrics =
    [
      ("feed.ns_per_event", feed_ns, "ns");
      ("feed.alloc_words_per_event", feed_words, "words");
      ("fleet.apply_ns_per_event", mb.apply_ns, "ns");
      ("router.route_ns_per_call", mb.route_ns, "ns");
      ("mailbox.visible_us.p50", Stats.percentile v ~p:50, "us");
      ("mailbox.visible_us.p99", Stats.percentile v ~p:99, "us");
      ("mailbox.first_poll_hit_frac", mb.first_poll_hit, "frac");
      ("mailbox.placements_per_poll", mb.per_poll, "count");
      ("mailbox.backlog_max", float_of_int mb.backlog_max, "count");
      ("format.ns_per_placement", fmt_ns, "ns");
      ("sock.read_ns_per_event", read_ns, "ns");
      ("sock.write_ns_per_event", write_ns, "ns");
      ("sock.bytes_in_per_event", bytes_in, "B");
      ("sock.bytes_out_per_arrival", bytes_out, "B");
      ("engine.events_per_s", plain_eps, "1/s");
      ("engine.arrive_ns", tr.arrive_ns, "ns");
      ("engine.depart_ns", tr.depart_ns, "ns");
      ("engine.views_ns_per_arrival", tr.views_ns, "ns");
      ("engine.policy_ns_per_arrival", tr.policy_ns, "ns");
      ("engine.commit_ns_per_event", tr.commit_ns, "ns");
      ("engine.alloc_words_per_arrival", c.words_arrival, "words");
      ("engine.alloc_words_per_departure", c.words_departure, "words");
      ("engine.minor_gcs_per_kevent", gcs, "count");
      ("policy.views_offered_per_arrival", Probe.per k.Probe.offered k.Probe.arrivals, "count");
      ("policy.views_examined_per_arrival", Probe.per k.Probe.examined k.Probe.arrivals, "count");
      ("policy.useful_view_frac", Probe.per k.Probe.examined k.Probe.offered, "frac");
      ("policy.new_bin_frac", Probe.per k.Probe.new_bins k.Probe.arrivals, "frac");
      ("engine.open_bins_mean", c.open_mean, "count");
      ("engine.open_bins_max", float_of_int c.open_max, "count");
      ("engine.bins_opened", float_of_int c.bins_opened, "count");
      ("engine.bin_close_frac", c.close_frac, "frac");
    ]
    @ batch_metrics
    @ [
        ("client.late_us.max", late.(Array.length late - 1), "us");
        ("client.late_us.p99", Stats.percentile late ~p:99, "us");
        ("client.inflight_max", float_of_int sr.Serve_run.inflight_max, "count");
        ("client.p99_us.low", sr.Serve_run.low_p99, "us");
        ("client.p99_us.high", sr.Serve_run.high_p99, "us");
        ("client.slo_events_per_s", Option.value sr.Serve_run.slo ~default:0.0, "1/s");
        ("tracing.overhead_frac", 1.0 -. (tr.t_events_per_s /. plain_eps), "frac");
      ]
  in
  List.iter (fun (n, v, u) -> report "  %-36s %14.3f %s" n v u) metrics;
  print_endline
    (result_line ~correct:sr.Serve_run.correct ~attempted:(s.meas + sr.Serve_run.attempted) ~failed:0 metrics)
