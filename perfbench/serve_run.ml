(* One serve run end to end, and the checks that hold the daemon to the
   batch engine. *)

open Dbp_num
open Dbp_core
open Cli
module TE = Dbp_obs.Trace_event


let summary_fields line =
  match TE.parse_flat_object line with
  | Ok f -> f
  | Error e -> fail "summary line: %s" e

let str_field f k = match List.assoc_opt k f with Some (TE.Str s) -> s | _ -> fail "summary: no %s" k
let int_field f k = match List.assoc_opt k f with Some (TE.Int i) -> i | _ -> fail "summary: no %s" k

type regime = { open_mean : float; open_max : int; close_frac : float; bins_opened : int }

(* Replays the items the daemon saw through Simulator.run and holds
   the daemon to it: the summary's exact cost, one answer per arrival,
   and every placement's bin.  Returns the regime the stream was in
   after the warm-up ([from_item] on, events up to [until_s]). *)
let check_against_batch (c : Client.conn) src ~summary ~from_item ~since_s ~until_s =
  let n = Stream.delivered c.Client.cur in
  for i = 0 to n - 1 do
    if c.Client.bins.(i) < 0 then fail "arrival %d was never answered" i
  done;
  let inst = Stream.instance src ~items:n in
  let counts = Probe.counts ~from_item () in
  let packing = Simulator.run ~policy:(Probe.counting (Probe.first_fit ()) counts) inst in
  let f = summary_fields summary in
  let want = Rat.to_string packing.Packing.total_cost in
  let ok = ref true in
  let mismatch fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); ok := false) fmt in
  if str_field f "cost" <> want then mismatch "daemon cost %s, Simulator.run %s" (str_field f "cost") want;
  if int_field f "arrivals" <> n then mismatch "daemon counted %d arrivals of %d" (int_field f "arrivals") n;
  (match Array.find_index (fun x -> x) (Array.init n (fun i -> packing.Packing.assignment.(i) <> c.Client.bins.(i))) with
  | Some i ->
      mismatch "item %d placed in bin %d, Simulator.run says %d" i c.Client.bins.(i)
        packing.Packing.assignment.(i)
  | None -> ());
  let in_window t = Rat.(t > Stream.rat_of_scaled since_s) && Rat.(t <= Stream.rat_of_scaled until_s) in
  let closes =
    Array.fold_left (fun k (b : Packing.bin_record) -> if in_window b.Packing.closed then k + 1 else k) 0
      packing.Packing.bins
  in
  let departures =
    Array.fold_left (fun k (it : Item.t) -> if in_window it.Item.departure then k + 1 else k) 0
      (Instance.items inst)
  in
  ( !ok,
    {
      open_mean = Probe.per counts.Probe.offered counts.Probe.arrivals;
      open_max = packing.Packing.max_bins;
      close_frac = Probe.per closes departures;
      bins_opened = Array.length packing.Packing.bins;
    } )

(* The regime each workload must stay in; a run that drifts out of it
   measures something else and fails. *)
let check_regime (w : Workloads.t) r =
  let bad fmt = Printf.ksprintf (fun m -> fail "%s left its regime: %s" w.Workloads.name m) fmt in
  match w.Workloads.name with
  | "serve-dense" ->
      if r.open_mean < 3000.0 then bad "%.0f open bins on average, want >= 3000" r.open_mean;
      if r.close_frac >= 0.05 then bad "%.1f%% of departures close a bin, want < 5%%" (100.0 *. r.close_frac)
  | _ ->
      (* ~4 open on average.  The maximum grows with the stream's length
         (15 over 1M events, 17 over 2M), so it gets room to spare. *)
      if r.open_mean > 8.0 then bad "%.1f open bins on average, want <= 8" r.open_mean;
      if r.open_max > 32 then bad "%d bins open at once, want <= 32" r.open_max

let print_phase name (r : Client.open_result) (l : Client.latency) ~valid =
  let late = Client.Samples.sorted r.Client.o_late in
  report "  %-5s rate %8.0f ev/s  n=%6d  p50 %8.1f us  max %9.1f us  late p50 %.0f p90 %.0f max %.0f us%s" name
    r.Client.o_rate l.Client.n l.Client.p50 l.Client.max (Stats.percentile late ~p:50)
    (Stats.percentile late ~p:90) late.(Array.length late - 1)
    (if valid then "" else "  INVALID: the generator fell behind its schedule")

type t = {
  correct : bool;
  attempted : int;
  events_per_s : float;  (** nan when the run had no saturation phase *)
  low_p50 : float;
  low_p99 : float;
  high_p50 : float;
  high_p99 : float;
  slo : float option;  (** The ladder's answer; [None] when no step held or no ladder ran. *)
  setup_s : float;
  rss_mb : float;
  late : Client.Samples.t;  (** Generator lateness over the open phases. *)
  inflight_max : int;  (** Most arrivals in flight in the open phases. *)
}

let setups = 3

(* One round: 1.5 s of saturation, 1600 events (0.8 s) at the low rate
   and half a second at the high rate.  A round is short so that a run
   holds several.  A round's saturation rate varies both ways with how
   the answer bursts fall in its window, so the run reports the median
   over rounds.  A p50 at a fixed rate barely moves between quiet
   rounds, but the host's steal spells last minutes and only ever make
   it worse (one spell put the high-rate p50 of three rounds in four at
   3-50x the quiet value), so the run reports its best round, the one
   least disturbed, where a median would report the spell. *)
let sat_seconds = 1.5
let low_events = 1600
let high_seconds = 0.5
let round_seconds = 3.0

let rounds_for ~seconds = max 3 (int_of_float (seconds /. round_seconds))

(* A round whose open phase was invalid does not count for that phase;
   up to [extra_rounds] more rounds are run while fewer than half the
   rounds gave a valid figure. *)
let extra_rounds = 2

(* The p-th percentile of the pooled samples, or nan if they cannot
   support it. *)
let pooled ~p (ls : Client.latency list) =
  let a = Array.concat (List.map (fun (l : Client.latency) -> Client.Samples.sorted l.Client.samples) ls) in
  Array.sort Float.compare a;
  if Stats.supported ~n:(Array.length a) ~p then Stats.percentile a ~p else Float.nan

(* One serve run: [setups] daemons are started and warmed up (the
   median is setup_s).  The last one then runs [rounds] rounds of
   saturation (if [saturation]), the low rate and the high rate back
   to back, then the SLO ladder (if [ladder]); then the daemon is
   drained and checked against the batch engine. *)
let run ~dbp (w : Workloads.t) ~seed ~rounds ~setups ~saturation ~ladder =
  let attempted = ref 0 in
  let t_start = Probe.now_ns () in
  (* Each set-up starts a fresh daemon and retires the previous one;
     setup_s is their median, and the last one started carries on. *)
  let current = ref None in
  let retire () =
    Option.iter
      (fun (d, _, c, _) ->
        attempted := !attempted + c.Client.events_sent;
        Unix.close c.Client.fd;
        ignore (Client.stop_daemon d))
      !current
  in
  let setup_s =
    Stats.median
      (List.init setups (fun n ->
           retire ();
           let ((_, _, _, s) as x) = Client.start ~dbp ~log:"serve.log" w ~seed in
           report "  setup %d: accept %.4f s, warm-up done %.4f s" (n + 1) s.Client.accept_s s.Client.setup_s;
           current := Some x;
           s.Client.setup_s))
  in
  let d, src, c, _ = Option.get !current in
  (* Memory is read at a fixed point of the stream, the end of the
     warm-up: the daemon keeps every placement it ever made, so a peak
     read after phases of varying length would track their length. *)
  let rss = Client.peak_rss_mb d.Client.pid in
  Fun.protect
    ~finally:(fun () -> ignore (Client.stop_daemon d))
    (fun () ->
      let from_item = Stream.delivered c.Client.cur in
      let since_s = c.Client.last_time_s in
      let late = Client.Samples.create () and inflight_max = ref 0 in
      let t_rounds = Probe.now_ns () and ticks = Probe.cpu_ticks () in
      let fixed name rate n =
        let r = Client.open_loop c ~rate ~n in
        let l = Client.latency name r.Client.o_lat in
        let valid = not (Client.behind r) in
        print_phase name r l ~valid;
        for i = 0 to r.Client.o_late.Client.Samples.n - 1 do
          Client.Samples.add late r.Client.o_late.Client.Samples.a.(i)
        done;
        inflight_max := max !inflight_max r.Client.o_inflight_max;
        if valid then Some l else None
      in
      let round i =
        let eps =
          if saturation then begin
            let eps = Client.saturation c ~seconds:sat_seconds ~settle_s:0.2 in
            Client.guard_band c ~rate:Workloads.low_rate;
            report "  round %d: saturation %8.0f ev/s" (i + 1) eps;
            eps
          end
          else Float.nan
        in
        let low = fixed "low" Workloads.low_rate low_events in
        let high =
          fixed "high" w.Workloads.high_rate (Stats.events_for ~rate:w.Workloads.high_rate ~seconds:high_seconds)
        in
        Client.guard_band c ~rate:Workloads.low_rate;
        (eps, low, high)
      in
      let lows = List.filter_map (fun (_, l, _) -> l) and highs = List.filter_map (fun (_, _, h) -> h) in
      let rec go rs n =
        let short f = 2 * List.length (f rs) < List.length rs in
        if n < rounds || (n < rounds + extra_rounds && (short lows || short highs)) then go (rs @ [ round n ]) (n + 1)
        else rs
      in
      let rs = go [] 0 in
      let lows = lows rs and highs = highs rs in
      if lows = [] || highs = [] then
        fail "the generator fell behind its schedule in every round; no latency can be reported";
      report "  %d rounds in %.1f s, host steal %.1f%% of the CPUs" (List.length rs)
        (Probe.seconds_since t_rounds) (100.0 *. Probe.steal_since ticks);
      let best_p50 ls = List.fold_left (fun m (l : Client.latency) -> Float.min m l.Client.p50) Float.infinity ls in
      let events_per_s = if saturation then Stats.median (List.map (fun (e, _, _) -> e) rs) else Float.nan in
      let slo =
        if ladder then begin
          let steps, slo = Client.ladder c ~saturation:events_per_s in
          List.iter
            (fun (s : Client.step) ->
              report "  ladder  %8.0f ev/s  n=%6d  p99 %8.1f us (median of %d windows)  %s" s.Client.rate s.Client.n
                s.Client.p99 Client.sub_windows
                (if s.Client.pass then "pass" else "FAIL"))
            steps;
          slo
        end
        else None
      in
      let low_p99 = pooled ~p:99 lows and high_p99 = pooled ~p:99 highs in
      report "  pooled over valid rounds: p90_us.low %.1f, p99_us.low %.1f, p90_us.high %.1f, p99_us.high %.1f (nan: too few samples)"
        (pooled ~p:90 lows) low_p99 (pooled ~p:90 highs) high_p99;
      if ladder then
        report "  slo_events_per_s %s"
          (match slo with
          | Some r -> Printf.sprintf "%.0f 1/s" r
          | None -> Printf.sprintf "none: no ladder step held a p99 within %.0f us" Workloads.slo_p99_us);
      let until_s = c.Client.last_time_s in
      let t_check = Probe.now_ns () in
      let summary = Client.finish c in
      attempted := !attempted + c.Client.events_sent;
      (match Client.stop_daemon d with
      | Unix.WEXITED 0 -> ()
      | _ -> fail "dbp serve did not exit cleanly on SIGTERM");
      let ok, regime = check_against_batch c src ~summary ~from_item ~since_s ~until_s in
      report "  regime: %.1f open bins on average (max %d), %d bins opened, %.2f%% of departures close a bin"
        regime.open_mean regime.open_max regime.bins_opened (100.0 *. regime.close_frac);
      check_regime w regime;
      report "  drain and checks %.1f s; whole serve run %.1f s" (Probe.seconds_since t_check)
        (Probe.seconds_since t_start);
      {
        correct = ok;
        attempted = !attempted;
        events_per_s;
        low_p50 = best_p50 lows;
        low_p99;
        high_p50 = best_p50 highs;
        high_p99;
        slo;
        setup_s;
        rss_mb = rss;
        late;
        inflight_max = !inflight_max;
      })

(* The end-to-end metrics a serve run is held to; a run without a
   saturation phase has no events_per_s.  The SLO rate and the tail
   percentiles are measured in the traced run and printed, but not
   gated: their run-to-run spread exceeds any usable bound (see
   README.md). *)
let metrics r =
  [
    ("events_per_s", r.events_per_s, "1/s");
    ("p50_us.low", r.low_p50, "us");
    ("p50_us.high", r.high_p50, "us");
    ("setup_s", r.setup_s, "s");
    ("peak_rss_mb", r.rss_mb, "MB");
  ]
  |> List.filter (fun (_, v, _) -> not (Float.is_nan v))
