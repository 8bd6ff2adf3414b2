(* The serve harness: one single-threaded generator on one connection to
   a separate `dbp serve --socket` process.

   Closed-loop phases (warm-up, saturation, drain) keep at most
   [Workloads.window] arrivals in flight.  Open-loop phases send each
   event at its scheduled time whatever the daemon is doing, and time
   every placement from when its arrival was due, so a stall is charged
   to every arrival queued behind it.  Lines the socket cannot take yet
   wait in the generator's own queue; that wait is back-pressure, and
   it counts in latency.  How late the generator itself put an event on
   that queue is recorded apart, and a phase the generator fell behind
   in is marked invalid (see [behind]) rather than reported. *)

open Stream

let now_ns = Probe.now_ns

(* ---- growable float samples ---------------------------------------- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add s x =
    if s.n = Array.length s.a then s.a <- Array.append s.a (Array.make s.n 0.0);
    s.a.(s.n) <- x;
    s.n <- s.n + 1

  let sorted s = Stats.sorted_copy s.a s.n
end

(* ---- the daemon process --------------------------------------------- *)

let socket_name = "serve.sock"

type daemon = { pid : int; spawned_ns : int; mutable alive : bool }

let spawn_daemon ~dbp ~log =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let inp = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let spawned_ns = now_ns () in
  let args =
    [| dbp; "serve"; "--socket"; socket_name; "--shards"; "1"; "--policy"; "first-fit"; "--grid-den";
       string_of_int Stream.quantum |]
  in
  let pid = Unix.create_process dbp args inp out out in
  Unix.close out;
  Unix.close inp;
  { pid; spawned_ns; alive = true }

(* SIGTERM, then SIGKILL if it has not exited within ten seconds;
   always reaps.  Returns the exit status. *)
let stop_daemon d =
  if not d.alive then Unix.WEXITED 0
  else begin
    d.alive <- false;
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now_ns () + 10_000_000_000 in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ ->
          if now_ns () < deadline then begin
            Unix.sleepf 0.005;
            wait ()
          end
          else begin
            (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
            snd (Unix.waitpid [] d.pid)
          end
      | _, st -> st
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    wait ()
  end

(* Peak resident set of a live process, from /proc (Linux). *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> failwith "no VmHWM in /proc status"
      in
      go ())

let connect d =
  let deadline = now_ns () + 60_000_000_000 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket_name) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
        | 0, _ -> ()
        | _ ->
            d.alive <- false;
            failwith "dbp serve exited before accepting a connection");
        if now_ns () > deadline then failwith "dbp serve never accepted a connection";
        Unix.sleepf 0.0005;
        go ()
  in
  go ()

(* ---- one connection ------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  out : Obuf.t;
  inbuf : Bytes.t;
  mutable inlen : int;
  cur : Stream.cursor;
  mutable seq : int;  (* next sequence number *)
  mutable bins : int array;  (* per item: answered bin, -1 while in flight *)
  mutable due : int array;  (* per item: due time, ns *)
  mutable tag : int array;  (* per item: latency sample set, -1 for none *)
  mutable seq_of : int array;
  mutable inflight : int;
  mutable last_answered_seq : int;
  mutable drained_seq : int;
  mutable drained_ns : int;
      (* [last_answered_seq] and the time, at the latest read that
         emptied the socket: the end of one burst of answers *)
  mutable oldest : int;  (* smallest item id not yet answered *)
  mutable sets : Samples.t array;
  mutable summary : string option;
  mutable eof : bool;
  mutable events_sent : int;
  mutable last_time_s : int;  (* stream time of the latest event sent *)
}

let open_conn fd cur =
  Unix.set_nonblock fd;
  {
    fd;
    out = Obuf.create ();
    inbuf = Bytes.create 262144;
    inlen = 0;
    cur;
    seq = 0;
    bins = Array.make 4096 (-1);
    due = Array.make 4096 0;
    tag = Array.make 4096 (-1);
    seq_of = Array.make 4096 0;
    inflight = 0;
    last_answered_seq = -1;
    drained_seq = -1;
    drained_ns = 0;
    oldest = 0;
    sets = [||];
    summary = None;
    eof = false;
    events_sent = 0;
    last_time_s = 0;
  }

let new_set c =
  c.sets <- Array.append c.sets [| Samples.create () |];
  Array.length c.sets - 1

let send c ~due ~tag =
  let e = Stream.next c.cur in
  if e.arrival then begin
    let i = e.item in
    c.bins <- grow ~fill:(-1) c.bins i;
    c.due <- grow c.due i;
    c.tag <- grow ~fill:(-1) c.tag i;
    c.seq_of <- grow c.seq_of i;
    c.bins.(i) <- -1;
    c.due.(i) <- due;
    c.tag.(i) <- tag;
    c.seq_of.(i) <- c.seq;
    c.inflight <- c.inflight + 1
  end;
  add_line c.out ~seq:c.seq e;
  c.seq <- c.seq + 1;
  c.events_sent <- c.events_sent + 1;
  c.last_time_s <- e.time_s

let send_departure c =
  match Stream.next_departure c.cur with
  | None -> false
  | Some e ->
      add_line c.out ~seq:c.seq e;
      c.seq <- c.seq + 1;
      c.events_sent <- c.events_sent + 1;
      true

(* ---- reading placements -------------------------------------------- *)

let fail fmt = Printf.ksprintf failwith fmt

(* Placement lines have one fixed shape:
   {"kind":"place","seq":S,"item":I,"bin":B,"shard":K} *)
let place_prefix = {|{"kind":"place","seq":|}

let matches b pos s =
  let n = String.length s in
  pos + n <= Bytes.length b
  &&
  let rec go i = i = n || (Bytes.get b (pos + i) = s.[i] && go (i + 1)) in
  go 0

let parse_int b pos stop =
  let i = ref pos and v = ref 0 in
  while !i < stop && Bytes.get b !i >= '0' && Bytes.get b !i <= '9' do
    v := (!v * 10) + (Char.code (Bytes.get b !i) - 48);
    incr i
  done;
  if !i = pos then (-1, pos) else (!v, !i)

let expect b pos stop s =
  if pos + String.length s <= stop && matches b pos s then pos + String.length s
  else fail "malformed placement line: %S" (Bytes.sub_string b 0 (min stop 200))

let answer c ~now ~seq ~item ~bin =
  if item < 0 || item >= Stream.delivered c.cur then fail "placement for unknown item %d" item;
  if c.bins.(item) >= 0 then fail "item %d answered twice" item;
  if c.seq_of.(item) <> seq then fail "item %d answered with seq %d, sent as %d" item seq c.seq_of.(item);
  c.bins.(item) <- bin;
  c.inflight <- c.inflight - 1;
  if seq > c.last_answered_seq then c.last_answered_seq <- seq;
  let tg = c.tag.(item) in
  if tg >= 0 then Samples.add c.sets.(tg) (float_of_int (now - c.due.(item)) /. 1000.0)

let handle_line c ~now start stop =
  let b = c.inbuf in
  if matches b start place_prefix then begin
    let seq, p = parse_int b (start + String.length place_prefix) stop in
    let p = expect b p stop {|,"item":|} in
    let item, p = parse_int b p stop in
    let p = expect b p stop {|,"bin":|} in
    let bin, p = parse_int b p stop in
    let p = expect b p stop {|,"shard":|} in
    let _shard, p = parse_int b p stop in
    ignore (expect b p stop "}");
    if seq < 0 || item < 0 || bin < 0 then
      fail "malformed placement line: %S" (Bytes.sub_string b start (stop - start));
    answer c ~now ~seq ~item ~bin
  end
  else
    let line = Bytes.sub_string b start (stop - start) in
    if matches b start {|{"kind":"summary"|} then c.summary <- Some line
    else fail "daemon: %s" line

let read_some c =
  let cap = Bytes.length c.inbuf in
  if c.inlen = cap then fail "daemon line longer than %d bytes" cap;
  match Unix.read c.fd c.inbuf c.inlen (cap - c.inlen) with
  | 0 -> c.eof <- true
  | n ->
      let now = now_ns () in
      let stop = c.inlen + n in
      let start = ref 0 in
      for i = c.inlen to stop - 1 do
        if Bytes.get c.inbuf i = '\n' then begin
          if i > !start then handle_line c ~now !start i;
          start := i + 1
        end
      done;
      Bytes.blit c.inbuf !start c.inbuf 0 (stop - !start);
      if n < cap - c.inlen then begin
        c.drained_seq <- c.last_answered_seq;
        c.drained_ns <- now
      end;
      c.inlen <- stop - !start
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* Write what the socket takes, then wait up to [timeout_ns] for the
   daemon to answer (or for room to write more). *)
let pump c ~timeout_ns =
  if Obuf.pending c.out > 0 then ignore (Obuf.write_some c.out c.fd);
  let wr = if Obuf.pending c.out > 0 then [ c.fd ] else [] in
  let timeout = float_of_int (max 0 timeout_ns) /. 1e9 in
  match Unix.select [ c.fd ] wr [] timeout with
  | rs, ws, _ ->
      if ws <> [] then ignore (Obuf.write_some c.out c.fd);
      if rs <> [] then read_some c
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let advance_oldest c =
  let n = Stream.delivered c.cur in
  while c.oldest < n && c.bins.(c.oldest) >= 0 do
    c.oldest <- c.oldest + 1
  done

(* Wait until every arrival sent so far is answered, poking the daemon
   with a blank line (ignored by the wire protocol) every millisecond:
   it answers only after reading input, or on its 0.2 s idle tick. *)
let settle c =
  let deadline = now_ns () + 10_000_000_000 in
  while c.inflight > 0 do
    if now_ns () > deadline then fail "%d arrivals unanswered after 10 s" c.inflight;
    if c.eof then fail "daemon closed the connection with %d arrivals unanswered" c.inflight;
    if Obuf.pending c.out = 0 then Obuf.add_string c.out "\n";
    pump c ~timeout_ns:1_000_000
  done

(* ---- phases --------------------------------------------------------- *)

(* Closed loop until [stop ()]; every arrival is due when it is sent.
   The daemon answers only after it reads input (or on its 0.2 s idle
   tick), so while the window is full the generator sends a blank line,
   which the wire protocol ignores, every millisecond: answers then
   leave as soon as the shard posts them, and the loop measures the
   daemon's work rather than its tick. *)
let closed c ~stop =
  let last_poke = ref 0 in
  while not (stop ()) do
    while c.inflight < Workloads.window && Obuf.pending c.out < 262144 && not (stop ()) do
      send c ~due:(now_ns ()) ~tag:(-1)
    done;
    let now = now_ns () in
    if c.inflight >= Workloads.window && Obuf.pending c.out = 0 && now - !last_poke >= 1_000_000 then begin
      Obuf.add_string c.out "\n";
      last_poke := now
    end;
    pump c ~timeout_ns:1_000_000;
    if c.eof then fail "daemon closed the connection"
  done

(* Sustained throughput: closed loop for [seconds].  The shard posts a
   whole mailbox batch of answers at once, so answers arrive in bursts;
   the rate is taken between the ends of two bursts (reads that emptied
   the socket), the first after [settle_s] of loading and the last
   before the end: events answered over the time between them. *)
let saturation c ~seconds ~settle_s =
  let t0 = now_ns () in
  let t_mark = t0 + int_of_float (settle_s *. 1e9) in
  let t_end = t0 + int_of_float (seconds *. 1e9) in
  let mark = ref None in
  closed c ~stop:(fun () ->
      (if !mark = None && c.drained_ns >= t_mark then mark := Some (c.drained_seq, c.drained_ns));
      now_ns () >= t_end);
  match !mark with
  | Some (seq_a, ns_a) when c.drained_ns > ns_a ->
      float_of_int (c.drained_seq - seq_a) /. (float_of_int (c.drained_ns - ns_a) /. 1e9)
  | _ -> fail "saturation: fewer than two answer bursts in %.1f s" seconds

type open_result = {
  o_rate : float;
  o_lat : Samples.t;  (* placement latency, us *)
  o_late : Samples.t;  (* how late the generator queued each event, us *)
  o_arrivals : int;
  o_backlogged : bool;
      (** At the end of the schedule an unanswered arrival was already
          older than the latency limit. *)
  o_inflight_max : int;
}

(* Open loop at [rate] for [n] events starting now. *)
let open_loop c ~rate ~n =
  let tag = new_set c in
  let late = Samples.create () in
  let start = now_ns () in
  let first_item = Stream.delivered c.cur in
  let k = ref 0 and inflight_max = ref 0 in
  while !k < n do
    let now = now_ns () in
    while !k < n && Stats.due_ns ~start_ns:start ~rate !k <= now do
      let due = Stats.due_ns ~start_ns:start ~rate !k in
      send c ~due ~tag;
      Samples.add late (float_of_int (now - due) /. 1000.0);
      if c.inflight > !inflight_max then inflight_max := c.inflight;
      incr k
    done;
    if !k < n then pump c ~timeout_ns:(Stats.due_ns ~start_ns:start ~rate !k - now_ns ());
    if c.eof then fail "daemon closed the connection"
  done;
  ignore (Obuf.write_some c.out c.fd);
  advance_oldest c;
  let limit_ns = int_of_float (Workloads.slo_p99_us *. 1000.0) in
  let backlogged =
    c.oldest < Stream.delivered c.cur && c.due.(c.oldest) < now_ns () - limit_ns
  in
  {
    o_rate = rate;
    o_lat = c.sets.(tag);
    o_late = late;
    o_arrivals = Stream.delivered c.cur - first_item;
    o_backlogged = backlogged;
    o_inflight_max = !inflight_max;
  }

(* Keep the schedule going at [rate], untimed, until every arrival
   sent before the guard band began is answered.  Stopping instead
   would leave the last answers waiting for the daemon's idle tick,
   since it answers only after reading input. *)
let guard_band c ~rate =
  let until_item = Stream.delivered c.cur in
  let deadline = now_ns () + 10_000_000_000 in
  let start = now_ns () in
  let k = ref 0 in
  advance_oldest c;
  while c.oldest < until_item do
    let now = now_ns () in
    if now > deadline then fail "the daemon did not catch up within 10 s";
    while Stats.due_ns ~start_ns:start ~rate !k <= now do
      send c ~due:now ~tag:(-1);
      incr k
    done;
    pump c ~timeout_ns:(Stats.due_ns ~start_ns:start ~rate !k - now_ns ());
    if c.eof then fail "daemon closed the connection";
    advance_oldest c
  done

(* ---- generator honesty ---------------------------------------------- *)

(* A phase is invalid when the generator, not the daemon, missed the
   schedule.  The host steals short slices from the CPUs (1-9 ms stalls
   even when idle), which every process suffers alike; a generator that
   cannot keep up is late on most events instead.  So the median
   lateness must stay within a fifth of the latency limit, and the last
   event must be queued within ten limits of its due time. *)
let max_late_p50_us = Workloads.slo_p99_us /. 5.0
let max_late_last_us = 10.0 *. Workloads.slo_p99_us

let behind (r : open_result) =
  let s = r.o_late in
  s.Samples.n > 0
  &&
  let late = Samples.sorted s in
  Stats.percentile late ~p:50 > max_late_p50_us || s.Samples.a.(s.Samples.n - 1) > max_late_last_us

(* Sample count, median and maximum of one phase; its p99 is taken only
   once enough samples are pooled (Stats.supported). *)
type latency = { n : int; p50 : float; max : float; samples : Samples.t }

let latency name (s : Samples.t) =
  if s.Samples.n = 0 then fail "phase %s: no arrival was timed" name;
  let a = Samples.sorted s in
  { n = s.Samples.n; p50 = Stats.percentile a ~p:50; max = a.(Array.length a - 1); samples = s }

(* ---- the SLO ladder ------------------------------------------------- *)

type step = { k : int; rate : float; n : int; p99 : float; pass : bool }

(* A step passes when the median of its three consecutive sub-window
   p99s is within the limit and no backlog built up: a single host
   stall (the CPUs are descheduled for 1-9 ms at a time) then spoils
   one sub-window, not the step. *)
let sub_windows = 3

let ladder_step c k =
  let rate = Stats.ladder_rate k in
  let name = Printf.sprintf "ladder@%.0f" rate in
  let n = max (2 * sub_windows * 1200) (Stats.events_for ~rate ~seconds:0.25) in
  let r = open_loop c ~rate ~n in
  (* Past the knee the generator shares the CPUs with an overloaded
     daemon and can fall behind too; such a step is invalid, which
     counts as a failure, never as a pass. *)
  let valid = not (behind r) in
  (* Catch up at the step's own rate when it held, at the low rate when
     it did not, so the next step starts from an empty queue. *)
  guard_band c ~rate:(if r.o_backlogged || not valid then Workloads.low_rate else rate);
  let m = r.o_lat.Samples.n / sub_windows in
  let p99s =
    List.init sub_windows (fun i ->
        let w = Stats.sorted_copy (Array.sub r.o_lat.Samples.a (i * m) m) m in
        if not (Stats.supported ~n:m ~p:99) then fail "%s: sub-window of %d samples" name m;
        Stats.percentile w ~p:99)
  in
  let p99 = Stats.median p99s in
  { k; rate; n = r.o_lat.Samples.n; p99; pass = valid && p99 <= Workloads.slo_p99_us && not r.o_backlogged }

(* Coarse steps of six grid points (x1.27) climb from 30% of
   saturation, then single steps (x1.04) climb from the highest coarse
   pass.  Each climb ends after two failures in a row, so one step
   spoilt by a host stall does not end it, while a rate past the knee,
   where the backlog grows, fails every time.  The answer is the
   highest passing grid rate, or [None] when no step held. *)
let ladder c ~saturation =
  let coarse = 6 in
  let cap = Stats.ladder_index_below (2.0 *. saturation) in
  let steps = ref [] in
  let run k =
    let s = ladder_step c k in
    steps := s :: !steps;
    s.pass
  in
  let best () = List.fold_left (fun b s -> if s.pass && s.k > b then s.k else b) (-1) !steps in
  (* Climb from [k] by [by] until two failures in a row, [limit], or
     the cap. *)
  let climb k ~by ~limit =
    let rec go k fails =
      if k <= min cap limit && fails < 2 then go (k + by) (if run k then 0 else fails + 1)
    in
    go k 0
  in
  let k0 = Stats.ladder_index_below (0.3 *. saturation) in
  climb k0 ~by:coarse ~limit:max_int;
  (* Nothing held from 30% of saturation up: look below it. *)
  if best () < 0 then climb (max 0 (k0 - (3 * coarse))) ~by:coarse ~limit:(k0 - 1);
  let b = best () in
  if b >= 0 then climb (b + 1) ~by:1 ~limit:(b + coarse - 1);
  let b = best () in
  (List.rev !steps, if b < 0 then None else Some (Stats.ladder_rate b))

(* ---- a whole serve run ---------------------------------------------- *)

type setup = { setup_s : float; accept_s : float }

(* Spawn a daemon, connect, run the warm-up and wait for its last
   answer.  The connection is left open. *)
let start ~dbp ~log (w : Workloads.t) ~seed =
  let d = spawn_daemon ~dbp ~log in
  match
    let fd = connect d in
    let accept_ns = now_ns () in
    let src = Stream.create w.Workloads.shape ~seed in
    let c = open_conn fd (Stream.cursor src) in
    closed c ~stop:(fun () -> c.events_sent >= w.Workloads.warmup_events);
    settle c;
    let done_ns = now_ns () in
    ( d,
      src,
      c,
      {
        setup_s = float_of_int (done_ns - d.spawned_ns) /. 1e9;
        accept_s = float_of_int (accept_ns - d.spawned_ns) /. 1e9;
      } )
  with
  | r -> r
  | exception e ->
      ignore (stop_daemon d);
      raise e

(* Send every departure still owed, close our side and read the
   summary. *)
let finish c =
  let more = ref true in
  while !more do
    while !more && Obuf.pending c.out < 262144 do
      more := send_departure c
    done;
    pump c ~timeout_ns:1_000_000
  done;
  while Obuf.pending c.out > 0 do
    pump c ~timeout_ns:10_000_000
  done;
  Unix.shutdown c.fd Unix.SHUTDOWN_SEND;
  let deadline = now_ns () + 30_000_000_000 in
  while c.summary = None && not c.eof do
    if now_ns () > deadline then fail "no summary within 30 s of end of stream";
    pump c ~timeout_ns:10_000_000
  done;
  match c.summary with Some s -> s | None -> fail "stream ended without a summary"
