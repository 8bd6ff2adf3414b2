open Dbp_num
open Dbp_core
module TE = Dbp_obs.Trace_event
module Budget = Dbp_repack.Budget

exception Protocol of string

let protocol fmt = Printf.ksprintf (fun m -> raise (Protocol m)) fmt

type config = {
  shards : int;
  policy : Policy.t;
  policy_name : string;
  capacity : Rat.t;
  seed : int64;
  route : Router.policy;
  split_k : Rat.t;
  grid_den : int option;
  budget : Budget.spec;
}

let default_config () =
  let policy =
    match Algorithms.find "first-fit" with
    | Some p -> p
    | None -> assert false
  in
  {
    shards = 1;
    policy;
    policy_name = "first-fit";
    capacity = Rat.one;
    seed = Algorithms.default_seed;
    route = Router.Size_class;
    split_k = Rat.two;
    grid_den = None;
    budget = Budget.unlimited;
  }

type placement = { p_seq : int; p_item : int; p_bin : int; p_shard : int }

type summary = {
  su_shards : int;
  su_live : int;
  su_arrivals : int;
  su_departures : int;
  su_active : int;
  su_migrated : int;
  su_shed : int;
  su_bins_opened : int;
  su_cost : Rat.t;
  su_shard_costs : Rat.t array;
}

(* ---- the outbound byte buffer ---------------------------------------- *)

(* Pending output is the byte range [off, len) of one growable buffer.
   Placements are formatted straight into it, and a flush hands the
   whole range to the descriptor: one write(2) per 64 KiB, however
   many lines it holds. *)
module Outbuf = struct
  type t = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

  let with_capacity n = { buf = Bytes.create n; off = 0; len = 0 }
  let create () = with_capacity 65536
  let is_empty t = t.off = t.len
  let size t = t.len - t.off

  (* Room for [n] more bytes at [len].  The pending range slides to the
     front, into a buffer at least twice its new size, so a backlog
     that keeps growing is copied O(1) times per byte. *)
  let reserve t n =
    if t.len + n > Bytes.length t.buf then begin
      let pending = t.len - t.off in
      let cap = ref (Bytes.length t.buf) in
      while 2 * (pending + n) > !cap do
        cap := 2 * !cap
      done;
      let dst =
        if !cap = Bytes.length t.buf then t.buf else Bytes.create !cap
      in
      Bytes.blit t.buf t.off dst 0 pending;
      t.buf <- dst;
      t.off <- 0;
      t.len <- pending
    end

  let add_string t s =
    let n = String.length s in
    reserve t n;
    Bytes.blit_string s 0 t.buf t.len n;
    t.len <- t.len + n

  (* Decimal digits, written back to front.  The value is negated onto
     the non-positive side, which holds [min_int] too. *)
  let add_int t i =
    if i < 0 then add_string t "-";
    let m = if i < 0 then i else -i in
    let rec digits m d = if m > -10 then d else digits (m / 10) (d + 1) in
    let d = digits m 1 in
    reserve t d;
    let m = ref m in
    for pos = t.len + d - 1 downto t.len do
      Bytes.set t.buf pos (Char.chr (48 - (!m mod 10)));
      m := !m / 10
    done;
    t.len <- t.len + d

  let add_placement t p =
    add_string t {|{"kind":"place","seq":|};
    add_int t p.p_seq;
    add_string t {|,"item":|};
    add_int t p.p_item;
    add_string t {|,"bin":|};
    add_int t p.p_bin;
    add_string t {|,"shard":|};
    add_int t p.p_shard;
    add_string t "}\n"

  (* Hand the pending bytes to a non-blocking descriptor: one
     [single_write] per 64 KiB chunk, until the descriptor takes less
     than it was offered.  EAGAIN leaves the rest for the next flush;
     a hang-up (EPIPE, ECONNRESET) propagates. *)
  let write_some t fd =
    let rec go () =
      let len = min (t.len - t.off) 65536 in
      if len > 0 then
        match Unix.single_write fd t.buf t.off len with
        | n ->
            t.off <- t.off + n;
            if t.off = t.len then begin
              t.off <- 0;
              t.len <- 0
            end
            else if n = len then go ()
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            ()
    in
    go ()
end

let placement_line p =
  let b = Outbuf.with_capacity 128 in
  Outbuf.add_placement b p;
  Bytes.sub_string b.Outbuf.buf 0 (b.Outbuf.len - 1)

let summary_line cfg su =
  let shard_costs =
    Array.to_list su.su_shard_costs
    |> List.map Rat.to_string |> String.concat ","
  in
  Printf.sprintf
    {|{"kind":"summary","schema":"dbp-serve-summary/1","shards":%d,"live":%d,"policy":"%s","route":"%s","arrivals":%d,"departures":%d,"active":%d,"migrated":%d,"shed":%d,"bins_opened":%d,"cost":"%s","shard_costs":"%s"}|}
    su.su_shards su.su_live cfg.policy_name
    (Router.policy_name cfg.route)
    su.su_arrivals su.su_departures su.su_active su.su_migrated su.su_shed
    su.su_bins_opened
    (Rat.to_string su.su_cost)
    shard_costs

(* Both error replies carry messages that may quote the client's own
   decoded strings, so the message goes through the one JSON-string
   escaper: the reply stays a single well-formed NDJSON line. *)
let error_line msg =
  Printf.sprintf {|{"kind":"error","message":"%s"}|} (TE.escape msg)

let stream_error_line (e : TE.stream_error) =
  Printf.sprintf {|{"kind":"error","line":%d,"byte":%d,"message":"%s"}|} e.line
    e.byte (TE.escape e.message)

(* ---- the fleet ------------------------------------------------------- *)

module Fleet = struct
  type req =
    | R_arrive of { seq : int; now : Rat.t; size : Rat.t; item : int }
    | R_depart of { now : Rat.t; item : int }
    | R_fail of { now : Rat.t }
    | R_freeze

  type resp =
    | P_placed of { seq : int; item : int; bin : int }
    | P_victims of (int * Rat.t) list
    | P_frozen of Simulator.Online.Frozen.t

  type t = {
    cfg : config;
    router : Router.t;
    pool : (req, resp) Shard_pool.t;
    budget : Budget.t;
    item_shard : (int, int) Hashtbl.t;  (* client id -> shard *)
    alias : (int, int) Hashtbl.t;  (* client id -> engine id *)
    owner : (int, int) Hashtbl.t;  (* synthetic engine id -> client id *)
    lost : (int, unit) Hashtbl.t;  (* shed client ids *)
    dead : bool array;
    mutable now : Rat.t option;
    mutable arrivals : int;
    mutable departures : int;
    mutable migrated : int;
    mutable shed : int;
    mutable events : int;
  mutable next_synth : int;
  }

  (* Runs on the shard's own domain; [eng] is owned by that domain
     after the spawn edge publishes it. *)
  let handle eng req =
    match req with
    | R_arrive { seq; now; size; item } ->
        let bin = Simulator.Online.arrive eng ~now ~size ~item_id:item in
        [ P_placed { seq; item; bin } ]
    | R_depart { now; item } ->
        Simulator.Online.depart eng ~now ~item_id:item;
        []
    | R_fail { now } ->
        (* Shard loss: every open bin fails; the fleet re-admits the
           victims elsewhere under the migration budget. *)
        let open_ids =
          List.map
            (fun (v : Bin.view) -> v.Bin.bin_id)
            (Simulator.Online.open_bins eng)
        in
        let victims =
          List.concat_map
            (fun bin_id -> Simulator.Online.fail_bin eng ~now ~bin_id)
            open_ids
        in
        [ P_victims victims ]
    | R_freeze -> [ P_frozen (Simulator.Online.freeze eng) ]

  let create cfg =
    if cfg.shards < 1 then invalid_arg "Serve.Fleet.create: shards < 1";
    let grid =
      match cfg.grid_den with
      | None -> None
      | Some d -> (
          match Simulator.grid_of_den d with
          | Some _ as g -> g
          | None -> invalid_arg "Serve.Fleet.create: grid denominator")
    in
    let engines =
      Array.init cfg.shards (fun _ ->
          Simulator.Online.create ?grid ~policy:cfg.policy
            ~capacity:cfg.capacity ())
    in
    let pool =
      Shard_pool.create ~shards:cfg.shards ~handler:(fun ~shard req ->
          handle engines.(shard) req)
    in
    Budget.validate cfg.budget;
    {
      cfg;
      router =
        Router.create ~policy:cfg.route ~shards:cfg.shards
          ~capacity:cfg.capacity ~k:cfg.split_k;
      pool;
      budget = Budget.create cfg.budget;
      item_shard = Hashtbl.create 4096;
      alias = Hashtbl.create 64;
      owner = Hashtbl.create 64;
      lost = Hashtbl.create 64;
      dead = Array.make cfg.shards false;
      now = None;
      arrivals = 0;
      departures = 0;
      migrated = 0;
      shed = 0;
      events = 0;
      next_synth = 1 lsl 40;
    }

  let events_applied t = t.events
  let alive t s = not t.dead.(s)

  let step_time t now =
    (match t.now with
    | Some p when Rat.(now < p) ->
        protocol "time %s precedes the stream clock %s" (Rat.to_string now)
          (Rat.to_string p)
    | _ -> ());
    t.now <- Some now

  let arrive t ~seq ~now ~size ~item =
    step_time t now;
    if item < 0 then protocol "negative item id %d" item;
    if Hashtbl.mem t.item_shard item then
      protocol "item %d is already active" item;
    if Hashtbl.mem t.lost item then
      protocol "item %d was shed by a shard failure" item;
    if Hashtbl.mem t.owner item then
      protocol "item %d collides with a migrated session" item;
    if Rat.sign size <= 0 || Rat.(size > t.cfg.capacity) then
      protocol "size %s outside (0, %s]" (Rat.to_string size)
        (Rat.to_string t.cfg.capacity);
    Budget.tick t.budget;
    let shard = Router.route t.router ~alive:(alive t) ~size ~item_id:item in
    Hashtbl.replace t.item_shard item shard;
    Shard_pool.submit t.pool ~shard (R_arrive { seq; now; size; item });
    t.arrivals <- t.arrivals + 1;
    t.events <- t.events + 1

  let depart t ~now ~item =
    step_time t now;
    if Hashtbl.mem t.lost item then
      (* The session died with its shard; accept the departure
         silently — the client is allowed not to know. *)
      Hashtbl.remove t.lost item
    else
      match Hashtbl.find_opt t.item_shard item with
      | None -> protocol "depart of unknown item %d" item
      | Some shard ->
          Budget.tick t.budget;
          let eng_item =
            match Hashtbl.find_opt t.alias item with
            | Some e ->
                Hashtbl.remove t.alias item;
                Hashtbl.remove t.owner e;
                e
            | None -> item
          in
          Hashtbl.remove t.item_shard item;
          Shard_pool.submit t.pool ~shard (R_depart { now; item = eng_item });
          t.departures <- t.departures + 1;
          t.events <- t.events + 1

  let apply t (ev : TE.t) =
    match ev.kind with
    | TE.Arrive { item; size } ->
        arrive t ~seq:ev.seq ~now:ev.time ~size ~item
    | TE.Depart { item; _ } -> depart t ~now:ev.time ~item
    | k ->
        protocol "event kind %S is not accepted on the serve wire"
          (TE.kind_name k)

  let split_resps resps =
    List.fold_left
      (fun (pl, vs, fr) (shard, resp) ->
        match resp with
        | P_placed { seq; item; bin } ->
            if seq >= 0 then
              ({ p_seq = seq; p_item = item; p_bin = bin; p_shard = shard }
               :: pl,
                vs, fr)
            else (pl, vs, fr)
        | P_victims v -> (pl, v :: vs, fr)
        | P_frozen f -> (pl, vs, (shard, f) :: fr))
      ([], [], []) resps
    |> fun (pl, vs, fr) -> (List.rev pl, List.rev vs, List.rev fr)

  let placements t =
    let pl, _, _ = split_resps (Shard_pool.poll t.pool) in
    pl

  let quiesce t =
    let pl, _, _ = split_resps (Shard_pool.quiesce t.pool) in
    pl

  let rec fresh_synth t =
    let s = t.next_synth in
    t.next_synth <- s + 1;
    if Hashtbl.mem t.item_shard s || Hashtbl.mem t.owner s
       || Hashtbl.mem t.lost s
    then fresh_synth t
    else s

  let fail_shard t ~now k =
    if k < 0 || k >= t.cfg.shards then
      invalid_arg "Serve.Fleet.fail_shard: shard out of range";
    if t.dead.(k) then invalid_arg "Serve.Fleet.fail_shard: shard already dead";
    if Array.fold_left (fun n d -> if d then n else n + 1) 0 t.dead <= 1 then
      invalid_arg "Serve.Fleet.fail_shard: no shard would survive";
    step_time t now;
    let pl0 = quiesce t in
    t.dead.(k) <- true;
    Shard_pool.submit t.pool ~shard:k (R_fail { now });
    let pl1, victim_lists, _ = split_resps (Shard_pool.quiesce t.pool) in
    let victims = List.concat victim_lists in
    List.iter
      (fun (eng_item, size) ->
        let client =
          match Hashtbl.find_opt t.owner eng_item with
          | Some c ->
              Hashtbl.remove t.owner eng_item;
              Hashtbl.remove t.alias c;
              c
          | None -> eng_item
        in
        let cost = Budget.cost_of t.budget ~size in
        if Budget.affords t.budget ~cost then begin
          Budget.spend t.budget ~size;
          let synth = fresh_synth t in
          Hashtbl.replace t.alias client synth;
          Hashtbl.replace t.owner synth client;
          let shard =
            Router.route t.router ~alive:(alive t) ~size ~item_id:synth
          in
          Hashtbl.replace t.item_shard client shard;
          Shard_pool.submit t.pool ~shard
            (R_arrive { seq = -1; now; size; item = synth });
          t.migrated <- t.migrated + 1
        end
        else begin
          Budget.note_denied t.budget;
          Hashtbl.remove t.item_shard client;
          Hashtbl.replace t.lost client ();
          t.shed <- t.shed + 1
        end)
      victims;
    let pl2 = quiesce t in
    pl0 @ pl1 @ pl2

  let snapshot t =
    let pl0 = quiesce t in
    for k = 0 to t.cfg.shards - 1 do
      Shard_pool.submit t.pool ~shard:k R_freeze
    done;
    let pl1, _, frozen = split_resps (Shard_pool.quiesce t.pool) in
    let images = Array.make t.cfg.shards None in
    List.iter (fun (k, f) -> images.(k) <- Some f) frozen;
    let images =
      Array.map
        (function Some f -> f | None -> assert false (* one per shard *))
        images
    in
    (pl0 @ pl1, images)

  (* A shard's exact bin-seconds so far: closed bins contribute their
     usage period, open bins the span up to the shard clock.  For a
     fully departed stream this is exactly [Packing.total_cost] of the
     equivalent batch run — rational addition is order-independent, so
     the fleet sum is bit-identical to the single-engine cost. *)
  let frozen_cost (f : Simulator.Online.Frozen.t) =
    List.fold_left
      (fun acc (b : Simulator.Online.Frozen.bin) ->
        match (b.b_closed, f.s_clock) with
        | Some c, _ -> Rat.add acc (Rat.sub c b.b_opened)
        | None, Some clock -> Rat.add acc (Rat.sub clock b.b_opened)
        | None, None -> acc)
      Rat.zero f.s_bins

  let summarize t frozen =
    let shard_costs = Array.map frozen_cost frozen in
    {
      su_shards = t.cfg.shards;
      su_live =
        Array.fold_left (fun n d -> if d then n else n + 1) 0 t.dead;
      su_arrivals = t.arrivals;
      su_departures = t.departures;
      su_active = Hashtbl.length t.item_shard;
      su_migrated = t.migrated;
      su_shed = t.shed;
      su_bins_opened =
        Array.fold_left
          (fun n (f : Simulator.Online.Frozen.t) ->
            n + List.length f.s_bins)
          0 frozen;
      su_cost = Array.fold_left Rat.add Rat.zero shard_costs;
      su_shard_costs = shard_costs;
    }

  let shutdown t = ignore (Shard_pool.shutdown t.pool)

  let write_checkpoints t ~prefix frozen =
    let module S = Dbp_checkpoint.Snapshot in
    Array.to_list
      (Array.mapi
         (fun k f ->
           let path = Printf.sprintf "%s.shard%d" prefix k in
           let snap =
             {
               S.meta =
                 {
                   S.policy = t.cfg.policy_name;
                   seed = t.cfg.seed;
                   events_applied = t.events;
                   trace_seq = 0;
                 };
               metrics = None;
               payload = S.Engine f;
             }
           in
           Dbp_checkpoint.Checkpoint.save_file path snap;
           path)
         frozen)
end

let set_nonblock fd =
  match Unix.set_nonblock fd with
  | () -> ()
  | exception Unix.Unix_error _ -> ()

(* ---- signals --------------------------------------------------------- *)

let ignore_sigpipe () =
  match Sys.set_signal Sys.sigpipe Sys.Signal_ignore with
  | () -> ()
  | exception (Invalid_argument _ | Sys_error _) -> ()

let install_sigterm () =
  let flag = ref false in
  let arm s =
    match Sys.set_signal s (Sys.Signal_handle (fun _ -> flag := true)) with
    | () -> ()
    | exception (Invalid_argument _ | Sys_error _) -> ()
  in
  arm Sys.sigterm;
  arm Sys.sigint;
  ignore_sigpipe ();
  fun () -> !flag

(* ---- one NDJSON session over a pair of descriptors ------------------- *)

(* Returns [Ok (summary, terminated)]: [terminated] is true when the
   session ended because [should_stop] fired (daemon shutdown) rather
   than client EOF.  [Error] ends this connection only: a protocol
   error (after its one error line) or a client hang-up.  Engine and
   shard-pool failures raise. *)
let session fleet cfg ?checkpoint ~should_stop ~input ~output () =
  let feed = TE.Feed.create () in
  let buf = Bytes.create 65536 in
  let outq = Outbuf.create () in
  let wake = Shard_pool.wakeup_fd fleet.Fleet.pool in
  set_nonblock input;
  set_nonblock output;
  let add_line s =
    Outbuf.add_string outq s;
    Outbuf.add_string outq "\n"
  in
  (* Bounded post-EOF flush: keep writing while the client drains, give
     up only after ~10 s with zero progress.  The bound must be on
     progress, not iterations: a busy reader frees socket-buffer space
     continuously, so select reports writable immediately and an
     iteration cap would burn out long before a deep placement backlog
     (megabytes at soak scale) has been evacuated. *)
  let flush_all () =
    let rec go last_progress =
      if not (Outbuf.is_empty outq) then begin
        let before = Outbuf.size outq in
        (match Unix.select [] [ output ] [] 0.2 with
        | _, _ :: _, _ -> Outbuf.write_some outq output
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        let now = Unix.gettimeofday () in
        let last =
          if Outbuf.size outq < before then now else last_progress
        in
        if now -. last < 10.0 then go last
      end
    in
    match go (Unix.gettimeofday ()) with
    | () -> ()
    | exception Unix.Unix_error _ -> () (* client hung up: EPIPE etc. *)
  in
  let cut ~term =
    let pl, frozen = Fleet.snapshot fleet in
    List.iter (Outbuf.add_placement outq) pl;
    let su = Fleet.summarize fleet frozen in
    (if term then
       match checkpoint with
       | Some prefix ->
           ignore (Fleet.write_checkpoints fleet ~prefix frozen)
       | None -> ());
    add_line (summary_line cfg su);
    flush_all ();
    Ok (su, term)
  in
  let fail_session msg line =
    add_line line;
    flush_all ();
    Error msg
  in
  let apply_events evs k =
    match List.iter (Fleet.apply fleet) evs with
    | () -> k ()
    | exception Protocol msg -> fail_session msg (error_line msg)
  in
  (* The input's answers come back through the shard pool's wake-up
     descriptor, so the loop waits on both: a placement leaves as soon
     as its shard posts it, in the same flush as every other placement
     that is ready.  The timeout only bounds how late [should_stop] is
     seen. *)
  let rec loop () =
    if should_stop () then cut ~term:true
    else begin
      let wr = if Outbuf.is_empty outq then [] else [ output ] in
      match Unix.select [ input; wake ] wr [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | rs, ws, _ ->
          let woken = List.mem wake rs in
          if woken then
            List.iter (Outbuf.add_placement outq) (Fleet.placements fleet);
          if (woken || ws <> []) && not (Outbuf.is_empty outq) then
            Outbuf.write_some outq output;
          if List.mem input rs then read_input () else loop ()
    end
  and read_input () =
    match Unix.read input buf 0 (Bytes.length buf) with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        loop ()
    | 0 -> (
        (* End of stream: flush the feed's final (possibly newline-less)
           line, drain the fleet, summarise. *)
        match TE.Feed.close feed with
        | Error e ->
            fail_session (TE.stream_error_to_string e) (stream_error_line e)
        | Ok evs -> apply_events evs (fun () -> cut ~term:false))
    | n -> (
        match TE.Feed.feed feed (Bytes.sub_string buf 0 n) with
        | Error e ->
            fail_session (TE.stream_error_to_string e) (stream_error_line e)
        | Ok evs -> apply_events evs loop)
  in
  match loop () with
  | r -> r
  | exception Unix.Unix_error (((Unix.EPIPE | Unix.ECONNRESET) as e), _, _) ->
      Error ("client hung up: " ^ Unix.error_message e)

(* Engine/session failures that surface out of the shard pool (or the
   fleet's own validation) all mean the stream was unserveable. *)
let guard f =
  match f () with
  | r -> r
  | exception Protocol msg -> Error msg
  | exception Simulator.Invalid_step msg -> Error ("engine: " ^ msg)
  | exception Simulator.Invalid_decision msg -> Error ("engine: " ^ msg)
  | exception Shard_pool.Stopped -> Error "shard pool stopped"

(* The fleet's domains and wake-up pipe go with the call however it
   ends.  A parked shard failure has already surfaced through the
   session by then, so shutdown's re-raise of it is dropped. *)
let with_fleet cfg f =
  let fleet = Fleet.create cfg in
  Fun.protect
    ~finally:(fun () ->
      match Fleet.shutdown fleet with () -> () | exception _e -> ())
    (fun () -> f fleet)

let run_stream cfg ?checkpoint ?(should_stop = fun () -> false) ~input
    ~output () =
  guard (fun () ->
      with_fleet cfg (fun fleet ->
          session fleet cfg ?checkpoint ~should_stop ~input ~output ()
          |> Result.map fst))

let run_listener cfg ?checkpoint ?(should_stop = fun () -> false) lfd =
  guard (fun () ->
      with_fleet cfg (fun fleet ->
          let finish_term () =
            let _pl, frozen = Fleet.snapshot fleet in
            (match checkpoint with
            | Some prefix ->
                ignore (Fleet.write_checkpoints fleet ~prefix frozen)
            | None -> ());
            Ok (Fleet.summarize fleet frozen)
          in
          let rec accept_loop () =
            if should_stop () then finish_term ()
            else
              match Unix.select [ lfd ] [] [] 0.2 with
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
              | [], _, _ -> accept_loop ()
              | _ :: _, _, _ -> (
                  let fd, _ = Unix.accept ~cloexec:true lfd in
                  let r =
                    Fun.protect
                      ~finally:(fun () ->
                        match Unix.close fd with
                        | () -> ()
                        | exception Unix.Unix_error _ -> ())
                      (fun () ->
                        session fleet cfg ?checkpoint ~should_stop ~input:fd
                          ~output:fd ())
                  in
                  match r with
                  | Ok (su, true) ->
                      (* SIGTERM mid-connection: checkpoints are already
                         flushed by the session's cut. *)
                      Ok su
                  | Ok (_, false) -> accept_loop ()
                  | Error _ ->
                      (* A hang-up or a protocol error ends this
                         connection only.  Its sessions stay resident
                         (item ids are fleet-wide, so a later connection
                         may depart them), but its undelivered
                         placements must not reach the next client. *)
                      ignore (Fleet.quiesce fleet);
                      accept_loop ())
          in
          accept_loop ()))

(* ---- replay client --------------------------------------------------- *)

let is_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let arrive_wire ~seq ~time ~item ~size =
  Printf.sprintf {|{"seq":%d,"t":"%s","kind":"arrive","item":%d,"size":"%s"}|}
    seq time item size

(* A client cannot know the bin or the held time; the daemon ignores
   both, so send the conventional [-1]/["0"]. *)
let depart_wire ~seq ~time ~item =
  Printf.sprintf
    {|{"seq":%d,"t":"%s","kind":"depart","item":%d,"bin":-1,"held":"0"}|} seq
    time item

(* Drive a generated event stream through a connected daemon, duplex:
   keep the output queue topped up from [next_line] while draining
   placement lines into [on_line].  Returns the summary line.  A
   daemon that rejects the stream sends one error line and closes, so
   a hang-up (EPIPE or ECONNRESET, with SIGPIPE ignored) stops the
   writing only: the reading goes on to the end of the stream, and the
   daemon's error line, when one came, is the error returned. *)
let pump fd ~next_line ~on_line =
  set_nonblock fd;
  let outq = Outbuf.create () in
  let inbuf = Bytes.create 65536 in
  let partial = Buffer.create 256 in
  let summary = ref None in
  let failure = ref None in
  let hung_up = ref None in
  let sent_all = ref false in
  let eof = ref false in
  let handle_line l =
    if l = "" then ()
    else if is_prefix ~prefix:{|{"kind":"summary"|} l then summary := Some l
    else if is_prefix ~prefix:{|{"kind":"error"|} l then
      failure := Some ("daemon: " ^ l)
    else on_line l
  in
  let consume n =
    let s = Bytes.sub_string inbuf 0 n in
    let rec split i =
      match String.index_from_opt s i '\n' with
      | None -> Buffer.add_substring partial s i (String.length s - i)
      | Some j ->
          Buffer.add_substring partial s i (j - i);
          handle_line (Buffer.contents partial);
          Buffer.clear partial;
          split (j + 1)
    in
    split 0
  in
  let top_up () =
    let rec go () =
      if Outbuf.size outq < 262144 && not !sent_all then
        match next_line () with
        | Some l ->
            Outbuf.add_string outq l;
            Outbuf.add_string outq "\n";
            go ()
        | None ->
            if Outbuf.is_empty outq then begin
              (match Unix.shutdown fd Unix.SHUTDOWN_SEND with
              | () -> ()
              | exception Unix.Unix_error _ -> ());
              sent_all := true
            end
    in
    go ()
  in
  let end_of_stream () =
    handle_line (Buffer.contents partial);
    Buffer.clear partial;
    eof := true
  in
  let rec loop () =
    match !failure with
    | Some _ -> ()
    | None ->
        if !eof then ()
        else begin
          if Option.is_none !hung_up then top_up ();
          let wr =
            if Option.is_some !hung_up || Outbuf.is_empty outq then []
            else [ fd ]
          in
          (match Unix.select [ fd ] wr [] 1.0 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | rs, ws, _ -> (
              (match ws with
              | [] -> ()
              | _ -> (
                  match Outbuf.write_some outq fd with
                  | () -> ()
                  | exception
                      Unix.Unix_error
                        (((Unix.EPIPE | Unix.ECONNRESET) as e), _, _) ->
                      hung_up := Some e));
              match rs with
              | [] -> ()
              | _ -> (
                  match Unix.read fd inbuf 0 (Bytes.length inbuf) with
                  | exception
                      Unix.Unix_error
                        ( (Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR),
                          _,
                          _ ) ->
                      ()
                  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
                      if Option.is_none !hung_up then
                        hung_up := Some Unix.ECONNRESET;
                      end_of_stream ()
                  | 0 -> end_of_stream ()
                  | n -> consume n)));
          loop ()
        end
  in
  (match loop () with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
      failure := Some ("client: " ^ Unix.error_message e));
  match (!failure, !summary, !hung_up) with
  | Some e, _, _ -> Error e
  | None, Some s, _ -> Ok s
  | None, None, Some e -> Error ("client: " ^ Unix.error_message e)
  | None, None, None -> Error "stream ended without a summary"

let replay_client ?(echo = fun _ -> ()) fd instance =
  let events = Event.sorted_array_of_instance instance in
  let n = Array.length events in
  let next = ref 0 in
  let next_line () =
    if !next >= n then None
    else begin
      let e = events.(!next) in
      let seq = !next in
      incr next;
      let time = Rat.to_string e.Event.time in
      let item = e.Event.item.Item.id in
      Some
        (match e.Event.kind with
        | Event.Arrival ->
            arrive_wire ~seq ~time ~item
              ~size:(Rat.to_string e.Event.item.Item.size)
        | Event.Departure -> depart_wire ~seq ~time ~item)
    end
  in
  pump fd ~next_line ~on_line:echo

let replay cfg ?echo instance =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let join =
    Shard_pool.spawn_background (fun () ->
        let r = run_stream cfg ~input:a ~output:a () in
        (match Unix.close a with
        | () -> ()
        | exception Unix.Unix_error _ -> ());
        r)
  in
  let rc = replay_client ?echo b instance in
  (match Unix.close b with
  | () -> ()
  | exception Unix.Unix_error _ -> ());
  match (rc, join ()) with
  | (Error _ as e), _ -> e
  | Ok _, Error e -> Error ("daemon: " ^ e)
  | (Ok _ as ok), Ok _ -> ok

(* ---- the soak bench -------------------------------------------------- *)

type bench_result = {
  br_sessions : int;
  br_events : int;
  br_elapsed_s : float;
  br_events_per_s : float;
  br_p50_us : float;
  br_p99_us : float;
  br_cost : string;
  br_bins_opened : int;
}

(* Fast field extraction for the hot response path: place lines have a
   fixed shape, so scanning for the key is much cheaper than the
   strict object parser. *)
let int_field_of_line line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let pn = String.length pat and n = String.length line in
  let rec find i =
    if i + pn > n then None
    else if String.sub line i pn = pat then begin
      let j = ref (i + pn) in
      let neg = !j < n && line.[!j] = '-' in
      if neg then incr j;
      let v = ref 0 in
      let digits = ref 0 in
      while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do
        v := (!v * 10) + (Char.code line.[!j] - Char.code '0');
        incr digits;
        incr j
      done;
      if !digits = 0 then None else Some (if neg then - !v else !v)
    end
    else find (i + 1)
  in
  find 0

let str_field fields key =
  match List.assoc_opt key fields with
  | Some (TE.Str s) -> Some s
  | _ -> None

let int_field fields key =
  match List.assoc_opt key fields with
  | Some (TE.Int i) -> Some i
  | _ -> None

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (float_of_int n *. q)))

(* One session = one arrival + one departure; arrivals at t = 1..S,
   departures at t = S+1..2S, so all S sessions are concurrently
   resident at t = S — the "millions of concurrent sessions" shape.
   Sizes are mostly grid-minimum (1..4 thousandths, hundreds of
   sessions per bin) with one in 1024 large (above capacity/2), so the
   router's large/small split is exercised while the open-bin
   population stays in the low thousands even with a million
   residents.  A view-scanning policy walks that population on every
   placement; First Fit on the fixed-point track descends its
   max-residual tree instead. *)
let bench_size i =
  if i land 1023 = 0 then "501/1000"
  else Printf.sprintf "%d/1000" (1 + (i land 3))

let bench cfg ~sessions =
  if sessions < 1 then invalid_arg "Serve.bench: sessions < 1";
  let cfg = { cfg with grid_den = Some 1000; capacity = Rat.one } in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let join =
    Shard_pool.spawn_background (fun () ->
        let r = run_stream cfg ~input:a ~output:a () in
        (match Unix.close a with
        | () -> ()
        | exception Unix.Unix_error _ -> ());
        r)
  in
  let n_events = 2 * sessions in
  let send_t = Array.make sessions 0.0 in
  let lat = Array.make sessions 0.0 in
  let placed = ref 0 in
  let next = ref 0 in
  let next_line () =
    if !next >= n_events then None
    else begin
      let i = !next in
      incr next;
      let time = string_of_int (i + 1) in
      if i < sessions then begin
        send_t.(i) <- Unix.gettimeofday ();
        Some (arrive_wire ~seq:i ~time ~item:i ~size:(bench_size i))
      end
      else depart_wire ~seq:i ~time ~item:(i - sessions) |> Option.some
    end
  in
  let on_line l =
    match int_field_of_line l "item" with
    | Some item when item >= 0 && item < sessions ->
        lat.(item) <- Unix.gettimeofday () -. send_t.(item);
        incr placed
    | _ -> ()
  in
  let t0 = Unix.gettimeofday () in
  let rc = pump b ~next_line ~on_line in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match Unix.close b with
  | () -> ()
  | exception Unix.Unix_error _ -> ());
  match (rc, join ()) with
  | Error e, dr ->
      let extra =
        match dr with Ok _ -> "" | Error d -> "; daemon: " ^ d
      in
      Error (e ^ extra)
  | Ok _, Error e -> Error ("daemon: " ^ e)
  | Ok summary, Ok _ -> (
      if !placed <> sessions then
        Error
          (Printf.sprintf "placed %d of %d arrivals" !placed sessions)
      else
        match TE.parse_flat_object summary with
        | Error e -> Error ("summary: " ^ e)
        | Ok fields ->
            let cost =
              match str_field fields "cost" with Some c -> c | None -> "?"
            in
            let bins =
              match int_field fields "bins_opened" with
              | Some b -> b
              | None -> 0
            in
            let sorted = Array.map (fun s -> s *. 1e6) lat in
            Array.sort Float.compare sorted;
            Ok
              {
                br_sessions = sessions;
                br_events = n_events;
                br_elapsed_s = elapsed;
                br_events_per_s =
                  (if elapsed > 0.0 then float_of_int n_events /. elapsed
                   else 0.0);
                br_p50_us = percentile sorted 0.50;
                br_p99_us = percentile sorted 0.99;
                br_cost = cost;
                br_bins_opened = bins;
              })

let bench_json cfg r =
  Printf.sprintf
    {|{"schema":"dbp-bench-serve/1","shards":%d,"policy":"%s","route":"%s","sessions":%d,"events":%d,"elapsed_s":%.3f,"events_per_s":%.0f,"p50_us":%.1f,"p99_us":%.1f,"cost":"%s","bins_opened":%d}|}
    cfg.shards cfg.policy_name
    (Router.policy_name cfg.route)
    r.br_sessions r.br_events r.br_elapsed_s r.br_events_per_s r.br_p50_us
    r.br_p99_us r.br_cost r.br_bins_opened
