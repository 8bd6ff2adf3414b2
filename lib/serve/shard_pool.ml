(* Per-shard worker domains.  This module is (with
   lib/experiments/registry.ml) one of the two sanctioned homes for
   Domain/Atomic/Mutex/Condition — lint R5 and typed-lint T3 fence the
   primitives everywhere else.

   Memory discipline: [pending], [failure], [stopped] and the outbox
   are only touched under [olock]; each mailbox only under its own
   [lock].  Shard state reached by [handler] is created before the
   domains spawn (the spawn edge publishes it) and touched by exactly
   one domain afterwards, so no further synchronisation is needed.
   The wake-up pipe's read end and [wake_open] belong to the owner;
   workers only write to the (non-blocking) write end, and [shutdown]
   closes both ends after joining them. *)

exception Stopped

type 'req box = {
  lock : Mutex.t;
  cond : Condition.t;  (* signalled on submit and on stop *)
  queue : 'req Queue.t;
  mutable stop : bool;
}

type ('req, 'resp) t = {
  boxes : 'req box array;
  handler : shard:int -> 'req -> 'resp list;
  olock : Mutex.t;
  ocond : Condition.t;  (* signalled when pending drops or a shard fails *)
  outbox : (int * 'resp) Queue.t;
  mutable pending : int;  (* submitted, not yet processed (or discarded) *)
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable stopped : bool;
  mutable domains : unit Domain.t array;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  wake_buf : Bytes.t;  (* the owner's scratch for draining [wake_r] *)
  mutable wake_open : bool;
}

let shards t = Array.length t.boxes
let wakeup_fd t = t.wake_r

(* One byte tells the owner to poll.  A full pipe already holds bytes
   the owner has not drained, so EAGAIN loses nothing. *)
let wake t =
  match Unix.single_write_substring t.wake_w "!" 0 1 with
  | _ -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()

(* One worker: wake, transfer the whole mailbox (the batch), process
   it, post the responses in one outbox append, and write a wake-up
   byte if that append made the outbox non-empty.  A handler exception
   kills the shard: its queued work is discarded (and accounted out of
   [pending] so quiesce still converges), the first pool-wide failure
   is parked for the owner to re-raise, and the owner is woken so that
   [poll] re-raises it. *)
let worker t k () =
  let box = t.boxes.(k) in
  let batch = Queue.create () in
  let rec loop () =
    Mutex.lock box.lock;
    while Queue.is_empty box.queue && not box.stop do
      Condition.wait box.cond box.lock
    done;
    Queue.transfer box.queue batch;
    Mutex.unlock box.lock;
    let n = Queue.length batch in
    if n = 0 then () (* stop requested and mailbox drained *)
    else begin
      let out = ref [] in
      let outcome =
        match
          Queue.iter
            (fun req ->
              List.iter (fun r -> out := (k, r) :: !out) (t.handler ~shard:k req))
            batch
        with
        | () -> None
        | exception e -> Some (e, Printexc.get_raw_backtrace ())
      in
      Queue.clear batch;
      match outcome with
      | None ->
          Mutex.lock t.olock;
          let was_empty = Queue.is_empty t.outbox in
          List.iter (fun p -> Queue.add p t.outbox) (List.rev !out);
          t.pending <- t.pending - n;
          Condition.broadcast t.ocond;
          Mutex.unlock t.olock;
          if was_empty && not (List.is_empty !out) then wake t;
          loop ()
      | Some f ->
          Mutex.lock box.lock;
          box.stop <- true;
          let leftover = Queue.length box.queue in
          Queue.clear box.queue;
          Mutex.unlock box.lock;
          Mutex.lock t.olock;
          if Option.is_none t.failure then t.failure <- Some f;
          t.pending <- t.pending - n - leftover;
          Condition.broadcast t.ocond;
          Mutex.unlock t.olock;
          wake t
    end
  in
  loop ()

let create ~shards ~handler =
  if shards < 1 then invalid_arg "Shard_pool.create: shards < 1";
  let boxes =
    Array.init shards (fun _ ->
        {
          lock = Mutex.create ();
          cond = Condition.create ();
          queue = Queue.create ();
          stop = false;
        })
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      boxes;
      handler;
      olock = Mutex.create ();
      ocond = Condition.create ();
      outbox = Queue.create ();
      pending = 0;
      failure = None;
      stopped = false;
      domains = [||];
      wake_r;
      wake_w;
      wake_buf = Bytes.create 256;
      wake_open = true;
    }
  in
  t.domains <- Array.init shards (fun k -> Domain.spawn (worker t k));
  t

let submit t ~shard req =
  if shard < 0 || shard >= Array.length t.boxes then
    invalid_arg "Shard_pool.submit: shard out of range";
  Mutex.lock t.olock;
  if t.stopped || Option.is_some t.failure then begin
    Mutex.unlock t.olock;
    raise Stopped
  end;
  (* Count the request before it is visible in any mailbox, so a
     concurrent [quiesce] can never observe pending = 0 mid-hand-off. *)
  t.pending <- t.pending + 1;
  Mutex.unlock t.olock;
  let box = t.boxes.(shard) in
  Mutex.lock box.lock;
  if box.stop then begin
    Mutex.unlock box.lock;
    Mutex.lock t.olock;
    t.pending <- t.pending - 1;
    Condition.broadcast t.ocond;
    Mutex.unlock t.olock;
    raise Stopped
  end;
  Queue.add req box.queue;
  Condition.signal box.cond;
  Mutex.unlock box.lock

let drain_outbox t =
  let out = ref [] in
  while not (Queue.is_empty t.outbox) do
    out := Queue.pop t.outbox :: !out
  done;
  List.rev !out

(* Read until the pipe is empty: a short read means it is. *)
let drain_wakeups t =
  let len = Bytes.length t.wake_buf in
  let rec go () =
    match Unix.read t.wake_r t.wake_buf 0 len with
    | n -> if n = len then go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* The pipe is drained before the outbox.  A post that lands after the
   outbox drain found the outbox empty and wrote a byte this drain
   cannot have taken, so a response never sits in the outbox with no
   byte behind it; the opposite order could lose that byte. *)
let poll t =
  if not t.wake_open then []
  else begin
    drain_wakeups t;
    Mutex.lock t.olock;
    let out = drain_outbox t in
    let f = t.failure in
    Mutex.unlock t.olock;
    match f with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> out
  end

let quiesce t =
  Mutex.lock t.olock;
  while t.pending > 0 && Option.is_none t.failure do
    Condition.wait t.ocond t.olock
  done;
  let out = drain_outbox t in
  let f = t.failure in
  Mutex.unlock t.olock;
  match f with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> out

let close_quietly fd =
  match Unix.close fd with () -> () | exception Unix.Unix_error _ -> ()

let shutdown t =
  Mutex.lock t.olock;
  let already = t.stopped in
  t.stopped <- true;
  Mutex.unlock t.olock;
  if already then []
  else begin
    Array.iter
      (fun box ->
        Mutex.lock box.lock;
        box.stop <- true;
        Condition.signal box.cond;
        Mutex.unlock box.lock)
      t.boxes;
    Array.iter Domain.join t.domains;
    (* Every writer has exited: the pipe can go. *)
    t.wake_open <- false;
    close_quietly t.wake_r;
    close_quietly t.wake_w;
    Mutex.lock t.olock;
    let out = drain_outbox t in
    let f = t.failure in
    Mutex.unlock t.olock;
    match f with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> out
  end

let spawn_background f =
  let d =
    Domain.spawn (fun () ->
        match f () with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ()))
  in
  fun () ->
    match Domain.join d with
    | Ok v -> v
    | Error (e, bt) -> Printexc.raise_with_backtrace e bt
