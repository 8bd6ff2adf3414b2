(* The benchmark's event source: an endless, seeded, time-ordered
   arrive/depart stream drawn on demand, and its dbp-trace/2 wire form.

   Shapes follow Dbp_workload.Spec (Poisson arrivals, exponential
   durations clamped to [min, max], uniform sizes), drawn item by item
   so a closed-loop phase can take as many events as the daemon
   sustains.  Every time and size is an integer on the 1/10000 grid,
   the grid [dbp serve --grid-den 10000] runs its engines on.  Events
   come out in Dbp_core.Event.compare order (time, departures first,
   then item id), so Simulator.run on the items sent replays the
   daemon's exact event sequence. *)

open Dbp_num
open Dbp_core
module Rng = Dbp_rand.Splitmix64
module Dist = Dbp_rand.Dist

let quantum = 10_000

type shape = {
  rate : float;  (** Poisson arrivals per time unit. *)
  mean_duration : float;
  min_duration : float;
  max_duration : float;
  size_lo : float;
  size_hi : float;  (** Sizes uniform on [(size_lo, size_hi]]. *)
}

(* Dbp_workload.Spec.default: Poisson rate 2, exponential durations of
   mean 3 clamped to [1, 10], sizes uniform on (0, 1]. *)
let default_shape =
  {
    rate = 2.0;
    mean_duration = 3.0;
    min_duration = 1.0;
    max_duration = 10.0;
    size_lo = 0.0;
    size_hi = 1.0;
  }

type t = {
  shape : shape;
  rng : Rng.t;
  mutable clock : float;
  mutable items : int;  (* arrivals drawn so far = next item id *)
  mutable size_s : int array;
  mutable arr_s : int array;
  mutable dep_s : int array;
  mutable heap : int array;  (* pending departures: item ids *)
  mutable heap_len : int;
}

let create shape ~seed =
  {
    shape;
    rng = Rng.create (Int64.of_int seed);
    clock = 0.0;
    items = 0;
    size_s = Array.make 1024 0;
    arr_s = Array.make 1024 0;
    dep_s = Array.make 1024 0;
    heap = Array.make 1024 0;
    heap_len = 0;
  }

(* [a], doubled (new cells [fill]) if index [n] is past its end. *)
let grow ?(fill = 0) a n = if n < Array.length a then a else Array.append a (Array.make (Array.length a) fill)

let on_grid x = int_of_float (Float.round (x *. float_of_int quantum))
let clamp lo hi x = if x < lo then lo else if x > hi then hi else x

(* Departure order: scaled time, then item id. *)
let before t a b =
  let da = t.dep_s.(a) and db = t.dep_s.(b) in
  da < db || (da = db && a < b)

let heap_push t id =
  t.heap <- grow t.heap t.heap_len;
  let h = t.heap in
  let i = ref t.heap_len in
  t.heap_len <- t.heap_len + 1;
  h.(!i) <- id;
  while !i > 0 && before t h.(!i) h.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    let x = h.(p) in
    h.(p) <- h.(!i);
    h.(!i) <- x;
    i := p
  done

let heap_pop t =
  let h = t.heap in
  let top = h.(0) in
  t.heap_len <- t.heap_len - 1;
  h.(0) <- h.(t.heap_len);
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let m = if l < t.heap_len && before t h.(l) h.(!i) then l else !i in
    let m = if r < t.heap_len && before t h.(r) h.(m) then r else m in
    if m = !i then continue := false
    else begin
      let x = h.(m) in
      h.(m) <- h.(!i);
      h.(!i) <- x;
      i := m
    end
  done;
  top

(* Draw the next item's arrival, size and duration. *)
let draw t =
  let s = t.shape in
  let id = t.items in
  t.size_s <- grow t.size_s id;
  t.arr_s <- grow t.arr_s id;
  t.dep_s <- grow t.dep_s id;
  t.clock <- t.clock +. Dist.exponential t.rng ~rate:s.rate;
  let arr = on_grid t.clock in
  let size =
    clamp (max 1 (on_grid s.size_lo)) (on_grid s.size_hi)
      (on_grid (Dist.uniform t.rng ~lo:s.size_lo ~hi:s.size_hi))
  in
  let dur =
    clamp (on_grid s.min_duration) (on_grid s.max_duration)
      (on_grid (Dist.exponential t.rng ~rate:(1.0 /. s.mean_duration)))
  in
  t.size_s.(id) <- size;
  t.arr_s.(id) <- arr;
  t.dep_s.(id) <- arr + dur;
  t.items <- id + 1

(* One event.  [item] is the session id; times and sizes are scaled by
   [quantum]. *)
type event = { arrival : bool; item : int; time_s : int; size_s : int }

(* The stream keeps one undelivered arrival drawn ahead ([pending]) so
   it can compare its time with the earliest pending departure. *)
type cursor = { src : t; mutable pending : int (* item id or -1 *) }

let cursor src = { src; pending = -1 }

let next c =
  let t = c.src in
  if c.pending < 0 then begin
    draw t;
    c.pending <- t.items - 1
  end;
  let a = c.pending in
  if t.heap_len > 0 && t.dep_s.(t.heap.(0)) <= t.arr_s.(a) then begin
    let d = heap_pop t in
    { arrival = false; item = d; time_s = t.dep_s.(d); size_s = t.size_s.(d) }
  end
  else begin
    c.pending <- -1;
    heap_push t a;
    { arrival = true; item = a; time_s = t.arr_s.(a); size_s = t.size_s.(a) }
  end

(* Departures still owed for the arrivals already delivered, in order;
   [None] once every delivered item has departed. *)
let next_departure c =
  let t = c.src in
  if t.heap_len = 0 then None
  else
    let d = heap_pop t in
    Some { arrival = false; item = d; time_s = t.dep_s.(d); size_s = t.size_s.(d) }

(* Arrivals delivered so far (the draw-ahead one is not delivered). *)
let delivered c = if c.pending >= 0 then c.src.items - 1 else c.src.items

let rat_of_scaled n = Rat.make n quantum

(* The instance of the first [n] items, ids 0..n-1 in arrival order. *)
let instance (t : t) ~items:n =
  Instance.create ~capacity:Rat.one
    (List.init n (fun i ->
         Item.make ~id:i ~size:(rat_of_scaled t.size_s.(i))
           ~arrival:(rat_of_scaled t.arr_s.(i))
           ~departure:(rat_of_scaled t.dep_s.(i))))

(* ---- wire form ------------------------------------------------------ *)

(* A growable byte queue: lines are appended at [len], the socket drains
   from [off]. *)
module Obuf = struct
  type t = { mutable b : Bytes.t; mutable off : int; mutable len : int }

  let create () = { b = Bytes.create 65536; off = 0; len = 0 }
  let pending o = o.len - o.off

  let reserve o n =
    if o.len + n > Bytes.length o.b then begin
      let live = o.len - o.off in
      let cap = ref (Bytes.length o.b) in
      while live + n > !cap do cap := 2 * !cap done;
      let b = if !cap > Bytes.length o.b then Bytes.create !cap else o.b in
      Bytes.blit o.b o.off b 0 live;
      o.b <- b;
      o.off <- 0;
      o.len <- live
    end

  let add_string o s =
    let n = String.length s in
    reserve o n;
    Bytes.blit_string s 0 o.b o.len n;
    o.len <- o.len + n

  let add_int o i = add_string o (string_of_int i)

  (* Write what the non-blocking descriptor takes; bytes written. *)
  let write_some o fd =
    match Unix.single_write fd o.b o.off (o.len - o.off) with
    | n ->
        o.off <- o.off + n;
        if o.off = o.len then begin
          o.off <- 0;
          o.len <- 0
        end;
        n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        0
end

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Canonical Rat.to_string of [n / quantum]. *)
let add_scaled o n =
  let g = gcd n quantum in
  Obuf.add_int o (n / g);
  if quantum / g <> 1 then begin
    Obuf.add_string o "/";
    Obuf.add_int o (quantum / g)
  end

(* One NDJSON line, as Dbp_obs.Trace_event.to_ndjson writes it; a
   departure carries the client's conventional [bin = -1],
   [held = "0"]. *)
let add_line o ~seq e =
  Obuf.add_string o {|{"seq":|};
  Obuf.add_int o seq;
  Obuf.add_string o {|,"t":"|};
  add_scaled o e.time_s;
  if e.arrival then begin
    Obuf.add_string o {|","kind":"arrive","item":|};
    Obuf.add_int o e.item;
    Obuf.add_string o {|,"size":"|};
    add_scaled o e.size_s;
    Obuf.add_string o "\"}\n"
  end
  else begin
    Obuf.add_string o {|","kind":"depart","item":|};
    Obuf.add_int o e.item;
    Obuf.add_string o {|,"bin":-1,"held":"0"}|};
    Obuf.add_string o "\n"
  end
