(* Order statistics and open-loop schedule arithmetic shared by the
   benchmark's harnesses.  Kept free of I/O so the test suite pins the
   rules every reported figure rests on. *)

(* Nearest-rank percentile: the [p]-th percentile (integer percent) of
   [n] samples is the sample of 1-based rank [ceil (p * n / 100)].
   Integer arithmetic, so p99 of 1000 samples is rank 990 exactly. *)
let rank ~n ~p =
  if n <= 0 then invalid_arg "Stats.rank: no samples";
  if p <= 0 || p > 100 then invalid_arg "Stats.rank: percent outside (0, 100]";
  max 1 (((p * n) + 99) / 100)

(* Samples strictly above the percentile's rank. *)
let beyond ~n ~p = n - rank ~n ~p

(* A percentile is reported only when at least ten samples lie beyond
   it; a thinner tail is one outlier away from a different answer. *)
let min_beyond = 10
let supported ~n ~p = n > 0 && beyond ~n ~p >= min_beyond

(* [sorted] must be in ascending order. *)
let percentile sorted ~p = sorted.(rank ~n:(Array.length sorted) ~p - 1)

let sorted_copy a n =
  let s = Array.sub a 0 n in
  Array.sort Float.compare s;
  s

(* Median of a small set of repeated measurements: the mean of the two
   middle values for an even count. *)
let median xs =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "Stats.median: empty"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Open loop: event [k] of a phase starting at [start_ns] with [rate]
   events per second is due at [start_ns + k * 1e9 / rate].  Computed
   from [k], never accumulated, so the schedule cannot drift however
   long the phase runs. *)
let due_ns ~start_ns ~rate k =
  start_ns + int_of_float (Float.round (float_of_int k *. 1e9 /. rate))

(* Events a phase of [seconds] at [rate] schedules. *)
let events_for ~rate ~seconds = max 1 (int_of_float (Float.round (rate *. seconds)))

(* The SLO ladder's rates sit on one absolute geometric grid, so every
   run and every commit tries exactly the same rates:
   [ladder_rate k = ladder_base * ladder_ratio ^ k]. *)
let ladder_base = 1000.0
let ladder_ratio = 1.04

let ladder_rate k = ladder_base *. (ladder_ratio ** float_of_int k)

(* The highest grid index whose rate does not exceed [rate]. *)
let ladder_index_below rate =
  if rate < ladder_base then 0
  else begin
    (* The float log can land one step high or low; settle it. *)
    let k = ref (int_of_float (log (rate /. ladder_base) /. log ladder_ratio)) in
    while !k > 0 && ladder_rate !k > rate do decr k done;
    while ladder_rate (!k + 1) <= rate do incr k done;
    !k
  end
