(* Taps the benchmark attaches from outside the library: a policy
   wrapper that counts what each arrival is offered and what the policy
   examined, and the clock and allocation readers every harness uses. *)

open Dbp_core

(* Monotonic nanoseconds; [@@noalloc] underneath, so reading it inside
   an allocation probe does not disturb the count. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Words allocated by this domain so far, minor and major. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* CPU time the host took from this VM: (steal, total) clock ticks
   summed over all CPUs, from the first line of /proc/stat (Linux). *)
let cpu_ticks () =
  let ic = open_in "/proc/stat" in
  let line = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_line ic) in
  match String.split_on_char ' ' line |> List.filter (( <> ) "") with
  | "cpu" :: fields ->
      let v = List.map int_of_string fields in
      let steal = match List.nth_opt v 7 with Some x -> x | None -> 0 in
      (steal, List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 8) v))
  | _ -> failwith "/proc/stat: no cpu line"

(* Share of the CPUs the host stole since [(s0, t0)]. *)
let steal_since (s0, t0) =
  let s1, t1 = cpu_ticks () in
  if t1 = t0 then 0.0 else float_of_int (s1 - s0) /. float_of_int (t1 - t0)

type counts = {
  mutable from_item : int;  (** Arrivals with a smaller id are not counted. *)
  mutable arrivals : int;
  mutable offered : int;  (** Views handed to the policy. *)
  mutable examined : int;
      (** Views up to and including the chosen one; all of them when
          the policy opens a bin.  For First Fit this is exactly the
          views it read. *)
  mutable new_bins : int;
}

let counts ?(from_item = 0) () =
  { from_item; arrivals = 0; offered = 0; examined = 0; new_bins = 0 }

let rec position id i = function
  | [] -> i
  | (v : Bin.view) :: rest -> if v.Bin.bin_id = id then i + 1 else position id (i + 1) rest

(* The wrapped policy takes the same decisions: it calls the real
   handler first and only reads the list afterwards.  The departure
   handler is passed through untouched, so the engine still recognises
   a policy that needs no departure views. *)
let counting (p : Policy.t) c =
  Policy.make ~name:p.Policy.name (fun ~capacity ->
      let h = p.Policy.spawn ~capacity in
      {
        h with
        Policy.on_arrival =
          (fun ~now ~bins ~size ~item_id ->
            let d = h.Policy.on_arrival ~now ~bins ~size ~item_id in
            if item_id >= c.from_item then begin
              let offered = List.length bins in
              c.arrivals <- c.arrivals + 1;
              c.offered <- c.offered + offered;
              match d with
              | Policy.New_bin _ ->
                  c.new_bins <- c.new_bins + 1;
                  c.examined <- c.examined + offered
              | Policy.Existing id -> c.examined <- c.examined + position id 0 bins
            end;
            d);
      })

let first_fit () =
  match Algorithms.find "first-fit" with
  | Some p -> p
  | None -> failwith "first-fit policy missing"

let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
