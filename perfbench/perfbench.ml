(* perfbench: the repository's benchmark harness (see README.md here).

     perfbench serve  --workload W --seed N --seconds S --dbp EXE
     perfbench batch-prep --seed N --trace FILE
     perfbench layers --workload W --seed N --seconds S --dbp EXE

   [serve] drives a separate `dbp serve --socket` process and prints the
   end-to-end result line; [batch-prep] writes the batch-replay trace
   and the summary line the black-box `dbp simulate` runs must print; [layers] is the traced in-process run that splits the time
   by layer.  run.py builds everything and calls these. *)

open Dbp_core
open Dbp_perfbench
open Cli

let cmd_serve args =
  let w = workload args in
  let seed = int_of_string (arg args "seed") in
  let seconds = float_of_string (arg args "seconds") in
  check_pin ();
  (* batch-replay's events_per_s and setup_s come from `dbp simulate`
     and its trace load (batch-prep); its served stream needs one
     daemon and no saturation phase. *)
  let batch = w.Workloads.name = "batch-replay" in
  let r =
    Serve_run.run ~dbp:(arg args "dbp") w ~seed ~rounds:(Serve_run.rounds_for ~seconds)
      ~setups:(if batch then 1 else Serve_run.setups)
      ~saturation:(not batch) ~ladder:false
  in
  print_endline
    (result_line ~correct:r.Serve_run.correct ~attempted:r.Serve_run.attempted ~failed:0
       (Serve_run.metrics r))

(* ---- batch-replay preparation --------------------------------------- *)

(* Writes the trace, times loading it back ([setup_s] is the median of
   [setups] loads), and computes what `dbp simulate` must print. *)
let cmd_batch_prep args =
  let seed = int_of_string (arg args "seed") in
  let path = arg args "trace" in
  check_pin ();
  Dbp_workload.Trace.save (Workloads.batch_instance ~seed) ~path;
  let loads =
    List.init Serve_run.setups (fun _ ->
        Gc.compact ();
        let t0 = Probe.now_ns () in
        let inst = Dbp_workload.Trace.load ~path in
        (Probe.seconds_since t0, inst))
  in
  let inst = snd (List.hd loads) in
  let policy = Probe.first_fit () in
  let packing = Simulator.run ~policy inst in
  let departures = Instance.size inst in
  let close_frac = Probe.per (Array.length packing.Packing.bins) departures in
  report "  batch trace: %d items, %d bins, max open %d, %.1f%% of departures close a bin" departures
    (Array.length packing.Packing.bins) packing.Packing.max_bins (100.0 *. close_frac);
  if close_frac < 0.40 then
    fail "batch-replay left its regime: %.1f%% of departures close a bin, want >= 40%%" (100.0 *. close_frac);
  Printf.printf {|{"summary": "%s", "events": %d, "setup_s": %.17g}|}
    (Format.asprintf "%a" Packing.pp_summary packing)
    (2 * departures)
    (Stats.median (List.map fst loads));
  print_newline ()

let () =
  let run f args =
    match f (parse_args args) with
    | () -> exit 0
    | exception Failure m ->
        prerr_endline ("perfbench: " ^ m);
        exit 1
  in
  match Array.to_list Sys.argv with
  | _ :: "serve" :: args -> run cmd_serve args
  | _ :: "batch-prep" :: args -> run cmd_batch_prep args
  | _ :: "layers" :: args -> run Layers.cmd args
  | _ ->
      prerr_endline "usage: perfbench (serve|batch-prep|layers) --OPTION VALUE ...";
      exit 2
