(* Simulator scaling benchmark: the perf trajectory's data source.

   Runs every registered policy through the fast engine ([Simulator])
   at each trace size, and through the retained seed engine
   ([Simulator_naive]) at the smallest size, asserting bit-identical
   packings as it goes.  The seed engine is quadratic in bins ever
   opened (per-event rescan of the full bin list), so its cost at the
   largest size is extrapolated with the (max/naive)^2 law instead of
   measured — at 50k items a single naive run is minutes, which is the
   very reason the fast engine exists.

   [to_json] emits the BENCH_simulator.json artefact; CI uploads it
   from the quick profile and the committed copy at the repo root holds
   full-profile numbers (see EXPERIMENTS.md "Engine scaling"). *)

open Dbp_num
open Dbp_core

type row = {
  policy : string;
  engine : string;  (* "fast" | "naive" *)
  items : int;
  bins : int;
  max_open : int;
  wall_seconds : float;
  events_per_second : float;
  total_cost : float;
  cost_exact : string;
  phases : (string * float * int) list;
      (* per-phase (name, seconds, calls) from a second, profiled run
         of the same policy/size; empty for naive rows.  The timed
         wall/events figures above come from the unprofiled run, so
         the hooks never skew them. *)
}

type equivalence = {
  eq_policy : string;
  eq_items : int;
  speedup : float;  (* naive wall / fast wall at eq_items *)
  identical : bool;  (* same cost, assignment, bins, violations *)
}

type segmented = {
  sg_policy : string;
  sg_items : int;
  sg_cut : int;  (* event index the run was checkpointed at *)
  sg_snapshot_bytes : int;
  sg_identical : bool;
      (* straight run vs save_at-then-resume through the wire format *)
}

type report = {
  quick : bool;
  seed : int64;
  sizes : int list;  (* fast-engine trace sizes, ascending *)
  naive_size : int;  (* the size the naive engine is measured at *)
  rows : row list;
  equivalences : equivalence list;
  segmented : segmented list;
      (* per-policy segmented-identity proof at [naive_size]: the run
         is cut in half with [Dbp_checkpoint.Checkpoint.save_at], the
         snapshot round-trips through its NDJSON wire format, and the
         resumed packing must be bit-identical to the straight run *)
  extrapolated : (string * float) list;
      (* policy -> naive cost extrapolated to [max sizes] over measured
         fast wall there *)
  profiles : (string * (string * float * int) list) list;
      (* policy -> per-phase (name, seconds, calls) from a separately
         profiled fast-engine run at [max sizes]; the timed rows above
         stay unprofiled so the hooks cannot skew them *)
}

let default_sizes ~quick = if quick then [ 500; 2_000 ] else [ 5_000; 50_000 ]

let instance_of ~seed n =
  Dbp_workload.Generator.generate ~seed
    { Dbp_workload.Spec.default with Dbp_workload.Spec.count = n }

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let row_of ?(phases = []) ~engine ~items (p : Packing.t) wall =
  {
    policy = p.Packing.policy_name;
    engine;
    items;
    bins = Packing.bins_used p;
    max_open = p.Packing.max_bins;
    wall_seconds = wall;
    events_per_second = float_of_int (2 * items) /. Float.max wall 1e-9;
    total_cost = Rat.to_float p.Packing.total_cost;
    cost_exact = Rat.to_string p.Packing.total_cost;
    phases;
  }

let packings_identical (a : Packing.t) (b : Packing.t) =
  Rat.equal a.Packing.total_cost b.Packing.total_cost
  && a.Packing.assignment = b.Packing.assignment
  && a.Packing.max_bins = b.Packing.max_bins
  && a.Packing.any_fit_violations = b.Packing.any_fit_violations
  && Array.length a.Packing.bins = Array.length b.Packing.bins

(* CLI registry names in [Algorithms.all] order, so the segmented
   checkpoint leg can rebuild each policy by name through
   [Checkpoint.save_at]. *)
let cli_names =
  [
    "first-fit";
    "best-fit";
    "worst-fit";
    "last-fit";
    "next-fit";
    "random-fit";
    "mff";
    "harmonic:4";
  ]

let run ?(quick = false) ?(seed = 77L) () =
  (* A roomy minor heap keeps the measurements about the engine, not
     about minor-collection cadence; restored on the way out. *)
  let gc0 = Gc.get () in
  Fun.protect ~finally:(fun () -> Gc.set gc0) @@ fun () ->
  Gc.set { gc0 with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let sizes = default_sizes ~quick in
  let naive_size = List.hd sizes in
  let max_size = List.fold_left max naive_size sizes in
  let policies = Algorithms.all () in
  assert (List.length policies = List.length cli_names);
  let instances = List.map (fun n -> (n, instance_of ~seed n)) sizes in
  let rows = ref [] in
  let equivalences = ref [] in
  let segmented = ref [] in
  let extrapolated = ref [] in
  let profiles = ref [] in
  List.iter
    (fun (cli_name, (policy : Policy.t)) ->
      let fast_walls =
        List.map
          (fun (n, instance) ->
            let p, wall = time (fun () -> Simulator.run ~policy instance) in
            let profile = Dbp_obs.Profile.create () in
            ignore (Simulator.run ~profile ~policy instance);
            let phases = Dbp_obs.Profile.spans profile in
            rows := row_of ~phases ~engine:"fast" ~items:n p wall :: !rows;
            (n, p, wall, phases))
          instances
      in
      let phases_at_max =
        let _, _, _, phases =
          List.find (fun (n, _, _, _) -> n = max_size) fast_walls
        in
        phases
      in
      let _, fast_small, fast_small_wall, _ =
        List.find (fun (n, _, _, _) -> n = naive_size) fast_walls
      in
      let naive, naive_wall =
        time (fun () ->
            Simulator_naive.run ~policy (List.assoc naive_size instances))
      in
      rows := row_of ~engine:"naive" ~items:naive_size naive naive_wall :: !rows;
      equivalences :=
        {
          eq_policy = policy.Policy.name;
          eq_items = naive_size;
          speedup = naive_wall /. Float.max fast_small_wall 1e-9;
          identical = packings_identical fast_small naive;
        }
        :: !equivalences;
      (* Segmented identity: cut the smallest run at its event-stream
         midpoint, push the snapshot through the wire format, resume,
         and demand the same packing the straight run produced.  The
         random-fit leg proves the RNG state itself round-trips. *)
      let cut = naive_size in
      let snap =
        Dbp_checkpoint.Checkpoint.save_at ~seed:Algorithms.default_seed
          ~policy_name:cli_name ~at:cut
          (List.assoc naive_size instances)
      in
      let text = Dbp_checkpoint.Snapshot.to_string snap in
      let resumed =
        match Dbp_checkpoint.Snapshot.of_string text with
        | Ok snap ->
            (Dbp_checkpoint.Checkpoint.resume (List.assoc naive_size instances)
               snap)
              .Dbp_checkpoint.Checkpoint.packing
        | Result.Error m -> failwith ("scaling bench: corrupt snapshot: " ^ m)
      in
      segmented :=
        {
          sg_policy = policy.Policy.name;
          sg_items = naive_size;
          sg_cut = cut;
          sg_snapshot_bytes = String.length text;
          sg_identical = packings_identical fast_small resumed;
        }
        :: !segmented;
      let _, _, fast_max_wall, _ =
        List.find (fun (n, _, _, _) -> n = max_size) fast_walls
      in
      let scale = float_of_int max_size /. float_of_int naive_size in
      let naive_max_extrapolated = naive_wall *. scale *. scale in
      extrapolated :=
        (policy.Policy.name, naive_max_extrapolated /. Float.max fast_max_wall 1e-9)
        :: !extrapolated;
      profiles := (policy.Policy.name, phases_at_max) :: !profiles)
    (List.combine cli_names policies);
  {
    quick;
    seed;
    sizes;
    naive_size;
    rows = List.rev !rows;
    equivalences = List.rev !equivalences;
    segmented = List.rev !segmented;
    extrapolated = List.rev !extrapolated;
    profiles = List.rev !profiles;
  }

(* ---- rendering ----------------------------------------------------- *)

let json_escape = Dbp_obs.Trace_event.escape

let to_json r =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": \"dbp-bench-simulator/4\",\n";
  add "  \"quick\": %b,\n" r.quick;
  add "  \"seed\": %Ld,\n" r.seed;
  add "  \"sizes\": [%s],\n"
    (String.concat ", " (List.map string_of_int r.sizes));
  add "  \"naive_size\": %d,\n" r.naive_size;
  add "  \"rows\": [\n";
  let n_rows = List.length r.rows in
  List.iteri
    (fun i row ->
      let phases_json =
        String.concat ", "
          (List.map
             (fun (phase, seconds, calls) ->
               Printf.sprintf
                 "{\"phase\": \"%s\", \"seconds\": %.6f, \"calls\": %d}"
                 (json_escape phase) seconds calls)
             row.phases)
      in
      add
        "    {\"policy\": \"%s\", \"engine\": \"%s\", \"items\": %d, \
         \"bins\": %d, \"max_open\": %d, \"wall_seconds\": %.6f, \
         \"events_per_second\": %.1f, \"total_cost\": %.4f, \
         \"cost_exact\": \"%s\", \"phases\": [%s]}%s\n"
        (json_escape row.policy) row.engine row.items row.bins row.max_open
        row.wall_seconds row.events_per_second row.total_cost
        (json_escape row.cost_exact) phases_json
        (if i = n_rows - 1 then "" else ","))
    r.rows;
  add "  ],\n";
  add "  \"equivalence\": [\n";
  let n_eq = List.length r.equivalences in
  List.iteri
    (fun i e ->
      add
        "    {\"policy\": \"%s\", \"items\": %d, \"speedup\": %.2f, \
         \"identical\": %b}%s\n"
        (json_escape e.eq_policy) e.eq_items e.speedup e.identical
        (if i = n_eq - 1 then "" else ","))
    r.equivalences;
  add "  ],\n";
  add "  \"segmented\": [\n";
  let n_sg = List.length r.segmented in
  List.iteri
    (fun i s ->
      add
        "    {\"policy\": \"%s\", \"items\": %d, \"cut\": %d, \
         \"snapshot_bytes\": %d, \"identical\": %b}%s\n"
        (json_escape s.sg_policy) s.sg_items s.sg_cut s.sg_snapshot_bytes
        s.sg_identical
        (if i = n_sg - 1 then "" else ","))
    r.segmented;
  add "  ],\n";
  add "  \"extrapolated_speedup_at_max\": [\n";
  let n_ex = List.length r.extrapolated in
  List.iteri
    (fun i (p, s) ->
      add "    {\"policy\": \"%s\", \"speedup\": %.1f}%s\n" (json_escape p) s
        (if i = n_ex - 1 then "" else ","))
    r.extrapolated;
  add "  ],\n";
  add "  \"profiles\": [\n";
  let n_pr = List.length r.profiles in
  List.iteri
    (fun i (p, spans) ->
      let span_json =
        String.concat ", "
          (List.map
             (fun (phase, seconds, calls) ->
               Printf.sprintf
                 "{\"phase\": \"%s\", \"seconds\": %.6f, \"calls\": %d}"
                 (json_escape phase) seconds calls)
             spans)
      in
      add "    {\"policy\": \"%s\", \"spans\": [%s]}%s\n" (json_escape p)
        span_json
        (if i = n_pr - 1 then "" else ","))
    r.profiles;
  add "  ]\n";
  add "}\n";
  Buffer.contents buf

let tables r =
  let scaling =
    Dbp_analysis.Table.create ~title:"simulator scaling (wall-clock)"
      ~columns:
        [ "policy"; "engine"; "items"; "bins"; "max open"; "wall s"; "events/s" ]
  in
  List.iter
    (fun row ->
      Dbp_analysis.Table.add_row scaling
        [
          row.policy;
          row.engine;
          string_of_int row.items;
          string_of_int row.bins;
          string_of_int row.max_open;
          Printf.sprintf "%.4f" row.wall_seconds;
          Printf.sprintf "%.0f" row.events_per_second;
        ])
    r.rows;
  let speedups =
    Dbp_analysis.Table.create
      ~title:
        (Printf.sprintf
           "fast vs seed engine (measured at %d items; extrapolated at %d)"
           r.naive_size
           (List.fold_left max r.naive_size r.sizes))
      ~columns:[ "policy"; "speedup"; "identical"; "extrapolated speedup" ]
  in
  List.iter
    (fun e ->
      Dbp_analysis.Table.add_row speedups
        [
          e.eq_policy;
          Printf.sprintf "%.1fx" e.speedup;
          (if e.identical then "yes" else "NO");
          (match List.assoc_opt e.eq_policy r.extrapolated with
          | Some s -> Printf.sprintf "%.0fx" s
          | None -> "-");
        ])
    r.equivalences;
  let seg =
    Dbp_analysis.Table.create
      ~title:
        (Printf.sprintf
           "segmented checkpoint identity at %d items (cut at the event \
            midpoint, resumed through the wire format)"
           r.naive_size)
      ~columns:[ "policy"; "cut"; "snapshot bytes"; "identical" ]
  in
  List.iter
    (fun s ->
      Dbp_analysis.Table.add_row seg
        [
          s.sg_policy;
          string_of_int s.sg_cut;
          string_of_int s.sg_snapshot_bytes;
          (if s.sg_identical then "yes" else "NO");
        ])
    r.segmented;
  let profile =
    Dbp_analysis.Table.create
      ~title:
        (Printf.sprintf "per-phase engine profile at %d items"
           (List.fold_left max r.naive_size r.sizes))
      ~columns:[ "policy"; "phase"; "seconds"; "calls"; "us/call" ]
  in
  List.iter
    (fun (p, spans) ->
      List.iter
        (fun (phase, seconds, calls) ->
          Dbp_analysis.Table.add_row profile
            [
              p;
              phase;
              Printf.sprintf "%.4f" seconds;
              string_of_int calls;
              (if calls = 0 then "-"
               else
                 Printf.sprintf "%.2f" (seconds *. 1e6 /. float_of_int calls));
            ])
        spans)
    r.profiles;
  [ scaling; speedups; seg; profile ]

let render r =
  String.concat "\n" (List.map Dbp_analysis.Table.render (tables r))

let all_identical r =
  List.for_all (fun e -> e.identical) r.equivalences
  && List.for_all (fun s -> s.sg_identical) r.segmented

(* The CI perf-regression gate: the slowest fast-engine policy at the
   largest trace size, in events/second. *)
let min_fast_throughput r =
  let max_size = List.fold_left max r.naive_size r.sizes in
  List.fold_left
    (fun acc row ->
      if row.engine = "fast" && row.items = max_size then
        Float.min acc row.events_per_second
      else acc)
    infinity r.rows
