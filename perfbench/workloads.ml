(* The benchmark's workloads and the constants each run is held to.
   Why each workload exists is recorded in perfbench/README.md and in
   BENCHMARK.json; the numbers below are the ones the runs use. *)

type t = {
  name : string;
  shape : Stream.shape;  (** The serve stream's shape. *)
  warmup_events : int;
      (** Closed-loop events sent before timing starts; counted in
          [setup_s]. *)
  high_rate : float;
      (** The fixed high open-loop rate (events/s).  serve-light's is
          about a third of its saturation throughput measured on a
          two-vCPU VM while the host stole over a quarter of its CPU
          time (52k-86k events/s), and ~13% of its quiet ~150k;
          serve-dense's is ~15% of its quiet ~40k.  A rate set from the
          quiet figure tips the phase into overload whenever the host
          gets busy, and its p50 then swings by orders of magnitude. *)
}

(* The p99 placement latency the SLO ladder holds each step to.  Idle
   vCPUs on the VM the benchmark was defined on wake late (1-9 ms, a
   few times a second), which puts the p99 at low rates near 5 ms
   whatever the daemon does; 10 ms leaves the ladder's answer to the
   daemon's backlog. *)
let slo_p99_us = 10_000.0

(* The fixed low open-loop rate (events/s). *)
let low_rate = 2000.0

(* Arrivals a closed-loop phase keeps in flight: enough that the shard
   always has the next batch queued while it works through one (about
   0.1 s of serve-dense's engine work), few enough that answers come
   back in many bursts a second. *)
let window = 4096

(* The batch-replay trace: a default-spec instance of 500k items. *)
let batch_items = 500_000

let batch_instance ~seed =
  Dbp_workload.Generator.generate ~seed:(Int64.of_int seed)
    { Dbp_workload.Spec.default with Dbp_workload.Spec.count = batch_items }

(* A 100k-event warm-up spans ~25,000 time units of the default shape,
   thousands of its longest sessions: the ~4 open bins are at their
   steady level long before it ends.  It is long enough (~0.6 s) that
   the daemon's start-up transient does not dominate setup_s, which
   spread by 0.25 over ten seeds with half of it. *)
let serve_light =
  {
    name = "serve-light";
    shape = Stream.default_shape;
    warmup_events = 100_000;
    high_rate = 20_000.0;
  }

(* Rate 200 with mean duration 100 keeps ~20k sessions resident; sizes
   in [0.05, 0.3] pack ~6 per bin, so ~3.5k bins stay open and almost
   never close once the warm-up has built them. *)
let serve_dense =
  {
    name = "serve-dense";
    shape =
      {
        Stream.rate = 200.0;
        mean_duration = 100.0;
        min_duration = 1.0;
        max_duration = 1000.0;
        size_lo = 0.05;
        size_hi = 0.3;
      };
    warmup_events = 120_000;
    high_rate = 6_000.0;
  }

(* The batch workload's own figures come from [dbp simulate]; its serve
   figures replay the same default-shaped stream through the daemon. *)
let batch_replay = { serve_light with name = "batch-replay" }

let all = [ serve_light; serve_dense; batch_replay ]
let find name = List.find_opt (fun w -> w.name = name) all
