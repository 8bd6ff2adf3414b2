#!/usr/bin/env python3
"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds `dbp` (bin/main.exe,
the program under test) and the perfbench harness from source with dune
into .bench_build/, runs the workload there, and prints one JSON object
as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics; --trace 1 runs the traced
in-process harness and prints the per-layer metrics.  See
perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
WORKLOADS = ("serve-light", "serve-dense", "batch-replay")
# A run must end well inside the 180 s every run is allowed.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Build the daemon and the harness; returns their paths."""
    dune = shutil.which("dune")
    if dune is None:
        raise BenchError("dune is not on PATH")
    cmd = [
        dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "--cache", "disabled",
        "./bin/main.exe", "./perfbench/perfbench.exe",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise BenchError(f"build failed (exit {proc.returncode})")
    root = os.path.abspath(os.path.join(BUILD_DIR, "default"))
    return os.path.join(root, "bin", "main.exe"), os.path.join(root, "perfbench", "perfbench.exe")


def run_group(cmd, cwd, deadline):
    """Run cmd in its own process group and return its stdout.  On a
    timeout or an error the whole group (the harness and any daemon it
    started) is killed and reaped."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        # Anything the harness left behind (a daemon, if it crashed) goes
        # too, and is waited for until the group is empty.
        deadline_kill = time.monotonic() + 10
        while time.monotonic() < deadline_kill:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.01)
    for line in out.splitlines()[:-1]:
        print(line)
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(cmd[0])} {cmd[1]} failed (exit {proc.returncode})")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{cmd[1]} printed nothing")
    return json.loads(lines[-1])


def simulate_once(dbp, trace, cwd):
    """One black-box `dbp simulate`: wall seconds, peak RSS (MB), exit
    status and standard output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [dbp, "simulate", "--trace", trace, "--policy", "first-fit"],
        cwd=cwd, stdout=subprocess.PIPE, text=True,
    )
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return elapsed, usage.ru_maxrss / 1024.0, proc.returncode, out


# `dbp simulate` runs per batch-replay run; events_per_s and peak_rss_mb
# are their medians.  A run's rate swings by up to 30% from one run to
# the next with the host's state (see README.md), both ways, so the
# median of five beat the best of three or five over ten seeds.
SIMULATE_RUNS = 5


def batch_replay(dbp, harness, seed, seconds, workdir, deadline):
    """The batch workload: `dbp simulate` on a 500k-item trace, timed
    from outside; its latency figures come from serving the same
    default-shaped stream (see README.md)."""
    prep = run_group(
        [harness, "batch-prep", "--seed", str(seed), "--trace", "trace.csv"], workdir, deadline)
    serve = run_group(
        [harness, "serve", "--workload", "batch-replay", "--seed", str(seed),
         "--seconds", str(seconds / 2), "--dbp", dbp], workdir, deadline)
    attempted = serve["attempted"]
    failed = 0
    correct = serve["correct"]
    rates, rss = [], []
    for _ in range(SIMULATE_RUNS):
        if time.monotonic() > deadline:
            raise BenchError("batch-replay ran out of time")
        elapsed, peak, rc, out = simulate_once(dbp, "trace.csv", workdir)
        attempted += prep["events"]
        first = out.splitlines()[0] if out else ""
        if rc != 0 or first != prep["summary"]:
            log(f"dbp simulate exit {rc}, printed {first!r}, want {prep['summary']!r}")
            failed += prep["events"]
            correct = False
            continue
        rates.append(prep["events"] / elapsed)
        rss.append(peak)
        print(f"  simulate: {elapsed:.3f} s, {prep['events'] / elapsed:.0f} ev/s, peak RSS {peak:.1f} MB")
    if not rates:
        raise BenchError("every dbp simulate run failed")
    metrics = dict(serve["metrics"])
    metrics["events_per_s"] = {"value": statistics.median(rates), "unit": "1/s"}
    metrics["setup_s"] = {"value": prep["setup_s"], "unit": "s"}
    metrics["peak_rss_mb"] = {"value": statistics.median(rss), "unit": "MB"}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("perfbench", "run.py")):
        raise BenchError("run from the root of the checkout")
    dbp, harness = build()
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.abspath(os.path.join(BUILD_DIR, "run", f"{args.workload}-{os.getpid()}"))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--dbp", dbp]
        if args.trace == 1:
            result = run_group([harness, "layers"] + common, workdir, deadline)
        elif args.workload == "batch-replay":
            result = batch_replay(dbp, harness, args.seed, args.seconds, workdir, deadline)
        else:
            result = run_group([harness, "serve"] + common, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open("BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if args.trace == 1 else "end_to_end"]
    mismatch = {m["name"] for m in declared} ^ set(result["metrics"])
    if mismatch:
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as e:
        log(str(e))
        sys.exit(1)
