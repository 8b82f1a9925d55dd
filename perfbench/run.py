#!/usr/bin/env python3
"""Runs the repository benchmark.

    python3 perfbench/run.py --workload fleet|shared_cloud|dos_enum \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test     # cargo test of the package

Run from the repository root. Builds the `perfbench` package (release),
then runs one process per iteration of the workload until `--seconds` have
passed (at least MIN_ITERATIONS iterations). Each process prints one JSON
record; this script checks every record, aggregates, prints a summary and,
as its last line, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics, taken with no instruments
attached; `--trace 1` reports the per-layer metrics of the traced run.
Exits 1 when an output check fails or the build fails.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet", "shared_cloud", "dos_enum")
MIN_ITERATIONS = 3
# Per-process ceiling; one full iteration takes a few seconds at most.
PROCESS_TIMEOUT_S = 150

END_TO_END = {
    "homes_per_s": "1/s",
    "steady_ticks_per_s": "1/s",
    "probes_per_s": "1/s",
    "setup_s": "s",
    "cell_ms_p50": "ms",
    "cell_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "rss_bytes_per_home": "bytes",
    "rss_bytes_per_probe": "bytes",
}

PER_LAYER = {
    "fleet.busy_ratio": "ratio",
    "scenario.build_us_per_home": "us",
    "scenario.setup_sim_ticks": "ticks",
    "netsim.events_per_home": "count",
    "netsim.events_per_probe": "count",
    "netsim.timer_share": "ratio",
    "netsim.useful_ratio": "ratio",
    "netsim.deliver_ns_per_event": "ns",
    "netsim.timer_ns_per_event": "ns",
    "netsim.queue_ns_per_event": "ns",
    "netsim.drops_per_home": "count",
    "agent.retries_per_home": "count",
    "agent.heartbeats_per_home": "count",
    "agent.ns_per_event": "ns",
    "wire.msgs_per_home": "count",
    "wire.msgs_per_probe": "count",
    "wire.bytes_per_msg": "bytes",
    "wire.decode_ns_per_msg": "ns",
    "wire.encode_ns_per_msg": "ns",
    "wire.time_share": "ratio",
    "cloud.requests_per_home": "count",
    "cloud.requests_per_probe": "count",
    "cloud.denied_ratio": "ratio",
    "cloud.handle_ns_per_req": "ns",
    "cloud.monitor_state_bytes": "bytes",
    "cloud.alerts_total": "count",
    "attack.reply_ticks_p50": "ticks",
    "prof.overhead_x": "x",
    "telemetry.overhead_x": "x",
    "alloc.allocs_per_home": "count",
    "alloc.allocs_per_probe": "count",
    "ledger.fleet_share": "ratio",
    "ledger.scenario_share": "ratio",
    "ledger.netsim_share": "ratio",
    "ledger.agent_share": "ratio",
    "ledger.wire_share": "ratio",
    "ledger.cloud_share": "ratio",
    "ledger.attack_share": "ratio",
    "ledger.idle_share": "ratio",
    "ledger.residual": "ratio",
}

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds both binaries; returns their directory or None on failure."""
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(manifest):
        return None
    try:
        proc = subprocess.run(
            ["cargo", "build", "--release", "--quiet", "--manifest-path", manifest],
            cwd=ROOT,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return None
    if proc.returncode != 0:
        log("perfbench: build failed")
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(ROOT, target, "release")


def run_one(bindir, binary, workload, seed, mode, size, trace_out=None):
    """Runs one iteration process and returns its record (None on a crash)."""
    cmd = [os.path.join(bindir, binary), workload, "--seed", str(seed),
           "--mode", mode, "--size", size]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {workload} {mode} did not finish: {e}")
        return None
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"perfbench: {workload} {mode} exited {proc.returncode}")
        return None
    return json.loads(lines[-1])


def percentile(values, q):
    """Nearest-rank percentile of `values` (0 < q <= 1)."""
    s = sorted(values)
    rank = max(1, math.ceil(q * len(s)))
    return s[rank - 1]


def timing_summary(name, values, unit):
    """Median plus the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    line = f"  {name}: median {statistics.median(values):.6g} {unit}"
    for p in (0.99, 0.95, 0.9, 0.75):
        if n * (1 - p) >= 10:
            line += f", p{round(p * 100)} {percentile(values, p):.6g} {unit}"
            break
    return line + f" (n={n})"


def best_slices(recs, key):
    """Per slice index, the fastest time over the records' `key` lists."""
    return [min(column) for column in zip(*(r[key] for r in recs))]


class Verdict:
    """Collects check failures across the records of one run."""

    def __init__(self):
        self.failures = []

    def records(self, recs, digest=None):
        for r in recs:
            if r is None:
                self.failures.append("an iteration crashed")
                continue
            for c in r["checks"]:
                if not c["ok"]:
                    self.failures.append(f"{r['mode']}: {c['name']}: {c['detail']}")
            if digest is not None and r["digest"] != digest:
                self.failures.append(
                    f"{r['mode']}: digest {r['digest']} differs from {digest}")

    @property
    def correct(self):
        return not self.failures


def loop(seconds, min_iterations, body):
    """Calls `body()` until `seconds` have passed and `min_iterations` ran,
    or until it returns None (a crash)."""
    start = time.monotonic()
    out = []
    while True:
        out.append(body())
        if out[-1] is None:
            return out
        if time.monotonic() - start >= seconds and len(out) >= min_iterations:
            return out


def end_to_end(bindir, workload, seed, seconds, size):
    plain = loop(seconds, MIN_ITERATIONS,
                 lambda: run_one(bindir, "perfbench", workload, seed, "plain", size))
    verdict = Verdict()
    if any(r is None for r in plain):
        verdict.records(plain)
        return verdict, {}, 0, 0
    digest = plain[0]["digest"]
    verdict.records(plain, digest)
    # Every iteration does the same simulated work slice for slice, so a
    # slice's best time over the run's iterations is its cost with the
    # least interference from other load on the host (see README.md).
    for key in ("cell_ns", "setup_ns"):
        if len({len(r[key]) for r in plain}) != 1:
            verdict.failures.append(f"iterations differ in their number of {key} slices")
    cells = best_slices(plain, "cell_ns")
    cell_s = sum(cells) / 1e9
    ticks = sum(plain[0]["cell_ticks"])
    if workload == "fleet":
        # The sweep's cells spread over its worker threads.
        homes_s = cell_s / plain[0]["threads"]
        window_s = homes_s
    else:
        homes_s = sum(best_slices(plain, "setup_ns")) / 1e9
        window_s = cell_s + (homes_s if workload == "shared_cloud" else 0)
    if workload == "dos_enum":
        probes = plain[0]["probes_sent"]
    else:
        # Probes here are the requests the cloud answers: counted once by a
        # telemetry census of the same seed, outside the timed runs.
        census = run_one(bindir, "perfbench", workload, seed, "telemetry", size)
        verdict.records([census], digest)
        probes = census["counts"]["requests"] if census else 0
    cells_ms = [ns / 1e6 for ns in cells]
    metrics = {
        "homes_per_s": plain[0]["homes_ok"] / homes_s,
        "steady_ticks_per_s": ticks / cell_s,
        "probes_per_s": probes / window_s,
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "cell_ms_p50": percentile(cells_ms, 0.5),
        "cell_ms_p90": percentile(cells_ms, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_bytes"] for r in plain) / 1e6,
        "rss_bytes_per_home": statistics.median(
            r["peak_rss_bytes"] / r["homes"] for r in plain),
        "rss_bytes_per_probe": statistics.median(
            r["rss_growth_bytes"] / max(probes, 1) for r in plain),
    }
    attempted = sum(r["homes"] + r["probes_sent"] for r in plain)
    failed = sum(r["homes"] - r["homes_ok"] + r["probes_sent"] - r["probes_answered"]
                 for r in plain)
    first = plain[0]
    print(f"{workload} seed={seed} iterations={len(plain)} nproc={first['nproc']} "
          f"threads={first['threads']} profile={first['profile']} digest={digest} "
          f"pin={first['pin']}")
    print(timing_summary("cell_ms (best per cell)", cells_ms, "ms"))
    print(timing_summary("cell_ms (every sample)",
                         [ns / 1e6 for r in plain for ns in r["cell_ns"]], "ms"))
    for key, unit in (("homes_s", "s"), ("steady_s", "s"), ("setup_s", "s")):
        print(timing_summary(key, [r[key] for r in plain], unit))
    return verdict, metrics, attempted, failed


def per_layer(bindir, workload, seed, seconds, size):
    trace_out = os.path.join(HERE, "out", f"trace_{workload}_{seed}.json")

    def body():
        plain = run_one(bindir, "perfbench", workload, seed, "plain", size)
        census = run_one(bindir, "perfbench", workload, seed, "telemetry", size)
        traced = run_one(bindir, "perfbench_traced", workload, seed, "traced", size,
                         trace_out)
        if None in (plain, census, traced):
            return None
        return plain, census, traced
    # A traced iteration is long (three processes), so one is enough.
    iterations = loop(seconds, 1, body)
    verdict = Verdict()
    if any(it is None for it in iterations):
        verdict.records([None])
        return verdict, {}, 0, 0
    digest = iterations[0][0]["digest"]
    for it in iterations:
        verdict.records(it, digest)
    layers = {}
    for key in PER_LAYER:
        vals = []
        for plain, census, traced in iterations:
            if key == "prof.overhead_x":
                vals.append(traced["counts"]["profiled_wall_ns"] / 1e9 / plain["wall_s"])
            elif key == "telemetry.overhead_x":
                vals.append(census["wall_s"] / plain["wall_s"])
            elif key == "wire.time_share":
                # Codec time over the untraced thread time of the workload.
                thread_s = plain["threads"] * plain["wall_s"]
                vals.append(census["counts"]["codec_ns"] / 1e9 / thread_s)
            elif key in census["layers"]:
                # Layer costs measured outside the world, untraced build.
                vals.append(census["layers"][key])
            else:
                vals.append(traced["layers"][key])
        layers[key] = statistics.median(vals)
    attempted = sum(p["homes"] + p["probes_sent"] for p, _, _ in iterations)
    failed = sum(p["homes"] - p["homes_ok"] + p["probes_sent"] - p["probes_answered"]
                 for p, _, _ in iterations)
    print(f"{workload} seed={seed} traced iterations={len(iterations)} "
          f"nproc={iterations[0][0]['nproc']} spans={os.path.relpath(trace_out, ROOT)}")
    return verdict, layers, attempted, failed


def result(verdict, metrics, units, attempted, failed):
    for f in verdict.failures:
        print(f"CHECK FAILED: {f}")
    out = {
        "correct": verdict.correct,
        "attempted": max(int(attempted), 1),
        "failed": int(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    print(json.dumps(out))
    return 0 if verdict.correct and len(out["metrics"]) == len(units) else 1


def self_test():
    """Runs the package's tests: every workload at a tiny size on two
    seeds, plain and traced, with every check passing, the ledger residual
    inside its bound, and a wrong pinned digest rejected."""
    proc = subprocess.run(
        ["cargo", "test", "--release", "--quiet", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, timeout=850)
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.self_test:
        return self_test()
    bindir = build()
    if bindir is None:
        return 1
    if args.trace:
        verdict, metrics, attempted, failed = per_layer(
            bindir, args.workload, args.seed, args.seconds, args.size)
        return result(verdict, metrics, PER_LAYER, attempted, failed)
    verdict, metrics, attempted, failed = end_to_end(
        bindir, args.workload, args.seed, args.seconds, args.size)
    return result(verdict, metrics, END_TO_END, attempted, failed)


if __name__ == "__main__":
    sys.exit(main())
