#!/usr/bin/env python3
"""Pipeline benchmark: end-to-end and per-layer metrics of compile-and-measure.

    python3 pipebench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is table2-kernels, ccm-sweep, fuzz-oracle, a comma-separated list of
them, or `all`. Run from the repository root; the worker is built from
source with cargo into $CARGO_TARGET_DIR (default `.bench_build`).

--trace 0 times the workload's experiment entry point, each repetition in a
fresh worker process, for about --seconds, and prints the end-to-end
metrics. --trace 1 runs a traced worker between two untraced ones and
prints the per-layer split. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are the
same figures for people, with units. The worker's diagnostics go to stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table2-kernels", "ccm-sweep", "fuzz-oracle")

# Setup-only worker processes per run, on top of the timed repetitions,
# so that the set-up median rests on enough samples.
SETUP_PROBES = 7
# Timed repetitions per run, however long they take.
MIN_REPS = 3
# A workload's run ends within this many seconds after the build, or is
# abandoned.
RUN_LIMIT_S = 170

# Worker fields that are timings or memory; every other field of a timed
# worker is a deterministic output and must agree across processes.
VARYING = {"first_call_epoch_s", "wall_s", "peak_rss_mb"}

# The per-layer metrics of a traced run: name -> unit.
PER_LAYER = {
    "build.input_s": "s",
    "opt.optimize_s": "s",
    "opt.ir_instrs": "count",
    "regalloc.allocate_s": "s",
    "regalloc.allocate_p95_ms": "ms",
    "regalloc.rounds": "count",
    "regalloc.spilled": "count",
    "regalloc.coalesced": "count",
    "regalloc.igraph_build_s": "s",
    "regalloc.igraph_edges": "count",
    "regalloc.costs_s": "s",
    "regalloc.color_s": "s",
    "ccm.postpass_s": "s",
    "ccm.promoted": "count",
    "ccm.heavyweight": "count",
    "ccm.integrated_s": "s",
    "ccm.integrated_ccm_spills": "count",
    "ccm.degraded": "count",
    "checker.check_s": "s",
    "checker.errors": "count",
    "sim.run_s": "s",
    "sim.instrs": "count",
    "sim.instrs_per_s": "1/s",
    "harness.measure_unit_s": "s",
    "harness.configs": "count",
    "fuzz.gen_s": "s",
    "fuzz.oracle_s": "s",
    "fuzz.case_p95_ms": "ms",
    "trace.overhead_pct": "%",
}
# Layer self times whose shares of the replay are reported.
SHARES = {
    "build": ["build.input_s"],
    "opt": ["opt.optimize_s"],
    "regalloc": ["regalloc.allocate_s"],
    "ccm": ["ccm.postpass_s", "ccm.integrated_s"],
    "checker": ["checker.check_s"],
    "sim": ["sim.run_s"],
}
for _layer in SHARES:
    PER_LAYER[f"share.{_layer}_pct"] = "%"


class BenchError(Exception):
    pass


def build():
    """Builds the worker and returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        raise BenchError(f"no repository sources next to {HERE}")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        raise BenchError(f"`{' '.join(cmd)}` failed with code {done.returncode}")
    return os.path.join(ROOT, target, "release", "pipebench")


class Worker:
    def __init__(self, binary, workload, seed, jobs, deadline):
        self.binary = binary
        self.args = [workload, "--jobs", str(jobs), "--seed", str(seed)]
        self.deadline = deadline

    def run(self, mode):
        """Runs one fresh worker process and returns its JSON, plus
        `setup_s`: the time from spawning it to its first timed call."""
        spawned = time.time()
        done = subprocess.run(
            [self.binary, mode, *self.args],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        if done.returncode != 0:
            raise BenchError(f"worker `{mode} {' '.join(self.args)}` exited with {done.returncode}")
        lines = done.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"worker `{mode} {' '.join(self.args)}` printed nothing")
        out = json.loads(lines[-1])
        out["setup_s"] = out["first_call_epoch_s"] - spawned
        return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def timed(worker, seconds):
    """Untraced repetitions for about `seconds`; returns the end-to-end
    metrics and the report."""
    setups = [worker.run("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    reps = []
    start = time.monotonic()
    while True:
        reps.append(worker.run("timed"))
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    setups += [r["setup_s"] for r in reps]
    rates = [r["attempted"] / r["wall_s"] for r in reps]
    rss = [r["peak_rss_mb"] for r in reps]

    first = reps[0]
    outputs = {k: v for k, v in first.items() if k not in VARYING and k != "setup_s"}
    agree = all({k: r.get(k) for k in outputs} == outputs for r in reps)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)

    q1, q3 = quartiles(rates)
    lines = [
        f"[{first['workload']}] jobs={first['jobs']} engine={first['engine']} "
        f"runs={len(reps)} (one fresh process each) setup-probes={SETUP_PROBES}",
        f"  configs_per_s  {statistics.median(rates):.4g} 1/s  "
        f"median of {len(reps)}, q1 {q1:.4g}, q3 {q3:.4g}",
        f"  setup_s        {statistics.median(setups):.4g} s  median of {len(setups)}",
        f"  peak_rss_mb    {statistics.median(rss):.4g} MiB  median of {len(rss)}",
        f"  failed_frac    {failed / attempted:.4g}  ({failed} of {attempted} configurations)",
    ]
    for k, v in outputs.items():
        if "pct" in k:
            lines.append(f"  {k}  {v:.6g} %  (deterministic)")
    if not agree:
        lines.append("  outputs differ between processes: " + json.dumps([
            {k: r.get(k) for k in outputs} for r in reps]))
    metrics = {
        "configs_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MiB"),
    }
    return metrics, attempted, failed, agree and failed == 0, lines


def traced(worker):
    """A traced worker between two untraced ones; returns the per-layer
    metrics and the report."""
    before = worker.run("timed")
    t = worker.run("traced")
    after = worker.run("timed")
    # The mean of the untraced runs on either side cancels a steady drift
    # of the host's speed.
    untraced_s = (before["wall_s"] + after["wall_s"]) / 2.0
    values = {k: t[k] for k in PER_LAYER if k in t}
    values["sim.instrs_per_s"] = t["sim.instrs"] / t["sim.run_s"] if t["sim.run_s"] else 0.0
    # The harness pass makes the entry point's calls with a timer around
    # each; its wall time over the untraced calls' is the cost of tracing.
    values["trace.overhead_pct"] = 100.0 * (t["harness_wall_s"] / untraced_s - 1.0)
    layer_s = {layer: sum(t[k] for k in keys) for layer, keys in SHARES.items()}
    total = sum(layer_s.values()) or 1.0
    for layer, s in layer_s.items():
        values[f"share.{layer}_pct"] = 100.0 * s / total
    missing = [k for k in PER_LAYER if k not in values]
    if missing:
        raise BenchError(f"traced worker did not report {missing}")

    lines = [
        f"[{t['workload']}] traced: jobs={t['jobs']} engine={t['engine']} "
        f"untraced {before['wall_s']:.3f} s and {after['wall_s']:.3f} s, "
        f"harness pass {t['harness_wall_s']:.3f} s, "
        f"layer replay {t['layers_wall_s']:.3f} s (times are busy seconds summed over workers)"
    ]
    lines += [f"  {k}  {values[k]:.6g} {u}" for k, u in PER_LAYER.items()]
    metrics = {k: (values[k], u) for k, u in PER_LAYER.items()}
    attempted = before["attempted"] + t["attempted"] + after["attempted"]
    failed = before["failed"] + t["failed"] + after["failed"]
    return metrics, attempted, failed, failed == 0, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    names = WORKLOADS if a.workload == "all" else a.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; choose from {WORKLOADS} or all")
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
        jobs = len(os.sched_getaffinity(0))
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            worker = Worker(binary, name, a.seed, jobs, time.monotonic() + RUN_LIMIT_S)
            if a.trace:
                metrics, attempted, failed, ok, lines = traced(worker)
            else:
                metrics, attempted, failed, ok, lines = timed(worker, a.seconds)
            print("\n".join(lines), flush=True)
            result["correct"] &= ok
            result["attempted"] += attempted
            result["failed"] += failed
            prefix = f"{name}." if len(names) > 1 else ""
            for k, (v, unit) in metrics.items():
                result["metrics"][prefix + k] = {"value": v, "unit": unit}
    except (BenchError, subprocess.SubprocessError, OSError, KeyError, TypeError, ValueError) as e:
        print(f"pipebench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
