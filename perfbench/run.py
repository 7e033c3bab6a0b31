#!/usr/bin/env python3
"""Benchmark of the WindServe simulator: host cost and simulated results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench_runner (release-bench
flavour: Release, -O2 -DNDEBUG) under $CARGO_TARGET_DIR (default
.bench_build), then runs the workload once per runner process,
repeatedly, for about S seconds, all with the same seed.

--trace 0 times untraced runs and reports the end-to-end metrics.
--trace 1 alternates traced runs (event-pump self-profiler on) with
untraced ones and reports the per-layer metrics.

Every invocation also runs the other mode at least once and checks
that all runs agree on checksum, event count and simulated metrics,
that every request is accounted for, and that the layer table covers
every fired event. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The line before it
records workload, seed, checksum, build flavour and hw_threads.
See README.md for the workloads and the layer -> end-to-end
prediction table.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
FLAVOR = "release-bench"
RUNNER_TIMEOUT_S = 150

# Profiler source name (pod prefix stripped) -> layer. First match wins,
# so the specific link/ctrl/ entry precedes the generic link/ one.
# Names no entry matches, "(untagged)" included, go to "other".
LAYER_PREFIXES = (
    ("arrival", "core.arrival"),
    ("ctrl", "ctrl"),
    ("link/ctrl/", "ctrl"),
    ("link/", "hw.link"),
    ("fault", "fault"),
    ("transfer/watchdog", "transfer.watchdog"),
    ("prefill/decode", "engine.decode"),
    ("decode/decode", "engine.decode"),
    ("prefill/prefill", "engine.prefill"),
    ("decode/prefill", "engine.prefill"),
    ("prefill/pump", "engine.pump"),
    ("decode/pump", "engine.pump"),
    ("prefill/sbd", "engine.sbd"),
    ("decode/sbd", "engine.sbd"),
)
LAYERS = tuple(dict.fromkeys(layer for _, layer in LAYER_PREFIXES)) + (
    "other",)
_POD_PREFIX = re.compile(r"^(link/)?pod\d+/")

# Metric names and units come from BENCHMARK.json at the repository
# root; run.py prints exactly the metrics it lists, in its order.
with open(os.path.join(HERE, "..", "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# Runner outputs that differ between runs of one workload and seed;
# every other field must be identical across them.
HOST_DEPENDENT = ("traced", "make_trace_s", "make_system_s", "run_s",
                  "setup_rss_kb", "peak_rss_kb", "sources")


class BenchError(Exception):
    """Set-up failure: no result is printed and the exit code is 1."""


def layer_of(source):
    """Layer of one profiler source name, pod prefixes stripped."""
    name = _POD_PREFIX.sub(r"\1", source)
    for prefix, layer in LAYER_PREFIXES:
        if name.startswith(prefix):
            return layer
    return "other"


def layer_totals(sources, total_events):
    """Sum profiler buckets [name, fired, wall_ns] per layer.

    Returns {layer: [events, wall_ns]}. Raises ValueError when the layer
    event counts do not add up to the run's total fired events.
    """
    totals = {layer: [0, 0] for layer in LAYERS}
    for name, fired, wall_ns in sources:
        t = totals[layer_of(name)]
        t[0] += fired
        t[1] += wall_ns
    counted = sum(t[0] for t in totals.values())
    if counted != total_events:
        raise ValueError("layer event counts sum to %d, run fired %d"
                         % (counted, total_events))
    return totals


def layer_metrics(r):
    """Per-layer metrics of one traced runner result."""
    totals = layer_totals(r["sources"], r["events"])
    attributed_s = sum(t[1] for t in totals.values()) * 1e-9
    unattributed_s = r["run_s"] - attributed_s
    if unattributed_s < 0:
        raise ValueError("profiled event time %.6f s exceeds run() %.6f s"
                         % (attributed_s, r["run_s"]))
    untagged = next((f for n, f, _ in r["sources"] if n == "(untagged)"), 0)
    lp_events = r["events"] - r["hub_events"]
    m = {
        "simcore.events": r["events"],
        "simcore.ns_per_event": r["run_s"] * 1e9 / r["events"],
        "simcore.unattributed_s": unattributed_s,
        "lp.windows": r["lp_windows"],
        "lp.hub_phases": r["lp_hub_phases"],
        "lp.messages": r["lp_messages"],
        "lp.events_per_window":
            lp_events / r["lp_windows"] if r["lp_windows"] else 0.0,
        "core.dispatches": r["dispatches"],
        "core.reschedules": r["reschedules"],
        "core.cross_offloads": r["cross_offloads"],
        "core.cross_redispatches": r["cross_redispatches"],
        "ctrl.elections": r["elections"],
        "ctrl.commits": r["commits"],
        "ctrl.failovers": r["failovers"],
        "ctrl.failover_p99_s": r["failover_p99_s"],
        "fault.crashes": r["crashes"],
        "fault.redispatches": r["redispatches"],
        "fault.recoveries": r["recoveries"],
        "fault.recovery_ratio":
            r["recoveries"] / r["redispatches"] if r["redispatches"] else 0.0,
        "fault.recovery_mean_s": r["recovery_mean_s"],
        "transfer.migrations": r["migrations"],
        "kvcache.swap_outs": r["swap_outs"],
        "kvcache.backups": r["backups"],
        "workload.make_trace_s": r["make_trace_s"],
        "harness.make_system_s": r["make_system_s"],
        "mem.setup_rss_mb": r["setup_rss_kb"] / 1024.0,
        "mem.run_kb_per_request":
            (r["peak_rss_kb"] - r["setup_rss_kb"]) / r["requests"],
        "obs.attributed_fraction":
            (r["events"] - untagged) / r["events"] if r["events"] else 1.0,
    }
    for layer in LAYERS:
        events, wall_ns = totals[layer]
        m[layer + ".events"] = events
        m[layer + ".self_s"] = wall_ns * 1e-9
        m[layer + ".ns_per_event"] = wall_ns / events if events else 0.0
    return {k: m[k] for k in PER_LAYER if k in m}


def end_to_end_metrics(untraced):
    """End-to-end metrics over the untraced runner results."""
    r = untraced[0]
    med = statistics.median
    return {
        "req_per_s": med(x["requests"] / x["run_s"] for x in untraced),
        "setup_s": med(x["make_trace_s"] + x["make_system_s"]
                       for x in untraced),
        "peak_rss_mb": med(x["peak_rss_kb"] for x in untraced) / 1024.0,
        "sim_ttft_p50_s": r["ttft_p50"],
        "sim_ttft_p99_s": r["ttft_p99"],
        "sim_tpot_p50_s": r["tpot_p50"],
        "sim_tpot_p99_s": r["tpot_p99"],
        "sim_slo_attainment": r["slo_attainment"],
        "sim_goodput_tok_s": r["goodput_tok_s"],
        "sim_finished_share": r["finished"] / r["requests"],
    }


def check_results(runs):
    """Correctness problems across all runs of one invocation."""
    problems = []
    ref = runs[0]
    for i, r in enumerate(runs[1:], 1):
        diff = [k for k in r if k not in HOST_DEPENDENT and r[k] != ref[k]]
        if diff:
            problems.append("run %d (traced=%s) differs from run 0 "
                            "(traced=%s) in %s"
                            % (i, r["traced"], ref["traced"], ", ".join(diff)))
    for r in runs:
        if r["finished"] + r["unfinished"] != r["requests"]:
            problems.append("finished %d + unfinished %d != sent %d"
                            % (r["finished"], r["unfinished"], r["requests"]))
        if r["aborted"] > r["unfinished"]:
            problems.append("aborted %d > unfinished %d"
                            % (r["aborted"], r["unfinished"]))
        if r["ttft_n"] != r["finished"] or r["tpot_n"] > r["finished"]:
            problems.append("latency sample counts %d/%d do not match %d "
                            "finished" % (r["ttft_n"], r["tpot_n"],
                                          r["finished"]))
        if not (0 < r["ttft_p50"] <= r["ttft_p99"]
                and 0 < r["tpot_p50"] <= r["tpot_p99"]
                and 0 <= r["slo_attainment"] <= 1
                and r["goodput_tok_s"] > 0 and r["events"] > 0):
            problems.append("simulated metrics out of range")
    return problems


def build(build_root):
    """Configure (once) and build the runner; return its path."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        raise BenchError("simulator sources (src/) not found next to "
                         "perfbench/")
    bdir = os.path.join(build_root, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build step failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench_runner")


def run_runner(exe, workload, seed, traced, shrink):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--shrink", str(shrink)]
    if traced:
        cmd.append("--traced")
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                       text=True, timeout=RUNNER_TIMEOUT_S)
    if p.returncode:
        raise BenchError("runner exited %d: %s" % (p.returncode, " ".join(cmd)))
    r = json.loads(p.stdout.strip().splitlines()[-1])
    if r["build"] != "optimized":
        raise BenchError("runner is not an optimized build; refusing to "
                         "report host-time metrics")
    return r


def measure(exe, args):
    """Run the runner for ~args.seconds; returns (traced, untraced) runs.

    --trace 0 measures untraced runs, then adds one traced run for the
    identity check. --trace 1 alternates traced and untraced runs, so
    trace overhead compares runs taken under the same host conditions.
    """
    min_runs = 4 if args.trace else 3
    runs = {True: [], False: []}
    deadline = time.monotonic() + args.seconds
    durations = []
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 0
        t0 = time.monotonic()
        runs[traced].append(run_runner(exe, args.workload, args.seed, traced,
                                       args.shrink))
        durations.append(time.monotonic() - t0)
        i += 1
        if (i >= min_runs and
                time.monotonic() + statistics.median(durations) > deadline):
            break
    if not args.trace:
        runs[True].append(run_runner(exe, args.workload, args.seed, True,
                                     args.shrink))
    return runs[True], runs[False]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--shrink", type=int, default=1,
                    help="divide request counts by this (self-test only)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.shrink < 1:
        ap.error("--seed must be >= 0 and --shrink >= 1")

    try:
        exe = build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        traced, untraced = measure(exe, args)
    except (BenchError, subprocess.SubprocessError, OSError,
            ValueError, KeyError, IndexError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    runs = traced + untraced
    problems = check_results(runs)
    ref = runs[0]
    try:
        layers = [layer_metrics(r) for r in traced]
    except (ValueError, ZeroDivisionError) as e:
        problems.append(str(e))
        layers = [dict.fromkeys(PER_LAYER, 0)]
    if args.trace:
        metrics = {k: statistics.median(m[k] for m in layers)
                   for k in layers[0]}
        metrics["obs.trace_overhead_s"] = (
            statistics.median(r["run_s"] for r in traced) -
            statistics.median(r["run_s"] for r in untraced))
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(untraced)
        units = END_TO_END

    info = {
        "workload": args.workload, "seed": args.seed, "flavor": FLAVOR,
        "build": ref["build"], "hw_threads": ref["hw_threads"],
        "shrink": args.shrink, "checksum": "%016x" % ref["checksum"],
        "events": ref["events"], "requests": ref["requests"],
        "ttft_n": ref["ttft_n"], "tpot_n": ref["tpot_n"],
        "run_s": {"traced": [round(r["run_s"], 4) for r in traced],
                  "untraced": [round(r["run_s"], 4) for r in untraced]},
    }
    print(json.dumps(info))
    for p in problems:
        print("perfbench: CHECK FAILED: " + p, file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["requests"] for r in runs),
        "failed": sum(r["unfinished"] for r in runs),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
