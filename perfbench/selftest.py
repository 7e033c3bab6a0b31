#!/usr/bin/env python3
"""Self-test of the benchmark: layer table, output schema, isolation.

    python3 perfbench/selftest.py

Run from the repository root. Checks the source -> layer prefix table
and the cross-run correctness checks on made-up runs. Then it runs a
shrunken copy of every workload (request counts / 16) in both modes
and checks each result line against the metrics BENCHMARK.json lists.
Last, it copies only BENCHMARK.json and perfbench/ into an empty
directory and checks that run.py fails there without printing a
result. Exits 1 on the first failed check.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SHRINK = 16
LAYER_CASES = (
    ("arrival", "core.arrival"),
    ("ctrl", "ctrl"),
    ("link/ctrl/2", "ctrl"),
    ("fault", "fault"),
    ("transfer/watchdog", "transfer.watchdog"),
    ("decode/decode", "engine.decode"),
    ("pod17/decode/decode", "engine.decode"),
    ("pod3/prefill/decode", "engine.decode"),
    ("prefill/prefill", "engine.prefill"),
    ("pod0/decode/prefill", "engine.prefill"),
    ("pod9/prefill/pump", "engine.pump"),
    ("decode/sbd", "engine.sbd"),
    ("link/kv/p0d", "hw.link"),
    ("link/pod12/kv/d0p", "hw.link"),
    ("link/nic/5", "hw.link"),
    ("(untagged)", "other"),
    ("telemetry", "other"),
    ("pod4/unknown", "other"),
)


def fail(msg):
    print("selftest: FAIL: " + msg, file=sys.stderr)
    sys.exit(1)


def check_layer_table():
    for source, want in LAYER_CASES:
        got = run.layer_of(source)
        if got != want:
            fail("layer_of(%r) = %r, want %r" % (source, got, want))
    sources = [["pod1/decode/decode", 5, 1000], ["arrival", 2, 500],
               ["(untagged)", 1, 10]]
    totals = run.layer_totals(sources, 8)
    if totals["engine.decode"] != [5, 1000] or totals["other"][0] != 1:
        fail("layer_totals summed wrongly: %r" % totals)
    try:
        run.layer_totals(sources, 9)
    except ValueError:
        pass
    else:
        fail("layer_totals accepted counts that miss an event")


def check_result_checks():
    ok = dict(traced=False, run_s=1.0, checksum=1, events=1, requests=2,
              finished=2, unfinished=0, aborted=0, ttft_n=2, tpot_n=2,
              ttft_p50=1, ttft_p99=2, tpot_p50=1, tpot_p99=2,
              slo_attainment=1, goodput_tok_s=1)
    if run.check_results([ok, dict(ok, traced=True, run_s=2.0)]):
        fail("check_results rejected identical runs")
    bad = (dict(ok, traced=True, checksum=2), dict(ok, finished=1),
           dict(ok, aborted=1), dict(ok, ttft_n=1))
    for r in bad:
        if not run.check_results([ok, r]):
            fail("check_results accepted %r" % r)


def run_bench(root, workload, trace, env=None):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--shrink", str(SHRINK)]
    return subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def check_result(workload, trace, p):
    where = "%s --trace %d" % (workload, trace)
    if p.returncode:
        fail("%s exited %d:\n%s" % (where, p.returncode, p.stderr))
    lines = p.stdout.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (where, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s: correct=%r failed=%r" % (where, result["correct"],
                                           result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s: attempted=%r" % (where, result["attempted"]))
    units = run.PER_LAYER if trace else run.END_TO_END
    got = result["metrics"]
    if set(got) != set(units):
        fail("%s: metric names differ: %s" % (where,
                                              sorted(set(got) ^ set(units))))
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != units[name]:
            fail("%s: metric %s malformed: %r" % (where, name, m))
        if not isinstance(m["value"], (int, float)):
            fail("%s: metric %s value %r" % (where, name, m["value"]))
    if not trace and any(got[k]["value"] <= 0 for k in got):
        fail("%s: an end-to-end metric is not positive" % where)
    for key in ("flavor", "hw_threads", "seed", "checksum", "events"):
        if key not in info:
            fail("%s: info line lacks %s" % (where, key))
    return info["checksum"]


def check_isolated(root, build_root):
    """run.py must fail, printing no result, without the sources."""
    iso = os.path.join(build_root, "selftest_isolated")
    shutil.rmtree(iso, ignore_errors=True)
    os.makedirs(iso)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), iso)
    shutil.copytree(HERE, os.path.join(iso, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    p = run_bench(iso, "pod_long", 0, env)
    shutil.rmtree(iso, ignore_errors=True)
    if p.returncode == 0 or "correct" in p.stdout:
        fail("run.py succeeded without the simulator sources")


def main():
    root = os.path.dirname(HERE)
    build_root = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    check_layer_table()
    check_result_checks()
    for workload in run.WORKLOADS:
        sums = {check_result(workload, t, run_bench(root, workload, t))
                for t in (0, 1)}
        if len(sums) != 1:
            fail("%s: checksums differ between invocations" % workload)
        print("selftest: %s ok (checksum %s)" % (workload, sums.pop()))
    check_isolated(root, build_root)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
