#!/usr/bin/env python3
"""Tests for tools/bench_compare, the microbenchmark regression gate.

Usage:
    test_bench_compare.py PATH/TO/bench_compare

Checks that identical dumps pass; that a cpu_time regression past
--threshold, a p99_ns regression past --p99-threshold and a benchmark
missing from the current run each fail with exit 1; that
--floor-only --require-speedup enforces its factor on cpu_time and
p50_ns; and that an unknown option is rejected.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile


def bench(name, cpu_time, p50, p99):
    """One google-benchmark iteration row with the microbench's
    latency counters."""
    return {"name": name, "run_name": name, "run_type": "iteration",
            "iterations": 1000, "real_time": cpu_time,
            "cpu_time": cpu_time, "time_unit": "ns",
            "p50_ns": p50, "p99_ns": p99}


BASE = {
    "context": {"num_cpus": 4, "mhz_per_cpu": 2100,
                "cpu_scaling_enabled": False},
    "benchmarks": [
        bench("BM_EccEncode", 60.0, 55.0, 120.0),
        bench("BM_EccDecode/1", 90.0, 80.0, 200.0),
    ],
}


def run(tool, tmp, baseline, current, *flags):
    paths = []
    for name, doc in (("baseline.json", baseline),
                      ("current.json", current)):
        path = os.path.join(tmp, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        paths.append(path)
    proc = subprocess.run([sys.executable, tool, *paths, *flags],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout + proc.stderr


def variant(edit):
    doc = copy.deepcopy(BASE)
    edit(doc)
    return doc


def scaled(factor):
    """Every benchmark's cpu_time and p50_ns divided by @p factor."""
    def edit(d):
        for row in d["benchmarks"]:
            row["cpu_time"] /= factor
            row["p50_ns"] /= factor
    return variant(edit)


def main(tool):
    def slow_cpu(d):
        d["benchmarks"][0]["cpu_time"] *= 1.5

    def slow_p99(d):
        d["benchmarks"][1]["p99_ns"] *= 1.5

    def drop_decode(d):
        del d["benchmarks"][1]

    floor = ("--floor-only", "--require-speedup", "BM_EccEncode:5")
    # (label, baseline, current, flags, exit status, text in output)
    cases = [
        ("identical dumps", BASE, BASE, (), 0, ""),
        ("cpu_time past --threshold", BASE, variant(slow_cpu),
         ("--threshold", "0.15"), 1, "cpu_time"),
        ("cpu_time within a loose --threshold", BASE, variant(slow_cpu),
         ("--threshold", "3.0"), 0, ""),
        ("p99_ns past --p99-threshold", BASE, variant(slow_p99),
         ("--p99-threshold", "0.25"), 1, "p99"),
        ("benchmark missing from current", BASE, variant(drop_decode),
         (), 1, "missing from current run"),
        ("floor holds at 6x", BASE, scaled(6.0), floor, 0, ""),
        ("floor fails at 4x", BASE, scaled(4.0), floor, 1, "floor"),
        # argparse exits 2 on an option it does not know.
        ("--gate-counters is not an option", BASE, BASE,
         ("--gate-counters",), 2, "unrecognized arguments"),
    ]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for label, baseline, current, flags, want, text in cases:
            code, output = run(tool, tmp, baseline, current, *flags)
            if code != want or text not in output:
                print(output)
                print(f"FAIL: {label}: exit {code}, want {want} "
                      f"with '{text}'")
                failed += 1
    if failed:
        return 1
    print(f"bench_compare: {len(cases)} cases passed")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
