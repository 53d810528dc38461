#!/usr/bin/env python3
"""Tests for tools/stats_diff, the golden-snapshot drift gate.

Usage:
    test_stats_diff.py PATH/TO/stats_diff

Checks that identical snapshots pass; that a moved bucket count or
extremum of a deterministic histogram (campaign.wer) fails with exit
1; that wall-clock histograms (a path segment ending in _ns) are
ignored; and that a stat present on only one side fails.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile


def histogram(count, lo, hi, buckets):
    """A registry-style histogram object (see Registry::toJson)."""
    return {"kind": "histogram", "count": count, "zeros": 0,
            "mean": (lo + hi) / 2, "min": lo, "max": hi,
            "p50": lo, "p90": hi, "p99": hi, "p999": hi,
            "buckets": buckets}


BASE = {
    "campaign.measurements": 3,
    "campaign.wer": histogram(3, 4.0e-7, 3.5e-5,
                              [[1450, 1], [1505, 1], [1700, 1]]),
    "campaign.cell_ns": histogram(3, 1.2e6, 9.8e6,
                                  [[2700, 2], [2800, 1]]),
    "serve.latency_ns.bulk": histogram(2, 800.0, 1500.0,
                                       [[2350, 1], [2380, 1]]),
    "time.sweep.seconds": 1.5,
}


def run(tool, tmp, golden, current):
    paths = []
    for name, doc in (("golden.json", golden), ("current.json", current)):
        path = os.path.join(tmp, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        paths.append(path)
    proc = subprocess.run([sys.executable, tool, *paths],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout + proc.stderr


def variant(edit):
    doc = copy.deepcopy(BASE)
    edit(doc)
    return doc


def main(tool):
    def bump_bucket(d):
        d["campaign.wer"]["buckets"][1][1] += 1

    def move_min(d):
        d["campaign.wer"]["min"] *= 1.01

    def move_cell_ns(d):
        d["campaign.cell_ns"]["buckets"][0][1] += 5
        d["campaign.cell_ns"]["max"] = 4.2e7

    def move_latency(d):
        d["serve.latency_ns.bulk"]["p99"] = 99999.0

    def drop_wer(d):
        del d["campaign.wer"]

    def add_stat(d):
        d["campaign.crashes"] = 1

    cases = [
        ("identical snapshots", BASE, BASE, 0),
        ("campaign.wer bucket count", BASE, variant(bump_bucket), 1),
        ("campaign.wer min", BASE, variant(move_min), 1),
        ("campaign.cell_ns", BASE, variant(move_cell_ns), 0),
        ("serve.latency_ns.bulk", BASE, variant(move_latency), 0),
        ("stat missing from current", BASE, variant(drop_wer), 1),
        ("stat missing from golden", BASE, variant(add_stat), 1),
    ]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for label, golden, current, want in cases:
            code, output = run(tool, tmp, golden, current)
            if code != want:
                print(output)
                print(f"FAIL: {label}: exit {code}, want {want}")
                failed += 1
    if failed:
        return 1
    print(f"stats_diff: {len(cases)} cases passed")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
