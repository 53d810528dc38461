#!/usr/bin/env python3
"""Smoke test for the dfault CLI front end.

Usage:
    test_dfault_cli.py PATH/TO/dfault

Checks that the flag spelling (--stats-out=) and the key spelling
(stats_out=) of a run key reach the same session: both runs write a
manifest, and the manifests carry the same stats digest. Also checks
that a flag naming no run key is fatal (exit 1).
"""

import json
import os
import subprocess
import sys
import tempfile

RUN = ["profile", "random", "footprint_mib=1", "work_scale=0.05"]


def run(dfault, *extra):
    return subprocess.run([dfault, *RUN, *extra], capture_output=True,
                          text=True, timeout=120)


def digest(path):
    with open(path + ".manifest.json") as f:
        return json.load(f)["stats"]["digest"]


def main(dfault):
    with tempfile.TemporaryDirectory() as tmp:
        a = os.path.join(tmp, "a.json")
        b = os.path.join(tmp, "b.json")
        for spelling in ("--stats-out=" + a, "stats_out=" + b):
            proc = run(dfault, spelling)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, sep="\n")
                print(f"FAIL: {spelling} exited {proc.returncode}")
                return 1
        for path in (a, b):
            if not os.path.exists(path + ".manifest.json"):
                print(f"FAIL: no manifest for {path}")
                return 1
        if digest(a) != digest(b):
            print(f"FAIL: digests differ: {digest(a)} != {digest(b)}")
            return 1

        proc = run(dfault, "--no-such-flag")
        if proc.returncode != 1 or "unknown flag" not in proc.stderr:
            print(proc.stderr)
            print(f"FAIL: --no-such-flag exited {proc.returncode}")
            return 1
    print("dfault CLI smoke test passed")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
