#!/usr/bin/env python3
"""End-to-end benchmark of the dfault pipeline.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The script builds
perfbench/CMakeLists.txt (the repository's libraries plus the
dfault_perfbench binary, Release) under $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, then runs one workload in a fresh
working directory that is removed afterwards, so no checkpoint, journal
or on-disk cache survives from an earlier run. DFAULT_* variables are
removed from the binary's environment; the binary fixes its own pool
size.

Workloads (op / failure):
  campaign_cold  sweep(standardSuite(), werOperatingPoints()) from an
                 empty ProfileCache at 16 MiB; op = one swept config,
                 its latency the host time of its profile as the
                 library's "profile" event reports it; failed = configs
                 whose profile feature digest is wrong.
  campaign_warm  WER sweep + K=4 seeded re-measurements of every cell +
                 PUE study on an in-L2 suite profiled during set-up;
                 op = one measurement, its latency that of a seeded
                 measure() call; failed = measurements in a pass whose
                 WER/PUE digest is wrong.
  lobo_train     makeWerDataset + evaluateModel(log target) for 3
                 learners x 3 input sets x devices {0, 5}; op = one LOBO
                 evaluation; failed = evaluations in a pass whose MPE
                 table digest is wrong.
  serve_fleet    closed loop, one client, 1.5x the per-tick budget per
                 round; op = one request, shed ones included, its
                 latency that of an answered (served or degraded)
                 request; failed = a wrong, lost or non-conserved
                 response (a shed is admission control, counted in
                 serve.shed_ratio, not a failure).

A run times passes until another would overrun --seconds, with a
set-up before every pass (lobo_train: every third pass); setup_s and
wall_s are the medians of those times, and req_p50_us / req_p99_us the
medians over passes of each pass's op latency quantiles (campaign_cold
and lobo_train, whose passes repeat the same 14 configs and 18
evaluations: the quantiles over the ops of each op's median over
passes). With --trace 0 the last stdout line carries the
end-to-end metrics, with --trace 1 the per-layer metrics; the traced
run also prints one ledger per measured phase.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign_cold", "campaign_warm", "lobo_train", "serve_fleet")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build the binary; returns its path."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", bdir, "--target", "dfault_perfbench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)
    return os.path.join(bdir, "dfault_perfbench")


LEDGER_RE = re.compile(r"^ledger (.*): measured phase (\S+) s$")
ROW_RE = re.compile(r"^\s+(.+?)\s+(-?[0-9.]+) s\s+(-?[0-9.]+)%$")
UNATTRIBUTED_RE = re.compile(
    r"^\s+unattributed\s+(\S+) s\s+(\S+)% \(bound (\S+)%\)$")


def ledgers(stdout):
    """(title, phase_s, layer_sum_s, unattributed_pct, bound_pct) of each
    ledger in stdout."""
    out = []
    title = None
    for line in stdout.splitlines():
        m = LEDGER_RE.match(line)
        if m:
            title, phase, layer_sum = m.group(1), float(m.group(2)), 0.0
            continue
        if title is None:
            continue
        m = UNATTRIBUTED_RE.match(line)
        if m:
            out.append((title, phase, layer_sum, float(m.group(2)),
                        float(m.group(3))))
            title = None
            continue
        m = ROW_RE.match(line)
        if m:
            layer_sum += float(m.group(2))
    return out


def ledger_violations(stdout):
    """Ledgers whose layers miss the measured phase by more than the bound."""
    bad = []
    for title, phase, layer_sum, pct, bound in ledgers(stdout):
        miss = 100.0 * abs(phase - layer_sum) / phase if phase > 0 else 100.0
        if miss > bound or abs(pct) > bound:
            bad.append("%s: layers sum to %.6f s of %.6f s (%.2f%%, bound "
                       "%.1f%%)" % (title, layer_sum, phase, miss, bound))
    return bad


def run_binary(binary, workload, seed, seconds, trace, expected):
    """Run the binary in a fresh directory; returns (returncode, stdout)."""
    runs = os.path.join(build_dir(), "runs")
    os.makedirs(runs, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=workload + "-", dir=runs)
    env = {k: v for k, v in os.environ.items() if not k.startswith("DFAULT_")}
    try:
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1" if trace else "0",
             "--expected", expected],
            cwd=workdir, env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
        return proc.returncode, proc.stdout
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def spec_metrics(trace):
    """(name, unit) of every metric a run must report, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
        rc, stdout = run_binary(binary, args.workload, args.seed,
                                args.seconds, args.trace == 1,
                                os.path.join(HERE, "expected.json"))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if rc != 0:
        print("perfbench: binary exited with %d" % rc, file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    spec = spec_metrics(args.trace == 1)
    if args.trace:
        # The binary reports the layers its workload exercises; the
        # layers it skips read 0.
        for name, unit in spec:
            metrics.setdefault(name, {"value": 0, "unit": unit})
    missing = sorted(name for name, _ in spec if name not in metrics)
    if missing:
        print("perfbench: binary did not report %s" % missing,
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
