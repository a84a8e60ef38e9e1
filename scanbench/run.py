#!/usr/bin/env python3
"""Run one scanbench workload and print its metrics.

    python3 scanbench/run.py --workload enum6_bundle --seed 1 --seconds 15 --trace 0

With --trace 0 it measures the end-to-end metrics:

- setup_s: median over fresh interpreters of the time from just before
  `import reslab` until it returned, plus, for the bundles, building the
  filtered and raw catalog for the workload's vertex count;
- graphs_per_s: graphs scanned over the wall time of one untraced
  `run_suite(source, checks, shards=1)` call, median over scans; each
  scan runs in a fresh process that has already done the set-up;
- peak_rss_mb: median over those scan processes of their peak resident
  set (VmHWM) after the set-up and one scan.

Scans repeat until --seconds have passed and at least MIN_SCANS ran.
Each scan is one operation: it fails if it raises or its reports are
wrong (scanned count, skipped records, counterexamples, applicable
counts that differ between scans or from the reference).  A seeded
sample of the workload's graphs is checked against the reference
computations in reference.py.

With --trace 1 it runs the traced replay (replay.py) once instead and
reports the per-layer metrics.  The last line of stdout is one JSON
object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import replay
import workloads

CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_LAUNCHES = 25
MIN_SCANS = 3
CHILD_TIMEOUT_S = 150


class ChildFailed(Exception):
    pass


def child(args: list[str]) -> dict:
    """Run child.py in a fresh interpreter and return its JSON output."""
    env = dict(os.environ, PYTHONPATH=str(workloads.ROOT / "src"), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=workloads.ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        raise ChildFailed(f"exit {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(w, inputs, seconds: int):
    """(metrics, attempted, failed, errors, reports of the first good scan)."""
    catalog = str(w.catalog_n or 0)
    child(["setup", catalog])  # compiles bytecode; not counted
    setups = [child(["setup", catalog])["setup_s"] for _ in range(SETUP_LAUNCHES)]
    kind, arg = inputs.source
    scan_args = ["scan", catalog, kind, str(arg), ",".join(w.checks)]
    scans, errors = [], []
    attempted = failed = 0
    first = None
    start = time.perf_counter()
    while attempted < MIN_SCANS or time.perf_counter() - start < seconds:
        attempted += 1
        try:
            out = child(scan_args)
        except ChildFailed as exc:
            print(f"scan {attempted} failed: {exc}", file=sys.stderr)
            failed += 1
            continue
        counts = [(r["check"], r["applicable"]) for r in out["reports"]]
        wrong = workloads.report_errors(w, inputs, out["reports"])
        if first is not None and counts != first:
            wrong.append(f"applicable counts {counts} differ from the first scan's {first}")
        if wrong:
            failed += 1
            errors += [f"scan {attempted}: {e}" for e in wrong]
            continue
        if first is None:
            first = counts
            reports = out["reports"]
        scans.append(out)
        setups.append(out["setup_s"])
    if not scans:
        raise ChildFailed(f"all {attempted} scans failed")
    metrics = {
        "graphs_per_s": (statistics.median(inputs.scanned / s["scan_s"] for s in scans), "graphs/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(s["hwm_kib"] for s in scans) / 1024, "MiB"),
    }
    times = " ".join(f"{s['scan_s']:.3f}" for s in scans)
    print(f"scan wall times (s): {times}; {len(setups)} set-ups", file=sys.stderr)
    return metrics, attempted, failed, errors, reports


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one scanbench workload.")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    try:
        workloads.require_sources()
        inputs = workloads.prepare(w, args.seed)
        if args.trace:
            layer, reports, errors = replay.replay(w, inputs)
            replay.write_and_print(layer, w.name, args.seed)
            units = {name: unit for name, unit, _ in replay.LAYER_METRICS}
            metrics = {name: (layer[name], units[name]) for name in units}
            wrong = workloads.report_errors(w, inputs, reports)
            attempted, failed = 1, int(bool(wrong))
            errors += wrong
        else:
            metrics, attempted, failed, errors, reports = measure(w, inputs, args.seconds)
        reslab = workloads.import_reslab()
        errors += workloads.c4p5_errors(w, reports)
        errors += workloads.sample_errors(reslab, w, inputs, args.seed)
    except (FileNotFoundError, ChildFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(f"workload {w.name} seed {args.seed}: {attempted} scans attempted, {failed} failed")
    for r in reports:
        print(
            f"  {r['check']:<32} scanned {r['scanned']:>8} applicable {r['applicable']:>8}"
            f" counterexamples {len(r['counterexamples'])}"
        )
    if not args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<14} {value:.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
