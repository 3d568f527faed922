#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmarks/spread.py --workload bounds --seeds 1-10 --seconds 20

Runs run.py once per seed (tracing off) and prints, per metric, the median,
the quartiles and the interquartile distance as a share of the median, next
to the metric's bound from BENCHMARK.json.  The raw values go to
``.bench_out/spread-<workload>-<first>-<last>.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    values = {}
    for seed in seeds:
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={time.monotonic() - t0:.1f}s", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        print(f"{name:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} "
              f"{bounds.get(name, float('nan')):6.3f}")
    out = ROOT / ".bench_out" / f"spread-{args.workload}-{seeds[0]}-{seeds[-1]}.json"
    out.write_text(json.dumps(values, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
