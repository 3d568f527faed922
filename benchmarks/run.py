#!/usr/bin/env python3
"""covchan benchmark launcher.

    python3 benchmarks/run.py --workload decompose --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and uses the library in ``src/``
without installing it.  Pins itself and every process it starts to one CPU
and one BLAS thread, measures set-up time from outside, runs one workload in
a worker process (worker.py) and prints its metrics.  Timings are scaled to
a reference host speed (hostspeed.py).  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  ``--workload all`` runs every workload in turn.

Detailed results (environment, failures, per-item and per-function tables,
spans) go to ``.bench_out/`` in the checkout.  Exits 2 without a result when
the checkout lacks the library or its fixtures.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("decompose", "bounds", "gaussian", "cli")

# One BLAS thread: at two threads verify_hqc at n = 8 read p50 2.9 ms and
# p75 222 ms over seven repeats; at one thread 4.3 and 4.4 ms.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5  # set-up is timed this many times per run; the median counts
RUN_BUDGET_S = 170.0

# Every process started from here inherits this environment.  It is set
# before numpy loads, so the host probe in this process also runs at the
# worker's BLAS thread count.
os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
sys.path.insert(0, str(HERE))
import hostspeed as hs  # noqa: E402


class BenchError(Exception):
    pass


def pinned_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("COVCHAN_SEED", None)
    return env


def source_identity():
    """Git commit when the checkout is a repository, plus a digest of src/."""
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "covchan").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def start_worker(args, workload, deadline, out_path, setup_only):
    """Run worker.py to completion; return the seconds until it printed READY."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--workdir", str(OUT / f"inputs-{workload}")]
    if out_path is not None:
        cmd += ["--out", str(out_path)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=pinned_env(), cwd=ROOT)
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "READY" or code != 0:
        raise BenchError(f"worker for {workload} failed (exit {code})")
    return ready


def run_workload(args, workload, deadline, nproc):
    """Time set-up SETUP_REPEATS times, then run the workload once more.

    Each set-up is scaled to the reference host speed by the probe run just
    before and after it (see hostspeed.py); the median of the scaled set-ups
    is ``setup_s``.
    """
    out_path = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    setups, raw_setups = [], []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            before = hs.sample()
            ready = start_worker(args, workload, deadline, None, True)
            raw_setups.append(ready)
            setups.append(ready / hs.slowdown(before, hs.sample()))
    start_worker(args, workload, deadline, out_path, False)
    result = json.loads(out_path.read_text(encoding="utf-8"))
    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": statistics.median(setups), **metrics}
        result["raw_metrics"]["setup_s"] = statistics.median(raw_setups)
    result["metrics"] = metrics
    result["setup_samples_s"] = setups
    result["raw_setup_samples_s"] = raw_setups
    result["workload"] = workload
    result["seed"] = args.seed
    result["environment"].update(source_identity(), nproc=nproc,
                                 pinned_cpu=min(os.sched_getaffinity(0)),
                                 workload_seed=args.seed)
    unexpected = [f for f in result["failures"] if not f.get("known_defect")]
    result["correct"] = not unexpected and (not args.trace or result["identical_outputs"])
    out_path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def unit_of(name):
    """Unit of a metric, from its name."""
    if "bytes" in name:
        return "B"
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"),
                         ("_mb", "MB"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def print_report(result, trace):
    w = result["workload"]
    for name, value in result["metrics"].items():
        print(f"{w:10s} {name:40s} {value:>16.6g} {unit_of(name)}")
    if not trace:
        print(f"{w:10s} item_tail_ms is the p{result['item_tail_pct']:.1f} "
              f"of {result['items_in_run']} items")
        slow = result["host_slowdown"]
        print(f"{w:10s} host slowdown median {slow['median']:.3f} "
              f"(min {slow['min']:.3f}, max {slow['max']:.3f}); unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in result["raw_metrics"].items()))
    for failure in result["failures"]:
        tag = f" [known defect: {failure['known_defect']}]" if failure.get("known_defect") else ""
        print(f"{w:10s} FAILED item {failure['index']} {failure['kind']}: "
              f"{failure.get('reason', '')}{tag}")
    print(f"{w:10s} environment {json.dumps(result['environment'], sort_keys=True)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="covchan benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "covchan" / "__init__.py", ROOT / "fixtures")
               if not p.exists()]
    if missing:
        print(f"benchmark: not a covchan checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    cpus = sorted(os.sched_getaffinity(0))
    # One client runs at a time, so one CPU is enough.  Pinning this process,
    # and with it every process it starts, keeps the host probe on the same
    # CPU as the work it scales: the two vCPUs slow down independently.
    os.sched_setaffinity(0, {cpus[0]})

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    budget = RUN_BUDGET_S * len(workloads)
    deadline = time.monotonic() + budget
    try:
        results = [run_workload(args, w, deadline, len(cpus)) for w in workloads]
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print_report(result, args.trace)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
