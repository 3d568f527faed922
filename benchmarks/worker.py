"""One benchmark process: builds a workload's inputs, then runs it.

Started by run.py with the BLAS thread count and PYTHONPATH already pinned.
Prints ``READY`` on stdout once its inputs exist; run.py times the interval
from process start to that line as the set-up time.  The result goes to the
``--out`` file as JSON.

Untraced (``--trace 0``): a closed loop with one client over whole cycles of
the workload's items, as many as took ``--seconds`` when the benchmark was
written (see workloads.CYCLE_SECONDS).  Each item's oracle runs after its
timer stops.  Each item's wall time is scaled to the reference host speed by
a probe run around it (see hostspeed.py).

Traced (``--trace 1``): one fixed pass over the cycle in which each item runs
untraced and then traced, with every public covchan function wrapped (see
tracer.py).  Set-up is traced too.  A fixed pass, not a timed loop, makes the
call counts exact for a seed.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hostspeed as hs  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

CLI_NAMES = {"cmd_check": "check", "cmd_decompose": "decompose",
             "cmd_capacity": "capacity", "cmd_timing": "timing",
             "cmd_gaussian": "gaussian", "cmd_mc_gaussian": "mc-gaussian"}

# Functions whose exact call counts are reported as per-layer metrics.
COUNTED_CALLS = (
    "channels.choi_of", "channels.is_cptp", "channels.apply_matrix",
    "channels.bipartite_apply", "channels.von_neumann_entropy",
    "channels.kraus_from_choi", "covariant.decompose", "covariant.covariance_defect",
    "covariant.reconstruct", "covariant.sector_kraus", "covariant.shift_domain",
    "covariant.partial_shift", "covariant.energy_differences",
    "capacity.verify_hqc", "capacity.coherent_information",
    "capacity.hadamard_bound", "capacity.hadamard_channel",
    "timing.timing_channel", "timing.build_shift_mixture",
    "fock.gaussian_mask_matrix", "fock.laguerre", "fock.monte_carlo_channel",
    "serialize.dumps", "serialize.matrix_to_json", "serialize.load_json",
    "serialize.matrix_from_json", "generate.random_covariant", "cli.main",
)

# Functions whose summed self time is reported as a per-layer metric.
TIMED_SELF = (
    "channels.choi_of", "channels.is_cptp", "channels.bipartite_apply",
    "channels.apply_matrix", "channels.von_neumann_entropy",
    "channels.kraus_from_choi", "generate.random_covariant",
    "covariant.decompose", "covariant.covariance_defect", "covariant.reconstruct",
    "covariant.sector_kraus", "covariant.energy_differences",
    "capacity.verify_hqc", "capacity.coherent_information",
    "capacity.hadamard_bound", "capacity.hadamard_channel",
    "timing.timing_channel", "timing.build_shift_mixture",
    "fock.gaussian_mask_matrix", "fock.laguerre", "fock.monte_carlo_channel",
    "serialize.dumps", "serialize.matrix_to_json", "serialize.load_json",
    "serialize.matrix_from_json",
) + tuple(f"cli.{fn}" for fn in CLI_NAMES)

EXACT_COUNTS = ("channels.choi_bytes", "covariant.sectors", "fock.mc_samples",
                "serialize.bytes_in", "serialize.bytes_out")


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def run_item(item, in_process):
    """Run one item; returns (wall seconds, output or None, exception or None)."""
    fn = item.run_in_process if in_process else item.run
    t0 = time.perf_counter()
    try:
        out, err = fn(), None
    except Exception as exc:  # an unexpected raise fails the item, not the run
        out, err = None, exc
    return time.perf_counter() - t0, out, err


def judge(item, out, err):
    """None when the output is correct, else the reason it is not."""
    if err is not None:
        return f"raised {type(err).__name__}: {err}"
    try:
        return item.check(out)
    except Exception as exc:  # a malformed output can break its oracle
        return f"oracle raised {type(exc).__name__}: {exc}"


def failure(index, item, reason):
    return {"index": index, "kind": item.kind, "reason": reason,
            "known_defect": item.known_defect}


def tail(walls):
    """Wall time at the highest percentile with at least ten items beyond it."""
    ordered = sorted(walls)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 items, got {n}")
    return ordered[n - 11], 100.0 * (n - 10) / n


def timed_loop(items, cycles, workload):
    """Run the cycle ``cycles`` times; time each item at the reference speed.

    The host probe runs just before and just after every item, outside its
    timer, and the item's wall time is divided by the host's slowdown over
    that interval (see hostspeed.py).  The metrics are computed from these
    scaled times; the raw wall-time metrics and the slowdowns are kept beside
    them in the result file.
    """
    walls, scaled, slowdowns, failures, by_kind = [], [], [], [], {}
    for i in range(cycles * len(items)):
        item = items[i % len(items)]
        gc.collect()  # the previous item's garbage is freed outside this item's timer
        before = hs.sample()
        wall, out, err = run_item(item, in_process=False)
        slow = hs.slowdown(before, hs.sample())
        walls.append(wall)
        scaled.append(wall / slow)
        slowdowns.append(slow)
        by_kind.setdefault(item.kind, []).append(wall / slow)
        reason = judge(item, out, err)
        if reason is not None:
            failures.append(failure(i, item, reason))
    usage = resource.getrusage(resource.RUSAGE_CHILDREN
                               if workload in wl.SUBPROCESS_WORKLOADS
                               else resource.RUSAGE_SELF)
    return {
        "attempted": len(walls),
        "failed": len(failures),
        "failures": failures,
        "cycles": cycles,
        "busy_s": sum(walls),
        "metrics": {
            **time_metrics(scaled),
            "pass_frac": (len(walls) - len(failures)) / len(walls),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        },
        "raw_metrics": time_metrics(walls),
        "host_slowdown": {"median": statistics.median(slowdowns),
                          "min": min(slowdowns), "max": max(slowdowns)},
        "item_tail_pct": tail(scaled)[1],
        "items_in_run": len(walls),
        "median_ms_by_kind": {k: 1e3 * statistics.median(v) for k, v in by_kind.items()},
        "kinds_by_time": [items[j % len(items)].kind
                          for j in sorted(range(len(scaled)), key=scaled.__getitem__)],
    }


def time_metrics(times):
    return {
        "items_per_s": len(times) / sum(times),
        "item_p50_ms": 1e3 * statistics.median(times),
        "item_tail_ms": 1e3 * tail(times)[0],
    }


def startup_ms(repeats=3):
    """Median wall time of a process that only runs `import covchan.cli`."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import covchan.cli"], check=True,
                       timeout=120)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def traced_pass(items, tracer, spans_path):
    """Run each item of the cycle untraced and, straight after, traced."""
    plain, traced, item_spans = [], [], []
    fingerprints, traced_fps, failures = [], [], {}
    mismatched = 0
    for idx, item in enumerate(items):
        tracer.uninstall()
        wall, out, err = run_item(item, in_process=True)
        plain.append(wall)
        fingerprints.append(wl.fingerprint((out, err)))
        reason = judge(item, out, err)
        if reason is not None:
            failures[idx] = failure(idx, item, reason)

        tracer.install()
        tracer.item = idx
        first = len(tracer.spans)
        wall, out, err = tracer.call(tr.ROOT_SPAN, run_item, (item, True), {})
        item_spans.append((first, len(tracer.spans)))
        traced.append(wall)
        traced_fps.append(wl.fingerprint((out, err)))
        tracer.recording = False
        reason = judge(item, out, err)
        tracer.recording = True
        if reason is not None:
            failures.setdefault(idx, failure(idx, item, reason))
        if item.expected_exit is not None and (out is None or out[0] != item.expected_exit):
            mismatched += 1
    tracer.uninstall()
    tracer.counts["cli.exit_mismatch"] = mismatched
    tracer.write_spans(spans_path)

    totals = tracer.totals()
    metrics = {}
    for name in TIMED_SELF:
        short = name.split(".", 1)[1]
        label = f"cli.{CLI_NAMES[short]}" if short in CLI_NAMES else name
        metrics[f"{label}.self_ms"] = 1e3 * totals.get(name, (0, 0.0, 0.0))[1]
    for name in COUNTED_CALLS:
        metrics[f"{name}.calls"] = totals.get(name, (0, 0.0, 0.0))[0]
    for name in EXACT_COUNTS + ("cli.exit_mismatch",):
        metrics[name] = tracer.counts.get(name, 0)
    metrics["cli.startup_ms"] = startup_ms()
    metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0

    own = tracer.self_times()
    per_item = []
    for idx, (lo, hi) in enumerate(item_spans):
        root = own[lo]
        per_item.append({
            "kind": items[idx].kind,
            "untraced_s": plain[idx],
            "traced_s": traced[idx],
            "library_self_s": sum(own[lo + 1:hi]),
            "outside_spans_s": root,
        })
    return {
        "attempted": len(items),
        "failed": len(failures),
        "failures": [failures[i] for i in sorted(failures)],
        "metrics": metrics,
        "fingerprints_untraced": fingerprints,
        "fingerprints_traced": traced_fps,
        "identical_outputs": fingerprints == traced_fps,
        "per_item": per_item,
        "functions": {n: {"calls": c, "self_ms": 1e3 * s, "total_ms": 1e3 * t}
                      for n, (c, s, t) in sorted(totals.items())},
        "counts": dict(tracer.counts),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = tr.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    items = wl.WORKLOADS[args.workload](args.seed, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if tracer is not None:
        spans_path = args.out.with_suffix(".spans.tsv")
        result = traced_pass(items, tracer, spans_path)
        result["spans_file"] = spans_path.name
    else:
        cycles = max(1, round(args.seconds / wl.CYCLE_SECONDS[args.workload]))
        result = timed_loop(items, cycles, args.workload)
    result["cycle"] = [item.kind for item in items]
    result["known_defects"] = sorted({i.known_defect for i in items if i.known_defect})
    result["environment"] = environment()
    args.out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
