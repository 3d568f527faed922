"""What the tools/bench_*.py layer timings share: the command line, a row
timed in a worker process with one BLAS thread, rounds split over passes
that alternate between codes, and the BENCH_*.json report."""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PASSES = 3
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def primes(count: int) -> list[int]:
    found = []
    k = 2
    while len(found) < count:
        if all(k % p for p in found):
            found.append(k)
        k += 1
    return found


def spectrum_energies(n: int):
    """The ladder's two spectrum families at n levels: (name, energies)."""
    import numpy as np

    return (("integer", np.arange(float(n))),
            ("sqrt_prime", np.r_[0.0, np.cumsum(np.sqrt(primes(n - 1)))]))


def timing_mixture(N: int, spacing: int, rng):
    """The benchmark's bounds timing shape, (channel, spectrum, phi0): a mixture of three
    partial shifts l * spacing plus a running sum of seeded offsets 0, N // 2 and N - 1 on
    the integer spectrum, and a random-phase state on levels 0..N-1; 2 pi / N is a period."""
    import numpy as np
    import covchan as cc
    from covchan import timing as tim

    offsets = rng.permutation(np.array([0, N // 2, N - 1]))
    sigmas = [l * spacing + int(offsets[: l + 1].sum()) for l in range(3)]
    probs = rng.random(3) + 0.1
    spec = cc.Spectrum(np.arange(float(N + sigmas[-1])))
    mix = tim.build_shift_mixture(spec, list(zip(map(float, sigmas), probs / probs.sum())))
    phi0 = np.zeros(spec.dim, dtype=complex)
    phi0[:N] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=N)) / np.sqrt(N)
    return mix.channel, spec, phi0


def gauge_mixed(channel, rng):
    """The same channel as K + 2 operators sum_k U_mk A_k, U a random (K + 2) x K
    isometry: each operator mixes the energy shifts of the A_k."""
    import numpy as np
    import covchan as cc

    K = len(channel.kraus)
    u = np.linalg.qr(rng.normal(size=(K + 2, K)) + 1j * rng.normal(size=(K + 2, K)))[0]
    return cc.Channel(tuple(np.tensordot(u, np.stack(channel.kraus), axes=1)))


def time_row(name: str, variant: str, n: int, fn, rounds: int) -> dict:
    """One call of fn in ms, rounds times: each round times enough calls to
    last about 0.1 s, after warm-up calls that take about as long."""
    first = timeit.timeit(fn, number=1)  # also warms caches and lazy imports
    for _ in range(min(2, int(0.1 / max(first, 1e-6)))):
        fn()
    number = max(1, round(0.1 / max(timeit.timeit(fn, number=1), 1e-6)))
    ms = [t / number * 1e3 for t in timeit.repeat(fn, number=number, repeat=rounds)]
    return {"name": name, "variant": variant, "n": n, "ms": ms}


def run_worker(script: str, argv: list[str], threads: int = 1) -> list[dict]:
    """The rows a worker run of script prints as JSON, with threads BLAS threads (one)."""
    env = dict(os.environ, **{name: str(threads) for name in ONE_THREAD})
    out = subprocess.run([sys.executable, script, *argv], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


# Per-round lists a worker row may hold: "ms" always, "rss_mb" for rows run
# as subprocesses.  Any other field (e.g. "stdout_sha256") is the same in
# every round and is copied to the row.
SAMPLED = ("ms", "rss_mb")


def collect(codes, rounds: int) -> list[dict]:
    """Rows of median, interquartile range and minimum (the best round) per
    (code, name, variant, n).

    codes is a list of (label, run), run(rounds) returning the worker's rows.
    The rounds are split over passes that alternate between the codes, so
    that a drift in host load falls on all of them alike.
    """
    samples, fixed = {}, {}
    for _ in range(PASSES):
        for code, run in codes:
            for r in run(-(-rounds // PASSES)):
                key = (code, r["name"], r["variant"], r["n"])
                for field in SAMPLED:
                    samples.setdefault(key, {}).setdefault(field, []).extend(r.get(field, []))
                extra = {k: v for k, v in r.items()
                         if k not in ("name", "variant", "n", *SAMPLED)}
                if fixed.setdefault(key, extra) != extra:
                    raise ValueError(f"{key}: {fixed[key]} in one round, {extra} in another")
    rows = []
    for (code, name, variant, n), lists in samples.items():
        row = {"name": name, "code": code, "variant": variant, "n": n}
        for field, values in lists.items():
            if values:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row[f"median_{field}"] = round(statistics.median(values), 4)
                row[f"iqr_{field}"] = round(q3 - q1, 4)
                row[f"min_{field}"] = round(min(values), 4)
        rows.append({**row, "rounds": len(lists["ms"]), **fixed[(code, name, variant, n)]})
    return rows


def tier1_seconds() -> float:
    """Wall time of one tier-1 run (python -m pytest -q, PYTHONPATH=src) with one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **ONE_THREAD)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                   cwd=ROOT, env=env, check=True, capture_output=True)
    return round(time.perf_counter() - start, 1)


def write_report(out: Path, rows: list[dict], **extra) -> None:
    """The BENCH_*.json file: the checkout, the host, one BLAS thread, the rows."""
    import numpy as np

    def git(*cmd):
        done = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True)
        return done.stdout.strip()

    report = {
        "git_sha": git("rev-parse", "HEAD"),
        "tree_dirty": bool(git("status", "--porcelain", "--", "src")),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "blas_threads": 1,
        "unit": "ms per call",
        **extra,
        "rows": rows,
    }
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


def main(script: str, doc: str, worker, change_only: str | None = None) -> None:
    """The command line of a tools/bench_*.py script, doc its docstring.

    With --worker SRC it prints worker(SRC, rounds) as JSON, or worker(SRC,
    rounds, flag) when the script has a change_only flag (e.g.
    "--with-oracles", rows timed on this checkout alone).  Otherwise it
    runs workers on this checkout's src ("change", with that flag) and, with
    --parent-src, on another src labelled --parent-label, and writes the
    rows to --out; --tier1 adds the tier-1 wall time.
    """
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--out", type=Path)
    ap.add_argument("--parent-src", type=Path)
    ap.add_argument("--parent-label", default="parent", help="the code field of its rows")
    ap.add_argument("--rounds", type=int, default=9)
    ap.add_argument("--tier1", action="store_true")
    ap.add_argument("--worker")
    if change_only:
        ap.add_argument(change_only, action="store_true", dest="change_only")
    args = ap.parse_args()
    if args.worker:
        flag = (args.change_only,) if change_only else ()
        json.dump(worker(args.worker, args.rounds, *flag), sys.stdout)
        return
    if args.out is None:
        ap.error("--out is required")

    def run(src: Path, flags: list[str]):
        argv = ["--worker", str(src), *flags]
        return lambda rounds: run_worker(script, [*argv, "--rounds", str(rounds)])

    codes = [("change", run(ROOT / "src", [change_only] if change_only else []))]
    if args.parent_src:
        codes.append((args.parent_label, run(args.parent_src, [])))
    rows = collect(codes, args.rounds)
    extra = {"tier1_wall_s": tier1_seconds()} if args.tier1 else {}
    write_report(args.out, rows, **extra)
