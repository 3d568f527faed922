"""Layer timings of the Choi matrix read on its support, written as one
BENCH_*.json file.

    python3 tools/bench_choi_support.py --out BENCH_18.json \
        [--parent-src DIR --parent-label SHA] [--rounds 9] [--tier1]

Rows, each timed in a fresh process with OPENBLAS_NUM_THREADS=1:
covariant.covariance_defect and covariant.decompose, and as "before" the
per-sector oracles of tests/conftest.py that build the full n^2 x n^2 Choi
matrix (covariance_defect_per_sector, decompose_per_sector), at n = 4, 8,
16, 32 and 64 on the integer and the sqrt(prime) spectrum, for three
channels: a shift mixture of K = 3 partial shifts, a Hadamard channel of a
random unit-diagonal mask, and random_covariant up to n = 16 (it takes
seconds to build at n = 32).
With --parent-src (the src directory of another checkout, e.g. one made by
git archive) the two library functions are also timed on that code,
labelled with --parent-label, in passes that alternate with this
checkout's ("change").  With --tier1 the wall time of one tier-1 run
(python -m pytest -q, PYTHONPATH=src) is recorded as tier1_wall_s.
A row's time is one call: the median and the interquartile range over its
rounds, each round timing enough calls to last about 0.1 s (tools/benchlib.py).
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from benchlib import ONE_THREAD, ROOT, collect, run_worker, time_row, write_report

SIZES = (4, 8, 16, 32, 64)
DENSE_MAX = 16  # random_covariant diagonalises an n^2 x n^2 matrix to build its channel


def _primes(count: int) -> list[int]:
    found = []
    k = 2
    while len(found) < count:
        if all(k % p for p in found):
            found.append(k)
        k += 1
    return found


def _worker(src: str, with_oracles: bool, rounds: int) -> list[dict]:
    sys.path.insert(0, src)
    import numpy as np
    from covchan import capacity as cap
    from covchan import covariant as cov
    from covchan import generate as gen
    from covchan import timing as tim

    funcs = [("covariant.covariance_defect", cov.covariance_defect),
             ("covariant.decompose", cov.decompose)]
    if with_oracles:
        sys.path.insert(0, str(ROOT / "tests"))
        from conftest import covariance_defect_per_sector, decompose_per_sector
        funcs += [("covariance_defect_per_sector", covariance_defect_per_sector),
                  ("decompose_per_sector", decompose_per_sector)]
    rows = []
    for n in SIZES:
        for kind, energies in (("integer", np.arange(float(n))),
                               ("sqrt_prime",
                                np.r_[0.0, np.cumsum(np.sqrt(_primes(n - 1)))])):
            spec = cov.Spectrum(energies)
            rng = np.random.default_rng(n)
            shifts = [(0.0, 0.5), (energies[1] - energies[0], 0.3),
                      (energies[0] - energies[2], 0.2)]
            chans = [("shift_mixture_k3", tim.build_shift_mixture(spec, shifts).channel),
                     ("hadamard", cap.hadamard_channel(gen.random_unit_diagonal_mask(n, rng)))]
            if n <= DENSE_MAX:
                chans.append(("random_covariant", gen.random_covariant(spec, rng)))
            for family, chan in chans:
                for name, fn in funcs:
                    rows.append(time_row(name, f"{family}, {kind}", n,
                                         lambda fn=fn, chan=chan: fn(chan, spec), rounds))
    return rows


def _tier1_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **ONE_THREAD)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                   cwd=ROOT, env=env, check=True, capture_output=True)
    return round(time.perf_counter() - start, 1)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path)
    ap.add_argument("--parent-src", type=Path)
    ap.add_argument("--parent-label", default="parent", help="the code field of its rows")
    ap.add_argument("--rounds", type=int, default=9)
    ap.add_argument("--tier1", action="store_true")
    ap.add_argument("--worker")
    ap.add_argument("--with-oracles", action="store_true")
    args = ap.parse_args()
    if args.worker:
        json.dump(_worker(args.worker, args.with_oracles, args.rounds), sys.stdout)
        return
    if args.out is None:
        ap.error("--out is required")

    def run(src: Path, with_oracles: bool):
        extra = ["--with-oracles"] if with_oracles else []
        return lambda rounds: run_worker(__file__, ["--worker", str(src), "--rounds",
                                                    str(rounds), *extra])

    codes = [("change", run(ROOT / "src", True))]
    if args.parent_src:
        codes.append((args.parent_label, run(args.parent_src, False)))
    rows = collect(codes, args.rounds)
    extra = {"tier1_wall_s": _tier1_seconds()} if args.tier1 else {}
    write_report(args.out, rows, **extra)


if __name__ == "__main__":
    main()
