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

import sys

from benchlib import ROOT, main, spectrum_energies, time_row

SIZES = (4, 8, 16, 32, 64)
DENSE_MAX = 16  # random_covariant diagonalises an n^2 x n^2 matrix to build its channel


def _worker(src: str, rounds: int, with_oracles: bool) -> list[dict]:
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
        for kind, energies in spectrum_energies(n):
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


if __name__ == "__main__":
    main(__file__, __doc__, _worker, "--with-oracles")
