"""Layer timings of is_cptp and of the check-and-decompose pipeline, written
as one BENCH_*.json file.

    python3 tools/bench_cptp.py --out BENCH_19.json \
        [--parent-src DIR --parent-label SHA] [--rounds 9] [--tier1]

Rows, each timed in a fresh process with OPENBLAS_NUM_THREADS=1:
channels.is_cptp alone, and "pipeline", the three calls is_cptp,
covariance_defect and decompose that the CLI's check and decompose and the
benchmark's decompose workload make on one channel.  Channels:
random_covariant at n = 4, 8, 12 and 16 (K = n^2 operators that touch every
Choi pair), and a shift mixture of K = 3 partial shifts and a Hadamard
channel of a random unit-diagonal mask (K = n operators on the n diagonal
pairs) at n = 4, 8, 16, 32 and 64, each on the integer and the sqrt(prime)
spectrum.  Each row is timed twice: "cold" builds the Channel from its
Kraus operators inside every timed call, so nothing a channel derives once
is reused; "warm" calls on one Channel, as the benchmark's items do.
With --parent-src (the src directory of another checkout, e.g. one made by
git archive) the same rows are timed on that code, labelled with
--parent-label, in passes that alternate with this checkout's ("change").
With --tier1 the wall time of one tier-1 run is recorded as tier1_wall_s.
A row's time is one call: the median and the interquartile range over its
rounds, each round timing enough calls to last about 0.1 s (tools/benchlib.py).
"""
from __future__ import annotations

import sys

from benchlib import main, spectrum_energies, time_row

DENSE_SIZES = (4, 8, 12, 16)  # random_covariant diagonalises an n^2 x n^2 matrix
FEW_KRAUS_SIZES = (4, 8, 16, 32, 64)


def _worker(src: str, rounds: int) -> list[dict]:
    sys.path.insert(0, src)
    import numpy as np
    from covchan import capacity as cap
    from covchan import channels as mc
    from covchan import covariant as cov
    from covchan import generate as gen
    from covchan import timing as tim

    def pipeline(chan, spec):
        mc.is_cptp(chan)
        cov.covariance_defect(chan, spec)
        cov.decompose(chan, spec)

    funcs = [("channels.is_cptp", lambda chan, spec: mc.is_cptp(chan)),
             ("pipeline", pipeline)]
    rows = []
    for n in sorted(set(DENSE_SIZES + FEW_KRAUS_SIZES)):
        for kind, energies in spectrum_energies(n):
            spec = cov.Spectrum(energies)
            rng = np.random.default_rng(n)
            chans = []
            if n in DENSE_SIZES:
                chans.append(("random_covariant", gen.random_covariant(spec, rng)))
            if n in FEW_KRAUS_SIZES:
                shifts = [(0.0, 0.5), (energies[1] - energies[0], 0.3),
                          (energies[0] - energies[2], 0.2)]
                chans += [("shift_mixture_k3", tim.build_shift_mixture(spec, shifts).channel),
                          ("hadamard",
                           cap.hadamard_channel(gen.random_unit_diagonal_mask(n, rng)))]
            for family, chan in chans:
                for name, fn in funcs:
                    rows.append(time_row(
                        name, f"{family}, {kind}, cold", n,
                        lambda fn=fn, kraus=chan.kraus: fn(mc.Channel(kraus), spec), rounds))
                    rows.append(time_row(name, f"{family}, {kind}, warm", n,
                                         lambda fn=fn, chan=chan: fn(chan, spec), rounds))
    return rows


if __name__ == "__main__":
    main(__file__, __doc__, _worker)
