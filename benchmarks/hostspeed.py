"""Reference probe of how fast the host runs at this moment.

The benchmark runs on a few cores of a shared host.  While other tenants
are busy the same work takes up to 1.8 times as long, and how busy they are
drifts over minutes: longer than one run, so neither a longer run nor a
robust statistic over one run removes it.  Fixed work timed right around each
item tracks that drift.  Each item's wall time is divided by the probe's
slowdown at that moment, which turns it into wall time at the reference
speed.  The probe is the benchmark's own code (numpy and plain Python, no
covchan), so no change to the library can move it.

The reference, ``REFERENCE_S``, is the probe's median time on the quiet
2-vCPU x86_64 VM on which the benchmark was written (OpenBLAS at one thread).
On other hardware the scaled times keep their meaning as ratios between
commits; their absolute scale is that host's quiet speed relative to this one.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.46e-3
SAMPLES = 10  # probe runs before and again after each timed piece of work

_rng = np.random.default_rng(0)
_SYM = _rng.standard_normal((60, 60))
_SYM = _SYM + _SYM.T


def probe():
    """Wall seconds of one fixed piece of work: a small LAPACK eigensolve
    and a Python loop, the two kinds of work covchan does."""
    t0 = time.perf_counter()
    np.linalg.eigh(_SYM)
    s = 0
    for i in range(3000):
        s += i * i
    return time.perf_counter() - t0


def sample(n=SAMPLES):
    return [probe() for _ in range(n)]


def slowdown(before, after):
    """The host's slowdown over a piece of work, from the probes around it:
    1 at the reference speed, above 1 when the host is busier."""
    return statistics.median(before + after) / REFERENCE_S
