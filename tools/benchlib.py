"""What tools/ladder.py and tools/digests.py share: the root, the worker process
of one code, the two spectrum families and the benchmark's bounds timing shapes."""
from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# glibc's dynamic mmap threshold rises with the largest block freed, so that the
# time of one call moved with the calls before it; pinned, they come from the heap.
MMAP_THRESHOLD = 33554432


def spectrum_energies(n: int):
    """The two spectrum families at n levels, (name, energies): integer and sqrt(prime)."""
    import numpy as np

    primes = (k for k in itertools.count(2) if all(k % p for p in range(2, math.isqrt(k) + 1)))
    return (("integer", np.arange(float(n))),
            ("sqrt_prime", np.r_[0.0, np.cumsum(np.sqrt(list(itertools.islice(primes, n - 1))))]))


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


def worker_env(threads: int = 1) -> dict:
    """The environment of a worker: threads BLAS threads and the pinned mmap threshold."""
    return dict(os.environ, MALLOC_MMAP_THRESHOLD_=str(MMAP_THRESHOLD),
                **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                                str(threads)))


def run_worker(script: str, argv: list[str], threads: int = 1) -> list:
    """What a worker run of script prints as JSON, run in worker_env(threads)."""
    out = subprocess.run([sys.executable, script, *argv], env=worker_env(threads), check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)
