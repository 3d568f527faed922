"""Bit-identity digests of the library's outputs on one fixed, seeded corpus.

    python3 tools/digests.py [--parent-src DIR] [--threads N]

Alone, it prints one line per (function, input): the sha256 of the output,
the function and the input.  With --parent-src (the src directory of another
checkout, e.g. one made by git archive) the same corpus runs on that code
too, and it prints, per function, how many digests are equal and how many
differ, with the largest |delta| over the numbers of the outputs that differ
(a JSON report read by its numbers; outputs of another shape, and other
text, show as "n/a"); then each differing
(function, input).  It exits 1 when any digest differs or is missing on one
side.  Each code runs in a worker process with one BLAS thread
(tools/benchlib.py).  With --threads N this tree runs at N BLAS threads
(OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS) and is compared,
in the same table, with itself at one thread, or with --parent-src at one.

A digest covers an output down to its bytes: arrays by dtype, shape and
data, floats by repr (so -0.0 differs from 0.0), dataclasses by their public
fields, a channel by its Kraus operators.  The corpus:
- criterion 1's 700 channels (random_covariant, 100 per dim 2-8 on the
  integer spectrum, PCG64 seed 424242) through random_covariant, is_cptp,
  covariance_defect, decompose and reconstruct;
- Gaussian decompositions at every dim 2-24 and at 28, 32, 40, 48, 64, 96,
  128 and 186, std_dev 0.1, 0.5 and 1, through every reader of a
  decomposition's store (below) and truncation_defect; reconstruct and the
  JSON writer only up to dim 32, where their dense outputs stay small (at
  dim 186 reconstruct would hold about 35,000 operators of 186 x 186); and a
  second decomposition of each dim at std_dev 0.1 through diagonal_sums,
  truncation_defect and shift_distribution: it has the first's (dim,
  sigma_max), so it reads the layout tables that the first one's readers made;
- one random_covariant channel per sqrt(prime) spectrum at n = 2-12, 16, 24
  and 32 through decompose and every reader, and the same decomposition
  rebuilt from its (shift, mask) pairs through every reader; up to n = 16,
  where its n^2 - n + 1 dense masks stay small, also the JSON writer and the
  decomposition read back from its JSON text;
- Hadamard channels of random unit-diagonal masks at n = 1-12, 16 and 32, and
  shift mixtures on the integer spectrum at n = 2-12, 28 and 128, through
  covariance_defect, decompose, reconstruct and shift_distribution; the masks
  also through hadamard_bound and verify_hqc, and their channels through
  coherent_information at one random state and timing_channel (N = 4,
  tol inf); the shift mixtures also through is_reliable_timing and
  timing_channel (N = 4, tol 1e-9 and 1); timing at s = pi / 2 from the
  uniform superposition of all levels, a refusal digested as its error's type
  and text;
- the sector-pure families of the label route: the Gaussian channels
  reconstructed from their decompositions (std_dev 1) at the Gaussian dims up
  to 64, and reconstruct(decompose(random_covariant)) on two chained spectra,
  [0, 1, 2 + 1e-11, 3 + 3e-11] and [0, 1, 2 + 0.9e-9, 3 + 2.7e-9] (three
  channels each), through covariance_defect, decompose and timing_channel
  (N = 8, step 2 pi / N, tol inf, from the uniform superposition);
- the benchmark's decompose pipeline shapes: dense random_covariant channels
  on the integer spectrum at n = 8, 12 and 16, random_covariant channels on
  the sqrt(prime) spectrum at n = 8, 10 and 12, a Hadamard channel at n = 24
  and three-shift mixtures {0, a, -b} (a, b drawn from 1-3) at n = 28 and 32,
  through is_cptp, covariance_defect, decompose, reconstruct and
  shift_distribution at one random state, the whole pipeline run twice on
  one channel: the second run reads what the first keeps on the channel;
- v_from_distribution (s = pi / 2, N = 64) of three hand-made shift
  distributions, with a signed zero, a repeated sigma and unpaired ones;
- the benchmark's bounds timing shapes (three-shift mixtures on the integer
  spectrum at N = 2-6, 8, 12 and 16 from a random-phase state on levels
  0..N-1, step 2 pi / N; the spacing-1 mixture at N = 4, refused as not
  orthogonal; the 0.97 step at N = 6, refused as not periodic), each also with
  its operators mixed by a random 5 x 3 isometry (the same channel, on the
  decomposition route), through is_reliable_timing and timing_channel;
- the benchmark's bounds coherent shapes: dense random_covariant channels on
  the integer spectrum at n = 6, 10 and 12 (K = n^2), each through
  coherent_information at one random state, and the n = 6 channel with its
  operators scaled by 1.1 (output trace 1.21), a refusal digested as above;
- dense random_covariant channels on the integer spectrum at n = 4, 8 and 16
  (N = 64) and on the chained spectrum [0, 1, 2 + 1e-11, 3 + 3e-11] (N = 8,
  7 clusters of distinct exact differences), step 2 pi / N from the uniform
  superposition, through is_reliable_timing and timing_channel (tol inf);
- Gaussian decompositions at dims 40 and 186, std_dev 1e-150 and 1e100, near
  the ends of the accepted range, through truncation_defect and the block
  buffer;
- monte_carlo_channel at dim 9 (std_dev 0.5, 10,000 samples, in chunks of
  4,096, 4,096 and 1,808, seed 424242) from the vacuum, a pure state, and
  from diag(0.7, 0.3, 0, ...), a mixed one;
- compare_decomposition_to_mc at dims 8 and 16 (std_dev 0.5, 2,000 samples,
  seed 424242) from the vacuum and from the superposition of levels 0 and 1;
- two faulty decomposition objects on the 3-level integer spectrum, a
  refusal digested as above: an unknown sigma listed after a mask that is not
  PSD, and two such masks listed out of the spectrum's sector order;
- every CLI subcommand on every fixture (check, decompose, capacity and
  timing), timing at s = pi / 2, N = 4 (not reliable), timing of the
  Hadamard gate, which is not covariant, at s = pi, N = 2, check and decompose on
  a dense n = 16 random_covariant channel file
  (integer spectrum) and on Gaussian parameters (gaussian and mc-gaussian,
  JSON and CSV, gaussian up to the benchmark's dim 48): exit code, stdout and
  stderr, run in process;
- the refused CLI invocations: an unknown flag, a COVCHAN_SEED that is not
  an integer; a directory, a non-UTF-8 file, 100,000 open brackets, a missing
  file, malformed JSON and a NaN token as the channel file of check; a NaN
  token in decompose's spectrum; a channel file that parses but is no channel
  next to a missing spectrum; gaussian at dim 1, std_dev -1, sigma_max 99
  of dim 8 and dim 187; mc-gaussian with seed -1 and at dim 1024; timing at
  N = 5000: exit code and stdout ("cli refused"),
  and stderr apart ("cli refused stderr"), so that a changed message shows
  without hiding whether stdout held.
The readers of a decomposition: sectors, sector(sigma) at its first sigma and
at 0, sigmas(), diagonal_sums(), apply_sectors of one random matrix,
reconstruct, shift_distribution and domain_extension_check (t = 0.7) at one
random state, v_from_distribution of that shift distribution (s = pi / 2,
N = 64), and the JSON writer.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

from benchlib import ROOT, gauge_mixed, run_worker, spectrum_energies, timing_mixture

FIXTURES = ROOT / "fixtures"
CORPUS_SEED = 424242  # criterion 1's
GAUSSIAN_DIMS = (*range(2, 25), 28, 32, 40, 48, 64, 96, 128, 186)
GAUSSIAN_STD_DEVS = (0.1, 0.5, 1.0)
DENSE_MAX_DIM = 32  # reconstruct and the JSON writer of a Gaussian decomposition
JSON_MAX_SIZE = 16  # the JSON writer of a sqrt(prime) decomposition: n^2 - n + 1 dense masks
SQRT_PRIME_SIZES = (*range(2, 13), 16, 24, 32)
HADAMARD_SIZES = (*range(1, 13), 16, 32)
MIXTURE_SIZES = (*range(2, 13), 28, 128)
T = 0.7
TIMING_STEP, TIMING_N = math.pi / 2, 4  # the integer spectrum's period is 4 steps
# The benchmark's bounds timing shapes, (N, component spacing, step in units of 2 pi / N):
# N = 2-16, the not-orthogonal spacing-1 item and the not-periodic 0.97 step.
BOUNDS_TIMING = (*((N, N, 1.0) for N in (2, 3, 4, 5, 6, 8, 12, 16)), (4, 1, 1.0), (6, 6, 0.97))
V_N = 64  # v_from_distribution's N, at TIMING_STEP
# Shift distributions with a signed zero, a repeated sigma and unpaired ones.
HAND_DISTRIBUTIONS = (((-0.0, 0.25), (0.0, 0.25), (-1.5, 0.5)),
                      ((2.0, 0.3), (2.0, 0.3), (-2.0, 0.4)), ((-3.0, 0.6), (0.5, 0.4)))
DENSE_TIMING = ((4, 64), (8, 64), (16, 64))  # (n, N) of the dense channels' timing
COHERENT_SIZES = (6, 10, 12)  # the bounds workload's coherent items, K = n^2
CHAINED = (0.0, 1.0, 2.0 + 1e-11, 3.0 + 3e-11)  # timed at N = 8
CHAINED_WIDE = (0.0, 1.0, 2.0 + 0.9e-9, 3.0 + 2.7e-9)  # its differences chain as CHAINED's
RECONSTRUCTED_MAX_DIM = 64  # the reconstructed Gaussian channels' largest dim
PURE_N = 8  # the label route's timing_channel N, at step 2 pi / N
PIPELINE_SHAPES = (("dense", 8), ("dense", 12), ("dense", 16), ("sqrt_prime", 8),
                   ("sqrt_prime", 10), ("sqrt_prime", 12), ("hadamard", 24),
                   ("shift mixture", 28), ("shift mixture", 32))
DENSE_CLI_SIZE = 16
MC_DIMS, MC_SAMPLES = (8, 16), 2000
# The edges of the mask chunks' exp: std_devs near the accepted range's ends, at a
# dim of three chunks and at the dim cap.
EDGE_DIMS, EDGE_STD_DEVS = (40, 186), (1e-150, 1e100)
MC_CHUNKED_DIM, MC_CHUNKED_SAMPLES = 9, 10_000  # chunks of 4,096, 4,096 and 1,808; odd dim


def _parts(value):
    """The pieces a digest reads, in order: (tag, bytes, the numbers as an array or None)."""
    import numpy as np
    from covchan.channels import Channel

    if isinstance(value, Channel):
        yield from _parts(value.kraus)
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        yield f"nd{arr.dtype.str}{arr.shape}", arr.tobytes(), arr
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        yield type(value).__name__, b"", None
        for f in dataclasses.fields(value):
            if not f.name.startswith("_"):
                yield from _parts(getattr(value, f.name))
    elif type(value) is tuple and set(map(type, value)) <= {int}:  # a shift's levels, in one piece
        yield f"ints{len(value)}", repr(value).encode(), np.array(value, dtype=float)
    elif isinstance(value, (list, tuple)):
        yield f"seq{len(value)}", b"", None
        for item in value:
            yield from _parts(item)
    elif isinstance(value, (bytes, str)):
        text = value.encode() if isinstance(value, str) else value
        yield f"text{len(text)}", text, None
    elif isinstance(value, (bool, int, float, complex, np.generic)):
        yield f"{type(value).__name__}:{value!r}", b"", np.array([value])
    else:
        yield f"{type(value).__name__}:{value!r}", b"", None


def _digest(value) -> str:
    h = hashlib.sha256()
    for tag, data, _ in _parts(value):
        h.update(tag.encode())
        h.update(data)
    return h.hexdigest()


def _json_numbers(value) -> list:
    """The numbers of parsed JSON, in document order (true and false are not numbers)."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in _json_numbers(item)]
    return [float(value)] if type(value) in (int, float) else []


def _numbers(value):
    """The numbers of value in digest order as floats (a complex one as its two
    parts), a text that is a JSON object or array (a CLI report) by its numbers;
    None if it holds other text but the empty one (the stderr of a CLI run that
    succeeds)."""
    import numpy as np

    chunks = [np.zeros(0)]
    for tag, data, arr in _parts(value):
        if tag.startswith("text") and data:
            try:
                parsed = json.loads(data)
            except ValueError:
                return None
            if not isinstance(parsed, (dict, list)):
                return None
            arr = np.array(_json_numbers(parsed))
        if arr is not None:
            chunks.append(arr.view(float) if arr.dtype == complex else arr.astype(float))
    return np.concatenate([c.reshape(-1) for c in chunks])


def _run_cli(argv):
    from covchan import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _refused_cli(argv, env=()):
    """Exit code, stdout and stderr of cli.main with env set, or 1, the type of
    an exception that escapes it (a traceback, exit 1) and no stderr."""
    with mock.patch.dict(os.environ, env):
        try:
            return _run_cli(argv)
        except Exception as exc:
            return 1, type(exc).__name__, ""


def _refusal(label, argv, env=(), tmp=None):
    """The "cli refused" rows of one invocation: (exit code, stdout), then stderr
    with the temporary folder tmp named <tmp>, from one run."""
    run = []

    def result():
        if not run:
            run.append(_refused_cli(argv, env))
        return run[0]

    yield "cli refused", label, lambda: result()[:2]
    yield "cli refused stderr", label, lambda: result()[2].replace(tmp or "<tmp>", "<tmp>")


def _corpus():
    """(function, input, thunk) for every digest, in a fixed order."""
    import numpy as np

    import covchan as cc
    from covchan import capacity as cap
    from covchan import covariant as cov
    from covchan import fock
    from covchan import generate as gen
    from covchan import serialize as ser
    from covchan import timing as tim

    def readers(name, decomp, rng, dense, text):
        n = decomp.spectrum.dim
        rho = gen.random_state(n, rng)
        X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        yield "sectors", name, lambda: decomp.sectors
        sigmas = decomp.sigmas()
        for sigma in ([float(sigmas[0])] if sigmas.size else []) + [0.0]:
            yield "sector", f"{name} sigma={sigma!r}", lambda s=sigma: _or_error(decomp.sector, s)
        yield "sigmas", name, decomp.sigmas
        yield "diagonal_sums", name, decomp.diagonal_sums
        yield "apply_sectors", name, lambda: cov.apply_sectors(decomp, X)
        yield "shift_distribution", name, lambda: cov.shift_distribution(decomp, rho)
        yield ("v_from_distribution", name, lambda: _or_error(
            tim.v_from_distribution, cov.shift_distribution(decomp, rho), TIMING_STEP, V_N))
        yield "domain_extension_check", name, lambda: cov.domain_extension_check(decomp, rho, T)
        if dense:
            yield "reconstruct", name, lambda: cov.reconstruct(decomp)
        if text:
            yield ("decomposition_to_json", name,
                   lambda: ser.dumps(ser.decomposition_to_json(decomp)))

    rng = np.random.Generator(np.random.PCG64(CORPUS_SEED))
    for dim in range(2, 9):
        spec = cc.Spectrum(np.arange(float(dim)))
        for k in range(100):
            chan = gen.random_covariant(spec, rng)
            name = f"criterion 1 dim={dim} #{k}"
            yield "random_covariant", name, lambda c=chan: c
            yield "is_cptp", name, lambda c=chan: cc.is_cptp(c)
            yield "covariance_defect", name, lambda c=chan, s=spec: cov.covariance_defect(c, s)
            decomp = cov.decompose(chan, spec)
            yield "decompose", name, lambda d=decomp: d
            yield "reconstruct", name, lambda d=decomp: cov.reconstruct(d)

    for dim in GAUSSIAN_DIMS:
        for s in GAUSSIAN_STD_DEVS:
            name = f"gaussian dim={dim} std_dev={s}"
            decomp = fock.gaussian_decomposition(fock.FockParams(dim=dim, std_dev=s))
            yield "truncation_defect", name, lambda d=decomp: d.truncation_defect
            small, rng = dim <= DENSE_MAX_DIM, np.random.default_rng([dim, int(10 * s)])
            yield from readers(name, decomp, rng, small, small)
        s = GAUSSIAN_STD_DEVS[0]
        name = f"gaussian dim={dim} std_dev={s} again"
        decomp = fock.gaussian_decomposition(fock.FockParams(dim=dim, std_dev=s))
        rho = gen.random_state(dim, np.random.default_rng([dim, 2]))
        yield "diagonal_sums", name, decomp.diagonal_sums
        yield "truncation_defect", name, lambda d=decomp: d.truncation_defect
        yield "shift_distribution", name, lambda d=decomp, r=rho: cov.shift_distribution(d, r)

    for n in SQRT_PRIME_SIZES:
        spec = cc.Spectrum(dict(spectrum_energies(n))["sqrt_prime"])
        rng = np.random.default_rng([n, 1])
        chan = gen.random_covariant(spec, rng)
        decomp = cov.decompose(chan, spec)
        name = f"sqrt_prime n={n}"
        yield "decompose", name, lambda d=decomp: d
        yield from readers(name, decomp, rng, True, n <= JSON_MAX_SIZE)
        rebuilt = cc.SectorDecomposition(spec, decomp.sectors, decomp.projection_defect)
        yield from readers(f"{name} rebuilt from pairs", rebuilt, rng, True, n <= JSON_MAX_SIZE)
        if n <= JSON_MAX_SIZE:
            text = ser.dumps(ser.decomposition_to_json(decomp))
            read = ser.decomposition_from_json(json.loads(text))
            yield from readers(f"{name} read from JSON", read, rng, True, True)

    for n in HADAMARD_SIZES:
        rng = np.random.default_rng([n, 2])
        mask = gen.random_unit_diagonal_mask(n, rng)
        chan = cap.hadamard_channel(mask)
        spec = cc.Spectrum(np.arange(float(n)))
        name = f"hadamard n={n}"
        yield "hadamard_channel", name, lambda c=chan: c
        yield "covariance_defect", name, lambda c=chan, s=spec: cov.covariance_defect(c, s)
        decomp = cov.decompose(chan, spec)
        yield "decompose", name, lambda d=decomp: d
        yield "reconstruct", name, lambda d=decomp: cov.reconstruct(d)
        yield ("shift_distribution", name,
               lambda d=decomp, r=gen.random_state(n, rng): cov.shift_distribution(d, r))
        yield "hadamard_bound", name, lambda m=mask, k=n: cap.hadamard_bound(m, k)
        yield "verify_hqc", name, lambda m=mask, k=n: cap.verify_hqc(m, k)
        yield ("coherent_information", name,
               lambda c=chan, r=gen.random_state(n, rng): cap.coherent_information(c, r))
        yield ("timing_channel", name, lambda c=chan, s=spec, p=np.full(n, n ** -0.5):
               _or_error(tim.timing_channel, c, s, p, TIMING_STEP, TIMING_N, math.inf))

    for n in MIXTURE_SIZES:
        spec = cc.Spectrum(np.arange(float(n)))
        shifts = [(0.0, 0.5), (1.0, 0.3), (-(n - 1.0), 0.2)]
        name = f"shift mixture n={n}"
        chan = tim.build_shift_mixture(spec, shifts).channel
        yield "build_shift_mixture", name, lambda c=chan: c
        yield "covariance_defect", name, lambda c=chan, s=spec: cov.covariance_defect(c, s)
        decomp = cov.decompose(chan, spec)
        yield "decompose", name, lambda d=decomp: d
        yield "reconstruct", name, lambda d=decomp: cov.reconstruct(d)
        rho = gen.random_state(n, np.random.default_rng([n, 3]))
        yield "shift_distribution", name, lambda d=decomp, r=rho: cov.shift_distribution(d, r)
        phi0 = np.full(n, n ** -0.5)
        yield ("is_reliable_timing", name, lambda c=chan, s=spec, p=phi0:
               _or_error(tim.is_reliable_timing, c, s, p, TIMING_STEP))
        for tol in (1e-9, 1.0):  # the default refuses these orbits; 1.0 lets the report through
            yield ("timing_channel", f"{name} tol={tol!r}", lambda c=chan, s=spec, p=phi0, t=tol:
                   _or_error(tim.timing_channel, c, s, p, TIMING_STEP, TIMING_N, t))

    def label_route(name, chan, spec):
        phi0 = np.full(spec.dim, spec.dim ** -0.5)
        yield "covariance_defect", name, lambda: cov.covariance_defect(chan, spec)
        yield "decompose", name, lambda: cov.decompose(chan, spec)
        yield ("timing_channel", name, lambda: _or_error(
            tim.timing_channel, chan, spec, phi0, 2.0 * math.pi / PURE_N, PURE_N, math.inf))

    for dim in (d for d in GAUSSIAN_DIMS if d <= RECONSTRUCTED_MAX_DIM):
        decomp = fock.gaussian_decomposition(fock.FockParams(dim=dim, std_dev=1.0))
        yield from label_route(f"reconstructed gaussian dim={dim} std_dev=1.0",
                               cov.reconstruct(decomp), decomp.spectrum)
    for energies in (CHAINED, CHAINED_WIDE):
        spec = cc.Spectrum(energies)
        for k in range(3):
            chan = gen.random_covariant(spec, np.random.default_rng([k, 7]))
            yield from label_route(f"reconstructed chained {energies[2]!r} #{k}",
                                   cov.reconstruct(cov.decompose(chan, spec)), spec)

    def pipeline_channel(kind, n, rng):
        spec = cc.Spectrum(dict(spectrum_energies(n))["sqrt_prime" if kind == "sqrt_prime"
                                                     else "integer"])
        if kind == "hadamard":
            return cap.hadamard_channel(gen.random_unit_diagonal_mask(n, rng)), spec
        if kind == "shift mixture":
            sigmas = (0.0, float(rng.integers(1, 4)), -float(rng.integers(1, 4)))
            probs = rng.random(3) + 0.1
            mix = tim.build_shift_mixture(spec, list(zip(sigmas, probs / probs.sum())))
            return mix.channel, spec
        return gen.random_covariant(spec, rng), spec

    for kind, n in PIPELINE_SHAPES:
        rng = np.random.default_rng([n, 8])
        chan, spec = pipeline_channel(kind, n, rng)
        rho = gen.random_state(n, rng)
        for run in (1, 2):
            name = f"pipeline {kind} n={n} run {run}"
            yield "is_cptp", name, lambda c=chan: cc.is_cptp(c)
            yield "covariance_defect", name, lambda c=chan, s=spec: cov.covariance_defect(c, s)
            yield "decompose", name, lambda c=chan, s=spec: cov.decompose(c, s)
            yield ("reconstruct", name,
                   lambda c=chan, s=spec: cov.reconstruct(cov.decompose(c, s)))
            yield ("shift_distribution", name, lambda c=chan, s=spec, r=rho:
                   cov.shift_distribution(cov.decompose(c, s), r))

    for pairs in HAND_DISTRIBUTIONS:
        dist = cov.EnergyShiftDistribution(pairs)
        yield ("v_from_distribution", f"pairs={pairs!r}",
               lambda d=dist: tim.v_from_distribution(d, TIMING_STEP, V_N))

    for N, spacing, step in BOUNDS_TIMING:
        rng = np.random.default_rng([N, spacing, 5])
        chan, spec, phi0 = timing_mixture(N, spacing, rng)
        for label, c in (("", chan), (" gauge-mixed", gauge_mixed(chan, rng))):
            name = f"bounds timing N={N} spacing={spacing} step={step}{label}"
            s = step * 2.0 * math.pi / N
            yield ("is_reliable_timing", name, lambda c=c, sp=spec, p=phi0, s=s:
                   _or_error(tim.is_reliable_timing, c, sp, p, s))
            yield ("timing_channel", name, lambda c=c, sp=spec, p=phi0, s=s, N=N:
                   _or_error(tim.timing_channel, c, sp, p, s, N))

    for n in COHERENT_SIZES:
        rng = np.random.default_rng([n, 9])
        chan = gen.random_covariant(cc.Spectrum(np.arange(float(n))), rng)
        rho = gen.random_state(n, rng)
        name = f"bounds coherent dense random_covariant n={n}"
        yield "coherent_information", name, lambda c=chan, r=rho: cap.coherent_information(c, r)
        if n == COHERENT_SIZES[0]:
            scaled = cc.Channel(tuple(1.1 * k for k in chan.kraus))
            yield ("coherent_information", f"{name} scaled by 1.1", lambda c=scaled, r=rho:
                   _or_error(cap.coherent_information, c, r))

    for energies, N in (*((np.arange(float(n)), N) for n, N in DENSE_TIMING), (CHAINED, 8)):
        spec = cc.Spectrum(energies)
        chan = gen.random_covariant(spec, np.random.default_rng([spec.dim, N, 6]))
        phi0, s = np.full(spec.dim, spec.dim ** -0.5), 2.0 * math.pi / N
        kind = "chained" if energies is CHAINED else "integer"
        name = f"dense random_covariant {kind} n={spec.dim} N={N}"
        yield ("is_reliable_timing", name, lambda c=chan, sp=spec, p=phi0, s=s:
               _or_error(tim.is_reliable_timing, c, sp, p, s))
        yield ("timing_channel", name, lambda c=chan, sp=spec, p=phi0, s=s, N=N:
               _or_error(tim.timing_channel, c, sp, p, s, N, math.inf))

    for dim in EDGE_DIMS:
        for s in EDGE_STD_DEVS:
            decomp = fock.gaussian_decomposition(fock.FockParams(dim=dim, std_dev=s))
            name = f"gaussian dim={dim} std_dev={s}"
            yield "truncation_defect", name, lambda d=decomp: d.truncation_defect
            yield "blocks", name, lambda d=decomp: d._blocks

    params = fock.FockParams(dim=MC_CHUNKED_DIM, std_dev=0.5, mc_samples=MC_CHUNKED_SAMPLES,
                             seed=CORPUS_SEED)
    for label, diagonal in (("vacuum", [1.0]), ("rank-2 diagonal", [0.7, 0.3])):
        rho = cc.DensityMatrix(np.diag(diagonal + [0.0] * (MC_CHUNKED_DIM - len(diagonal)))
                               .astype(complex))
        yield ("monte_carlo_channel", f"dim={MC_CHUNKED_DIM} samples={MC_CHUNKED_SAMPLES} {label}",
               lambda r=rho: fock.monte_carlo_channel(r, params))

    for dim in MC_DIMS:
        params = fock.FockParams(dim=dim, std_dev=0.5, mc_samples=MC_SAMPLES, seed=CORPUS_SEED)
        for label, levels in (("vacuum", [0]), ("levels 0 and 1", [0, 1])):
            vec = np.zeros(dim)
            vec[levels] = len(levels) ** -0.5
            rho = cc.DensityMatrix(np.outer(vec, vec).astype(complex))
            yield ("compare_decomposition_to_mc", f"dim={dim} {label}",
                   lambda p=params, r=rho: fock.compare_decomposition_to_mc(p, r))

    def faulty(*sectors):  # (sigma, dense mask) on the 3-level integer spectrum
        return {"spectrum": {"energies": [0.0, 1.0, 2.0]},
                "sectors": [{"sigma": s, "mask": ser.matrix_to_json(m)} for s, m in sectors]}

    swap = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 0.0]])  # eigenvalue -1
    for label, obj in (("unknown sigma after a mask not PSD",
                        faulty((1.0, swap), (0.5, np.eye(3)))),
                       ("two masks not PSD out of sector order",
                        faulty((1.0, swap), (-1.0, np.roll(swap, 1, axis=(0, 1)))))):
        yield ("decomposition_from_json", label,
               lambda o=obj: _or_error(ser.decomposition_from_json, o))

    files = sorted(str(p) for p in FIXTURES.glob("*.json"))
    spectra = [f for f in files if Path(f).name.startswith("spectrum")]
    states = [str(FIXTURES / "phi0_4level.json"), str(FIXTURES / "plus_state.json")]
    runs = []
    for f in files:
        for spectrum in spectra:
            runs += [["check", f, spectrum], ["decompose", f, spectrum]]
            runs += [["timing", f, spectrum, "--phi0", phi0, "--s", "0.5", "--N", "8"]
                     for phi0 in states]
        runs += [["capacity", f], *(["capacity", f, "--input-state", st] for st in states)]
    runs.append(["timing", str(FIXTURES / "shift_mixture_channel.json"),
                 str(FIXTURES / "spectrum_4level.json"), "--phi0", states[0],
                 "--s", repr(TIMING_STEP), "--N", str(TIMING_N)])
    runs.append(["timing", str(FIXTURES / "hadamard_gate_channel.json"),
                 str(FIXTURES / "spectrum_2level.json"), "--phi0", states[1],
                 "--s", repr(math.pi), "--N", "2"])  # not covariant
    for fmt in ("json", "csv"):
        runs += [["gaussian", "--std-dev", "0.5", "--dim", str(d), "--format", fmt]
                 for d in (2, 8, 16, 48)]
        runs += [["gaussian", "--std-dev", "1", "--dim", "12", "--sigma-max", "3", "--format", fmt],
                 ["mc-gaussian", "--std-dev", "0.5", "--dim", "8", "--samples", "2000",
                  "--format", fmt]]
    for argv in runs:
        label = " ".join(a[len(str(FIXTURES)) + 1:] if a.startswith(str(FIXTURES)) else a
                         for a in argv)
        yield f"cli {argv[0]}", label, lambda a=argv: _run_cli(a)

    spec = cc.Spectrum(np.arange(float(DENSE_CLI_SIZE)))
    chan = gen.random_covariant(spec, np.random.default_rng([DENSE_CLI_SIZE, 4]))
    with tempfile.TemporaryDirectory() as tmp:  # removed once the generator is done
        files = [Path(tmp) / "channel.json", Path(tmp) / "spectrum.json"]
        files[0].write_text(ser.dumps(ser.channel_to_json(chan)), encoding="utf-8")
        files[1].write_text(ser.dumps(ser.spectrum_to_json(spec)), encoding="utf-8")
        for command in ("check", "decompose"):
            yield (f"cli {command}", f"dense random_covariant n={DENSE_CLI_SIZE}",
                   lambda c=command: _run_cli([c, *map(str, files)]))

    spectrum = str(FIXTURES / "spectrum_2level.json")
    gauss = ["--std-dev", "0.5", "--dim", "8"]
    yield from _refusal("gaussian --bogus", ["gaussian", *gauss, "--bogus"])
    yield from _refusal("mc-gaussian COVCHAN_SEED=abc", ["mc-gaussian", *gauss],
                        {"COVCHAN_SEED": "abc"})
    for label, flags in (("gaussian --dim 1", ["gaussian", "--std-dev", "0.5", "--dim", "1"]),
                         ("gaussian --std-dev -1", ["gaussian", "--std-dev", "-1", "--dim", "8"]),
                         ("gaussian --sigma-max 99", ["gaussian", *gauss, "--sigma-max", "99"]),
                         ("mc-gaussian --seed -1", ["mc-gaussian", *gauss, "--seed", "-1"]),
                         ("gaussian --dim 187", ["gaussian", "--std-dev", "0.5", "--dim", "187"]),
                         ("mc-gaussian --dim 1024",
                          ["mc-gaussian", "--std-dev", "0.5", "--dim", "1024"]),
                         ("timing --N 5000",
                          ["timing", str(FIXTURES / "shift_mixture_channel.json"),
                           str(FIXTURES / "spectrum_4level.json"), "--phi0",
                           str(FIXTURES / "phi0_4level.json"), "--s", "1", "--N", "5000"])):
        yield from _refusal(label, flags)
    yield from _refusal("check fixtures", ["check", str(FIXTURES), spectrum])
    with tempfile.TemporaryDirectory() as tmp:
        missing = str(Path(tmp) / "missing.json")
        yield from _refusal("check missing file", ["check", missing, spectrum], tmp=tmp)
        yield from _refusal("check spectrum as channel, missing spectrum",
                            ["check", spectrum, missing], tmp=tmp)
        nan_channel = json.loads((FIXTURES / "amplitude_damping_0.3.json").read_text())
        nan_channel["kraus"][0]["data"][0][0] = math.nan
        for label, data in (("not UTF-8", b"\xff\xfe"), ("nested 100,000 deep", b"[" * 100_000),
                            ("malformed JSON", b'{"dim_in": 2, "kraus": ['),
                            ("NaN channel", json.dumps(nan_channel).encode())):
            path = Path(tmp) / f"{len(data)}.json"
            path.write_bytes(data)
            yield from _refusal(f"check {label}", ["check", str(path), spectrum], tmp=tmp)
        path = Path(tmp) / "nan_spectrum.json"
        path.write_bytes(b'{"energies": [0, NaN]}')
        yield from _refusal("decompose NaN spectrum",
                            ["decompose", str(FIXTURES / "amplitude_damping_0.3.json"), str(path)],
                            tmp=tmp)


def _or_error(fn, *args):
    """fn(*args), or the type and text of the library error it raises."""
    from covchan.errors import CovchanError

    try:
        return fn(*args)
    except CovchanError as exc:
        return type(exc).__name__, str(exc)


def _worker(src: str, only: str | None, dump: str | None) -> list:
    sys.path.insert(0, src)
    import numpy as np

    wanted = None if only is None else {tuple(key) for key in json.loads(Path(only).read_text())}
    rows = []
    for function, name, thunk in _corpus():
        if wanted is not None and (function, name) not in wanted:
            continue
        value = thunk()
        rows.append([function, name, _digest(value)])
        if dump is not None:
            nums = _numbers(value)
            np.save(Path(dump) / f"{len(rows) - 1}.npy", np.array([]) if nums is None else nums)
            rows[-1].append(nums is not None)
    return rows


def _compare(change: list, parent: list, deltas: dict) -> int:
    """Print the per-function counts and the differing inputs; 1 if any differ."""
    got = {(f, i): d for f, i, d in change}
    want = {(f, i): d for f, i, d in parent}
    functions = list(dict.fromkeys(f for f, _ in [*got, *want]))
    differing = []
    print(f"{'function':28} {'equal':>6} {'differ':>6} {'only one side':>13}  largest |delta|")
    for function in functions:
        keys = [k for k in dict.fromkeys([*got, *want]) if k[0] == function]
        equal = sum(got.get(k) == want.get(k) is not None for k in keys)
        differ = [k for k in keys if k in got and k in want and got[k] != want[k]]
        alone = len(keys) - equal - len(differ)
        found = [deltas[k] for k in differ if deltas.get(k) is not None]
        largest = f"{max(found):.3e}" if found else ("n/a" if differ else "")
        print(f"{function:28} {equal:6d} {len(differ):6d} {alone:13d}  {largest}")
        differing += differ + [k for k in keys if (k in got) != (k in want)]
    for function, name in differing:
        delta = deltas.get((function, name))
        print(f"differs: {function} | {name}" + ("" if delta is None else f" | {delta:.3e}"))
    return 1 if differing else 0


def _deltas(keys, sides) -> dict:
    """Largest |delta| per key over the numbers of both outputs, None where
    their shapes differ or they hold text; sides is the (src, BLAS threads) of the
    change and of the parent."""
    import numpy as np

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        only = Path(tmp) / "only.json"
        only.write_text(json.dumps(keys))
        runs = []
        for label, (src, threads) in zip(("change", "parent"), sides):
            (Path(tmp) / label).mkdir()
            runs.append(run_worker(__file__, ["--worker", str(src), "--only", str(only),
                                              "--dump", str(Path(tmp) / label)], threads))
        got = {(f, i): (k, numeric) for k, (f, i, _, numeric) in enumerate(runs[0])}
        for k, (f, i, _, numeric) in enumerate(runs[1]):
            j, other = got[(f, i)]
            if numeric and other:
                a = np.load(Path(tmp) / "change" / f"{j}.npy")
                b = np.load(Path(tmp) / "parent" / f"{k}.npy")
                same = a.shape == b.shape
                out[(f, i)] = float(np.max(np.abs(a - b), initial=0.0)) if same else None
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent-src", type=Path)
    ap.add_argument("--threads", type=int, help="this tree's BLAS threads, against one")
    ap.add_argument("--worker")
    ap.add_argument("--only")
    ap.add_argument("--dump")
    args = ap.parse_args()
    if args.worker:
        json.dump(_worker(args.worker, args.only, args.dump), sys.stdout)
        return 0
    if args.threads is not None and args.threads < 1:
        ap.error("--threads must be 1 or more")
    sides = ((ROOT / "src", args.threads or 1), (args.parent_src or ROOT / "src", 1))
    change = run_worker(__file__, ["--worker", str(sides[0][0])], sides[0][1])
    if args.parent_src is None and args.threads is None:
        for function, name, digest in change:
            print(f"{digest}  {function} | {name}")
        return 0
    parent = run_worker(__file__, ["--worker", str(sides[1][0])], sides[1][1])
    want = {(f, i): d for f, i, d in parent}
    differ = [[f, i] for f, i, d in change if (f, i) in want and want[(f, i)] != d]
    deltas = _deltas(differ, sides) if differ else {}
    return _compare(change, parent, deltas)


if __name__ == "__main__":
    sys.exit(main())
