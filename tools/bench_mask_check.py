"""Layer timings of the SectorMask check, written as one BENCH_*.json file.

    python3 tools/bench_mask_check.py --out BENCH_17.json \
        [--parent-src DIR --parent-label SHA] [--rounds 9] [--tier1]

Rows, each timed in a fresh process with OPENBLAS_NUM_THREADS=1:
- channels._gram_certified on the factors of the chunks of one Gaussian
  decomposition at dims 16, 32, 64, 120 and 186, std_dev 0.3 and 1;
- fock.gaussian_decomposition at the same dims and std_devs, alone and
  followed by the first read of its .sectors (the (shift, mask) pairs are
  made on that read, so the second row shows what the first leaves out);
- covariant.decompose of one random_covariant channel at n = 8 and 16, on
  the integer and the sqrt(prime) spectrum, alone and followed by the first
  read of .sectors;
- covariant.reconstruct of the decomposition of one random_covariant
  channel, and the check-and-decompose pipeline channels.is_cptp,
  covariant.covariance_defect, decompose, reconstruct and shift_distribution
  of that channel on one random state, at n = 8, 16 and 32 on both spectra,
  and both on the shift mixture {(0, .5), (2, .3), (-1, .2)} on the integer
  spectrum at n = 28 and 128 (each call on the channel and decomposition as
  they were built);
- covariant.covariance_defect followed by covariant.decompose, the check then
  decompose pipeline, on a dense random_covariant channel at n = 16 (integer
  spectrum), the shift mixture above at n = 28 and the Gaussian channel
  reconstructed from its decomposition at dim 48 (std_dev 1): cold, each call
  on the channel as it was built (no sector label, support or Choi matrix
  kept), and warm, each call on the channel after a first pass (what the
  channel keeps for its spectrum kept); beside them covariant.reconstruct
  and covariant.shift_distribution (one random state) of the warm channel's
  decomposition, warm (after a first call of each), and channels._tp_defect
  of the channel's Kraus stack; each with the peak traced memory
  (tracemalloc) of one call, in MB;
- timing.timing_channel and timing.is_reliable_timing on the benchmark's
  bounds timing shapes (tools/benchlib.timing_mixture, N = 2, 4, 6, 8, 12 and
  16, step 2 pi / N), each also with its operators mixed by a random isometry
  (benchlib.gauge_mixed, the decomposition route), and timing_channel with tol = inf on
  the shift mixture {(0, .5), (1, .3), (-15, .2)} at n = 16 and N = 64, 256
  and 1024;
- the other two builders of covariant Kraus families, which lay out their
  operators as reconstruct does: capacity.hadamard_channel of one random
  unit-diagonal mask at n = 16 and 64, and timing.build_shift_mixture of the
  mixture above at n = 28 and 128; channels.Channel._adopt of a fresh
  (256, 16, 16) stack; and covariant.Spectrum(...) of the sqrt(prime)
  spectrum at n = 16 and 64, its sector tables included (built with it);
- the readers of a built decomposition, each call on the decomposition as
  it was built (what a first read caches is dropped before every call):
  covariant.domain_extension_check at t = 0.7 on one random state, of the
  random_covariant channel at n = 16 and 32 on both spectra and of the
  Gaussian decomposition at std_dev 0.5 and the dims above, and
  SectorDecomposition.sector(0) through GaussianDecomposition.mask(0) at
  those dims;
- the one PSD check at its three entry points, at n = 4, 16 and 64:
  channels.DensityMatrix(...) of one random state, capacity.hadamard_bound
  followed by capacity.verify_hqc of one random unit-diagonal mask, and
  covariant.SectorMask(...) of that mask on all n levels;
- fock.monte_carlo_channel with 1e5 samples at std_dev 0.5 on the pure
  states |0> and (|0> + |1>) / sqrt(2) at dims 8, 16, 32 and 64 and on the
  rank-2 state diag(0.6, 0.4, 0, ...) at dims 8 and 16.
With --parent-src (the src directory of another checkout, e.g. one made by
git archive) all but the first kind are also timed on that code, labelled with
--parent-label, in passes that alternate with this checkout's ("change").
A row's time is one call: the median, the interquartile range and the
minimum over its rounds, each round timing enough calls to last about 0.1 s
(tools/benchlib.py).
"""
from __future__ import annotations

import sys
import tracemalloc

from benchlib import gauge_mixed, main, spectrum_energies, time_row, timing_mixture

DIMS = (16, 32, 64, 120, 186)
STD_DEVS = (0.3, 1.0)
MC_DIMS = (8, 16, 32, 64)
MC_MIXED_DIMS = (8, 16)
CHECK_SIZES = (16, 32)
PIPELINE_SIZES = (8, 16, 32)
MIXTURE_SIZES = (28, 128)
MIXTURE = [(0.0, 0.5), (2.0, 0.3), (-1.0, 0.2)]
HADAMARD_SIZES = (16, 64)
SPECTRUM_SIZES = (16, 64)
PSD_SIZES = (4, 16, 64)
TIMING_NS = (2, 4, 6, 8, 12, 16)
LONG_NS = (64, 256, 1024)
RECONSTRUCTED_DIM = 48


def _as_built(*objs):
    """A wrapper of calls on objs (decompositions, channels) that runs each on
    them as they are now, just built: what a call caches on them (the pairs of
    .sectors, the size groups, a channel's support and Choi matrix) is
    dropped before the next one."""
    states = [dict(obj.__dict__) for obj in objs]

    def wrap(fn):
        def call():
            for obj, state in zip(objs, states):
                obj.__dict__.clear()
                obj.__dict__.update(state)
            return fn()
        return call

    return wrap


def _traced_peak_mb(fn) -> float:
    """The peak traced memory of one call of fn, in MB (0.1 MB steps)."""
    tracemalloc.start()
    try:
        fn()
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 1)
    finally:
        tracemalloc.stop()


def _worker(src: str, rounds: int, with_check: bool) -> list[dict]:
    sys.path.insert(0, src)
    import numpy as np
    from covchan import capacity as cap
    from covchan import channels as mc
    from covchan import covariant as cov
    from covchan import fock
    from covchan import generate as gen
    from covchan import timing as tim

    rows = []
    for dim in DIMS:
        for s in STD_DEVS:
            params = fock.FockParams(dim=dim, std_dev=s)
            variant = f"std_dev={s}"
            if with_check:
                top = params.sigma_max
                tables = fock._gaussian_layout(dim, top)
                if not hasattr(tables, "chunks"):  # a parent tree whose chunks read log k!
                    tables = fock._log_factorials(dim)
                factors = [fock._mask_chunk(range(a0, min(a0 + fock._MASK_CHUNK, top + 1)),
                                            tables, 2.0 * s * s)[0]
                           for a0 in range(0, top + 1, fock._MASK_CHUNK)]
                rows.append(time_row("channels._gram_certified", variant + ", all chunks", dim,
                                     lambda: [mc._gram_certified(f, f.shape[-1])
                                              for f in factors], rounds))
            rows.append(time_row("fock.gaussian_decomposition", variant, dim,
                                 lambda: fock.gaussian_decomposition(params), rounds))
            rows.append(time_row("fock.gaussian_decomposition", variant + ", then .sectors", dim,
                                 lambda: fock.gaussian_decomposition(params).sectors, rounds))
    for n in (8, 16):
        for kind, energies in spectrum_energies(n):
            spec = cov.Spectrum(energies)
            chan = gen.random_covariant(spec, np.random.default_rng(n))
            rows.append(time_row("covariant.decompose", kind, n,
                                 lambda: cov.decompose(chan, spec), rounds))
            rows.append(time_row("covariant.decompose", kind + ", then .sectors", n,
                                 lambda: cov.decompose(chan, spec).sectors, rounds))
    pipelines = [(kind, n, cov.Spectrum(energies)) for n in PIPELINE_SIZES
                 for kind, energies in spectrum_energies(n)]
    pipelines += [("shift mixture", n, cov.Spectrum(np.arange(float(n)))) for n in MIXTURE_SIZES]
    for kind, n, spec in pipelines:
        rng = np.random.default_rng(n)
        if kind == "shift mixture":
            chan = tim.build_shift_mixture(spec, MIXTURE).channel
        else:
            chan = gen.random_covariant(spec, rng)
        decomp, rho = cov.decompose(chan, spec), gen.random_state(n, rng)

        def pipeline():
            mc.is_cptp(chan)
            cov.covariance_defect(chan, spec)
            built = cov.decompose(chan, spec)
            return cov.reconstruct(built), cov.shift_distribution(built, rho)

        as_built = _as_built(chan, decomp)
        rows.append(time_row("covariant.reconstruct", kind, n,
                             as_built(lambda: cov.reconstruct(decomp)), rounds))
        rows.append(time_row("is_cptp -> ... -> shift_distribution", kind, n,
                             as_built(pipeline), rounds))
    gaussian = fock.gaussian_decomposition(fock.FockParams(dim=RECONSTRUCTED_DIM, std_dev=1.0))
    spec16, spec28 = cov.Spectrum(np.arange(16.0)), cov.Spectrum(np.arange(28.0))
    checked = [("dense random_covariant", 16, spec16,
                gen.random_covariant(spec16, np.random.default_rng(16))),
               ("shift mixture", 28, spec28, tim.build_shift_mixture(spec28, MIXTURE).channel),
               ("reconstructed gaussian", RECONSTRUCTED_DIM, gaussian.spectrum,
                cov.reconstruct(gaussian))]
    for kind, n, spec, chan in checked:
        def check_then_decompose(chan=chan, spec=spec):
            return cov.covariance_defect(chan, spec), cov.decompose(chan, spec)

        for state, fn in (("cold", _as_built(chan)(check_then_decompose)),
                          ("warm", check_then_decompose)):
            rows.append({**time_row("covariance_defect + decompose", f"{kind}, {state}", n,
                                    fn, rounds), "peak_traced_mb": _traced_peak_mb(fn)})
        decomp = cov.decompose(chan, spec)
        rho = gen.random_state(n, np.random.default_rng(n))
        cov.reconstruct(decomp), cov.shift_distribution(decomp, rho)  # what a first call keeps
        for name, fn in (("covariant.reconstruct", lambda d=decomp: cov.reconstruct(d)),
                         ("covariant.shift_distribution",
                          lambda d=decomp, r=rho: cov.shift_distribution(d, r))):
            rows.append({**time_row(name, f"{kind}, warm", n, fn, rounds),
                         "peak_traced_mb": _traced_peak_mb(fn)})
        def tp_defect(ops=chan._ops):
            return mc._tp_defect(ops)

        rows.append({**time_row("channels._tp_defect", kind, n, tp_defect, rounds),
                     "peak_traced_mb": _traced_peak_mb(tp_defect)})
    for n in HADAMARD_SIZES:
        mask = gen.random_unit_diagonal_mask(n, np.random.default_rng(n))
        rows.append(time_row("capacity.hadamard_channel", "random mask", n,
                             lambda: cap.hadamard_channel(mask), rounds))
    for n in MIXTURE_SIZES:
        spec = cov.Spectrum(np.arange(float(n)))
        rows.append(time_row("timing.build_shift_mixture", "shift mixture", n,
                             lambda: tim.build_shift_mixture(spec, MIXTURE), rounds))
    for N in TIMING_NS:
        rng = np.random.default_rng(N)
        chan, spec, phi0 = timing_mixture(N, N, rng)
        s = 2.0 * np.pi / N
        for kind, c in (("three-shift mixture", chan), ("gauge-mixed", gauge_mixed(chan, rng))):
            rows.append(time_row("timing.timing_channel", kind, N,
                                 lambda: tim.timing_channel(c, spec, phi0, s, N), rounds))
            rows.append(time_row("timing.is_reliable_timing", kind, N,
                                 lambda: tim.is_reliable_timing(c, spec, phi0, s), rounds))
    spec = cov.Spectrum(np.arange(16.0))
    chan = tim.build_shift_mixture(spec, [(0.0, 0.5), (1.0, 0.3), (-15.0, 0.2)]).channel
    phi0 = np.full(16, 0.25)
    for N in LONG_NS:
        rows.append(time_row("timing.timing_channel", "n = 16 mixture, tol = inf", N,
                             lambda: tim.timing_channel(chan, spec, phi0, 2.0 * np.pi / N, N,
                                                        np.inf), rounds))
    stack = np.random.default_rng(0).standard_normal((256, 16, 16)) + 0j
    rows.append(time_row("channels.Channel._adopt", "(256, 16, 16) stack", 16,
                         lambda: mc.Channel._adopt(stack), rounds))
    for n in SPECTRUM_SIZES:
        energies = spectrum_energies(n)[1][1]
        rows.append(time_row("covariant.Spectrum(...)", "sqrt_prime", n,
                             lambda: cov.Spectrum(energies), rounds))
    for n in CHECK_SIZES:
        for kind, energies in spectrum_energies(n):
            spec = cov.Spectrum(energies)
            rng = np.random.default_rng(n)
            decomp = cov.decompose(gen.random_covariant(spec, rng), spec)
            rho = gen.random_state(n, rng)
            check = _as_built(decomp)(lambda: cov.domain_extension_check(decomp, rho, 0.7))
            rows.append(time_row("covariant.domain_extension_check", kind, n, check, rounds))
    for dim in DIMS:
        decomp = fock.gaussian_decomposition(fock.FockParams(dim=dim, std_dev=0.5))
        rho = gen.random_state(dim, np.random.default_rng(dim))
        as_built = _as_built(decomp)
        check = as_built(lambda: cov.domain_extension_check(decomp, rho, 0.7))
        rows.append(time_row("covariant.domain_extension_check", "gaussian, std_dev=0.5", dim,
                             check, rounds))
        rows.append(time_row("fock.GaussianDecomposition.mask(0)", "std_dev=0.5", dim,
                             as_built(lambda: decomp.mask(0)), rounds))
    for n in PSD_SIZES:
        rng = np.random.default_rng(n)
        state, mask = gen.random_state(n, rng).matrix, gen.random_unit_diagonal_mask(n, rng)
        rows.append(time_row("channels.DensityMatrix(...)", "random state", n,
                             lambda: mc.DensityMatrix(state), rounds))
        rows.append(time_row("capacity.hadamard_bound + verify_hqc", "random mask", n,
                             lambda: (cap.hadamard_bound(mask, n), cap.verify_hqc(mask, n)),
                             rounds))
        rows.append(time_row("covariant.SectorMask(...)", "random mask", n,
                             lambda: cov.SectorMask(0.0, mask, tuple(range(n)), n), rounds))
    for dim in MC_DIMS:
        vac, sup = np.eye(dim)[0], np.sqrt(0.5) * np.eye(dim)[:2].sum(axis=0)
        states = {"|0>": np.outer(vac, vac), "|0> + |1>": np.outer(sup, sup)}
        if dim in MC_MIXED_DIMS:
            states["rank 2"] = np.diag(np.r_[0.6, 0.4, np.zeros(dim - 2)])
        params = fock.FockParams(dim=dim, std_dev=0.5, mc_samples=100_000, seed=1)
        for kind, mat in states.items():
            rho = mc.DensityMatrix(mat.astype(complex))
            rows.append(time_row("fock.monte_carlo_channel", kind + ", 1e5 samples", dim,
                                 lambda: fock.monte_carlo_channel(rho, params), rounds))
    return rows


if __name__ == "__main__":
    main(__file__, __doc__, _worker, "--with-check")
