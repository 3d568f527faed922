"""Acceptance suite: one test per advertised guarantee, one PASS line each.

The random-channel corpus is shared across the first three tests; everything
is seeded so reruns are bit-identical.
"""
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import covchan as cc
from covchan import capacity as cap
from covchan import channels as mcore
from covchan import covariant as cov
from covchan import fock
from covchan import generate as gen
from covchan import timing as tim

import conftest
from conftest import FIXTURES
from test_timing import random_timing_fixture

CORPUS_SEED = 424242


def report(num, text):
    conftest.ACCEPTANCE_LINES.append(f"[criterion {num:2d}] PASS: {text}")


@pytest.fixture(scope="module")
def corpus():
    """100 random covariant channels per dim 2..8 with their decompositions."""
    rng = np.random.Generator(np.random.PCG64(CORPUS_SEED))
    out = {}
    t0 = time.perf_counter()
    for dim in range(2, 9):
        spec = cc.Spectrum(np.arange(float(dim)))
        entries = []
        for _ in range(100):
            chan = gen.random_covariant(spec, rng)
            decomp = cov.decompose(chan, spec)
            entries.append((chan, decomp))
        out[dim] = (spec, entries)
    return out, time.perf_counter() - t0


def test_01_decomposition_round_trip(corpus):
    channels, elapsed = corpus
    worst = 0.0
    for dim, (spec, entries) in channels.items():
        for chan, decomp in entries:
            dist = float(np.linalg.norm(
                mcore.choi_of(cov.reconstruct(decomp)).matrix
                - mcore.choi_of(chan).matrix))
            worst = max(worst, dist)
    assert worst < 1e-10
    assert elapsed < 30.0
    report(1, f"700 round trips, worst Choi distance {worst:.2e}, "
              f"corpus built in {elapsed:.1f}s")


def test_corpus_equals_per_sector_loops(corpus):
    # random_covariant, decompose and reconstruct on the sectors stacked by
    # domain size give the 700 corpus channels bit for bit as one sector at a time.
    channels, _ = corpus
    rng = np.random.Generator(np.random.PCG64(CORPUS_SEED))
    for dim, (spec, entries) in channels.items():
        for chan, decomp in entries:
            assert conftest.sha256_of(chan) == conftest.sha256_of(
                conftest.random_covariant_per_sector(spec, rng))
            assert conftest.sha256_of(decomp) == conftest.sha256_of(
                conftest.decompose_per_sector(chan, spec))
            assert conftest.sha256_of(cov.reconstruct(decomp)) == conftest.sha256_of(
                conftest.reconstruct_per_sector(decomp))


def test_sector_makes_the_pair_sectors_holds(corpus):
    # sector(sigma) makes only the pair at its position, from the store: field
    # for field the pair sectors holds, on the 700 corpus decompositions and
    # the Gaussian ones of dims 2-186.  A Gaussian block is compared by its
    # address, shape and strides, as both pairs hold a view of the one block
    # in the store's buffer.
    channels, _ = corpus
    for dim, (spec, entries) in channels.items():
        for _, decomp in entries:
            got = [decomp.sector(sigma) for sigma in decomp.sigmas().tolist()]
            assert conftest.sha256_of(got) == conftest.sha256_of(decomp.sectors)

    def fields(pairs):
        return [(shift, mask.sigma, mask.domain, mask.dim,
                 mask.domain_submatrix.__array_interface__["data"][0],
                 mask.domain_submatrix.shape, mask.domain_submatrix.strides)
                for shift, mask in pairs]

    for dim in range(2, 187):
        decomp = fock.gaussian_decomposition(fock.FockParams(dim=dim, std_dev=0.5))
        got = [decomp.sector(sigma) for sigma in decomp.sigmas().tolist()]
        assert conftest.sha256_of(fields(got)) == conftest.sha256_of(fields(decomp.sectors))


def test_gram_bound_proves_every_corpus_decomposition(corpus, monkeypatch):
    # One Gram certificate per channel proves all its masks, so decompose runs
    # no SectorMask check (test_corpus_equals_per_sector_loops pins the
    # decompositions to those of one check per sector).
    channels, _ = corpus
    verdicts = []
    gram_certified = mcore._gram_certified
    monkeypatch.setattr(mcore, "_gram_certified",
                        lambda *args: verdicts.append(gram_certified(*args)) or verdicts[-1])
    monkeypatch.setattr(cov, "_mask_failure", conftest.refuse_mask_check)
    for dim, (spec, entries) in channels.items():
        for chan, _ in entries:
            cov.decompose(chan, spec)
    assert len(verdicts) == 700 and all(verdicts)


def test_tp_defect_is_the_unscaled_norm_on_the_corpus(corpus):
    # _tp_defect scales its difference by a power of two before the norm, so
    # that its squares cannot overflow; on unit-scale channels the value is
    # the unscaled norm's to the bit: of Sum A^dag A - 1 for the channels, and
    # for their reconstructions, one nonzero per row, of its diagonal, the
    # column sums of |A|^2 - 1, which is within rounding of the product's.
    channels, _ = corpus
    for dim, (spec, entries) in channels.items():
        for chan, decomp in entries:
            for ops in (chan._ops, cov.reconstruct(decomp)._ops):
                stacked = ops.reshape(-1, dim)
                unscaled = float(np.linalg.norm(stacked.conj().T @ stacked - np.eye(dim)))
                if (np.count_nonzero(stacked, axis=1) <= 1).all():
                    parts = stacked.view(float)
                    squares = np.einsum("rk,rk->k", parts, parts)
                    product, unscaled = unscaled, float(np.linalg.norm(
                        squares[0::2] + squares[1::2] - 1.0))
                    # Each diagonal entry, a sum of 2 len(stacked) real squares near 1, is
                    # off by about gamma_{2 len(stacked)} on either route: the norms differ
                    # by at most 2 sqrt(dim) of that, 4 len(stacked) u sqrt(dim), u = 2^-53.
                    bound = 4.5 * len(stacked) * 2.0**-53 * math.sqrt(dim)
                    assert abs(unscaled - product) <= bound
                assert mcore._tp_defect(ops) == unscaled


def test_02_trace_preservation_identity(corpus):
    channels, _ = corpus
    worst = 0.0
    for dim, (spec, entries) in channels.items():
        for _, decomp in entries:
            diag = np.zeros(dim)
            for _, mask in decomp.sectors:
                diag += np.real(np.diag(mask.mask))
            worst = max(worst, float(np.max(np.abs(diag - 1.0))))
    assert worst < 1e-10

    # Sensitivity: bumping a single mask diagonal by 1e-3 must show up in the
    # reconstructed channel's tp_defect.
    worst_defect = np.inf
    for dim, (spec, entries) in channels.items():
        _, decomp = entries[0]
        shift, mask = decomp.sectors[0]
        bumped = mask.domain_submatrix.copy()
        bumped[0, 0] += 1e-3  # the first level of the domain
        sectors = list(decomp.sectors)
        sectors[0] = (shift, cov.SectorMask(sigma=mask.sigma, domain_submatrix=bumped,
                                            domain=mask.domain, dim=mask.dim))
        perturbed = cov.SectorDecomposition(spectrum=spec, sectors=tuple(sectors))
        defect = mcore.is_cptp(cov.reconstruct(perturbed)).tp_defect
        worst_defect = min(worst_defect, defect)
    assert worst_defect >= 5e-4
    report(2, f"diagonal sums within {worst:.2e} of 1; 1e-3 bump gives "
              f"tp_defect >= {worst_defect:.2e}")


def test_03_mask_positivity(corpus):
    channels, _ = corpus
    worst = 0.0
    for dim, (spec, entries) in channels.items():
        for _, decomp in entries:
            for _, mask in decomp.sectors:
                lmin = float(np.linalg.eigvalsh(mask.domain_submatrix).min())
                worst = min(worst, lmin)
    assert worst >= -1e-9
    report(3, f"minimum mask eigenvalue {worst:.2e} across all sectors")


def test_04_hqc_equality():
    rng = np.random.Generator(np.random.PCG64(CORPUS_SEED + 4))
    worst = 0.0
    for n in range(2, 7):
        for _ in range(50):
            m = gen.random_unit_diagonal_mask(n, rng)
            worst = max(worst, cap.verify_hqc(m, n))
    assert worst < 1e-9

    # fixed cases
    assert cap.hadamard_bound(np.ones((4, 4)), 4) == pytest.approx(2.0, abs=1e-9)
    assert cap.hadamard_bound(np.eye(4), 4) == pytest.approx(0.0, abs=1e-9)
    c = np.sqrt(0.5)
    mask = np.array([[1.0, c], [c, 1.0]])
    lam = np.array([(1.0 + c) / 2.0, (1.0 - c) / 2.0])
    exact = 1.0 + float(np.sum(lam * np.log2(lam)))
    assert cap.hadamard_bound(mask, 2) == pytest.approx(exact, abs=1e-9)
    assert exact == pytest.approx(0.3991, abs=5e-5)
    assert max(cap.verify_hqc(np.ones((4, 4)), 4),
               cap.verify_hqc(np.eye(4), 4),
               cap.verify_hqc(mask, 2)) < 1e-9
    report(4, f"250 random masks, worst equality defect {worst:.2e}; "
              f"fixed cases match (c=sqrt(1/2) gives {exact:.4f} bits)")


def test_05_bochner_property():
    rng = np.random.Generator(np.random.PCG64(CORPUS_SEED + 5))
    worst = np.inf
    for i in range(50):
        dim = int(rng.integers(2, 6))
        spec = cc.Spectrum(np.arange(float(dim)))
        chan = gen.random_covariant(spec, rng)
        K = gen.random_psd(dim, rng)
        rho = gen.random_state(dim, rng)
        times = rng.uniform(0.0, 2.0 * np.pi, size=5)
        worst = min(worst, cov.bochner_check(chan, spec, K, rho, times))
    assert worst >= -1e-9
    report(5, f"50 Gram matrices, minimum eigenvalue {worst:.2e}")


def test_06_domain_extension():
    rng = np.random.Generator(np.random.PCG64(CORPUS_SEED + 6))
    worst = 0.0
    for i in range(100):
        dim = int(rng.integers(2, 7))
        spec = cc.Spectrum(np.arange(float(dim)))
        decomp = cov.decompose(gen.random_covariant(spec, rng), spec)
        rho = gen.random_state(dim, rng)
        t = float(rng.uniform(0.0, 10.0))
        worst = max(worst, cov.domain_extension_check(decomp, rho, t))
    assert worst < 1e-9
    report(6, f"100 triples, worst extension defect {worst:.2e}")


def test_07_timing_construction():
    spec = cc.Spectrum(np.arange(4.0))
    mix = tim.build_shift_mixture(spec, [(0.0, 0.5), (2.0, 0.5)])
    phi0 = np.zeros(4, dtype=complex)
    phi0[0] = phi0[1] = np.sqrt(0.5)
    rep = tim.timing_channel(mix.channel, spec, phi0, np.pi, 2)
    assert rep.orthogonality_defect < 1e-12
    np.testing.assert_allclose(rep.v, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(rep.q, [1.0, 0.0], atol=1e-12)
    assert rep.bound == pytest.approx(1.0, abs=1e-12)

    # zero condition: distribution {0: 1/2, 1: 1/2} has v(s*1) = 0
    dist = cov.EnergyShiftDistribution(pairs=((0.0, 0.5), (1.0, 0.5)))
    v = tim.v_from_distribution(dist, np.pi, 2)
    assert abs(v[1]) < 1e-14
    q = (np.fft.fft(v) / 2).real
    assert tim.spectrum_to_bound(q) == pytest.approx(0.0, abs=1e-12)
    report(7, f"shift mixture gives v=(1,1), q=(1,0), bound {rep.bound:.1f} bit; "
              "adjacent-shift variant collapses to 0")


def test_08_timing_hadamard_consistency():
    rng = np.random.Generator(np.random.PCG64(CORPUS_SEED + 8))
    worst = 0.0
    for i in range(20):
        N = int(rng.integers(2, 7))
        chan, spec, phi0, s, _, _ = random_timing_fixture(N, rng)
        rep = tim.timing_channel(chan, spec, phi0, s, N)
        hb = cap.hadamard_bound(tim.circulant(rep.v), N)
        worst = max(worst, abs(rep.bound - hb))
    assert worst < 1e-10
    report(8, f"20 fixtures, worst |bound - circulant Hadamard bound| {worst:.2e}")


def test_09_gaussian_sector_oracle():
    t0 = time.perf_counter()
    dim = 24
    worst_band = 0.0
    worst_unit = 0.0
    for r in (0.1, 0.5, 1.0):
        # expm on the truncated generator is only trustworthy away from the
        # edge; its error creeps about 7 + 10 r levels in at this size.
        lim = dim - math.ceil(7.0 + 10.0 * r)
        full = fock.displacement_matrix(1.0, r, dim)
        total = np.zeros(dim)
        for sigma in range(-(dim - 1), dim):
            sec = fock.displacement_sector(sigma, r, dim)
            total += (np.abs(sec) ** 2).sum(axis=0)
            for j in range(dim):
                tgt = j + sigma
                if 0 <= tgt < dim and max(j, tgt) <= lim:
                    worst_band = max(worst_band, abs(sec[tgt, j] - full[tgt, j]))
        worst_unit = max(worst_unit, float(np.max(np.abs(total[:lim + 1] - 1.0))))
    elapsed = time.perf_counter() - t0
    assert worst_band < 1e-8
    assert worst_unit < 1e-8
    assert elapsed < 10.0
    report(9, f"sector vs exponential {worst_band:.2e}, unitarity sum "
              f"{worst_unit:.2e}, {elapsed:.1f}s")


def test_10_gaussian_closed_form_and_mc():
    t0 = time.perf_counter()
    worst = 0.0
    for s in (0.3, 0.5, 1.0):
        got = fock.gaussian_decomposition(fock.FockParams(2, s, sigma_max=1)).mask(0).mask[0, 0]
        worst = max(worst, abs(got - 1.0 / (1.0 + 2.0 * s * s)))
    assert worst < 1e-10

    dim = 16
    params = fock.FockParams(dim=dim, std_dev=0.3, mc_samples=100_000,
                             seed=CORPUS_SEED)
    vac = np.zeros((dim, dim), dtype=complex)
    vac[0, 0] = 1.0
    sup = np.zeros(dim, dtype=complex)
    sup[0] = sup[1] = np.sqrt(0.5)
    ratios = []
    for state in (cc.DensityMatrix(vac),
                  cc.DensityMatrix(np.outer(sup, sup.conj()))):
        rep = fock.compare_decomposition_to_mc(params, state)
        assert rep.ok
        ratios.append(rep.worst_ratio)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(10, f"M0(0,0) closed form within {worst:.2e}; MC agreement "
               f"worst ratios {ratios[0]:.2f}/{ratios[1]:.2f}, {elapsed:.1f}s")


def test_11_covariance_discrimination():
    from covchan import serialize as ser
    spec2 = ser.spectrum_from_json(ser.load_json(FIXTURES / "spectrum_2level.json"))
    spec4 = ser.spectrum_from_json(ser.load_json(FIXTURES / "spectrum_4level.json"))
    covariant_fixtures = [
        ("identity_channel.json", spec2),
        ("dephasing_channel.json", spec2),
        ("amplitude_damping_0.3.json", spec2),
        ("amplitude_damping_0.5.json", spec2),
        ("shift_mixture_channel.json", spec4),
    ]
    worst = 0.0
    for name, spec in covariant_fixtures:
        chan = ser.channel_from_json(ser.load_json(FIXTURES / name))
        worst = max(worst, cov.covariance_defect(chan, spec))
    assert worst < 1e-12
    gate = ser.channel_from_json(ser.load_json(FIXTURES / "hadamard_gate_channel.json"))
    gate_defect = cov.covariance_defect(gate, spec2)
    assert gate_defect > 0.1
    report(11, f"covariant fixtures <= {worst:.2e}, gate unitary {gate_defect:.2f}")


def test_12_cli_determinism(tmp_path):
    commands = [
        ["check", str(FIXTURES / "amplitude_damping_0.3.json"),
         str(FIXTURES / "spectrum_2level.json")],
        ["decompose", str(FIXTURES / "amplitude_damping_0.3.json"),
         str(FIXTURES / "spectrum_2level.json")],
        ["capacity", str(FIXTURES / "mask_c_sqrt_half.json")],
        ["timing", str(FIXTURES / "shift_mixture_channel.json"),
         str(FIXTURES / "spectrum_4level.json"),
         "--phi0", str(FIXTURES / "phi0_4level.json"),
         "--s", repr(np.pi), "--N", "2"],
        ["gaussian", "--std-dev", "0.3", "--dim", "8", "--sigma-max", "4"],
        ["mc-gaussian", "--std-dev", "0.3", "--dim", "8",
         "--samples", "20000", "--seed", "17"],
    ]
    transcripts = []
    for _ in range(2):
        chunks = []
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "covchan.cli"] + argv,
                capture_output=True)
            chunks.append(proc.stdout)
        transcripts.append(b"\n".join(chunks))
    assert transcripts[0] == transcripts[1]
    # sanity: the transcript is real JSON, not empty output
    first = transcripts[0].split(b"\n")[0]
    json.loads(first)
    report(12, f"two CLI sweeps byte-identical ({len(transcripts[0])} bytes)")
