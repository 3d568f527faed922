import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covchan as cc
from covchan import capacity as cap
from covchan import channels as mc
from covchan import covariant as cov
from covchan import generate as gen
from covchan import timing as tim
from covchan.errors import InvalidParameter, NotPeriodic, NotReliableTiming
from conftest import dense_pair_defect, timing_by_dense_applications


def four_level():
    return cc.Spectrum(np.arange(4.0))


def orbit_state(dim, N):
    phi = np.zeros(dim, dtype=complex)
    phi[:N] = 1.0 / np.sqrt(N)
    return phi


def random_timing_fixture(N, rng):
    """Shift mixture with components separated by at least N levels.

    phi0 occupies levels 0..N-1 with uniform modulus and random phases; the
    separation keeps the N translate outputs exactly orthogonal, so the
    restricted channel is a circulant Hadamard channel by construction.
    """
    L = int(rng.integers(1, 4))
    offsets = rng.integers(0, N, size=L)
    sigmas = [l * N + int(offsets[: l + 1].sum()) for l in range(L)]
    probs = rng.random(L) + 0.1
    probs = probs / probs.sum()
    dim = N + sigmas[-1]
    spec = cc.Spectrum(np.arange(float(dim)))
    mix = tim.build_shift_mixture(spec, list(zip(map(float, sigmas), probs)))
    phi0 = np.zeros(dim, dtype=complex)
    phi0[:N] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=N)) / np.sqrt(N)
    return mix.channel, spec, phi0, 2.0 * np.pi / N, sigmas, probs


class TestShiftMixture:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            tim.build_shift_mixture(four_level(), [(0.0, 0.5), (2.0, 0.3)])

    def test_tp_support(self):
        mix = tim.build_shift_mixture(four_level(), [(0.0, 0.5), (2.0, 0.5)])
        # sigma = 2 only shifts levels 0 and 1 inside the spectrum.
        assert mix.tp_support == (0, 1)
        assert mix.tp_defect > 0.0

    def test_identity_mixture(self):
        mix = tim.build_shift_mixture(four_level(), [(0.0, 1.0)])
        assert mix.tp_support == (0, 1, 2, 3)
        assert mix.tp_defect == 0.0

    def test_is_covariant(self):
        mix = tim.build_shift_mixture(four_level(), [(0.0, 0.5), (2.0, 0.5)])
        assert cov.covariance_defect(mix.channel, four_level()) < 1e-14


class TestIsReliableTiming:
    def test_shift_mixture_orthogonal(self):
        mix = tim.build_shift_mixture(four_level(), [(0.0, 0.5), (2.0, 0.5)])
        phi0 = orbit_state(4, 2)
        assert tim.is_reliable_timing(mix.channel, four_level(), phi0, np.pi) < 1e-12

    def test_identity_channel_not_reliable(self):
        phi0 = orbit_state(4, 2)
        defect = tim.is_reliable_timing(
            cc.identity_channel(4), four_level(), phi0, 0.1)
        assert defect > 0.5

    def test_rejects_unnormalized(self):
        mix = tim.build_shift_mixture(four_level(), [(0.0, 1.0)])
        with pytest.raises(ValueError):
            tim.is_reliable_timing(mix.channel, four_level(),
                                   np.array([1.0, 1.0, 0.0, 0.0]), np.pi)


class TestVAndCirculant:
    def test_v_from_distribution_worked(self):
        dist = cov.EnergyShiftDistribution(pairs=((0.0, 0.5), (2.0, 0.5)))
        v = tim.v_from_distribution(dist, np.pi, 2)
        np.testing.assert_allclose(v, [1.0, 1.0], atol=1e-14)

    def test_v_zero_coherence(self):
        dist = cov.EnergyShiftDistribution(pairs=((0.0, 0.5), (1.0, 0.5)))
        v = tim.v_from_distribution(dist, np.pi, 2)
        np.testing.assert_allclose(v, [1.0, 0.0], atol=1e-14)

    def test_circulant_layout(self):
        v = np.array([1.0, 2.0, 3.0])
        V = tim.circulant(v)
        expected = np.array([[1.0, 3.0, 2.0],
                             [2.0, 1.0, 3.0],
                             [3.0, 2.0, 1.0]])
        np.testing.assert_array_equal(V.real, expected)

    def test_spectrum_to_bound(self):
        assert tim.spectrum_to_bound(np.array([1.0, 0.0])) == pytest.approx(1.0)
        assert tim.spectrum_to_bound(np.array([0.5, 0.5])) == pytest.approx(0.0)


class TestTimingChannel:
    def test_worked_example(self):
        # sigma in {0, 2} with p = 1/2 each, s = pi, N = 2: v = (1, 1),
        # q = (1, 0), bound = 1 bit.
        mix = tim.build_shift_mixture(four_level(), [(0.0, 0.5), (2.0, 0.5)])
        phi0 = orbit_state(4, 2)
        rep = tim.timing_channel(mix.channel, four_level(), phi0, np.pi, 2)
        np.testing.assert_allclose(rep.v, [1.0, 1.0], atol=1e-10)
        np.testing.assert_allclose(rep.q, [1.0, 0.0], atol=1e-10)
        assert rep.bound == pytest.approx(1.0, abs=1e-10)

    def test_adjacent_shifts_zero_bound(self):
        # The distribution {0: 1/2, 1: 1/2} has a coherence-vector zero at
        # s*1 = pi, which kills the bound entirely.
        dist = cov.EnergyShiftDistribution(pairs=((0.0, 0.5), (1.0, 0.5)))
        v = tim.v_from_distribution(dist, np.pi, 2)
        assert abs(v[1]) < 1e-14
        q = (np.fft.fft(v) / 2).real
        np.testing.assert_allclose(q, [0.5, 0.5], atol=1e-14)
        assert tim.spectrum_to_bound(q) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_periodic(self):
        spec = cc.Spectrum(np.array([0.0, 1.0, np.sqrt(2.0), 3.0]))
        mix = tim.build_shift_mixture(spec, [(0.0, 1.0)])
        with pytest.raises(NotPeriodic):
            tim.timing_channel(mix.channel, spec, orbit_state(4, 2), np.pi, 2)

    @pytest.mark.parametrize("s, N", [(np.nan, 2), (np.inf, 2), (1e308, 4)])
    def test_rejects_non_finite_step_or_period(self, s, N):
        mix = tim.build_shift_mixture(four_level(), [(0.0, 0.5), (2.0, 0.5)])
        with pytest.raises(InvalidParameter):
            tim.timing_channel(mix.channel, four_level(), orbit_state(4, 2), s, N)

    def test_rejects_non_orthogonal(self):
        # (|0> + |2>)/sqrt(2) returns to itself after time pi, so the two
        # identity-channel outputs coincide.
        phi0 = np.zeros(4, dtype=complex)
        phi0[0] = phi0[2] = np.sqrt(0.5)
        with pytest.raises(NotReliableTiming):
            tim.timing_channel(cc.identity_channel(4), four_level(), phi0,
                               np.pi, 2)

    def test_q_is_probability_vector(self, rng):
        for N in (2, 3, 4):
            chan, spec, phi0, s, _, _ = random_timing_fixture(N, rng)
            rep = tim.timing_channel(chan, spec, phi0, s, N)
            assert rep.q.min() >= -1e-10
            assert rep.q.sum() == pytest.approx(1.0, abs=1e-10)

    def test_q_matches_shift_probabilities(self, rng):
        # q_k aggregates the mixture weights with sigma congruent to -k mod N.
        N = 3
        chan, spec, phi0, s, sigmas, probs = random_timing_fixture(N, rng)
        rep = tim.timing_channel(chan, spec, phi0, s, N)
        expected = np.zeros(N)
        for sg, p in zip(sigmas, probs):
            expected[(-sg) % N] += p
        np.testing.assert_allclose(rep.q, expected, atol=1e-10)

    def test_bound_equals_circulant_hadamard_bound(self, rng):
        for N in (2, 4, 5):
            chan, spec, phi0, s, _, _ = random_timing_fixture(N, rng)
            rep = tim.timing_channel(chan, spec, phi0, s, N)
            V = tim.circulant(rep.v)
            assert rep.bound == pytest.approx(cap.hadamard_bound(V, N), abs=1e-10)

    def test_v_consistent_with_distribution(self, rng):
        # v from the trace formula must agree with the Fourier transform of
        # the energy-shift distribution of phi0.
        N = 4
        chan, spec, phi0, s, _, _ = random_timing_fixture(N, rng)
        decomp = cov.decompose(chan, spec, tol=1e-9)
        dist = cov.shift_distribution(decomp, cc.DensityMatrix(np.outer(phi0, phi0.conj())))
        rep = tim.timing_channel(chan, spec, phi0, s, N)
        np.testing.assert_allclose(rep.v, tim.v_from_distribution(dist, s, N),
                                   atol=1e-9)


class TestOrbitFactor:
    def test_no_dense_channel_application(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense channel application")

        monkeypatch.setattr(mc, "apply_matrix", refuse)
        monkeypatch.setattr(cov, "evolve_matrix", refuse)
        mix = tim.build_shift_mixture(four_level(), [(0.0, 0.5), (2.0, 0.5)])
        phi0 = orbit_state(4, 2)
        assert tim.timing_channel(mix.channel, four_level(), phi0, np.pi, 2).bound > 0.99
        assert tim.is_reliable_timing(mix.channel, four_level(), phi0, 0.3) >= 0.0


ORBIT_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=80)


@st.composite
def timing_inputs(draw):
    """(channel, spectrum, phi0, s, N, tol) from three families: shift
    mixtures, random covariant channels on integer spectra (n <= 12) and
    non-covariant random_cptp channels with K in {1, n, n^2}."""
    family = draw(st.sampled_from(["mixture", "covariant", "cptp"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    N = draw(st.integers(1, 6))
    tol = draw(st.sampled_from([1e-9, np.inf]))
    if family == "mixture":
        chan, spec, phi0, s, _, _ = random_timing_fixture(N, rng)
    else:
        if family == "covariant":
            gaps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=11))
            spec = cc.Spectrum(np.concatenate([[0.0], np.cumsum(gaps)]).astype(float))
            chan = gen.random_covariant(spec, rng)
        else:
            n = draw(st.integers(2, 8))
            spec = cc.Spectrum(np.arange(float(n)))
            chan = gen.random_cptp(n, rng, draw(st.sampled_from([1, n, n * n])))
        phi0 = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
        phi0 /= np.linalg.norm(phi0)
        s = 2.0 * np.pi * draw(st.integers(1, 5)) / N  # e^{-iHsN} = 1 on integer spectra
    if rng.random() < 0.25:  # a step of no period
        s = float(rng.uniform(0.01, 10.0))
    if rng.random() < 0.1:
        phi0 = 1.5 * phi0
    return chan, spec, phi0, s, N, tol


@ORBIT_PROPERTY
@given(case=timing_inputs())
def test_orbit_route_matches_dense_applications(case):
    chan, spec, phi0, s, N, tol = case
    try:
        v, q, bound, defect = timing_by_dense_applications(chan, spec, phi0, s, N, tol)
    except Exception as exc:  # the orbit route raises the same type
        with pytest.raises(type(exc)):
            tim.timing_channel(chan, spec, phi0, s, N, tol)
    else:
        rep = tim.timing_channel(chan, spec, phi0, s, N, tol)
        np.testing.assert_allclose(rep.v, v, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(rep.q, q, rtol=0.0, atol=1e-12)
        assert rep.bound == pytest.approx(bound, abs=1e-12)
        assert rep.orthogonality_defect == pytest.approx(defect, abs=1e-12)
    if abs(np.linalg.norm(phi0) - 1.0) > mc.EPS_TR:
        with pytest.raises(InvalidParameter):
            tim.is_reliable_timing(chan, spec, phi0, s)
    else:
        _, pair = dense_pair_defect(chan, spec, np.outer(phi0, phi0.conj()), s, 2)
        assert tim.is_reliable_timing(chan, spec, phi0, s) == pytest.approx(pair, abs=1e-12)
