import tracemalloc
from unittest import mock

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
from covchan.errors import DimensionMismatch, InvalidParameter, NotPeriodic, NotReliableTiming
from conftest import dense_pair_defect, sha256_of, timing_by_dense_applications


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

    @pytest.mark.parametrize("shifts", [[(0.0, 1.5), (2.0, -0.5)], [(0.0, 1.0), (2.0, np.nan)],
                                        [(0.0, np.inf), (2.0, -np.inf)]],
                             ids=["negative", "nan", "inf"])
    def test_probabilities_must_be_finite_and_non_negative(self, shifts):
        # Each list sums to 1 or to NaN, which the sum check alone let through.
        with pytest.raises(InvalidParameter, match="finite and non-negative"):
            tim.build_shift_mixture(four_level(), shifts)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
    def test_sigmas_must_be_finite(self, sigma):
        # A NaN or infinite sigma names no sector, so it built a zero channel with
        # tp_support () and no error.
        with pytest.raises(InvalidParameter, match="sigmas must be finite"):
            tim.build_shift_mixture(cc.Spectrum(np.arange(4.0)), [(sigma, 1.0)])

    def test_a_finite_sigma_off_every_sector_is_the_zero_shift(self):
        # A finite sigma that names no sector stays a zero shift, which tp_defect reports.
        mix = tim.build_shift_mixture(four_level(), [(0.5, 1.0)])
        assert mix.tp_support == () and mix.tp_defect == 2.0

    def test_a_wrong_sum_is_an_invalid_parameter(self):
        with pytest.raises(InvalidParameter, match="sum to 0.8"):
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

    @pytest.mark.parametrize("s", [np.inf, np.nan, 1e308])
    def test_rejects_non_finite_step(self, s):
        mix = tim.build_shift_mixture(four_level(), [(0.0, 0.5), (2.0, 0.5)])
        with pytest.raises(InvalidParameter):
            tim.is_reliable_timing(mix.channel, four_level(), orbit_state(4, 2), s)


@pytest.mark.parametrize("check", ["is_reliable_timing", "timing_channel"])
def test_rejects_phase_overflow_at_finite_period(check):
    # s * N = 1e308 is finite, but E * s * j reaches 10 * 5e307 = 5e308.
    spec = cc.Spectrum(np.arange(11.0))
    phi0 = orbit_state(11, 2)
    with pytest.raises(InvalidParameter, match="phase"):
        if check == "is_reliable_timing":
            tim.is_reliable_timing(cc.identity_channel(11), spec, phi0, 5e307)
        else:
            tim.timing_channel(cc.identity_channel(11), spec, phi0, 5e307, 2)


@pytest.mark.parametrize("check", ["is_reliable_timing", "timing_channel"])
def test_rejects_a_difference_phase_overflow(check):
    # |E_k| s N = 1e308 is finite at both levels, but (E_1 - E_0) s N = 2e308 is not; the
    # orbit factor used to take such steps.
    spec, phi0 = cc.Spectrum([-1e307, 1e307]), orbit_state(2, 2)
    with pytest.raises(InvalidParameter, match="phase"):
        if check == "is_reliable_timing":
            tim.is_reliable_timing(cc.identity_channel(2), spec, phi0, 5.0)
        else:
            tim.timing_channel(cc.identity_channel(2), spec, phi0, 5.0, 2)


def test_period_phase_overflow_is_a_bad_step_not_aperiodic():
    # Every orbit phase E * s * j (j < 2) is at most 1e308, but the period's
    # 10 * 2e307 overflows, so e^(-iHsN) cannot be formed: a bad step.
    spec = cc.Spectrum(np.arange(11.0))
    with pytest.raises(InvalidParameter, match="phase"):
        tim.timing_channel(cc.identity_channel(11), spec, orbit_state(11, 2), 1e307, 2)


class TestVAndCirculant:
    @pytest.mark.parametrize("s, N", [(np.inf, 2), (np.nan, 1), (1e308, 3)])
    def test_v_from_distribution_refuses_a_non_finite_phase(self, s, N):
        # sigma s j was inf or NaN: v was NaN, with a RuntimeWarning.
        dist = cov.EnergyShiftDistribution(pairs=((0.0, 0.5), (2.0, 0.5)))
        with pytest.raises(InvalidParameter, match="phase"):
            tim.v_from_distribution(dist, s, N)

    @pytest.mark.parametrize("N", [0, -3, tim.MAX_N + 1, 2.5])
    def test_v_from_distribution_refuses_n_outside_its_range(self, N):
        # N <= 0 gave an empty vector, and nothing bounded the N x #sigma phases;
        # N = 2.5 gave 3 entries.
        dist = cov.EnergyShiftDistribution(pairs=((0.0, 0.5), (2.0, 0.5)))
        match = "N must be an integer, got 2.5" if N == 2.5 else "MAX_N"
        with pytest.raises(InvalidParameter, match=match):
            tim.v_from_distribution(dist, np.pi, N)

    def test_timing_channel_refuses_a_non_integral_n(self):
        # It passed the orbit check and raised NotPeriodic.
        spec = four_level()
        chan = tim.build_shift_mixture(spec, [(0.0, 1.0)]).channel
        with pytest.raises(InvalidParameter, match="N must be an integer, got 2.5"):
            tim.timing_channel(chan, spec, orbit_state(4, 4), np.pi / 2, 2.5)
        assert tim.timing_channel(chan, spec, orbit_state(4, 4), np.pi / 2, np.int64(4)).N == 4

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

    @pytest.mark.parametrize("v", [np.ones((2, 3)), np.array(1.0)])
    def test_circulant_refuses_what_is_not_a_vector(self, v):
        # Both raised numpy's IndexError.
        with pytest.raises(InvalidParameter, match="v must be a vector"):
            tim.circulant(v)

    def test_spectrum_to_bound_refuses_an_empty_vector(self):
        # It warned of a divide by zero, then raised numpy's ValueError.
        with pytest.raises(InvalidParameter, match="q must be a non-empty vector"):
            tim.spectrum_to_bound([])

    @pytest.mark.parametrize("q", [np.full((2, 2), 0.25), np.array(1.0)])
    def test_spectrum_to_bound_refuses_what_is_not_a_vector(self, q):
        # A 2-d q was read flat, as the bound of its four entries.
        with pytest.raises(InvalidParameter, match="q must be a non-empty vector, got shape"):
            tim.spectrum_to_bound(q)


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

    def test_rejects_orbit_past_max_n_before_allocating(self):
        mix = tim.build_shift_mixture(four_level(), [(0.0, 0.5), (2.0, 0.5)])
        with pytest.raises(InvalidParameter, match="MAX_N"):
            tim.timing_channel(mix.channel, four_level(), orbit_state(4, 2), 1e-9,
                               tim.MAX_N + 1)

    def test_rejects_non_orthogonal(self):
        # (|0> + |2>)/sqrt(2) returns to itself after time pi, so the two
        # identity-channel outputs coincide.
        phi0 = np.zeros(4, dtype=complex)
        phi0[0] = phi0[2] = np.sqrt(0.5)
        with pytest.raises(NotReliableTiming):
            tim.timing_channel(cc.identity_channel(4), four_level(), phi0,
                               np.pi, 2)

    def test_refuses_a_nan_or_negative_tolerance(self):
        # NaN made defect > tol false, so a channel far from orthogonal (defect 0.25)
        # got a bound; a negative tol refused an orthogonal orbit as not reliable.
        spec, phi0 = four_level(), orbit_state(4, 4)
        dense = gen.random_covariant(spec, np.random.default_rng(4))
        with pytest.raises(NotReliableTiming):
            tim.timing_channel(dense, spec, phi0, np.pi / 2, 4, 1e-9)
        mix = tim.build_shift_mixture(spec, [(0.0, 1.0)]).channel
        assert tim.timing_channel(mix, spec, phi0, np.pi / 2, 4).orthogonality_defect < 1e-30
        for chan, tol in ((dense, np.nan), (mix, -1e-12), (mix, -np.inf)):
            with pytest.raises(InvalidParameter, match="tolerance"):
                tim.timing_channel(chan, spec, phi0, np.pi / 2, 4, tol)
        bound = tim.timing_channel(mix, spec, phi0, np.pi / 2, 4, np.inf).bound  # inf stays allowed
        assert bound == pytest.approx(2.0)

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


class TestNoDenseApplication:
    def test_no_dense_channel_application(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense channel application")

        mix = tim.build_shift_mixture(four_level(), [(0.0, 0.5), (2.0, 0.5)])
        phi0 = orbit_state(4, 2)
        monkeypatch.setattr(mc, "apply_matrix", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)  # no support projector either
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
def test_timing_matches_dense_applications(case):
    # The cptp family is refused as not covariant wherever its period holds.
    chan, spec, phi0, s, N, tol = case
    try:
        v, q, bound, defect = timing_by_dense_applications(chan, spec, phi0, s, N, tol)
    except Exception as exc:  # timing_channel raises the same type
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


def three_shift_fixture(N, rng, energies=None):
    """random_timing_fixture with three components, the shapes of the benchmark's
    timing items; ``energies`` (a function of the dimension) replaces the integer
    spectrum, its shifts then taken at the same level offsets."""
    offsets = rng.permutation(np.array([0, N // 2, N - 1]))
    levels = [l * N + int(offsets[: l + 1].sum()) for l in range(3)]
    probs = rng.random(3) + 0.1
    dim = N + levels[-1]
    spec = cc.Spectrum(np.arange(float(dim)) if energies is None else energies(dim))
    sigmas = [float(spec.energies[m] - spec.energies[0]) for m in levels]
    mix = tim.build_shift_mixture(spec, list(zip(sigmas, probs / probs.sum())))
    phi0 = np.zeros(dim, dtype=complex)
    phi0[:N] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=N)) / np.sqrt(N)
    return mix.channel, spec, phi0, 2.0 * np.pi / N


def gauge_mixed(chan, rng):
    """The channel's operators mixed by a random (K + 2) x K isometry U: the operators
    sum_k U_mk A_k give the same channel, and each mixes the sectors of the A_k."""
    K = len(chan.kraus)
    u = np.linalg.qr(rng.normal(size=(K + 2, K)) + 1j * rng.normal(size=(K + 2, K)))[0]
    return cc.Channel(tuple(np.tensordot(u, np.stack(chan.kraus), axes=1)))


def report_numbers(rep):
    return rep.v, rep.q, rep.bound, rep.orthogonality_defect


def entropy_term(x):
    """-x log2 x, the most a q entry of size x can move the bound by."""
    return -x * np.log2(x)


U = 2.0 ** -53  # unit roundoff


class TestOneApplicationRoute:
    @pytest.mark.parametrize("N", [2, 4, 6, 8, 12, 16])
    def test_benchmark_shapes_are_never_decomposed(self, N, monkeypatch, rng):
        chan, spec, phi0, s = three_shift_fixture(N, rng)
        v, q, bound, defect = timing_by_dense_applications(chan, spec, phi0, s, N)

        def refuse(*args):
            raise AssertionError("decomposed")

        monkeypatch.setattr(tim, "decompose", refuse)
        rep = tim.timing_channel(chan, spec, phi0, s, N)
        np.testing.assert_allclose(rep.v, v, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(rep.q, q, rtol=0.0, atol=1e-12)
        assert rep.bound == pytest.approx(bound, abs=1e-12)
        assert rep.orthogonality_defect == pytest.approx(defect, abs=1e-12)
        with pytest.raises(NotPeriodic):  # the benchmark's 0.97 step
            tim.timing_channel(chan, spec, phi0, 0.97 * s, N)

    def test_spacing_one_is_refused_on_the_new_route(self, monkeypatch):
        # The benchmark's not-orthogonal item: shifts 0, 1, 2 apart with N = 4.
        spec = cc.Spectrum(np.arange(7.0))
        mix = tim.build_shift_mixture(spec, [(0.0, 0.5), (1.0, 0.3), (3.0, 0.2)])
        monkeypatch.setattr(tim, "decompose", None)
        with pytest.raises(NotReliableTiming):
            tim.timing_channel(mix.channel, spec, orbit_state(7, 4), np.pi / 2, 4)

    def test_operator_shifts_are_exact_differences(self):
        spec = cc.Spectrum(np.arange(5.0))
        mix = tim.build_shift_mixture(spec, [(0.0, 0.5), (2.0, 0.3), (-1.0, 0.2)])
        assert cov._label(mix.channel, spec).shifts.tolist() == [0.0, 2.0, -1.0]
        assert cov._label(cc.identity_channel(5), spec).shifts.tolist() == [0.0]
        zero = cc.Channel((np.zeros((5, 5)),))
        assert cov._label(zero, spec).shifts.tolist() == [0.0]
        assert cov._label(cc.Channel((np.ones((5, 5)),)), spec).shifts is None
        with pytest.raises(DimensionMismatch):
            cov._label(cc.Channel((np.ones((4, 5)),)), spec)

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(N=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), tol=st.sampled_from([1e-9, np.inf]))
    def test_kraus_gauge_law_across_both_routes(self, N, seed, tol):
        # {sum_k U_mk A_k} is the channel {A_k}.  In timing_channel the mixed operators
        # are decomposed and the unmixed ones applied once; is_reliable_timing applies
        # both.  v and q agree within c u (1 + max E s N); the bound moves by at most N
        # entropy terms of that size (the q entries near 0).
        # Measured over seeds 0-299, N = 1-8: c = 0.52 for v and q, 0.38 u for the defect
        # and 4 u for is_reliable_timing; largest bound move 1.1e-14.
        rng = np.random.default_rng(seed)
        chan, spec, phi0, s = three_shift_fixture(N, rng)
        mixed = gauge_mixed(chan, rng)
        with mock.patch.object(tim, "decompose", wraps=tim.decompose) as decompose:
            rep = tim.timing_channel(chan, spec, phi0, s, N, tol)
            assert decompose.call_count == 0
            got = tim.timing_channel(mixed, spec, phi0, s, N, tol)
            assert decompose.call_count == 1
        pair, got_pair = (tim.is_reliable_timing(c, spec, phi0, s) for c in (chan, mixed))
        scale = 8 * U * (1.0 + spec.energies[-1] * s * N)
        assert np.abs(got.v - rep.v).max() <= scale
        assert np.abs(got.q - rep.q).max() <= scale
        assert abs(got.bound - rep.bound) <= N * entropy_term(scale)
        assert abs(got.orthogonality_defect - rep.orthogonality_defect) <= 16 * U
        assert abs(got_pair - pair) <= 16 * U
        blocks = [[mask.domain_submatrix for _, mask in cov.decompose(c, spec).sectors]
                  for c in (chan, mixed)]
        assert len(blocks[0]) == len(blocks[1])
        for want, have in zip(*blocks):
            assert np.abs(have - want).max() <= 16 * U

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(N=st.integers(1, 8), k=st.integers(-60, 60), seed=st.integers(0, 2**32 - 1),
           mixed=st.booleans())
    def test_energy_scale_law_on_both_routes(self, N, k, seed, mixed):
        # Spectrum(2^k E) with step 2^-k s forms every phase argument from the same
        # products as E with step s, so v, q, the bound and the defect are bit-identical.
        rng = np.random.default_rng(seed)
        chan, spec, phi0, s = three_shift_fixture(N, rng)
        if mixed:
            chan = gauge_mixed(chan, rng)
        scaled = cc.Spectrum(2.0 ** k * spec.energies)
        assert (cov._label(chan, scaled).shifts is None) == mixed
        reports = [tim.timing_channel(chan, sp, phi0, t, N, np.inf)
                   for sp, t in ((spec, s), (scaled, 2.0 ** -k * s))]
        assert sha256_of(report_numbers(reports[0])) == sha256_of(report_numbers(reports[1]))
        assert (tim.is_reliable_timing(chan, spec, phi0, s)
                == tim.is_reliable_timing(chan, scaled, phi0, 2.0 ** -k * s))

    @pytest.mark.parametrize("k", [-60, -1, 0, 7, 60])
    def test_sqrt2_spacing_is_decomposed(self, k, rng):
        # On a [0, 1, ..., n) with a = sqrt(2), a m' - a m is not the same double for
        # every pair m' - m: the shifts' operators have several differences, bit for bit.
        a = 2.0 ** k * np.sqrt(2.0)
        chan, spec, phi0, s = three_shift_fixture(6, rng, lambda dim: a * np.arange(float(dim)))
        assert cov._label(chan, spec).shifts is None
        with mock.patch.object(tim, "decompose", wraps=tim.decompose) as decompose:
            rep = tim.timing_channel(chan, spec, phi0, s / a, 6, np.inf)
        assert decompose.call_count == 1
        want = timing_by_dense_applications(chan, spec, phi0, s / a, 6, np.inf)
        np.testing.assert_allclose(rep.v, want[0], rtol=0.0, atol=1e-12)
        base = cc.Spectrum(np.sqrt(2.0) * np.arange(float(spec.dim)))
        same = tim.timing_channel(chan, base, phi0, 2.0 ** k * (s / a), 6, np.inf)
        assert sha256_of(report_numbers(rep)) == sha256_of(report_numbers(same))

    @pytest.mark.parametrize("family", ["mixture", "gauge-mixed", "dense"])
    def test_long_orbit_holds_no_n_by_n_table(self, family, rng):
        # At N = 1024 one N x N complex matrix alone is 16 MiB.  The mixture is applied
        # once; the other two are decomposed, the dense one with K = 256 operators.
        spec = cc.Spectrum(np.arange(16.0))
        chan = tim.build_shift_mixture(spec, [(0.0, 0.5), (1.0, 0.3), (-15.0, 0.2)]).channel
        chan = {"mixture": chan, "gauge-mixed": gauge_mixed(chan, rng),
                "dense": gen.random_covariant(spec, rng)}[family]
        phi0 = np.full(16, 0.25, dtype=complex)
        tracemalloc.start()
        try:
            rep = tim.timing_channel(chan, spec, phi0, 2.0 * np.pi / 1024, 1024, np.inf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.v.shape == (1024,)
        assert peak <= 4 * 2**20, peak


def timing_by_mpmath(chan, spec, phi0, s, N):
    """40-digit (v, bound) of a covariant channel, every float read exactly: Kraus entry
    (j', j) of A_k adds |A_k(j', j)|^2 |phi0_j|^2 to the weight of the exact difference
    E_j' - E_j, v(j) is the weights' Fourier sum at s j and q the DFT of v."""
    mpmath = pytest.importorskip("mpmath")
    ops = np.stack(chan.kraus)
    with mpmath.workdps(40):
        energies, step, weights = [mpmath.mpf(float(e)) for e in spec.energies], mpmath.mpf(s), {}
        for out, j in np.argwhere(np.any(ops != 0, axis=0)).tolist():
            mass = sum(mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2 for z in ops[:, out, j])
            sigma = energies[out] - energies[j]
            weights[sigma] = weights.get(sigma, 0) + mass * abs(mpmath.mpc(phi0[j])) ** 2
        v = [sum(w * mpmath.expj(-sigma * step * j) for sigma, w in weights.items())
             for j in range(N)]
        q = [mpmath.re(sum(v[j] * mpmath.expj(-2 * mpmath.pi * j * k / N) for j in range(N))) / N
             for k in range(N)]
        bound = mpmath.log(N, 2) + sum(x * mpmath.log(x, 2) for x in q if x > 0)
        return np.array([complex(x) for x in v]), float(bound)


# The chained spectrum's differences 1, 1 + 1e-11 and 1 + 2e-11 (and those near 2) chain
# within match_tol 3e-9 into one sector each: 7 clusters of distinct exact differences.
@pytest.mark.parametrize("energies, N", [(np.arange(4.0), 8), (np.arange(4.0), 64),
                                         (np.arange(8.0), 8), (np.arange(8.0), 64),
                                         (np.array([0.0, 1.0, 2.0 + 1e-11, 3.0 + 3e-11]), 8),
                                         (np.array([0.0, 1.0, 2.0 + 1e-11, 3.0 + 3e-11]), 16)],
                         ids=["integer-4-N8", "integer-4-N64", "integer-8-N8", "integer-8-N64",
                              "chained-N8", "chained-N16"])
@pytest.mark.parametrize("seed", range(3))
def test_decomposition_route_matches_40_digits(energies, N, seed):
    # Each pair's weight sits at its own exact difference and the Fourier sum runs in
    # longdouble, so v and the bound come within c u (1 + E_max s N) of 40 digits.  The
    # bound's c holds the q entries that are 0 but for roundoff, -q log2 q each.
    # Measured over seeds 0-39 per case: c = 0.51 for v and 5.7 for the bound (the
    # orbit route this one replaced: 0.75 and 20.3).
    spec = cc.Spectrum(energies)
    rng = np.random.default_rng([seed, N])
    chan = gen.random_covariant(spec, rng)
    phi0 = np.ones(spec.dim, dtype=complex) if seed % 2 else (
        rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim))
    phi0 /= np.linalg.norm(phi0)
    s = 2.0 * np.pi / N
    v, bound = timing_by_mpmath(chan, spec, phi0, s, N)
    assert cov._label(chan, spec).shifts is None and len(spec.sigmas) == 2 * spec.dim - 1
    rep = tim.timing_channel(chan, spec, phi0, s, N, np.inf)
    scale = U * (1.0 + spec.energies[-1] * s * N)
    assert np.abs(rep.v - v).max() <= 1.0 * scale
    assert abs(rep.bound - bound) <= 8.0 * scale
