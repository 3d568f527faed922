import dataclasses
import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

import covchan as cc
from covchan import channels as mcore
from covchan import cli, fock, inputs
from covchan.channels import EPS_PSD
from covchan.errors import DimensionMismatch, InvalidParameter, MaskNotPSD, SectorOutOfRange

from conftest import (
    diagonal_sums_per_sector,
    gaussian_decomposition_per_sector,
    laguerre_rows_per_order,
    monte_carlo_by_full_displacement,
    refuse_mask_check,
    sha256_of,
)


def laguerre_sum(j, alpha, x):
    """Explicit-sum oracle: L_j^(a)(x) = sum_i (-1)^i C(j+a, j-i) x^i / i!,
    summed exactly in rationals (in floats the cancelling terms lose ~1e-6 at j = 40)."""
    x = Fraction(x)
    return float(sum(
        (-1) ** i * math.comb(j + alpha, j - i) * x ** i / math.factorial(i)
        for i in range(j + 1)
    ))


def laguerre(j, alpha, x):
    """L_j^(alpha)(x) as the last row of the library's recurrence."""
    return fock._laguerre_rows(j, alpha, np.asarray(x, dtype=float))[j]


def mask_by_decimal_sum(sigma, dim, s):
    """Oracle M_sigma (sigma >= 0) on levels 0..dim-1 at std_dev s, as the
    loss-amplifier sum of the module docstring in 50-digit decimal arithmetic.

    C[j, l]^2 = j! (j+sigma)! / (l! (l+sigma)! (j-l)!^2) q^(2l+sigma)
    / (1+N)^(2(j-l)+1), N = 2 s^2 and q = N / (1+N), for l <= j, and
    M(j, k) = sum_l C[j, l] C[k, l]: integer powers and one square root per
    term, every term non-negative.
    """
    out = np.zeros((dim, dim))
    with localcontext() as ctx:
        ctx.prec = 50
        n = 2 * Decimal(s) ** 2
        q = n / (1 + n)
        fact = [Decimal(math.factorial(k)) for k in range(2 * dim)]
        size = dim - sigma
        c = [[(fact[j] * fact[j + sigma] / (fact[l] * fact[l + sigma] * fact[j - l] ** 2)
               * q ** (2 * l + sigma) / (1 + n) ** (2 * (j - l) + 1)).sqrt()
              for l in range(j + 1)] for j in range(size)]
        for j in range(size):
            for k in range(size):
                out[j, k] = float(sum(c[j][l] * c[k][l] for l in range(min(j, k) + 1)))
    return out


def thermal_vacuum_row(s, a):
    """N^a / (1+N)^(a+1), N = 2 s^2, in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        n = 2 * Decimal(s) ** 2
        return float(n ** a / (1 + n) ** (a + 1))


def mask_by_exact_integration(sigma, dim, s2):
    """Oracle M_sigma on levels 0..dim-1 at s^2 = s2 (a Fraction).

    M(j, k) = sqrt(j! k! / ((j+sigma)! (k+sigma)!)) / (2 s^2) * integral of
    e^{-beta u} u^sigma L_j^(sigma)(u) L_k^(sigma)(u), beta = 1 + 1/(2 s^2).
    The polynomial is integrated term by term in rationals with
    integral e^{-beta u} u^m du = m! / beta^(m+1); only the square-root
    prefactor is rounded.
    """
    beta = 1 + 1 / (2 * s2)
    size = dim - sigma
    moments = [Fraction(math.factorial(m)) / beta ** (m + 1) for m in range(2 * dim)]
    coeffs = [[Fraction((-1) ** i * math.comb(j + sigma, j - i), math.factorial(i))
               for i in range(j + 1)] for j in range(size)]
    out = np.zeros((dim, dim))
    for j in range(size):
        for k in range(j, size):
            integral = sum(a * b * moments[sigma + i + m]
                           for i, a in enumerate(coeffs[j]) for m, b in enumerate(coeffs[k]))
            ratio = Fraction(math.factorial(j) * math.factorial(k),
                             math.factorial(j + sigma) * math.factorial(k + sigma))
            out[j, k] = out[k, j] = math.sqrt(ratio) * float(integral / (2 * s2))
    return out


class TestLaguerre:
    def test_worked_value(self):
        # L_2^(1)(x) = x^2/2 - 3x + 3, so L_2^(1)(2) = -1.
        assert laguerre(2, 1, 2.0) == pytest.approx(-1.0, abs=1e-14)

    def test_against_explicit_sum(self):
        # Roundoff scales with the size of L, which C(j+a, j) e^{x/2} bounds
        # on x >= 0, not with its value: near a root at high j (L_32^(3)(0.3)
        # = -1.69 under a bound of 7.6e3) 1e-12 relative is out of reach.
        # At every j <= 8 point the floor 1e-15 * bound leaves the tolerance
        # max(1e-12 |L|, 1e-12) unchanged.
        for j in range(0, 41):
            for alpha in range(0, 4):
                for x in (0.0, 0.3, 1.7, 4.2):
                    bound = math.comb(j + alpha, j) * math.exp(x / 2.0)
                    assert laguerre(j, alpha, x) == pytest.approx(
                        laguerre_sum(j, alpha, x), rel=1e-12, abs=max(1e-12, 1e-15 * bound))

    def test_vectorized(self):
        x = np.linspace(0.0, 5.0, 7)
        out = laguerre(3, 2, x)
        expected = [laguerre_sum(3, 2, xi) for xi in x]
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(jmax=st.integers(0, 60), alpha=st.integers(0, 60),
           nodes=st.lists(st.floats(0.0, 1e3), max_size=6))
    def test_rows_equal_per_order_oracle(self, jmax, alpha, nodes):
        # x = 0, a large node and two nodes that are not short binary fractions
        # are always present.
        x = np.array([0.0, 740.0, math.pi, 10.0 * math.e] + nodes)
        rows = fock._laguerre_rows(jmax, alpha, x)
        assert rows.shape == (jmax + 1, x.size)
        assert rows.tobytes() == laguerre_rows_per_order(jmax, alpha, x).tobytes()


def safe_limit(dim, r):
    """Highest level where the truncated exponential is still trustworthy.

    The edge error of expm on the truncated generator creeps roughly
    7 + 10 r levels into the matrix at these sizes (measured, with margin).
    """
    return dim - math.ceil(7.0 + 10.0 * r)


class TestDisplacementMatrix:
    @pytest.mark.parametrize("dim", [2, 8, 24, 64])
    def test_matches_expm(self, dim):
        a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
        for r in (0.0, 0.1, 0.5, 1.0, 2.0):
            for z in (1.0, 1j, -1.0, np.exp(2.3j)):
                want = expm(r * (np.conj(z) * a.T - z * a))
                np.testing.assert_allclose(fock.displacement_matrix(z, r, dim), want,
                                           rtol=0.0, atol=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            fock.displacement_matrix(0.5, 1.0, 4)
        with pytest.raises(ValueError):
            fock.displacement_matrix(1.0, -0.1, 4)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_r(self, r):
        with pytest.raises(ValueError):
            fock.displacement_matrix(1.0, r, 4)

    def test_generator_spectrum_is_exactly_symmetric(self):
        # The Monte Carlo mirrors the upper half of e^{i r lam} onto the lower
        # half, which holds for every r only if lam = -lam[::-1] to the bit.
        for dim in range(2, 130):
            lam, vecs = fock._jacobi_eigenpairs(dim)
            assert np.array_equal(lam, -lam[::-1])
            assert np.all(np.diff(lam) > 0.0)
            np.testing.assert_allclose(vecs.T @ vecs, np.eye(dim), rtol=0.0, atol=1e-13)


# pi to 50 digits: the double nearest k pi / 2 (k <= 1e6) is the correctly
# rounded float of this rational times k / 2.
PI = Fraction("3.14159265358979323846264338327950288419716939937510")


@st.composite
def phase_arguments(draw):
    """0, magnitudes log-uniform in [1e-300, 1e300], and the doubles nearest
    k pi and k pi / 2 for k <= 1e6 or their neighbours, of either sign."""
    kind = draw(st.sampled_from(["zero", "log-uniform", "near k pi / 2"]))
    if kind == "zero":
        return 0.0
    if kind == "log-uniform":
        x = 10.0 ** draw(st.floats(-300.0, 300.0))
    else:
        x = float(draw(st.integers(0, 10**6)) * PI / draw(st.sampled_from([1, 2])))
        for _ in range(draw(st.integers(0, 2))):
            x = math.nextafter(x, draw(st.sampled_from([-math.inf, math.inf])))
    return -x if draw(st.booleans()) else x


def cos_plus_i_sin(x):
    return np.cos(x) + 1j * np.sin(x)


class TestUnitPhases:
    """fock._unit_phases, e^{ix} from one tan of x / 2, against numpy's cos and sin."""

    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(x=phase_arguments())
    @example(x=math.pi)
    @example(x=math.pi / 2)
    @example(x=6381956970095103 * 2.0 ** 797)  # the double nearest a multiple of pi / 2
    @example(x=1e300)
    def test_within_two_ulps_of_cos_and_sin(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = fock._unit_phases(np.array([x]))[0]
        assert abs(got - cos_plus_i_sin(x)) <= 4.5e-16

    def test_sweep_near_multiples_of_half_pi(self):
        # One vectorised call on 6.4e6 arguments of either sign: k pi / 2 in
        # double arithmetic and both its neighbours for k <= 1e6, and 2e5
        # log-uniform magnitudes in [1e-300, 1e300].
        near = np.arange(10**6 + 1) * (np.pi / 2)
        x = np.concatenate([near, np.nextafter(near, -np.inf), np.nextafter(near, np.inf),
                            10.0 ** np.random.default_rng(22).uniform(-300, 300, 200_000)])
        x = np.concatenate([x, -x])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = fock._unit_phases(x)
        assert np.max(np.abs(got - cos_plus_i_sin(x))) <= 4.5e-16


class TestDisplacementSector:
    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("sigma", [-3, -1, 0, 1, 2, 4])
    def test_matches_expm_band(self, r, sigma):
        dim = 24
        lim = safe_limit(dim, r)
        full = fock.displacement_matrix(1.0, r, dim)
        sec = fock.displacement_sector(sigma, r, dim)
        for j in range(dim):
            tgt = j + sigma
            if 0 <= tgt < dim and max(j, tgt) <= lim:
                assert abs(sec[tgt, j] - full[tgt, j]) < 1e-8

    @pytest.mark.parametrize("r", [0.5, 1.0])
    def test_matches_untruncated_exponential(self, r):
        # Against expm at a much larger cutoff the per-entry Laguerre formula
        # is exact everywhere, not just on the safe levels.
        dim, big = 24, 64
        full = fock.displacement_matrix(1.0, r, big)
        for sigma in (-4, -1, 0, 2, 5):
            sec = fock.displacement_sector(sigma, r, dim)
            for j in range(dim):
                tgt = j + sigma
                if 0 <= tgt < dim:
                    assert abs(sec[tgt, j] - full[tgt, j]) < 1e-12

    def test_column_norms_sum_to_one(self):
        # Unitarity of D distributes each column across the sectors.
        dim, r = 24, 0.8
        lim = safe_limit(dim, r)
        total = np.zeros(dim)
        for sigma in range(-(dim - 1), dim):
            sec = fock.displacement_sector(sigma, r, dim)
            total += (np.abs(sec) ** 2).sum(axis=0)
        np.testing.assert_allclose(total[:lim + 1], 1.0, atol=1e-8)

    def test_r_zero_is_identity_sector(self):
        sec0 = fock.displacement_sector(0, 0.0, 6)
        np.testing.assert_allclose(sec0, np.eye(6), atol=1e-14)
        np.testing.assert_allclose(fock.displacement_sector(2, 0.0, 6), 0.0, atol=1e-14)

    def test_sector_out_of_range(self):
        with pytest.raises(SectorOutOfRange):
            fock.displacement_sector(6, 0.5, 6)

    @pytest.mark.parametrize("sigma", [2, -2])
    @pytest.mark.parametrize("r", [math.nan, math.inf, -0.5])
    def test_rejects_r_that_is_not_finite_and_non_negative(self, sigma, r):
        with pytest.raises(ValueError):
            fock.displacement_sector(sigma, r, 4)


def mask_matrix(sigma, dim, s):
    """M_sigma on levels 0..dim-1 from the smallest decomposition holding it."""
    params = fock.FockParams(dim, s, sigma_max=max(abs(sigma), 1))
    return fock.gaussian_decomposition(params).mask(sigma).mask.real


def mask_entry(sigma, j, k, s):
    # The fewest levels that hold entry (j, k) of M_sigma, at least the two FockParams needs.
    return float(mask_matrix(sigma, max(2, max(j, k) + 1 + sigma), s)[j, k])


class TestGaussianMasks:
    def mask_entry_oracle(self, sigma, j, k, s):
        """Direct adaptive-quadrature radial integral, independent of laggauss."""
        def cj(level, u):
            ratio = math.sqrt(math.factorial(level) / math.factorial(level + sigma))
            return u ** (sigma / 2.0) * ratio * laguerre_sum(level, sigma, u)

        def integrand(u):
            return np.exp(-u) * cj(j, u) * cj(k, u) * np.exp(-u / (2 * s * s)) / (2 * s * s)

        val, _ = quad(integrand, 0.0, np.inf)
        return val

    def test_vacuum_entry_closed_form(self):
        for s in (0.3, 0.5, 1.0):
            m = mask_entry(0, 0, 0, s)
            assert m == pytest.approx(1.0 / (1.0 + 2.0 * s * s), abs=1e-10)

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(log_s=st.floats(math.log(1e-150), math.log(9.48e153)), dim=st.integers(2, 186),
           frac=st.floats(0.0, 1.0))
    # Where the weights of a Gauss-Laguerre rule go subnormal, it got the
    # high orders wrong by a relative 0.136 and 1.0.
    @example(log_s=math.log(1e150), dim=48, frac=1.0)
    @example(log_s=math.log(1e140), dim=186, frac=1.0)
    def test_vacuum_output_is_thermal(self, log_s, dim, frac):
        # The additive-noise channel sends the vacuum to the thermal state with
        # mean photon number N = 2 s^2, so M_a(0, 0) = M_{-a}(a, a) = N^a / (1+N)^(a+1).
        # s is log-uniform over the whole range FockParams accepts; entries
        # whose reference is a normal float also meet a relative bound.
        s = min(math.exp(log_s), 9.48e153)
        a = round(frac * (dim - 1))
        want = thermal_vacuum_row(s, a)
        decomp = fock.gaussian_decomposition(fock.FockParams(dim, s, sigma_max=max(a, 1)))
        for got in (decomp.mask(a).mask[0, 0].real, decomp.mask(-a).mask[a, a].real):
            assert abs(got - want) <= 1e-12
            if want >= np.finfo(float).tiny:
                assert abs(got - want) <= 1e-12 * want, (s, a, got, want)

    @pytest.mark.parametrize("sigma", [0, 1, 3])
    def test_entries_against_adaptive_quadrature(self, sigma):
        s = 0.5
        for j, k in [(0, 0), (1, 2), (3, 3), (0, 4)]:
            got = mask_entry(sigma, j, k, s)
            assert got == pytest.approx(self.mask_entry_oracle(sigma, j, k, s),
                                        rel=1e-9, abs=1e-12)

    def test_matrix_agrees_with_entries(self):
        s, dim, sigma = 0.4, 6, 2
        mat = mask_matrix(sigma, dim, s)
        for j in range(dim - sigma):
            for k in range(dim - sigma):
                assert mat[j, k] == pytest.approx(
                    mask_entry(sigma, j, k, s), abs=1e-12)

    def test_masks_psd(self):
        for sigma in (-2, 0, 3):
            mat = mask_matrix(sigma, 10, 0.7)
            assert np.linalg.eigvalsh((mat + mat.T) / 2.0).min() >= -1e-12

    def test_negative_sector_is_shifted_copy(self):
        # The sign factors square away, so M_{-a} is M_{+a} moved down-right.
        a, dim, s = 2, 8, 0.6
        plus = mask_matrix(a, dim, s)
        minus = mask_matrix(-a, dim, s)
        np.testing.assert_allclose(minus[a:, a:], plus[:dim - a, :dim - a],
                                   atol=1e-12)

    @pytest.mark.parametrize("sigma, dim, s, error", [
        (4, 4, 0.5, SectorOutOfRange),  # |sigma| = dim
        (-4, 4, 0.5, SectorOutOfRange),
        (6, 4, 0.5, SectorOutOfRange),  # |sigma| > dim
        (0, 0, 0.5, InvalidParameter),
        (0, fock.MAX_DIM + 1, 0.5, InvalidParameter),
        (0, 4, 0.0, InvalidParameter),  # s = 0
        (0, 4, -0.5, InvalidParameter),  # s < 0
        (0, 4, math.nan, InvalidParameter),
    ])
    def test_rejects_bad_input(self, sigma, dim, s, error):
        with pytest.raises(error):
            fock.gaussian_decomposition(fock.FockParams(dim, s)).mask(sigma)

    @pytest.mark.parametrize("dim", [4, 8, 12])
    def test_masks_against_exact_integration(self, dim):
        # The rational radial integral of D_sigma rho D_sigma^dag, independent
        # of the loss-amplifier factorisation; only roundoff separates them.
        for s2 in (Fraction(9, 100), Fraction(1, 4), Fraction(9)):
            decomp = fock.gaussian_decomposition(
                fock.FockParams(dim=dim, std_dev=math.sqrt(s2)))
            for sigma in range(dim):
                np.testing.assert_allclose(
                    decomp.mask(sigma).mask.real, mask_by_exact_integration(sigma, dim, s2),
                    rtol=0.0, atol=1e-13, err_msg=f"s^2 = {s2}, sigma = {sigma}")

    @pytest.mark.parametrize("s", [0.1, 0.5, 1.0, 1e100])
    def test_masks_against_decimal_sum(self, s):
        # Every entry that is a normal float in the 50-digit sum is within
        # 1e-13 relative (measured: 2.4e-14); the rest underflow to zero or
        # subnormals on both sides.
        tiny = np.finfo(float).tiny
        for dim in range(2, 13):
            decomp = fock.gaussian_decomposition(fock.FockParams(dim=dim, std_dev=s))
            for sigma in range(dim):
                want = mask_by_decimal_sum(sigma, dim, s)
                got = decomp.mask(sigma).mask.real
                normal = want >= tiny
                assert np.all(np.abs(got - want)[normal] <= 1e-13 * want[normal]), (dim, sigma)
                assert np.all(np.abs(got - want)[~normal] <= tiny), (dim, sigma)

    @pytest.mark.parametrize("s", [0.1, 1.0, 1e100])
    def test_first_columns_against_decimal_at_the_dim_cap(self, s):
        # M_a(j, 0) = C_a[j, 0] C_a[0, 0] is one term of the sum, so the
        # 50-digit reference is cheap at dim 186 too.  Within 1e-12 relative
        # on every normal entry (measured: 3.0e-13, from the log k! terms of
        # up to 1.8e3 that cancel in log C).
        dim, tiny = 186, np.finfo(float).tiny
        decomp = fock.gaussian_decomposition(fock.FockParams(dim=dim, std_dev=s))
        with localcontext() as ctx:
            ctx.prec = 50
            n = 2 * Decimal(s) ** 2
            q = n / (1 + n)
            for sigma in range(dim):
                c00 = (q ** sigma / (1 + n)).sqrt()
                want = np.array([float(c00 * (math.comb(j + sigma, j) * q ** sigma
                                              / (1 + n) ** (2 * j + 1)).sqrt())
                                 for j in range(dim - sigma)])
                got = decomp.mask(sigma).domain_submatrix[:, 0]
                normal = want >= tiny
                assert np.all(np.abs(got - want)[normal] <= 1e-12 * want[normal]), sigma
                assert np.all(np.abs(got - want)[~normal] <= tiny), sigma


class TestGaussianDecomposition:
    def test_truncation_defect_profile(self):
        params = fock.FockParams(dim=16, std_dev=0.3)
        decomp = fock.gaussian_decomposition(params)
        td = decomp.truncation_defect
        assert td[0] < 1e-10
        assert td[-1] > td[0]

    def test_masks_equal_mask_matrix(self):
        # Each mask of the full decomposition is the one mask_matrix reads from
        # the smallest decomposition holding it, bit for bit.
        params = fock.FockParams(dim=12, std_dev=0.5)
        decomp = fock.gaussian_decomposition(params)
        for sigma in range(-params.sigma_max, params.sigma_max + 1):
            np.testing.assert_array_equal(
                decomp.mask(sigma).mask.real,
                mask_matrix(sigma, 12, 0.5))

    def test_mask_lookup(self):
        params = fock.FockParams(dim=6, std_dev=0.5, sigma_max=2)
        decomp = fock.gaussian_decomposition(params)
        assert len(decomp.masks) == 5
        assert decomp.mask(-2).sigma == -2.0
        with pytest.raises(SectorOutOfRange):
            decomp.mask(3)

    def test_view_as_sector_decomposition(self):
        params = fock.FockParams(dim=8, std_dev=0.3)
        decomp = fock.gaussian_decomposition(params)
        assert isinstance(decomp, cc.SectorDecomposition)
        chan = cc.reconstruct(decomp)
        # Nearly TP away from the truncation edge.
        vac = np.zeros((8, 8), dtype=complex)
        vac[0, 0] = 1.0
        out = cc.apply_matrix(chan, vac)
        # dim = 8 leaks a few 1e-7 of trace through the cutoff
        assert abs(np.trace(out).real - 1.0) < 1e-6

    def test_params_validation(self):
        with pytest.raises(ValueError):
            fock.FockParams(dim=1, std_dev=0.5)
        with pytest.raises(ValueError):
            fock.FockParams(dim=4, std_dev=-1.0)
        with pytest.raises(ValueError):
            fock.FockParams(dim=4, std_dev=0.5, sigma_max=4)

    @pytest.mark.parametrize("kwargs", [{"std_dev": math.nan}, {"std_dev": math.inf},
                                        {"std_dev": 0.5, "seed": -1},
                                        {"std_dev": 0.5, "seed": 2**128},
                                        # 2 std_dev^2 below the smallest normal float, or inf
                                        {"std_dev": 1e-154}, {"std_dev": 9.5e153},
                                        {"std_dev": 1e308}])
    def test_params_reject_non_finite_std_dev_and_bad_seed(self, kwargs):
        with pytest.raises(InvalidParameter):
            fock.FockParams(dim=4, **kwargs)

    def test_params_reject_huge_dim_before_allocating(self):
        with pytest.raises(InvalidParameter):
            fock.FockParams(dim=fock.MAX_DIM + 1, std_dev=0.5)
        with pytest.raises(InvalidParameter):
            fock.FockParams(dim=1_000_000, std_dev=0.5)
        assert fock.FockParams(dim=fock.MAX_DIM, std_dev=0.5).dim == fock.MAX_DIM
        assert cli.main(["gaussian", "--std-dev", "0.5", "--dim", "1000000"]) == 2
        assert cli.main(["mc-gaussian", "--std-dev", "0.5", "--dim", "1000000"]) == 2

    @pytest.mark.parametrize("argv, kwargs", [
        (["gaussian", "--dim", "1"], {"dim": 1}),
        (["gaussian", "--dim", str(fock.MAX_DIM + 1)], {"dim": fock.MAX_DIM + 1}),
        (["gaussian", "--std-dev", "-1"], {"std_dev": -1.0}),
        (["gaussian", "--std-dev", "1e-154"], {"std_dev": 1e-154}),
        (["gaussian", "--std-dev", "nan"], {"std_dev": math.nan}),
        (["gaussian", "--sigma-max", "99"], {"sigma_max": 99}),
        (["mc-gaussian", "--samples", "0"], {"mc_samples": 0}),
        (["mc-gaussian", "--seed", "-1"], {"seed": -1}),
        (["mc-gaussian", "--seed", str(2**128)], {"seed": 2**128}),
    ])
    def test_cli_refuses_with_the_params_message(self, capsys, argv, kwargs):
        # The CLI checks the ranges before fock loads, with FockParams' own rule.
        assert fock.check_fock_params is inputs.check_fock_params
        with pytest.raises(InvalidParameter) as refused:
            fock.FockParams(**{"dim": 8, "std_dev": 0.5, **kwargs})
        defaults = {"--dim": "8", "--std-dev": "0.5"}
        flags = [x for flag, value in defaults.items() if flag not in argv for x in (flag, value)]
        assert cli.main([*argv, *flags]) == cli.EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {refused.value}\n")

    @pytest.mark.parametrize("dim, sigma_max", [(12, 7), (40, 39)])
    def test_checks_each_chunk_once(self, monkeypatch, dim, sigma_max):
        # M_a and M_{-a} share one block, and each chunk of orders is proved
        # from its zero-padded factor stack: one Gram certificate per chunk,
        # sigma_max + 1 factors in all, and no SectorMask check.
        params = fock.FockParams(dim=dim, std_dev=0.5, sigma_max=sigma_max)
        calls = []
        gram_certified = mcore._gram_certified
        monkeypatch.setattr(mcore, "_gram_certified",
                            lambda factors, k: calls.append((factors.shape, k))
                            or gram_certified(factors, k))
        monkeypatch.setattr(cc.covariant, "_mask_failure", refuse_mask_check)
        decomp = fock.gaussian_decomposition(params)
        chunk = fock._MASK_CHUNK
        assert calls == [((min(chunk, sigma_max + 1 - a0), dim - a0, dim - a0), dim - a0)
                         for a0 in range(0, sigma_max + 1, chunk)]
        assert sum(shape[0] for shape, _ in calls) == sigma_max + 1
        for a in range(1, sigma_max + 1):
            block = decomp.mask(a).domain_submatrix
            # one block of the store's buffer, at one address
            assert decomp.mask(-a).domain_submatrix.__array_interface__ == block.__array_interface__
            assert not block.flags.writeable
            assert decomp.mask(-a).domain == tuple(range(a, dim))

    @pytest.mark.parametrize("a", [0, 17, 39])
    def test_unproved_chunks_take_the_check_in_sector_order(self, monkeypatch, a):
        # Where the Gram bound proves nothing, the store takes the SectorMask
        # check: the decomposition is the same, and a broken order a is named
        # at sigma = -a, as the per-sector check of its block names it.
        params = fock.FockParams(dim=40, std_dev=0.5)
        want = fock.gaussian_decomposition(params)
        monkeypatch.setattr(mcore, "_gram_certified", lambda factors, k: False)
        assert sha256_of(fock.gaussian_decomposition(params)) == sha256_of(want)
        mask_chunk = fock._mask_chunk

        def broken_chunk(orders, log_fact, n):
            factors, stack = mask_chunk(orders, log_fact, n)
            if a in orders:
                stack[a - orders[0], :40 - a, :40 - a] -= 1e-3 * np.eye(40 - a)
            return factors, stack

        monkeypatch.setattr(fock, "_mask_chunk", broken_chunk)
        with pytest.raises(MaskNotPSD) as got:
            fock.gaussian_decomposition(params)
        block = want.mask(-a).domain_submatrix - 1e-3 * np.eye(40 - a)
        with pytest.raises(MaskNotPSD) as per_sector:
            cc.SectorMask(sigma=float(-a), domain_submatrix=block, domain=tuple(range(a, 40)),
                          dim=40)
        assert str(got.value) == str(per_sector.value)
        assert str(got.value).startswith(f"sector {float(-a)}: domain submatrix eigenvalue")

    def test_gram_bound_proves_every_chunk_of_the_sweep(self, monkeypatch):
        # Dims 2-184 in steps of 7 at 11 std_devs from 1e-150 to 1e150, 1,870
        # chunks: each is proved from its factors, and the SectorMask check
        # never runs.
        verdicts = []
        gram_certified = mcore._gram_certified
        monkeypatch.setattr(mcore, "_gram_certified",
                            lambda factors, k: verdicts.append(gram_certified(factors, k))
                            or verdicts[-1])
        monkeypatch.setattr(cc.covariant, "_mask_failure", refuse_mask_check)
        for dim in range(2, 185, 7):
            for s in np.logspace(-150.0, 150.0, 11).tolist():
                fock.gaussian_decomposition(fock.FockParams(dim=dim, std_dev=s))
        assert len(verdicts) == 1870 and all(verdicts)

    def test_no_per_sector_work(self, monkeypatch):
        # Timing-free guards at dims 16-186: no sigma lookup, no (shift, mask)
        # pair, one certificate per chunk of orders, no per-sector diagonal
        # while building, and one spectrum per dim.  The truncation defect is
        # read from the blocks; the pairs, made on the first read of sectors,
        # hold the quadrature oracle's shifts.
        def refuse(*args, **kwargs):
            raise AssertionError("gaussian_decomposition did per-sector work")

        checks, built = [], []
        gram_certified = mcore._gram_certified
        monkeypatch.setattr(cc.covariant, "partial_shift", refuse)
        monkeypatch.setattr(cc.covariant, "PartialShift", refuse)
        monkeypatch.setattr(cc.covariant.SectorMask, "_checked", refuse)
        monkeypatch.setattr(mcore, "_gram_certified",
                            lambda factors, k: checks.append(factors.shape)
                            or gram_certified(factors, k))
        for dim, s in [(16, 0.5), (64, 0.3), (64, 0.5), (64, 1.0), (120, 0.5), (186, 1.0)]:
            params = fock.FockParams(dim=dim, std_dev=s)
            checks.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cc.covariant.SectorDecomposition, "diagonal_sums", refuse)
                decomp = fock.gaussian_decomposition(params)
            assert len(checks) <= math.ceil((params.sigma_max + 1) / fock._MASK_CHUNK)
            assert decomp.truncation_defect.shape == (dim,)
            built.append(decomp)
        other = fock.gaussian_decomposition(fock.FockParams(dim=64, std_dev=0.2))
        assert other.spectrum is built[1].spectrum
        monkeypatch.undo()
        for decomp in built:
            want = gaussian_decomposition_per_sector(decomp.params)
            assert sha256_of([shift for shift, _ in decomp.sectors]) == sha256_of(
                [shift for shift, _ in want.sectors])

    def assert_near_quadrature_oracle(self, params):
        # Shifts, domains and sector order exactly; masks and truncation
        # defects within 5e-12 absolute of the quadrature.  Measured over
        # every dim 2-186 at these four std_devs: 2.35e-12 and 1.9e-12, the
        # quadrature's own error (at dim 163, s = 0.1, M_0(162, 0) is 2.35e-12
        # off the 50-digit sum, the closed form 7e-18).
        got = fock.gaussian_decomposition(params)
        want = gaussian_decomposition_per_sector(params)
        assert sha256_of(got.spectrum) == sha256_of(want.spectrum)
        assert sha256_of([shift for shift, _ in got.sectors]) == sha256_of(
            [shift for shift, _ in want.sectors])
        for (_, mask), (_, oracle) in zip(got.sectors, want.sectors, strict=True):
            assert (mask.sigma, mask.domain, mask.dim) == (oracle.sigma, oracle.domain, oracle.dim)
            assert np.abs(mask.domain_submatrix - oracle.domain_submatrix).max() <= 5e-12
        assert np.abs(got.truncation_defect - want.truncation_defect).max() <= 5e-12

    @settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @given(dim=st.integers(2, 186), s=st.sampled_from([0.1, 0.3, 0.5, 1.0]), data=st.data())
    def test_equals_per_sector_builder(self, dim, s, data):
        # At every sigma_max.
        top = data.draw(st.sampled_from([0, dim - 1]) | st.integers(1, dim - 1), label="sigma_max")
        self.assert_near_quadrature_oracle(fock.FockParams(dim=dim, std_dev=s, sigma_max=top))

    @pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("dim", [8, 48, 186])
    def test_equals_per_sector_builder_at_report_dims(self, dim, s):
        self.assert_near_quadrature_oracle(fock.FockParams(dim=dim, std_dev=s))

    def test_truncation_defect_follows_the_sectors(self):
        # Derived, not stored: a copy with other sectors gets their defect.
        decomp = fock.gaussian_decomposition(fock.FockParams(dim=10, std_dev=0.5))
        fewer = dataclasses.replace(decomp, sectors=decomp.sectors[1:-1])
        assert sha256_of(fewer.truncation_defect) == sha256_of(
            np.abs(1.0 - diagonal_sums_per_sector(fewer)))
        assert fewer.truncation_defect[0] > decomp.truncation_defect[0]
        assert not fewer.truncation_defect.flags.writeable
        with pytest.raises(TypeError):
            fock.GaussianDecomposition(params=decomp.params, spectrum=decomp.spectrum,
                                       sectors=decomp.sectors, truncation_defect=np.zeros(10))

    @pytest.mark.parametrize("broken", [(0,), (5, 7), (15, 16), (3, 20, 39)],
                             ids=lambda orders: "-".join(map(str, orders)))
    def test_non_psd_block_names_the_sector_of_one_check_per_sector(self, monkeypatch, broken):
        # Blocks of several orders, in one chunk or two, pushed below zero: the
        # message names sigma = -a for the largest of them and its eigenvalue,
        # byte for byte as the per-sector SectorMask check does.
        # The product is broken behind its factors' back, which the Gram
        # certificate cannot see, so it is made to fail too.
        dim, top = 40, max(broken)
        stacks = {}
        mask_chunk = fock._mask_chunk

        def broken_chunk(orders, log_fact, n):
            factors, stack = mask_chunk(orders, log_fact, n)
            for a in set(broken) & set(orders):
                stack[a - orders[0], 0, 0] -= 1.0 + a / 100.0
            stacks[orders[0]] = stack
            return factors, stack

        monkeypatch.setattr(fock, "_mask_chunk", broken_chunk)
        monkeypatch.setattr(mcore, "_gram_certified", lambda factors, k: False)
        with pytest.raises(MaskNotPSD) as got:
            fock.gaussian_decomposition(fock.FockParams(dim=dim, std_dev=0.5))
        a0 = top - top % fock._MASK_CHUNK
        block = stacks[a0][top - a0, :dim - top, :dim - top].copy()
        with pytest.raises(MaskNotPSD) as want:
            cc.SectorMask(sigma=float(-top), domain_submatrix=block,
                          domain=tuple(range(top, dim)), dim=dim)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"sector {float(-top)}: domain submatrix eigenvalue")

    def test_builder_never_calls_laguerre_rows(self, monkeypatch):
        # The masks come from the closed-form factors; the Laguerre recurrence
        # serves displacement_sector alone.
        def refuse(*args):
            raise AssertionError("gaussian_decomposition ran the Laguerre recurrence")

        monkeypatch.setattr(fock, "_laguerre_rows", refuse)
        fock.gaussian_decomposition(fock.FockParams(dim=64, std_dev=0.5))

    def test_large_dim_is_finite(self):
        decomp = fock.gaussian_decomposition(fock.FockParams(dim=120, std_dev=1.0))
        assert all(np.all(np.isfinite(m.mask)) for m in decomp.masks)
        assert decomp.mask(0).mask[0, 0].real == pytest.approx(1.0 / 3.0, abs=1e-12)

    # The ends of the accepted std_dev range (2 s^2 a normal float) and values between.
    @pytest.mark.parametrize("s", [1.06e-154, 1e-150, 1e-8, 0.1, 1.0, 1e150, 9.48e153])
    def test_every_accepted_std_dev_is_finite_at_the_dim_cap(self, s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decomp = fock.gaussian_decomposition(fock.FockParams(dim=186, std_dev=s))
        assert all(np.all(np.isfinite(m.domain_submatrix)) for m in decomp.masks)
        assert np.all(np.isfinite(decomp.truncation_defect))

    def test_dim_cap_is_explicit(self, monkeypatch):
        # A named constant checked before any block is built, whatever the
        # numpy version; FockParams itself accepts dims up to MAX_DIM.
        def refuse(*args):
            raise AssertionError("gaussian_decomposition built blocks past its dim cap")

        monkeypatch.setattr(fock, "_mask_chunk", refuse)
        params = fock.FockParams(dim=fock._MAX_MASK_DIM + 1, std_dev=1.0)
        assert params.dim == 187
        with pytest.raises(InvalidParameter, match="dim <= 186"):
            fock.gaussian_decomposition(params)


def entropy_bits(vals):
    vals = vals[vals > 0.0]
    return float(-(vals * np.log2(vals)).sum())


def thermal_coherent_information(s, n_bar):
    """Closed-form I_c of the additive-noise channel (N = 2 s^2) at the thermal
    input of mean photon number n_bar: g(n_bar + N) - g(nu_+ - 1/2) - g(nu_- - 1/2)
    with the symplectic eigenvalues nu_+- of the joint output."""
    def g(v):
        return (v + 1.0) * math.log2(v + 1.0) - (v * math.log2(v) if v > 0.0 else 0.0)

    n_th = 2.0 * s * s
    a, b, c = n_bar + 0.5, n_bar + n_th + 0.5, math.sqrt(n_bar * (n_bar + 1.0))
    root = math.sqrt((a + b) ** 2 - 4.0 * c * c)
    return g(n_bar + n_th) - g((root + b - a) / 2.0 - 0.5) - g((root - b + a) / 2.0 - 0.5)


def masks_coherent_information(s, n_bar, dim):
    """I_c of the dim-level masks at the thermal input of mean photon number n_bar.

    rho = diag(p) is time invariant, so G(rho) is diagonal (level j + sigma
    receives M_sigma(j, j) p_j) and the complementary output has the spectrum
    of the direct sum of D^(1/2) M_sigma D^(1/2), D = diag(p) on the sector's
    domain.
    """
    decomp = fock.gaussian_decomposition(fock.FockParams(dim=dim, std_dev=s))
    levels = np.arange(dim)
    p = n_bar ** levels / (1.0 + n_bar) ** (levels + 1)
    out = np.zeros(dim)
    env = []
    for shift, mask in decomp.sectors:
        dom = list(shift.domain)
        out[list(shift.image)] += np.diag(mask.domain_submatrix) * p[dom]
        root = np.sqrt(p[dom])
        env.append(np.linalg.eigvalsh(root[:, None] * mask.domain_submatrix * root[None, :]))
    return entropy_bits(out) - entropy_bits(np.concatenate(env))


class TestThermalCoherentInformation:
    @pytest.mark.parametrize("s, n_bar, dim", [(0.2, 1.0, 80), (0.3, 2.0, 140), (0.1, 5.0, 186)])
    def test_masks_match_closed_form(self, s, n_bar, dim):
        # The thermal tail past dim is below 2e-15; (0.1, 5.0, 186) is at the
        # dim cap, which the property below does not reach.
        got = masks_coherent_information(s, n_bar, dim)
        assert abs(got - thermal_coherent_information(s, n_bar)) <= 1e-10

    @settings(derandomize=True, max_examples=15, deadline=None, database=None)
    @given(s=st.floats(0.1, 1.0), n_bar=st.floats(0.0, 5.0))
    def test_closed_form_over_std_dev_and_mean_photon_number(self, s, n_bar):
        # The output is thermal with mean n_bar + N, N = 2 s^2, so its level j
        # carries the factor r^j, r = 1 / (1 + 1 / (n_bar + N)); dim puts r^dim
        # below e^-36.  Draws that need more than 186 levels are skipped.
        dim = math.ceil(36.0 / math.log1p(1.0 / (n_bar + 2.0 * s * s))) + 1
        assume(dim <= 186)
        got = masks_coherent_information(s, n_bar, dim)
        assert abs(got - thermal_coherent_information(s, n_bar)) <= 1e-10


class TestMonteCarlo:
    def vacuum(self, dim):
        mat = np.zeros((dim, dim), dtype=complex)
        mat[0, 0] = 1.0
        return cc.DensityMatrix(mat)

    def test_bit_reproducible(self):
        params = fock.FockParams(dim=6, std_dev=0.3, mc_samples=5000, seed=7)
        a = fock.monte_carlo_channel(self.vacuum(6), params)
        b = fock.monte_carlo_channel(self.vacuum(6), params)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.standard_error, b.standard_error)

    def test_seed_changes_result(self):
        p7 = fock.FockParams(dim=6, std_dev=0.3, mc_samples=5000, seed=7)
        p8 = fock.FockParams(dim=6, std_dev=0.3, mc_samples=5000, seed=8)
        a = fock.monte_carlo_channel(self.vacuum(6), p7)
        b = fock.monte_carlo_channel(self.vacuum(6), p8)
        assert np.max(np.abs(a.mean - b.mean)) > 0.0

    def test_mean_is_nearly_hermitian_trace_one(self):
        params = fock.FockParams(dim=10, std_dev=0.3, mc_samples=20_000, seed=3)
        res = fock.monte_carlo_channel(self.vacuum(10), params)
        assert np.max(np.abs(res.mean - res.mean.conj().T)) < 1e-12
        # Truncation loses a little trace; it must not gain any.
        tr = np.trace(res.mean).real
        assert 0.99 < tr <= 1.0 + 1e-12

    def test_compare_to_decomposition(self):
        params = fock.FockParams(dim=10, std_dev=0.3, mc_samples=20_000, seed=11)
        rep = fock.compare_decomposition_to_mc(params, self.vacuum(10))
        assert rep.ok
        assert rep.max_entry_deviation <= rep.max_allowed

    @pytest.mark.parametrize("dim", [2, 4, 16, 32, 64])
    @pytest.mark.parametrize("rank", [1, 2, None])
    def test_compare_where_the_samples_do_not_vary(self, dim, rank):
        # At the smallest std_dev every displacement is the identity, so the
        # standard error and the truncation defect are 0 and only roundoff
        # separates the sampled mean from the prediction.
        rng = np.random.default_rng(dim)
        z = rng.standard_normal((dim, rank or dim)) + 1j * rng.standard_normal((dim, rank or dim))
        mat = z @ z.conj().T
        rho = cc.DensityMatrix((mat + mat.conj().T) / (2.0 * np.trace(mat).real))
        for state in (self.vacuum(dim), rho):
            params = fock.FockParams(dim=dim, std_dev=1.06e-154, mc_samples=100, seed=dim)
            rep = fock.compare_decomposition_to_mc(params, state)
            assert rep.ok, rep.max_entry_deviation

    def test_a_state_of_another_dimension_is_refused_before_any_work(self, monkeypatch):
        # Before, monte_carlo_channel raised a bare ValueError, and the
        # comparison an IndexError from its prediction.
        def refuse(*args, **kwargs):
            raise AssertionError("work began on a state of the wrong dimension")

        monkeypatch.setattr(fock, "gaussian_decomposition", refuse)
        monkeypatch.setattr(fock, "_jacobi_eigenpairs", refuse)
        with pytest.raises(DimensionMismatch):
            fock.monte_carlo_channel(self.vacuum(5), fock.FockParams(dim=4, std_dev=0.5))
        with pytest.raises(DimensionMismatch):
            fock.compare_decomposition_to_mc(fock.FockParams(dim=4, std_dev=0.5), self.vacuum(3))

    def test_compare_returns_its_sample(self):
        params = fock.FockParams(dim=6, std_dev=0.3, mc_samples=2000, seed=5)
        rep = fock.compare_decomposition_to_mc(params, self.vacuum(6))
        direct = fock.monte_carlo_channel(self.vacuum(6), params)
        np.testing.assert_array_equal(rep.sampled.mean, direct.mean)
        np.testing.assert_array_equal(rep.sampled.standard_error, direct.standard_error)


@st.composite
def mc_states(draw, kind):
    """States for the factored Monte Carlo, rank 1, 2, 3 or full on dims 2-12.

    kind "rotated" is a mixture in a random basis, "diagonal" has exact-zero
    eigenvalues, and "negative" puts the eigenvalues outside the rank in
    [-EPS_PSD, 0).
    """
    dim = draw(st.integers(2, 12))
    rank = min(draw(st.sampled_from([1, 2, 3, dim])), dim)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "negative":
        rank = min(rank, dim - 1)
    weights = rng.uniform(0.1, 1.0, rank)
    negative = -EPS_PSD * rng.uniform(0.05, 0.95, dim - rank) if kind == "negative" else []
    weights = np.concatenate([weights * (1.0 - np.sum(negative)) / weights.sum(), negative])
    if kind == "diagonal":
        return cc.DensityMatrix(np.diag(rng.permutation(np.r_[weights, np.zeros(dim - rank)])))
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    basis = np.linalg.qr(z)[0][:, :weights.size]
    mat = (basis * weights) @ basis.conj().T
    return cc.DensityMatrix((mat + mat.conj().T) / 2.0)


class TestMonteCarloFactored:
    """The factored route against the D rho D^dag oracle on the same samples."""

    @pytest.mark.parametrize("samples", [1, 4095, 4096, 4097, 10_000])
    @pytest.mark.parametrize("kind", ["rotated", "diagonal", "negative"])
    @settings(derandomize=True, max_examples=8, deadline=None, database=None)
    @given(data=st.data(), std_dev=st.sampled_from([0.3, 0.5, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_full_displacement_oracle(self, kind, samples, data, std_dev, seed):
        rho = data.draw(mc_states(kind))
        params = fock.FockParams(dim=rho.dim, std_dev=std_dev, mc_samples=samples, seed=seed)
        got = fock.monte_carlo_channel(rho, params)
        want = monte_carlo_by_full_displacement(rho, params)
        assert got.samples == want.samples == samples
        np.testing.assert_allclose(got.mean, want.mean, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(got.standard_error, want.standard_error, rtol=0.0, atol=1e-13)

    def test_forms_no_dense_displacement(self, monkeypatch):
        # Every product with the generator's eigenbasis goes through
        # _real_product, and each carries the rank-3 factor (3 columns per
        # sample), never a dim x dim displacement; displacement_matrix, the
        # library's one builder of a dense D, is not called.
        def dense_displacement(*args):
            raise AssertionError("monte_carlo_channel built a dim x dim displacement")

        real_product = fock._real_product
        operands = []

        def record(a, z, out):
            operands.append(z.shape)
            return real_product(a, z, out)

        rho = cc.DensityMatrix(np.diag([0.5, 0.25, 0.25, 0.0, 0.0, 0.0]).astype(complex))
        params = fock.FockParams(dim=6, std_dev=0.5, mc_samples=5000, seed=9)
        want = monte_carlo_by_full_displacement(rho, params)
        monkeypatch.setattr(fock, "displacement_matrix", dense_displacement)
        monkeypatch.setattr(fock, "_real_product", record)
        got = fock.monte_carlo_channel(rho, params)
        np.testing.assert_allclose(got.mean, want.mean, rtol=0.0, atol=1e-13)
        # O^T on the three occupied levels, then O, per chunk of 4096 and 904.
        assert operands == [(3, 3, 4096), (6, 3, 4096), (3, 3, 904), (6, 3, 904)]

    @pytest.mark.parametrize("dim", [3, 5, 7])
    @pytest.mark.parametrize("std_dev", [0.5, 1e100])
    @pytest.mark.parametrize("rank", [1, 2, None])
    def test_odd_dims_and_phases_past_1e100(self, dim, std_dev, rank):
        # An odd dim puts an exact 0 in the middle of the symmetric spectrum,
        # and the mirrored lower half of e^{i r lam} must still match the
        # oracle's own phases; at std_dev 1e100 the arguments r lam pass 1e100.
        rng = np.random.default_rng(dim)
        z = rng.standard_normal((dim, rank or dim)) + 1j * rng.standard_normal((dim, rank or dim))
        mat = z @ z.conj().T
        rho = cc.DensityMatrix((mat + mat.conj().T) / (2.0 * np.trace(mat).real))
        params = fock.FockParams(dim=dim, std_dev=std_dev, mc_samples=4097, seed=dim)
        got = fock.monte_carlo_channel(rho, params)
        want = monte_carlo_by_full_displacement(rho, params)
        np.testing.assert_allclose(got.mean, want.mean, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(got.standard_error, want.standard_error, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("dim", [8, 16])
    @pytest.mark.parametrize("superposed", [False, True])
    def test_workload_shapes(self, dim, superposed):
        # The shapes of the benchmark's Monte Carlo items and of criterion 10:
        # the vacuum or (|0> + |1>) / sqrt(2), 1e5 samples, seed 424242.
        vec = np.zeros(dim, dtype=complex)
        vec[:2 if superposed else 1] = np.sqrt(0.5) if superposed else 1.0
        rho = cc.DensityMatrix(np.outer(vec, vec.conj()))
        params = fock.FockParams(dim=dim, std_dev=0.3, mc_samples=100_000, seed=424242)
        got = fock.monte_carlo_channel(rho, params)
        want = monte_carlo_by_full_displacement(rho, params)
        np.testing.assert_allclose(got.mean, want.mean, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(got.standard_error, want.standard_error, rtol=0.0, atol=1e-13)

    def test_prediction_equals_shift_products(self):
        # The report's deviation and ratio, recomputed from the dense
        # S_sigma (M_sigma * rho) S_sigma^dag sum, agree to the last bit.
        params = fock.FockParams(dim=8, std_dev=0.5, mc_samples=3000, seed=4)
        sup = np.zeros(8, dtype=complex)
        sup[0] = sup[1] = np.sqrt(0.5)
        rho = cc.DensityMatrix(np.outer(sup, sup.conj()))
        rep = fock.compare_decomposition_to_mc(params, rho)
        decomp = fock.gaussian_decomposition(params)
        predicted = sum(shift.matrix @ (mask.mask * rho.matrix) @ shift.matrix.conj().T
                        for shift, mask in decomp.sectors)
        dev = np.abs(predicted - rep.sampled.mean)
        td = decomp.truncation_defect
        allowed = np.maximum(3.0 * rep.sampled.standard_error,
                             np.maximum(td[:, None], td[None, :]))
        ratio = dev / allowed
        worst = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
        assert (rep.max_entry_deviation, rep.worst_ratio) == (dev[worst], ratio[worst])

    @pytest.mark.parametrize("dim", [16, 32])
    @pytest.mark.parametrize("vacuum", [True, False])
    def test_pure_states_past_the_property_dims(self, dim, vacuum):
        vec = np.zeros(dim, dtype=complex)
        if vacuum:
            vec[0] = 1.0
        else:
            rng = np.random.default_rng(dim)
            vec[:6] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            vec /= np.linalg.norm(vec)
        rho = cc.DensityMatrix(np.outer(vec, vec.conj()))
        params = fock.FockParams(dim=dim, std_dev=0.7, mc_samples=5000, seed=dim + 1)
        got = fock.monte_carlo_channel(rho, params)
        want = monte_carlo_by_full_displacement(rho, params)
        np.testing.assert_allclose(got.mean, want.mean, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(got.standard_error, want.standard_error, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("weights", [[1.0], [0.5, 0.3, 0.2]])
    def test_one_sample_has_zero_standard_error(self, weights):
        rho = cc.DensityMatrix(np.diag(np.r_[weights, np.zeros(6 - len(weights))]).astype(complex))
        params = fock.FockParams(dim=6, std_dev=0.5, mc_samples=1, seed=3)
        res = fock.monte_carlo_channel(rho, params)
        assert np.all(res.standard_error == 0.0)
        assert np.max(np.abs(res.mean)) > 0.0

    def test_pure_state_forms_no_chunk_product(self):
        # One (4096, 32, 32) complex chunk product alone is 64 MiB.
        dim = 32
        vac = np.zeros((dim, dim), dtype=complex)
        vac[0, 0] = 1.0
        rho = cc.DensityMatrix(vac)
        params = fock.FockParams(dim=dim, std_dev=0.5, mc_samples=4096, seed=1)
        tracemalloc.start()
        try:
            fock.monte_carlo_channel(rho, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096 * dim * dim * 16
