import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

import covchan as cc
from covchan import cli, fock
from covchan.channels import EPS_PSD
from covchan.errors import InvalidParameter, SectorOutOfRange

from conftest import monte_carlo_by_full_displacement


def laguerre_sum(j, alpha, x):
    """Explicit-sum oracle: L_j^(a)(x) = sum_i (-1)^i C(j+a, j-i) x^i / i!,
    summed exactly in rationals (in floats the cancelling terms lose ~1e-6 at j = 40)."""
    x = Fraction(x)
    return float(sum(
        (-1) ** i * math.comb(j + alpha, j - i) * x ** i / math.factorial(i)
        for i in range(j + 1)
    ))


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
        assert fock.laguerre(2, 1, 2.0) == pytest.approx(-1.0, abs=1e-14)

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
                    assert fock.laguerre(j, alpha, x) == pytest.approx(
                        laguerre_sum(j, alpha, x), rel=1e-12, abs=max(1e-12, 1e-15 * bound))

    def test_vectorized(self):
        x = np.linspace(0.0, 5.0, 7)
        out = fock.laguerre(3, 2, x)
        expected = [laguerre_sum(3, 2, xi) for xi in x]
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            fock.laguerre(-1, 0, 1.0)


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


def mask_entry(sigma, j, k, s):
    return float(fock.gaussian_mask_matrix(sigma, max(j, k) + 1 + sigma, s)[j, k])


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
    @given(s=st.floats(0.05, 1.0), data=st.data())
    def test_vacuum_output_is_thermal(self, s, data):
        # The additive-noise channel sends the vacuum to the thermal state with
        # mean photon number N = 2 s^2, so M_a(0, 0) = M_{-a}(a, a) = N^a / (1+N)^(a+1).
        # The rule is exact for these degree-a integrands at every dim.
        dim = data.draw(st.integers(2, 120), label="dim")
        a = data.draw(st.integers(0, dim - 1), label="a")
        n_th = 2.0 * s * s
        want = n_th ** a / (1.0 + n_th) ** (a + 1)
        assert abs(fock.gaussian_mask_matrix(a, dim, s)[0, 0] - want) <= 1e-12
        assert abs(fock.gaussian_mask_matrix(-a, dim, s)[a, a] - want) <= 1e-12

    @pytest.mark.parametrize("sigma", [0, 1, 3])
    def test_entries_against_adaptive_quadrature(self, sigma):
        s = 0.5
        for j, k in [(0, 0), (1, 2), (3, 3), (0, 4)]:
            got = mask_entry(sigma, j, k, s)
            assert got == pytest.approx(self.mask_entry_oracle(sigma, j, k, s),
                                        rel=1e-9, abs=1e-12)

    def test_matrix_agrees_with_entries(self):
        s, dim, sigma = 0.4, 6, 2
        mat = fock.gaussian_mask_matrix(sigma, dim, s)
        for j in range(dim - sigma):
            for k in range(dim - sigma):
                assert mat[j, k] == pytest.approx(
                    mask_entry(sigma, j, k, s), abs=1e-12)

    def test_masks_psd(self):
        for sigma in (-2, 0, 3):
            mat = fock.gaussian_mask_matrix(sigma, 10, 0.7)
            assert np.linalg.eigvalsh((mat + mat.T) / 2.0).min() >= -1e-12

    def test_negative_sector_is_shifted_copy(self):
        # The sign factors square away, so M_{-a} is M_{+a} moved down-right.
        a, dim, s = 2, 8, 0.6
        plus = fock.gaussian_mask_matrix(a, dim, s)
        minus = fock.gaussian_mask_matrix(-a, dim, s)
        np.testing.assert_allclose(minus[a:, a:], plus[:dim - a, :dim - a],
                                   atol=1e-12)

    @pytest.mark.parametrize("dim", [4, 8, 12])
    def test_masks_against_exact_integration(self, dim):
        # dim nodes integrate every mask polynomial exactly, so only roundoff
        # separates the masks from the rational oracle.
        for s2 in (Fraction(9, 100), Fraction(1, 4), Fraction(9)):
            decomp = fock.gaussian_decomposition(
                fock.FockParams(dim=dim, std_dev=math.sqrt(s2)))
            for sigma in range(dim):
                np.testing.assert_allclose(
                    decomp.mask(sigma).mask.real, mask_by_exact_integration(sigma, dim, s2),
                    rtol=0.0, atol=1e-13, err_msg=f"s^2 = {s2}, sigma = {sigma}")


class TestGaussianDecomposition:
    def test_truncation_defect_profile(self):
        params = fock.FockParams(dim=16, std_dev=0.3)
        decomp = fock.gaussian_decomposition(params)
        td = decomp.truncation_defect
        assert td[0] < 1e-10
        assert td[-1] > td[0]

    def test_masks_equal_mask_matrix(self):
        params = fock.FockParams(dim=12, std_dev=0.5)
        decomp = fock.gaussian_decomposition(params)
        for sigma in range(-params.sigma_max, params.sigma_max + 1):
            np.testing.assert_array_equal(
                decomp.mask(sigma).mask,
                fock.gaussian_mask_matrix(sigma, 12, 0.5))

    def test_mask_lookup(self):
        params = fock.FockParams(dim=6, std_dev=0.5, sigma_max=2)
        decomp = fock.gaussian_decomposition(params)
        assert len(decomp.masks) == 5
        assert decomp.mask(-2).sigma == -2.0
        with pytest.raises(SectorOutOfRange):
            decomp.mask(3)

    def test_view_as_sector_decomposition(self):
        params = fock.FockParams(dim=8, std_dev=0.3)
        sd = fock.gaussian_decomposition(params).to_sector_decomposition()
        chan = cc.reconstruct(sd)
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

    def test_checks_each_distinct_block_once(self, monkeypatch):
        # M_a and M_{-a} share one block: sigma_max + 1 eigensolves, not 2 sigma_max + 1.
        params = fock.FockParams(dim=12, std_dev=0.5, sigma_max=7)
        nodes = fock._quad_nodes(params.std_dev, params.dim)  # laggauss solves its own eigenproblem
        monkeypatch.setattr(fock, "_quad_nodes", lambda s, dim: nodes)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
        decomp = fock.gaussian_decomposition(params)
        assert sorted(calls) == [(12 - a, 12 - a) for a in range(7, -1, -1)]
        for a in range(1, 8):
            assert decomp.mask(-a).domain_submatrix is decomp.mask(a).domain_submatrix
            assert decomp.mask(-a).domain == tuple(range(a, 12))

    def test_large_dim_is_finite(self):
        # Past the old 93-level cap: the dim-node rule exists up to dim 186.
        decomp = fock.gaussian_decomposition(fock.FockParams(dim=120, std_dev=1.0))
        assert all(np.all(np.isfinite(m.mask)) for m in decomp.masks)
        assert decomp.mask(0).mask[0, 0].real == pytest.approx(1.0 / 3.0, abs=1e-12)


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
        def dense_displacements(*args):
            raise AssertionError("monte_carlo_channel built dim x dim displacements")

        rho = cc.DensityMatrix(np.diag([0.5, 0.25, 0.25, 0.0, 0.0, 0.0]).astype(complex))
        params = fock.FockParams(dim=6, std_dev=0.5, mc_samples=5000, seed=9)
        want = monte_carlo_by_full_displacement(rho, params)
        monkeypatch.setattr(fock, "_displacement_batch", dense_displacements)
        got = fock.monte_carlo_channel(rho, params)
        np.testing.assert_allclose(got.mean, want.mean, rtol=0.0, atol=1e-13)

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
                        for shift, mask in decomp.to_sector_decomposition().sectors)
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
