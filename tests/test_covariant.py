import numpy as np
import pytest

import covchan as cc
from covchan import channels as mcore
from covchan import covariant as cov
from covchan import fock
from covchan import generate as gen
from covchan import serialize as ser
from covchan.errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    InvalidParameter,
    MaskNotPSD,
    NotCovariant,
    UnknownSector,
)

from conftest import (
    FIXTURES,
    amplitude_damping,
    dephasing_channel,
    evolve_matrix,
    scatter_projection_defect,
    sector_channel,
)


def spectrum4():
    return cc.Spectrum(np.arange(4.0))


class TestSpectrum:
    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateSpectrum):
            cc.Spectrum(np.array([0.0, 0.0, 1.0]))

    def test_rejects_decreasing(self):
        with pytest.raises(DegenerateSpectrum):
            cc.Spectrum(np.array([1.0, 0.0]))

    def test_default_match_tol_scales_with_energy(self):
        spec = cc.Spectrum(np.array([0.0, 1e6]))
        assert spec.match_tol == pytest.approx(1e-3)

    def test_rejects_chained_sector_with_repeated_level(self):
        # Differences 1 - 0.8e-9, 1, 1 + 0.7e-9, 1 + 1.5e-9 chain into one
        # sector holding pairs (1, 0) and (2, 0): input level 0 twice.
        with pytest.raises(DegenerateSpectrum):
            cc.Spectrum(np.array([0.0, 1.0, 1.0 + 1.5e-9, 2.0 + 0.7e-9]), match_tol=1e-9)


class TestEnergyDifferences:
    def test_qubit(self, qubit_spectrum):
        np.testing.assert_array_equal(
            qubit_spectrum.sigmas, [-1.0, 0.0, 1.0])

    def test_linear_spectrum(self):
        np.testing.assert_array_equal(
            spectrum4().sigmas, np.arange(-3.0, 4.0))

    def test_generic_spectrum_count(self):
        # energies 0, 1, 2.5 give differences {0, +-1, +-1.5, +-2.5}
        spec = cc.Spectrum(np.array([0.0, 1.0, 2.5]))
        assert spec.sigmas.size == 7

    def test_near_equal_diffs_merge(self):
        spec = cc.Spectrum(np.array([0.0, 1.0, 2.0 + 1e-12]))
        diffs = spec.sigmas
        # 2.0 - 1.0 and (2 + 1e-12) - 1.0 collapse into one sigma
        assert diffs.size == 5


class TestPartialShift:
    def test_sigma_zero_is_identity(self):
        sh = cov.partial_shift(spectrum4(), 0.0)
        np.testing.assert_array_equal(sh.matrix, np.eye(4))
        assert sh.domain == (0, 1, 2, 3)

    def test_raising_shift(self):
        sh = cov.partial_shift(spectrum4(), 1.0)
        expected = np.diag(np.ones(3), -1)
        np.testing.assert_array_equal(sh.matrix, expected)
        assert sh.domain == (0, 1, 2)

    def test_lowering_shift_domain(self):
        sh = cov.partial_shift(spectrum4(), -2.0)
        assert sh.domain == (2, 3)
        assert sh.matrix[0, 2] == 1.0 and sh.matrix[1, 3] == 1.0

    def test_partial_isometry_on_domain(self):
        for sigma in (-3.0, -1.0, 2.0):
            sh = cov.partial_shift(spectrum4(), sigma)
            gram = sh.matrix.conj().T @ sh.matrix
            dom = np.zeros(4)
            dom[list(sh.domain)] = 1.0
            np.testing.assert_array_equal(gram, np.diag(dom))


class TestCovarianceDefect:
    def test_amplitude_damping_is_covariant(self, qubit_spectrum):
        assert cov.covariance_defect(amplitude_damping(0.3), qubit_spectrum) < 1e-14

    def test_hadamard_gate_is_not(self, qubit_spectrum):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        defect = cov.covariance_defect(cc.Channel((h.astype(complex),)), qubit_spectrum)
        assert abs(defect - 0.5) < 1e-12

    def test_random_covariant_channels(self, rng):
        spec = spectrum4()
        for _ in range(5):
            chan = gen.random_covariant(spec, rng)
            assert cov.covariance_defect(chan, spec) < 1e-12

    def test_commutes_with_evolution(self, rng):
        # Direct operational check: G(alpha_t rho) = alpha_t G(rho).
        spec = spectrum4()
        chan = gen.random_covariant(spec, rng)
        rho = gen.random_state(4, rng)
        for t in (0.3, 1.7):
            lhs = cc.apply(chan, cc.DensityMatrix(evolve_matrix(spec, t, rho.matrix))).matrix
            rhs = evolve_matrix(spec, t, cc.apply(chan, rho).matrix)
            assert np.linalg.norm(lhs - rhs) < 1e-10


class TestDecompose:
    def test_amplitude_damping_masks(self, qubit_spectrum):
        # Worked by hand from the Kraus operators: the sigma = 0 sector keeps
        # A0, the sigma = -1 sector keeps A1.
        gamma = 0.3
        decomp = cov.decompose(amplitude_damping(gamma), qubit_spectrum)
        _, m0 = decomp.sector(0.0)
        root = np.sqrt(1.0 - gamma)
        np.testing.assert_allclose(
            m0.mask, [[1.0, root], [root, 1.0 - gamma]], atol=1e-12)
        _, mm1 = decomp.sector(-1.0)
        np.testing.assert_allclose(mm1.mask, [[0.0, 0.0], [0.0, gamma]], atol=1e-12)

    def test_dephasing_single_sector(self, qubit_spectrum):
        decomp = cov.decompose(dephasing_channel(), qubit_spectrum)
        assert decomp.sigmas().tolist() == [0.0]
        np.testing.assert_allclose(decomp.sector(0.0)[1].mask, np.eye(2), atol=1e-13)

    def test_rejects_non_covariant(self, qubit_spectrum):
        h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
        with pytest.raises(NotCovariant):
            cov.decompose(cc.Channel((h,)), qubit_spectrum)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_tolerance_outside_finite_nonnegative(self, tol):
        # NaN or inf would switch the covariance check off, a negative tol
        # would reject an exactly covariant channel.
        chan = gen.random_cptp(3, np.random.default_rng(0))
        with pytest.raises(InvalidParameter):
            cov.decompose(chan, cc.Spectrum(np.arange(3.0)), tol=tol)

    def test_zero_map(self, qubit_spectrum):
        decomp = cov.decompose(cc.Channel((np.zeros((2, 2), dtype=complex),)), qubit_spectrum)
        assert decomp.sectors == ()
        assert decomp.projection_defect == 0.0
        np.testing.assert_array_equal(decomp.diagonal_sums(), [0.0, 0.0])
        recon = cov.reconstruct(decomp)
        assert len(recon.kraus) == 1
        np.testing.assert_array_equal(recon.kraus[0], np.zeros((2, 2)))
        assert cov.shift_distribution(decomp, cc.DensityMatrix(np.eye(2) / 2)).pairs == ()

    def test_unknown_sector(self, qubit_spectrum):
        decomp = cov.decompose(dephasing_channel(), qubit_spectrum)
        with pytest.raises(UnknownSector):
            decomp.sector(7.0)
        with pytest.raises(UnknownSector):  # a difference of the spectrum with no kept sector
            decomp.sector(1.0)

    def test_tp_identity(self, rng):
        # Trace preservation forces sum_sigma M_sigma(j, j) = 1 at every level.
        spec = cc.Spectrum(np.arange(5.0))
        for _ in range(5):
            decomp = cov.decompose(gen.random_covariant(spec, rng), spec)
            diag = np.zeros(5)
            for _, mask in decomp.sectors:
                diag += np.real(np.diag(mask.mask))
            np.testing.assert_allclose(diag, 1.0, atol=1e-10)

    def test_round_trip(self, rng):
        for dim in (2, 3, 5):
            spec = cc.Spectrum(np.arange(float(dim)))
            chan = gen.random_covariant(spec, rng)
            decomp = cov.decompose(chan, spec)
            dist = np.linalg.norm(
                mcore.choi_of(cov.reconstruct(decomp)).matrix
                - mcore.choi_of(chan).matrix)
            assert dist < 1e-10
            assert decomp.projection_defect < 1e-10

    def test_masks_are_psd(self, rng):
        spec = spectrum4()
        decomp = cov.decompose(gen.random_covariant(spec, rng), spec)
        for _, mask in decomp.sectors:
            sub = mask.domain_submatrix
            assert np.linalg.eigvalsh(sub).min() >= -1e-9

    def test_chained_differences_form_one_sector(self):
        # The four sigma ~ 1 differences 1, 1 + 0.9e-9, 1 + 1.8e-9, 1 + 2.7e-9
        # chain within match_tol into one sector over input levels 0..3.
        spec = cc.Spectrum(np.array([0.0, 1.0, 2.0 + 0.9e-9, 3.0 + 2.7e-9, 4.0 + 5.4e-9]),
                           match_tol=1e-9)
        up = np.diag(np.ones(4), -1).astype(complex)
        top = np.zeros((5, 5), dtype=complex)
        top[4, 4] = 1.0
        chan = cc.Channel((up, top))
        assert cov.covariance_defect(chan, spec) == 0.0
        decomp = cov.decompose(chan, spec)
        assert decomp.sigmas() == pytest.approx([0.0, 1.0])
        shift, mask = decomp.sector(decomp.sigmas()[1])
        assert shift.domain == (0, 1, 2, 3)
        np.testing.assert_array_equal(shift.matrix, up)
        np.testing.assert_allclose(mask.domain_submatrix, np.ones((4, 4)), atol=1e-15)
        assert decomp.projection_defect < 1e-15

    def test_each_sector_keeps_its_own_shift(self):
        # The sector of -2 - 1.5e-9 starts exactly match_tol above the top of
        # the sector {-2 - 3.375e-9, -2 - 2.5e-9}, so its sigma lies within
        # match_tol of both; a lookup by sigma finds the lower one.
        spec = cc.Spectrum(np.array([0.0, 1.0000000005, 2.0000000015, 3.0000000030000002,
                                     4.000000004875]), match_tol=1e-9)
        decomp = cov.decompose(gen.random_covariant(spec, np.random.default_rng(0)), spec)
        got = [(shift.domain, shift.image) for shift, _ in decomp.sectors]
        assert got == [(tuple((p % 5).tolist()), tuple((p // 5).tolist()))
                       for p in spec.sector_pairs]
        assert got[4] == ((2,), (0,))

    def test_kraus_gauge_independence(self, rng):
        # Mixing the Kraus family by an isometry leaves the Choi matrix and
        # hence the extracted masks unchanged.
        spec = spectrum4()
        chan = gen.random_covariant(spec, rng)
        k = len(chan.kraus)
        u = gen.random_unitary(k, rng)
        mixed = cc.Channel(tuple(
            sum(u[a, b] * chan.kraus[b] for b in range(k)) for a in range(k)
        ))
        d1 = cov.decompose(chan, spec)
        d2 = cov.decompose(mixed, spec)
        for s in d1.sigmas():
            np.testing.assert_allclose(
                d1.sector(s)[1].mask, d2.sector(s)[1].mask, atol=1e-10)


class TestProjectionDefect:
    @pytest.mark.parametrize("scale", [1.0, 0.9])
    @pytest.mark.parametrize("eps", [1e-12, 1e-11])
    def test_matches_scatter_oracle(self, eps, scale):
        # Kraus operators perturbed off covariance by eps; scale 1 keeps the
        # channel trace preserving within EPS_TP (the masks are renormalised),
        # scale 0.9 does not.
        rng = np.random.default_rng(11)
        for n in range(2, 13):
            spec = cc.Spectrum(np.arange(float(n)))
            ops = [scale * k + eps * (rng.normal(size=k.shape) + 1j * rng.normal(size=k.shape))
                   for k in gen.random_covariant(spec, rng).kraus]
            chan = cc.Channel(tuple(ops))
            decomp = cov.decompose(chan, spec)
            want = scatter_projection_defect(chan, decomp)
            assert want > 0.0
            assert abs(decomp.projection_defect - want) <= 1e-14 * want

    def test_matches_scatter_oracle_with_dropped_sectors(self):
        # A second Kraus operator of size 1e-7 puts ~1e-14 in every Choi
        # entry: every sector but sigma = 0 falls below the 1e-13 floor and is
        # dropped, and its Choi block counts in full.
        rng = np.random.default_rng(12)
        for n in range(2, 9):
            spec = cc.Spectrum(np.arange(float(n)))
            noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            chan = cc.Channel((np.eye(n, dtype=complex), 1e-7 * noise))
            decomp = cov.decompose(chan, spec)
            assert decomp.sigmas().tolist() == [0.0]
            want = scatter_projection_defect(chan, decomp)
            assert abs(decomp.projection_defect - want) <= 1e-14 * want

    @pytest.mark.parametrize("name,spectrum", [
        ("amplitude_damping_0.3", "spectrum_2level"),
        ("amplitude_damping_0.5", "spectrum_2level"),
        ("dephasing_channel", "spectrum_2level"),
        ("identity_channel", "spectrum_2level"),
        ("shift_mixture_channel", "spectrum_4level"),
    ])
    def test_zero_on_covariant_fixtures(self, name, spectrum):
        chan = ser.channel_from_json(ser.load_json(FIXTURES / f"{name}.json"))
        spec = ser.spectrum_from_json(ser.load_json(FIXTURES / f"{spectrum}.json"))
        decomp = cov.decompose(chan, spec)
        assert decomp.projection_defect == 0.0
        assert scatter_projection_defect(chan, decomp) == 0.0

    def test_decompose_builds_no_scattered_choi_matrix(self, monkeypatch):
        spec = cc.Spectrum(np.arange(6.0))
        ops = [k + 1e-12 for k in gen.random_covariant(spec, np.random.default_rng(3)).kraus]

        def refuse(sectors, n):
            raise AssertionError("decompose scattered the masks into a Choi matrix")

        monkeypatch.setattr(cov, "_scatter", refuse)
        decomp = cov.decompose(cc.Channel(tuple(ops)), spec)
        assert 0.0 < decomp.projection_defect < 1e-10


class TestShiftDistribution:
    def test_amplitude_damping_excited_input(self, qubit_spectrum):
        gamma = 0.3
        decomp = cov.decompose(amplitude_damping(gamma), qubit_spectrum)
        rho = cc.DensityMatrix(np.diag([0.0, 1.0]))
        dist = cov.shift_distribution(decomp, rho)
        assert dist.probability(0.0) == pytest.approx(1.0 - gamma, abs=1e-12)
        assert dist.probability(-1.0) == pytest.approx(gamma, abs=1e-12)

    def test_probabilities_sum_to_one(self, rng):
        spec = spectrum4()
        decomp = cov.decompose(gen.random_covariant(spec, rng), spec)
        rho = gen.random_state(4, rng)
        dist = cov.shift_distribution(decomp, rho)
        assert sum(p for _, p in dist.pairs) == pytest.approx(1.0, abs=1e-10)

    def test_matches_sector_traces(self, rng):
        spec = spectrum4()
        decomp = cov.decompose(gen.random_covariant(spec, rng), spec)
        rho = gen.random_state(4, rng)
        dist = cov.shift_distribution(decomp, rho)
        for s in decomp.sigmas():
            direct = np.real(np.trace(
                mcore.apply_matrix(sector_channel(decomp, s), rho.matrix)))
            assert dist.probability(float(s)) == pytest.approx(direct, abs=1e-10)

    def test_probability_matches_within_spectrum_tolerance(self, rng):
        # The sector of 0.1 is clustered from 0.1, 0.2 - 0.1 and 0.3 - 0.2, so
        # its sigma is a float mean that need not equal the literal 0.1.
        spec = cc.Spectrum(np.array([0.0, 0.1, 0.2, 0.3]))
        decomp = cov.decompose(gen.random_covariant(spec, rng), spec)
        dist = cov.shift_distribution(decomp, gen.random_state(4, rng))
        shift, _ = decomp.sector(0.1)
        assert shift.sigma != 0.1
        p = dict(dist.pairs)[shift.sigma]
        assert p > 0.0
        assert dist.probability(0.1) == p


class TestSigmaLookup:
    def test_chained_sector_found_by_every_lookup(self):
        # The sigma ~ 1 differences 1, 1 + d, ..., 1 + 4d chain within match_tol
        # into one sector; its mean 1 + 2d lies 1.6e-9 > match_tol from both ends.
        d = 0.8e-9
        spec = cc.Spectrum(np.array([0.0, 1.0, 10.0, 11.0 + d, 30.0, 31.0 + 2 * d,
                                     70.0, 71.0 + 3 * d, 150.0, 151.0 + 4 * d]), match_tol=1e-9)
        chan = gen.random_covariant(spec, np.random.default_rng(0), kraus_count=2)
        decomp = cov.decompose(chan, spec)
        dist = cov.shift_distribution(decomp, gen.random_state(10, np.random.default_rng(1)))
        for sigma in (1.0, 1.0 + 4 * d):
            shift, _ = decomp.sector(sigma)
            assert shift.domain == cov.partial_shift(spec, sigma).domain == (0, 2, 4, 6, 8)
            assert dist.probability(sigma) == dict(dist.pairs)[shift.sigma] > 0.0

    def test_distribution_without_spectrum_matches_exactly(self):
        dist = cov.EnergyShiftDistribution(pairs=((0.1, 0.25), (1.0, 0.75)))
        assert dist.probability(0.1) == 0.25
        assert dist.probability(np.nextafter(0.1, 1.0)) == 0.0
        assert dist.probability(2.0) == 0.0


class TestCharacteristicFunction:
    def test_fourier_series_identity(self, rng):
        # f(t) must equal the finite Fourier series over sector traces.
        spec = spectrum4()
        chan = gen.random_covariant(spec, rng)
        decomp = cov.decompose(chan, spec)
        rho = gen.random_state(4, rng)
        K = gen.random_psd(4, rng)
        for t in (0.0, 0.4, 2.9):
            f = cov.characteristic_function(chan, spec, K, rho, t)
            series = 0.0 + 0.0j
            for s in decomp.sigmas():
                coeff = np.trace(K @ mcore.apply_matrix(
                    sector_channel(decomp, float(s)), rho.matrix))
                series += coeff * np.exp(1j * s * t)
            assert abs(f - series) < 1e-10

    def test_t_zero_is_expectation(self, rng):
        chan = gen.random_covariant(spectrum4(), rng)
        rho = gen.random_state(4, rng)
        K = gen.random_psd(4, rng)
        f0 = cov.characteristic_function(chan, spectrum4(), K, rho, 0.0)
        expect = np.trace(K @ mcore.apply_matrix(chan, rho.matrix))
        assert abs(f0 - expect) < 1e-12

    def test_bochner_positive(self, rng):
        spec = spectrum4()
        chan = gen.random_covariant(spec, rng)
        rho = gen.random_state(4, rng)
        K = gen.random_psd(4, rng)
        times = rng.uniform(0.0, 2.0 * np.pi, size=6)
        assert cov.bochner_check(chan, spec, K, rho, times) >= -1e-9

    def test_domain_extension(self, rng):
        spec = spectrum4()
        decomp = cov.decompose(gen.random_covariant(spec, rng), spec)
        rho = gen.random_state(4, rng)
        for t in (0.1, 1.3, 5.0):
            assert cov.domain_extension_check(decomp, rho, t) < 1e-9


def sqrt_prime_spectrum(n):
    """Gaps sqrt(p) over the first n - 1 primes: n^2 - n + 1 sectors of 1x1 blocks."""
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)[: n - 1]
    return cc.Spectrum(np.concatenate([[0.0], np.cumsum(np.sqrt(primes))]))


class TestBlockStorage:
    @pytest.mark.parametrize("spec", [sqrt_prime_spectrum(6), spectrum4()],
                             ids=["sqrt_prime", "integer"])
    def test_decompose_checks_one_stack_per_domain_size(self, monkeypatch, rng, spec):
        chan = gen.random_covariant(spec, rng)
        eigvalsh, shapes = np.linalg.eigvalsh, []

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        decomp = cov.decompose(chan, spec)
        sizes = {len(shift.domain) for shift, _ in decomp.sectors}
        assert sorted(shape[1] for shape in shapes) == sorted(sizes)
        assert all(shape[1:] == (shape[1], shape[1]) for shape in shapes)
        assert sum(shape[0] for shape in shapes) == len(decomp.sectors)

    def test_decompose_reads_shifts_from_the_sector_map(self, monkeypatch, rng):
        spec = sqrt_prime_spectrum(6)
        chan = gen.random_covariant(spec, rng)
        want = [(shift.sigma, shift.domain, shift.image)
                for shift, _ in cov.decompose(chan, spec).sectors]

        def refuse(spectrum, sigma):
            raise AssertionError("decompose searched the spectrum for a sigma")

        monkeypatch.setattr(cov, "partial_shift", refuse)
        decomp = cov.decompose(chan, spec)
        assert [(s.sigma, s.domain, s.image) for s, _ in decomp.sectors] == want
        assert len(want) == 31

    def test_consumers_read_the_blocks_only(self, monkeypatch, rng):
        def dense_view(self):
            raise AssertionError("a dense n x n view was built")

        monkeypatch.setattr(cov.SectorMask, "mask", property(dense_view))
        monkeypatch.setattr(cov.PartialShift, "matrix", property(dense_view))
        for spec in (spectrum4(), sqrt_prime_spectrum(4)):
            decomp = cov.decompose(gen.random_covariant(spec, rng), spec)
            rho = gen.random_state(spec.dim, rng)
            cov.reconstruct(decomp)
            cov.shift_distribution(decomp, rho)
            cov.domain_extension_check(decomp, rho, 0.7)
        params = fock.FockParams(dim=6, std_dev=0.5, mc_samples=200)
        fock.gaussian_decomposition(params)
        vacuum = np.zeros((6, 6), dtype=complex)
        vacuum[0, 0] = 1.0
        fock.compare_decomposition_to_mc(params, cc.DensityMatrix(vacuum))

    def test_views_place_the_block_on_the_domain(self):
        spec = spectrum4()
        shift = cov.partial_shift(spec, -2.0)
        block = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
        mask = cov.SectorMask(sigma=-2.0, domain_submatrix=block, domain=shift.domain, dim=4)
        dense = np.zeros((4, 4), dtype=complex)
        dense[2:, 2:] = block
        np.testing.assert_array_equal(mask.mask, dense)
        assert shift.image == (0, 1)
        np.testing.assert_array_equal(shift.matrix, np.eye(4, k=2))

    @pytest.mark.parametrize("block, error", [(np.eye(3), DimensionMismatch),
                                              (np.array([[1.0, 1.0], [0.0, 1.0]]), MaskNotPSD),
                                              (np.array([[1.0, 2.0], [2.0, 1.0]]), MaskNotPSD)])
    def test_construction_checks_the_block(self, block, error):
        with pytest.raises(error):
            cov.SectorMask(sigma=-2.0, domain_submatrix=block, domain=(2, 3), dim=4)
