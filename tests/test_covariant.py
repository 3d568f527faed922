import tracemalloc

import numpy as np
import pytest

import covchan as cc
from covchan import channels as mcore
from covchan import covariant as cov
from covchan import fock
from covchan import generate as gen
from covchan import serialize as ser
from covchan import timing as tim
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
    bochner_by_dense_applications,
    characteristic_by_dense_application,
    decompose_per_sector,
    dephasing_channel,
    evolve_matrix,
    largest_held_beside_stack,
    mask_failure_by_eigvalsh,
    refuse_mask_check,
    scatter_projection_defect,
    sector_channel,
    sha256_of,
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

    @pytest.mark.parametrize("energies", [[-1e308, 1e308], [-1e308, 0.0, 1e308], [1e308, -1e308]])
    def test_rejects_an_energy_span_past_any_double(self, energies):
        # Each energy is finite, but their differences overflowed: two RuntimeWarnings,
        # and three levels gave sigmas [-inf, -inf, 0, inf, inf].
        with pytest.raises(DegenerateSpectrum, match="span"):
            cc.Spectrum(energies)

    def test_default_match_tol_scales_with_energy(self):
        spec = cc.Spectrum(np.array([0.0, 1e6]))
        assert spec.match_tol == pytest.approx(1e-3)

    @pytest.mark.parametrize("k", [-30, -40])
    def test_default_match_tol_is_relative_below_one(self, k):
        # It was 1e-9 * max(1, max|E|): gaps of 2^-30 fell below it and raised.
        spec = cc.Spectrum(2.0**k * np.arange(4.0))
        assert spec.match_tol == 1e-9 * 3.0 * 2.0**k
        assert cc.Spectrum([0.0]).match_tol == 1e-9  # the one level at 0

    @pytest.mark.parametrize("match_tol", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_match_tol(self, match_tol):
        # NaN once passed every comparison and failed later as a level held
        # twice "within match_tol nan"; inf reported "gaps > inf".
        with pytest.raises(InvalidParameter, match="match_tol must be finite"):
            cc.Spectrum(np.array([0.0, 1.0]), match_tol=match_tol)

    @pytest.mark.parametrize("energies", [np.array([0, 1 + 1j, 2]), ["a"], [[0.0], [1.0, 2.0]],
                                          [0, 10**400], [0, True],
                                          np.array([0, True], dtype=object), [True, 1.5]],
                             ids=["complex", "text", "ragged", "huge-int", "int-bool",
                                  "object-bool", "bool-float"])
    def test_rejects_energies_that_are_not_real_numbers(self, energies):
        # Complex energies were read as their real parts with a ComplexWarning,
        # text, ragged lists and huge ints raised builtin errors, and numpy read
        # a bool among numbers as 0 or 1.
        with pytest.raises(DegenerateSpectrum, match="real energies"):
            cc.Spectrum(energies)

    @pytest.mark.parametrize("match_tol", ["x", "1e-3", 1 + 1j, True, 10**400, [1e-9]])
    def test_rejects_a_match_tol_that_is_not_a_real_number(self, match_tol):
        with pytest.raises(InvalidParameter, match="match_tol must be a real number"):
            cc.Spectrum(np.array([0.0, 1.0]), match_tol=match_tol)

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_sector_pairs_are_read_only_views_of_one_flat_map(self, n):
        # The clusters' pairs are split from one read-only array, which the
        # spectrum's tables hold as it is, with the clusters' starts.
        spec = cc.Spectrum(np.r_[0.0, np.cumsum(np.sqrt(np.arange(2.0, n + 1)))])
        order, sizes, starts, flat, sector = (spec._by_size, spec._sizes, spec._starts, spec._flat,
                                              spec._cluster)
        np.testing.assert_array_equal(flat, np.concatenate(spec.sector_pairs))
        np.testing.assert_array_equal(sizes, [pairs.size for pairs in spec.sector_pairs])
        np.testing.assert_array_equal(order, np.argsort(sizes, kind="stable"))
        for i, pairs in enumerate(spec.sector_pairs):
            assert not pairs.flags.writeable and pairs.base is flat
            assert pairs.size == 0 or flat[starts[i]] == pairs[0]
            assert (sector[pairs] == i).all()
        assert not any(arr.flags.writeable for arr in (order, sizes, starts, flat, sector))
        assert "_tables" not in dir(spec)

    def test_owns_a_read_only_copy_of_its_energies(self):
        # The caller's array was kept and made read-only.
        energies = np.arange(3.0)
        spec = cc.Spectrum(energies)
        assert energies.flags.writeable and not spec.energies.flags.writeable
        sigmas = spec.sigmas.copy()
        energies[:] = [0.0, 5.0, 7.0]
        np.testing.assert_array_equal(spec.energies, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(spec.sigmas, sigmas)

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

    def test_shift_mixture_needs_no_full_choi_matrix(self, monkeypatch):
        # A K = 3 shift mixture at n = 64 touches 189 of the 4096 Choi pairs;
        # the 4096 x 4096 Choi matrix (256 MiB) is never built.
        spec = cc.Spectrum(np.arange(64.0))
        chan = tim.build_shift_mixture(spec, [(0.0, 0.5), (2.0, 0.3), (-1.0, 0.2)]).channel

        def refuse(channel):
            raise AssertionError("built the full Choi matrix")

        monkeypatch.setattr(mcore, "choi_of", refuse)
        tracemalloc.start()
        try:
            defect = cov.covariance_defect(chan, spec)
            decomp = cov.decompose(chan, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert defect == 0.0
        assert [len(shift.domain) for shift, _ in decomp.sectors] == [63, 64, 62]
        assert peak < 16 * 2**20

    def test_pipeline_forms_the_choi_matrix_once_with_no_eigensolve(self, monkeypatch,
                                                                    choi_products):
        # is_cptp, covariance_defect and decompose on a dense n = 16 channel
        # (K = |S| = 256), in either order of the last two, form the Choi matrix
        # once, for the label's blocks, and keep no 256 x 256 array; is_cptp does
        # not read it: the Gram rounding bound on the operators proves both the
        # Choi matrix and the masks.
        spec = cc.Spectrum(np.arange(16.0))

        def refuse(*args, **kwargs):
            raise AssertionError("the pipeline ran eigvalsh")

        for defect_first in (True, False):
            chan = gen.random_covariant(spec, np.random.default_rng(16))
            assert chan._support.size == len(chan.kraus) == 256
            choi_products.sizes.clear()
            with monkeypatch.context() as patched:
                patched.setattr(np.linalg, "eigvalsh", refuse)
                report = cc.is_cptp(chan)
                if defect_first:
                    cov.covariance_defect(chan, spec)
                decomp = cov.decompose(chan, spec)
                defect = cov.covariance_defect(chan, spec)
                cov.decompose(chan, spec)
            assert choi_products.sizes == [256]
            assert report.cp_defect == 0.0 and defect <= 1e-10
            assert len(decomp.sectors) == 31
            assert largest_held_beside_stack(chan) < 256 * 256

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

    def test_sigma_within_match_tol_of_two_spans_names_the_nearer(self):
        # Cluster 8 (domain (0,)) starts match_tol above the top of cluster 7
        # (domain (1, 2)), so sigmas[8] lies within match_tol of both spans.
        spec = cc.Spectrum(np.array([4.125e-09, 1.00000000675, 2.000000008625,
                                     3.000000010125, 4.000000012125]), match_tol=1e-9)
        assert [spec._cluster_at(s) for s in spec.sigmas] == list(range(11))
        assert cov.partial_shift(spec, spec.sigmas[8]).domain == (0,)
        decomp = cov.decompose(gen.random_covariant(spec, np.random.default_rng(0)), spec)
        back = ser.decomposition_from_json(ser.decomposition_to_json(decomp))
        assert sha256_of(back.sectors) == sha256_of(decomp.sectors)

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

    def test_no_channel_application(self, rng, monkeypatch):
        # One weight matrix per call: the dense route's apply_matrix never runs.
        spec = spectrum4()
        chan = gen.random_covariant(spec, rng)
        rho = gen.random_state(4, rng)
        K = gen.random_psd(4, rng)
        times = rng.uniform(0.0, 2.0 * np.pi, size=8)
        f = characteristic_by_dense_application(chan, spec, K, rho, 0.7)
        low = bochner_by_dense_applications(chan, spec, K, rho, times)

        def refuse(*args, **kwargs):
            raise AssertionError("dense channel application")

        monkeypatch.setattr(mcore, "apply_matrix", refuse)
        assert abs(cov.characteristic_function(chan, spec, K, rho, 0.7) - f) <= 1e-12
        assert cov.bochner_check(chan, spec, K, rho, times) == pytest.approx(low, abs=1e-12)

    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan, 1e308])
    def test_characteristic_function_refuses_a_non_finite_phase(self, rng, t):
        # E_k t overflows at 1e308 (E_3 = 3); before, inf returned NaN with a RuntimeWarning.
        chan = gen.random_covariant(spectrum4(), rng)
        with pytest.raises(InvalidParameter, match="phase"):
            cov.characteristic_function(chan, spectrum4(), gen.random_psd(4, rng),
                                        gen.random_state(4, rng), t)

    @pytest.mark.parametrize("times", [[0.0, np.nan], [np.inf, 1.0], [-1e308, 1e308], [0.0, 1e308]],
                             ids=["nan", "inf", "difference-overflows", "phase-overflows"])
    def test_bochner_check_refuses_a_non_finite_phase(self, rng, times):
        # A NaN time returned nan before.
        chan = gen.random_covariant(spectrum4(), rng)
        with pytest.raises(InvalidParameter):
            cov.bochner_check(chan, spectrum4(), gen.random_psd(4, rng),
                              gen.random_state(4, rng), times)

    def test_bochner_check_needs_a_time(self, rng):
        # numpy's eigvalsh raised a bare ValueError on the empty Gram matrix.
        chan = gen.random_covariant(spectrum4(), rng)
        with pytest.raises(InvalidParameter):
            cov.bochner_check(chan, spectrum4(), gen.random_psd(4, rng),
                              gen.random_state(4, rng), [])

    @pytest.mark.parametrize("dim", [2, 4])
    def test_domain_extension_refuses_a_state_of_another_dimension(self, rng, dim):
        # numpy's broadcast ValueError escaped before.
        spec = cc.Spectrum(np.arange(3.0))
        decomp = cov.decompose(gen.random_covariant(spec, rng), spec)
        with pytest.raises(DimensionMismatch):
            cov.domain_extension_check(decomp, gen.random_state(dim, rng), 0.7)

    @pytest.mark.parametrize("t", [np.inf, np.nan, 1e308])
    def test_domain_extension_refuses_a_non_finite_phase(self, rng, t):
        # Every sector defect was NaN at t = inf, and max(0.0, nan) kept the 0.0.
        decomp = cov.decompose(gen.random_covariant(spectrum4(), rng), spectrum4())
        with pytest.raises(InvalidParameter, match="phase"):
            cov.domain_extension_check(decomp, gen.random_state(4, rng), t)


def sqrt_prime_spectrum(n):
    """Gaps sqrt(p) over the first n - 1 primes: n^2 - n + 1 sectors of 1x1 blocks."""
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)[: n - 1]
    return cc.Spectrum(np.concatenate([[0.0], np.cumsum(np.sqrt(primes))]))


class TestBlockStorage:
    @pytest.mark.parametrize("spec", [sqrt_prime_spectrum(6), spectrum4()],
                             ids=["sqrt_prime", "integer"])
    def test_decompose_checks_one_stack_per_domain_size(self, monkeypatch, rng, spec):
        # One Gram certificate per call proves every block; only where it
        # fails does the SectorMask check run, one stack per domain size.
        chan = gen.random_covariant(spec, rng)
        gram_certified, certificates = mcore._gram_certified, []
        mask_failure, shapes = cov._mask_failure, []
        monkeypatch.setattr(mcore, "_gram_certified",
                            lambda *args: certificates.append(args) or gram_certified(*args))
        monkeypatch.setattr(cov, "_mask_failure", refuse_mask_check)
        want = cov.decompose(chan, spec)
        assert len(certificates) == 1
        factors, k, scale, squares = certificates[0]
        # The certificate reads the channel's own stack, not a copy of it, and
        # the sum of squares the channel keeps.
        assert np.shares_memory(factors, chan._ops) and factors.size == chan._ops.size
        assert k == len(chan._ops) and squares == mcore._sum_of_squares(factors)
        assert scale == pytest.approx(1.0, abs=1e-9)  # random_covariant is TP

        def counting(blocks, sigmas):
            shapes.append(np.shape(blocks))
            return mask_failure(blocks, sigmas)

        monkeypatch.setattr(mcore, "_gram_certified", lambda *args: False)
        monkeypatch.setattr(cov, "_mask_failure", counting)
        decomp = cov.decompose(chan, spec)
        sizes = {len(shift.domain) for shift, _ in decomp.sectors}
        assert sorted(shape[1] for shape in shapes) == sorted(sizes)
        assert all(shape[1:] == (shape[1], shape[1]) for shape in shapes)
        assert sum(shape[0] for shape in shapes) == len(decomp.sectors)
        assert sha256_of(decomp) == sha256_of(want)

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

    def test_the_pipeline_makes_no_pair_until_sectors_are_read(self, rng):
        # The decompose workload's shapes: the check + decompose pipeline
        # builds no PartialShift and no SectorMask, and the pairs made when
        # sectors is first read are the per-sector oracle's bit for bit.
        cases = [(spec, gen.random_covariant(spec, rng))
                 for spec in (cc.Spectrum(np.arange(8.0)), cc.Spectrum(np.arange(16.0)),
                              sqrt_prime_spectrum(8), sqrt_prime_spectrum(12))]
        cases.append((cc.Spectrum(np.arange(24.0)),
                      cc.hadamard_channel(gen.random_unit_diagonal_mask(24, rng))))
        for n in (28, 32):
            spec = cc.Spectrum(np.arange(float(n)))
            mix = tim.build_shift_mixture(spec, [(0.0, 0.5), (2.0, 0.3), (-1.0, 0.2)])
            cases.append((spec, mix.channel))

        def refuse(*args, **kwargs):
            raise AssertionError("a (shift, mask) pair was made")

        decomps = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cov, "PartialShift", refuse)
            mp.setattr(cov.SectorMask, "_checked", refuse)
            for spec, chan in cases:
                cc.is_cptp(chan)
                assert cov.covariance_defect(chan, spec) <= 1e-10
                decomps.append(cov.decompose(chan, spec))
                cov.reconstruct(decomps[-1])
                cov.shift_distribution(decomps[-1], gen.random_state(spec.dim, rng))
        for (spec, chan), decomp in zip(cases, decomps):
            assert sha256_of(decomp.sectors) == sha256_of(decompose_per_sector(chan, spec).sectors)

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

    def test_no_library_reader_builds_the_sectors_view(self, monkeypatch, rng, tmp_path,
                                                       capsys):
        # Every library reader of a decomposition reads its store: the checks,
        # the Monte Carlo comparison, sector(sigma), mask(sigma), the JSON
        # writer and the gaussian and decompose reports never build the
        # tuple of all (shift, mask) pairs.
        from covchan import cli

        def refuse(self):
            raise AssertionError("a library reader built the sectors view")

        spec = sqrt_prime_spectrum(6)
        chan = gen.random_covariant(spec, rng)
        paths = [tmp_path / "chan.json", tmp_path / "spec.json"]
        paths[0].write_text(ser.dumps(ser.channel_to_json(chan)))
        paths[1].write_text(ser.dumps(ser.spectrum_to_json(spec)))
        params = fock.FockParams(dim=12, std_dev=0.5, mc_samples=200)
        vacuum = np.zeros((12, 12), dtype=complex)
        vacuum[0, 0] = 1.0
        monkeypatch.setattr(cov.SectorDecomposition, "_derived_sectors", refuse)
        gauss = fock.gaussian_decomposition(params)
        for decomp in (cov.decompose(chan, spec), gauss):
            cov.domain_extension_check(decomp, gen.random_state(decomp.spectrum.dim, rng), 0.7)
            decomp.sector(0.0)
            ser.decomposition_to_json(decomp)
        gauss.mask(-3)
        fock.compare_decomposition_to_mc(params, cc.DensityMatrix(vacuum))
        gaussian = ["gaussian", "--std-dev", "0.5", "--dim", "12"]
        for argv in (gaussian, [*gaussian, "--format", "csv"], ["decompose", *map(str, paths)]):
            assert cli.main(argv) == cli.EXIT_OK
        capsys.readouterr()

    def test_sector_of_a_decomposition_built_from_pairs_is_made_from_its_store(self):
        # The pair at the cluster's sigma, holding the block given as the store
        # holds it, a view of its buffer, even when the shift given was named by
        # another sigma of the cluster.
        spec = spectrum4()
        shift = cov.partial_shift(spec, -2.0 + 1e-12)
        block = np.array([[0.5, 0.25], [0.25, 0.5]])
        given = cov.SectorMask(sigma=shift.sigma, domain_submatrix=block, domain=shift.domain,
                               dim=4)
        decomp = cov.SectorDecomposition(spectrum=spec, sectors=((shift, given),))
        got_shift, got_mask = decomp.sector(-2.0)
        assert got_shift == cov.partial_shift(spec, -2.0) and got_mask.sigma == -2.0
        assert np.array_equal(got_mask.domain_submatrix, block)
        assert np.shares_memory(got_mask.domain_submatrix, decomp._store.blocks)
        assert not got_mask.domain_submatrix.flags.writeable
        assert decomp.sectors[0][1] is given

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


class TestHandBuiltPairs:
    """SectorDecomposition(spectrum, sectors) refuses pairs its store cannot hold."""

    def test_refuses_a_sector_listed_twice(self):
        # It was counted twice: diagonal_sums() read [2, 2, 2] and reconstruct
        # a tp_defect of 1.73.
        spec = cc.Spectrum([0.0, 1.0, 2.0])
        shift = cov.partial_shift(spec, 0.0)
        mask = cov.SectorMask(0.0, np.eye(3), shift.domain, 3)
        with pytest.raises(UnknownSector, match="listed twice"):
            cov.SectorDecomposition(spec, ((shift, mask), (shift, mask)))

    def test_names_the_first_repeat_in_the_given_order(self):
        spec = cc.Spectrum([0.0, 1.0, 2.0])
        pairs = []
        for sigma in (1.0, -1.0, -1.0 + 1e-12, 1.0 + 1e-12):  # -1 repeats before 1 does
            shift = cov.partial_shift(spec, sigma)
            pairs.append((shift, cov.SectorMask(sigma, np.eye(2) / 2, shift.domain, 3)))
        with pytest.raises(UnknownSector) as got:
            cov.SectorDecomposition(spec, tuple(pairs))
        assert str(got.value) == f"sector {-1.0 + 1e-12}: listed twice"

    @pytest.mark.parametrize("sigma, domain", [(1.0, (0, 1)), (-2.0, (0, 1)), (1.0, (2, 3))],
                             ids=["both", "domain", "sigma"])
    def test_refuses_a_mask_of_another_shift(self, sigma, domain):
        # A sigma = 1 mask on (0, 1) with the sigma = -2 shift was moved onto (2, 3).
        spec = spectrum4()
        shift = cov.partial_shift(spec, -2.0)
        mask = cov.SectorMask(sigma, np.eye(2), domain, 4)
        with pytest.raises(UnknownSector, match="its mask is for sigma"):
            cov.SectorDecomposition(spec, ((shift, mask),))

    def test_refuses_a_block_larger_than_its_shift(self):
        # apply_sectors failed later with a bare numpy ValueError.
        spec = spectrum4()
        shift = cov.partial_shift(spec, 2.0)  # domain (0, 1)
        mask = cov.SectorMask(2.0, np.eye(3), (0, 1, 2), 4)
        with pytest.raises(UnknownSector):
            cov.SectorDecomposition(spec, ((shift, mask),))

    @pytest.mark.parametrize("shift_dim, mask_dim", [(4, 5), (5, 4)])
    def test_refuses_a_pair_of_another_dimension(self, shift_dim, mask_dim):
        spec = spectrum4()
        shift = cov.PartialShift(-2.0, (2, 3), (0, 1), shift_dim)
        mask = cov.SectorMask(-2.0, np.eye(2), (2, 3), mask_dim)
        with pytest.raises(DimensionMismatch):
            cov.SectorDecomposition(spec, ((shift, mask),))


def test_apply_sectors_reads_a_nested_list_as_its_array(rng):
    # A list of lists raised TypeError on the first block's fancy index; apply_matrix
    # has always taken array-likes.
    spec = cc.Spectrum(np.arange(3.0))
    decomp = cov.decompose(gen.random_covariant(spec, rng), spec)
    mat = gen.random_state(3, rng).matrix
    want = cov.apply_sectors(decomp, mat)
    assert cov.apply_sectors(decomp, mat.tolist()).tobytes() == want.tobytes()
    assert cov.apply_sectors(decomp, np.eye(3).tolist()).tobytes() == \
        cov.apply_sectors(decomp, np.eye(3)).tobytes()
    with pytest.raises(DimensionMismatch):
        cov.apply_sectors(decomp, np.eye(4).tolist())


@pytest.mark.parametrize("size", [3, 5])
def test_apply_sectors_refuses_a_matrix_of_another_dimension(rng, monkeypatch, size):
    # On dim 4 a 5 x 5 matrix gave a 5 x 5 result and a 3 x 3 one a bare
    # IndexError.  The shape is refused before any block is read.
    decomp = cov.decompose(gen.random_covariant(spectrum4(), rng), spectrum4())
    monkeypatch.setitem(decomp.__dict__, "_store", None)  # reading it would raise AttributeError
    with pytest.raises(DimensionMismatch):
        cov.apply_sectors(decomp, np.eye(size))


def test_size_groups_of_one_shared_block_are_views():
    # The +-a blocks of a Gaussian decomposition are one block of the store's
    # buffer each; the size groups were once np.stack copies of them, 35 MB
    # kept at dim 186.
    decomp = fock.gaussian_decomposition(fock.FockParams(dim=186, std_dev=0.5))
    rho = gen.random_state(186, np.random.default_rng(186))
    tracemalloc.start()
    try:
        cov.domain_extension_check(decomp, rho, 0.7)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= 2 * 2**20
    store = decomp._store
    for _, _, blocks in decomp._groups.stacks(store.blocks):
        assert not blocks.flags.writeable and np.shares_memory(blocks, store.blocks)
        assert blocks.strides[0] == 0 or len(blocks) == 1  # -a and a, or sigma = 0 alone
    for a in range(1, 186):  # -a and a: one block of the buffer, at one address
        minus, plus = decomp.sector(-a)[1].domain_submatrix, decomp.sector(a)[1].domain_submatrix
        assert np.shares_memory(minus, store.blocks)
        assert minus.__array_interface__ == plus.__array_interface__


class TestSectorLabel:
    # One label per (channel, spectrum), made once: each Kraus operator's cluster,
    # -1 for one that mixes two, and the exact shifts where every operator has one.

    def test_labels_of_the_library_families(self, rng):
        spec = cc.Spectrum(np.arange(6.0))
        mix = tim.build_shift_mixture(spec, [(0.0, 0.5), (2.0, 0.3), (-1.0, 0.2)]).channel
        label = cov._label(mix, spec)
        assert label.pure and label.cross == (0.0, 0.0)
        assert label.cluster.tolist() == [spec._cluster_at(s) for s in (0.0, 2.0, -1.0)]
        assert label.shifts.tolist() == [0.0, 2.0, -1.0]
        assert cov._label(mix, spec) is label  # kept on the channel
        assert cov._label(mix, cc.Spectrum(np.arange(6.0))) is not label  # one per spectrum
        hadamard = cc.hadamard_channel(gen.random_unit_diagonal_mask(6, rng))
        assert set(cov._label(hadamard, spec).cluster.tolist()) == {spec._cluster_at(0.0)}
        dense = cov._label(gen.random_covariant(spec, rng), spec)
        assert not dense.pure and (dense.cluster == -1).all() and dense.shifts is None
        assert dense.cross is None  # until a call forms the Choi matrix

    def test_a_unitary_mix_of_two_sectors_takes_the_choi_route(self, monkeypatch):
        spec = cc.Spectrum(np.arange(5.0))
        a, b = tim.build_shift_mixture(spec, [(1.0, 0.5), (-1.0, 0.5)]).channel.kraus
        mixed = cc.Channel(((a + b) / np.sqrt(2.0), (a - b) / np.sqrt(2.0)))
        label = cov._label(mixed, spec)
        assert label.cluster.tolist() == [-1, -1] and label.shifts is None
        calls = []
        sector_blocks = cov._sector_blocks

        def counted(*args):
            calls.append(args)
            return sector_blocks(*args)

        def refuse(*args):
            raise AssertionError("a mixed family took the label route")

        monkeypatch.setattr(cov, "_sector_blocks", counted)
        monkeypatch.setattr(cov, "_label_blocks", refuse)
        got = cov.decompose(mixed, spec)
        assert len(calls) == 1
        monkeypatch.undo()
        want = cov.decompose(cc.Channel((a, b)), spec)
        assert got._store.clusters.tolist() == want._store.clusters.tolist()
        assert np.abs(got._store.blocks - want._store.blocks).max() <= 1e-15

    def test_cross_sector_entries_are_formed_once(self, monkeypatch, choi_products):
        # check then decompose of a dense n = 16 channel: one |C|, whose largest entry
        # and squared norm the label keeps.
        spec = cc.Spectrum(np.arange(16.0))
        chan = gen.random_covariant(spec, np.random.default_rng(16))
        want = decompose_per_sector(chan, spec)
        choi_products.sizes.clear()  # the oracle's
        calls = []
        cross_entries = cov._cross_entries

        def counted(*args):
            calls.append(args[0].shape)
            return cross_entries(*args)

        monkeypatch.setattr(cov, "_cross_entries", counted)
        defect = cov.covariance_defect(chan, spec)
        decomp = cov.decompose(chan, spec)
        assert cov.covariance_defect(chan, spec) == defect
        assert calls == [(256, 256)]
        assert sha256_of(decomp) == sha256_of(want)
        with pytest.raises(NotCovariant):  # the kept defect refuses with no Choi matrix
            cov.decompose(chan, spec, tol=defect / 2)
        assert len(calls) == 1 and choi_products.sizes == [256]

    def test_pure_families_form_no_choi_matrix(self, choi_products, rng):
        # check, decompose and timing of a shift mixture and of a Hadamard channel, and
        # of a mixture on a sqrt(2)-spaced spectrum, which timing decomposes.
        choi_products.refuse()
        integer, spaced = cc.Spectrum(np.arange(8.0)), cc.Spectrum(np.sqrt(2.0) * np.arange(8.0))
        cases = [
            (integer, tim.build_shift_mixture(integer, [(0.0, 0.5), (3.0, 0.5)]).channel,
             np.pi / 2),
            (integer, cc.hadamard_channel(gen.random_unit_diagonal_mask(8, rng)), np.pi / 2),
            (spaced, tim.build_shift_mixture(spaced, [(0.0, 0.5), (3.0 * np.sqrt(2.0), 0.5)])
             .channel, np.pi / (2.0 * np.sqrt(2.0))),
        ]
        phi0 = np.full(8, 8 ** -0.5)
        for spec, chan, s in cases:
            cc.is_cptp(chan)
            assert cov.covariance_defect(chan, spec) == 0.0
            cov.reconstruct(cov.decompose(chan, spec))
            tim.timing_channel(chan, spec, phi0, s, 4, np.inf)
        assert cov._label(cases[2][1], spaced).shifts is None  # decomposed by timing

    def test_tables_are_made_once_per_channel_and_spectrum(self, monkeypatch, rng):
        # check, decompose twice, reconstruct and shift_distribution of a dense channel
        # (the Choi route), a Hadamard channel and a shift mixture (the label route):
        # the label's one table object (_Groups) is made once, by the touched-layout
        # builder, its entry tables and TP levels once each, and the label's raw blocks
        # by the route's builder; both decompositions read the label's table object.
        # The mixture loses its edge levels, so it is not TP and takes no _restore_tp.
        spec = cc.Spectrum(np.arange(6.0))
        cases = [gen.random_covariant(spec, rng),
                 cc.hadamard_channel(gen.random_unit_diagonal_mask(6, rng)),
                 tim.build_shift_mixture(spec, [(0.0, 0.5), (2.0, 0.3), (-1.0, 0.2)]).channel]
        rho, calls = gen.random_state(6, rng), []

        def counted(name, build):
            def call(*args):
                calls.append(name)
                return build(*args)
            return call

        for table in ("entries", "tp_levels"):
            prop = getattr(cov._Groups, table)
            monkeypatch.setattr(prop, "func", counted(table, prop.func))
        for name in ("_block_tables", "_sector_blocks", "_label_blocks", "_Groups"):
            monkeypatch.setattr(cov, name, counted(name, getattr(cov, name)))
        for chan in cases:
            calls.clear()
            tp = cc.is_cptp(chan).tp_defect <= mcore.EPS_TP
            cov.covariance_defect(chan, spec)
            first, second = cov.decompose(chan, spec), cov.decompose(chan, spec)
            cov.reconstruct(second)
            cov.shift_distribution(second, rho)
            label = cov._label(chan, spec)
            route = "_label_blocks" if label.pure else "_sector_blocks"
            assert sorted(calls) == sorted(["_block_tables", "_Groups", route, "entries",
                                            *["tp_levels"] * tp])
            assert first._groups is second._groups is label.groups
            cov.decompose(chan, cc.Spectrum(np.arange(6.0)))  # another spectrum: its own label
            assert calls.count("_block_tables") == calls.count("_Groups") == 2


def test_sector_work_on_a_sparse_channel_stays_small():
    # decompose + reconstruct of a three-shift mixture at n = 128 lay out the
    # three sectors it touches, sum d^2 = 48,389 entries; index tables over all
    # 255 sectors would hold about 2 n^3 / 3 = 1.4 M entries each, 11 MB.
    spec = cc.Spectrum(np.arange(128.0))

    def mixture():
        return tim.build_shift_mixture(spec, [(0.0, 0.5), (2.0, 0.3), (-1.0, 0.2)]).channel

    cov.reconstruct(cov.decompose(mixture(), spec))  # the spectrum's caches are built
    chan = mixture()
    tracemalloc.start()
    try:
        cov.reconstruct(cov.decompose(chan, spec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


class TestMaskCheck:
    @pytest.mark.parametrize("block", [
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
        np.array([[1.0, np.nan], [np.nan, 1.0]]),
        np.array([[1.0, complex(0.0, np.inf)], [complex(0.0, -np.inf), 1.0]]),
    ], ids=["nan", "inf", "nan_off_diagonal", "complex_inf"])
    def test_rejects_a_non_finite_block(self, block):
        # Every comparison with NaN is False, so without its own test such a
        # block would pass both the Hermiticity and the eigenvalue bound.
        with pytest.raises(MaskNotPSD) as err:
            cov.SectorMask(sigma=-2.0, domain_submatrix=block, domain=(2, 3), dim=4)
        assert str(err.value) == "sector -2.0: mask has non-finite entries"

    def test_reports_the_first_failing_block_of_a_stack(self):
        stack = np.stack([np.eye(3)] * 5).astype(complex)
        stack[3, 0, 2] = complex(np.nan, 1.0)
        sigmas = [-2.0, -1.0, 0.0, 1.0, 2.0]
        assert cov._mask_failure(stack, sigmas) == (3, "sector 1.0: mask has non-finite entries")
        stack[1, 0, 1] = stack[1, 1, 0] = 2.0  # eigenvalue -1, before the non-finite block
        want = (1, "sector -1.0: domain submatrix eigenvalue -1.000e+00")
        assert mask_failure_by_eigvalsh(stack[:3], sigmas) == want
        assert cov._mask_failure(stack, sigmas) == want

    def test_a_tiny_negative_eigenvalue_at_a_large_norm_fails(self):
        # Eigenvalues 2.4e8 and -8.8e-9: eigvalsh resolves the negative one
        # at this norm, and the check names the eigenvalue the oracle finds.
        block = np.array([[119739425.23898056, 119739424.66762057],
                          [119739424.66762057, 119739424.09626056]])
        want = mask_failure_by_eigvalsh(block, [0.0])
        assert want == (0, "sector 0.0: domain submatrix eigenvalue -7.451e-09")
        assert cov._mask_failure(block, [0.0]) == want

    def test_entries_near_the_largest_double_take_one_eigvalsh(self, monkeypatch):
        # Entries of 8e307, whose squares overflow: the Hermitian part stays
        # finite, and one eigvalsh of the stack decides, with no overflow
        # warning on the way.
        calls, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        assert cov._mask_failure(np.diag([8e307] * 3), [0.0]) is None
        assert calls == [(1, 3, 3)]

    def test_certified_masks_need_no_eigensolve(self, monkeypatch, rng):
        chans = [(spec, gen.random_covariant(spec, rng))
                 for spec in (cc.Spectrum(np.arange(8.0)), sqrt_prime_spectrum(8))]

        def refuse(*args, **kwargs):
            raise AssertionError("a mask check ran eigvalsh")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for s in (0.3, 1.0):
            fock.gaussian_decomposition(fock.FockParams(dim=64, std_dev=s))
        for spec, chan in chans:
            cov.decompose(chan, spec)
