import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covchan as cc
from covchan import capacity as cap
from covchan import generate as gen
from covchan.errors import DiagonalNotUnit, DimensionMismatch, MaskNotPSD

from conftest import amplitude_damping, dephasing_channel, purified_coherent_information, purify

# Derandomized with a bounded example count: every run draws the same examples.
PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)


def mask_c(c, n=2):
    m = np.full((n, n), c, dtype=complex)
    np.fill_diagonal(m, 1.0)
    return m


class TestPurify:
    def test_pure_state_stays_pure(self):
        rho = cc.DensityMatrix(np.diag([1.0, 0.0]))
        phi = purify(rho)
        assert abs(np.linalg.norm(phi) - 1.0) < 1e-12

    def test_partial_trace_recovers_state(self, rng):
        rho = gen.random_state(3, rng)
        phi = purify(rho)
        joint = np.outer(phi, phi.conj()).reshape(3, 3, 3, 3)
        reduced = np.einsum("ajak->jk", joint)
        np.testing.assert_allclose(reduced, rho.matrix, atol=1e-12)


class TestCoherentInformation:
    def test_identity_channel(self):
        rho = cc.DensityMatrix(np.eye(2) / 2.0)
        ic = cap.coherent_information(cc.identity_channel(2), rho)
        assert ic == pytest.approx(1.0, abs=1e-10)

    def test_full_dephasing_is_zero(self):
        rho = cc.DensityMatrix(np.eye(2) / 2.0)
        ic = cap.coherent_information(dephasing_channel(), rho)
        assert abs(ic) < 1e-10

    def test_complete_damping_negative(self):
        # gamma = 1 sends everything to |0>, environment gets the state.
        rho = cc.DensityMatrix(np.eye(2) / 2.0)
        ic = cap.coherent_information(amplitude_damping(1.0), rho)
        assert ic == pytest.approx(-1.0, abs=1e-10)

    def test_reference_basis_independent(self, rng):
        chan = gen.random_cptp(3, rng)
        rho = gen.random_state(3, rng)
        ic = cap.coherent_information(chan, rho)
        for _ in range(3):
            u = gen.random_unitary(3, rng)
            assert purified_coherent_information(chan, rho, u) == pytest.approx(ic, abs=1e-12)

    @PROPERTY
    @given(n=st.integers(2, 5), kraus=st.sampled_from(["1", "n", "n^2", "n^2+3"]),
           rank=st.sampled_from(["full", "deficient"]), seed=st.integers(0, 2**32 - 1))
    def test_matches_purification(self, n, kraus, rank, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        count = {"1": 1, "n": n, "n^2": n * n, "n^2+3": n * n + 3}[kraus]
        chan = gen.random_cptp(n, rng, kraus_count=count)
        r = n if rank == "full" else int(rng.integers(1, n))
        g = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
        rho = cc.DensityMatrix(g @ g.conj().T / np.linalg.norm(g) ** 2)
        assert abs(cap.coherent_information(chan, rho)
                   - purified_coherent_information(chan, rho)) <= 1e-12

    def test_bounded_by_log_dim(self, rng):
        for _ in range(5):
            chan = gen.random_cptp(3, rng)
            rho = gen.random_state(3, rng)
            ic = cap.coherent_information(chan, rho)
            assert -np.log2(3) - 1e-9 <= ic <= np.log2(3) + 1e-9


class TestHadamardChannel:
    def test_acts_entrywise(self, rng):
        m = gen.random_unit_diagonal_mask(4, rng)
        chan = cap.hadamard_channel(m)
        rho = gen.random_state(4, rng)
        np.testing.assert_allclose(
            cc.apply(chan, rho).matrix, m * rho.matrix, atol=1e-12)

    def test_kraus_are_diagonal(self, rng):
        m = gen.random_unit_diagonal_mask(3, rng)
        for k in cap.hadamard_channel(m).kraus:
            np.testing.assert_allclose(k, np.diag(np.diag(k)), atol=1e-14)

    def test_is_trace_preserving(self, rng):
        m = gen.random_unit_diagonal_mask(5, rng)
        rep = cc.is_cptp(cap.hadamard_channel(m))
        assert rep.tp_defect < 1e-9 and rep.cp_defect < 1e-9

    def test_rejects_non_unit_diagonal(self):
        with pytest.raises(DiagonalNotUnit):
            cap.hadamard_channel(np.diag([1.0, 0.5]))

    def test_rejects_indefinite_mask(self):
        with pytest.raises(MaskNotPSD):
            cap.hadamard_channel(mask_c(1.5))


class TestHadamardBound:
    def test_identity_mask_zero_bound(self):
        # M = I dephases completely; S(I/n) = log2 n kills the bound.
        assert cap.hadamard_bound(np.eye(3), 3) == pytest.approx(0.0, abs=1e-12)

    def test_all_ones_mask_full_bound(self):
        n = 4
        assert cap.hadamard_bound(np.ones((n, n)), n) == pytest.approx(2.0, abs=1e-12)

    def test_scalar_case(self):
        # c = sqrt(1/2): eigenvalues (1 +- c)/2, bound 1 - S evaluates to 0.3991.
        b = cap.hadamard_bound(mask_c(np.sqrt(0.5)), 2)
        assert b == pytest.approx(0.3991, abs=5e-5)

    def test_monotone_in_coherence(self):
        values = [cap.hadamard_bound(mask_c(c), 2) for c in (0.0, 0.3, 0.6, 0.9)]
        assert all(b2 > b1 for b1, b2 in zip(values, values[1:]))

    def test_each_mask_spectrum_solved_once(self, rng, monkeypatch):
        # The check's spectrum is the bound's; verify_hqc leaves the mask to
        # its callees and adds the Kraus eigh and the entropies of coherent_information.
        calls = {"eigvalsh": 0, "eigh": 0}
        for name, orig in [(name, getattr(np.linalg, name)) for name in calls]:
            def counted(*args, _orig=orig, _name=name, **kwargs):
                calls[_name] += 1
                return _orig(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        m = gen.random_unit_diagonal_mask(8, rng)
        cap.hadamard_bound(m, 8)
        assert calls == {"eigvalsh": 1, "eigh": 0}
        calls.update(eigvalsh=0)
        cap.verify_hqc(m, 8)
        assert calls == {"eigvalsh": 5, "eigh": 1}


class TestVerifyHQC:
    @pytest.mark.parametrize("mask, n, error", [
        (np.eye(3), 2, DimensionMismatch), (mask_c(1.5), 2, MaskNotPSD),
        (np.diag([1.0, 0.5]), 2, DiagonalNotUnit), (np.array([[1.0, 1j], [0.0, 1.0]]), 2, MaskNotPSD),
    ])
    def test_bad_masks(self, mask, n, error):
        with pytest.raises(error):
            cap.verify_hqc(mask, n)

    def test_scalar_masks(self):
        for c in (0.0, np.sqrt(0.5), 0.95):
            assert cap.verify_hqc(mask_c(c), 2) < 1e-9

    def test_random_masks(self, rng):
        for n in (2, 3, 5):
            for _ in range(5):
                m = gen.random_unit_diagonal_mask(n, rng)
                assert cap.verify_hqc(m, n) < 1e-9

    @pytest.mark.parametrize("n", [24, 32])
    def test_large_masks(self, rng, n):
        m = gen.random_unit_diagonal_mask(n, rng)
        assert cap.verify_hqc(m, n) <= 1e-12
