import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covchan as cc
from covchan import capacity as cap
from covchan import channels as mc
from covchan import generate as gen
from covchan.errors import (
    CovchanError,
    DiagonalNotUnit,
    DimensionMismatch,
    MaskNotPSD,
    NotDensityMatrix,
)

from conftest import (
    amplitude_damping,
    coherent_information_by_checked_outputs,
    dephasing_channel,
    hadamard_coherent_information_by_kraus,
    purified_coherent_information,
    purify,
)

# Derandomized with a bounded example count: every run draws the same examples.
PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)


def mask_c(c, n=2):
    m = np.full((n, n), c, dtype=complex)
    np.fill_diagonal(m, 1.0)
    return m


def count_calls(monkeypatch, owner, names):
    """Counts of the calls of owner's functions names from now on, by name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _orig=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


def rank_deficient_mask(n, rank, rng):
    """A unit-diagonal Gram matrix of n unit vectors in C^rank."""
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g @ g.conj().T


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

    def test_refuses_an_output_off_unit_trace(self, rng):
        chan = gen.random_cptp(3, rng)
        scaled = cc.Channel(tuple(1.1 * k for k in chan.kraus))  # output trace 1.21
        with pytest.raises(NotDensityMatrix, match="^trace .* is not 1"):
            cap.coherent_information(scaled, gen.random_state(3, rng))

    def test_refuses_a_channel_that_is_not_square(self):
        chan = cc.Channel((np.ones((2, 3)) / np.sqrt(6.0),))
        with pytest.raises(DimensionMismatch, match="square channel"):
            cap.coherent_information(chan, cc.DensityMatrix(np.eye(3) / 3))

    def test_refuses_a_state_of_another_dimension(self):
        with pytest.raises(DimensionMismatch, match="dimensions differ"):
            cap.coherent_information(cc.identity_channel(2), cc.DensityMatrix(np.eye(3) / 3))

    @PROPERTY
    @given(n=st.integers(1, 6), family=st.sampled_from(["random_cptp", "random_covariant"]),
           power=st.sampled_from([0, 0, -2, -1, 1, 3]), rank=st.sampled_from(["full", "deficient"]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_the_route_that_checks_both_outputs(self, n, family, power, rank, seed):
        # power 0 (drawn twice as often) is the value case.  The complement
        # skips the state check; the output keeps it.  The
        # verdicts could differ only where the output's trace lies within a
        # few ulps of 1 +- EPS_TR, as the complement's trace equals the output's
        # up to summation order.  No draw comes near that band: a TP channel's
        # trace misses 1 by roundoff, one scaled by 2^power by a factor 4^power.
        rng = np.random.Generator(np.random.PCG64(seed))
        if family == "random_cptp":
            chan = gen.random_cptp(n, rng, kraus_count=int(rng.integers(1, n * n + 4)))
        else:
            chan = gen.random_covariant(cc.Spectrum(np.arange(float(n))), rng)
        if power:
            chan = cc.Channel(tuple(2.0 ** power * k for k in chan.kraus))
        r = n if rank == "full" else int(rng.integers(1, max(n - 1, 1) + 1))
        g = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
        rho = cc.DensityMatrix(g @ g.conj().T / np.linalg.norm(g) ** 2)
        results = []
        for route in (cap.coherent_information, coherent_information_by_checked_outputs):
            try:
                results.append(route(chan, rho))
            except CovchanError as exc:
                results.append(type(exc))
        assert results[0] == results[1]
        assert (results[0] is NotDensityMatrix) == (power != 0)

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

    @pytest.mark.parametrize("mask", [np.float64(1.0), np.ones(3), np.ones((1, 3)),
                                      np.zeros((0, 0))])
    def test_rejects_masks_that_are_not_square_matrices(self, mask):
        # hadamard_bound raises the same for these shapes
        with pytest.raises(DimensionMismatch):
            cap.hadamard_channel(mask)
        with pytest.raises(DimensionMismatch):
            cap.hadamard_bound(mask, np.shape(mask)[0] if np.ndim(mask) else 1)


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
        # The check's spectrum is the bound's; verify_hqc checks the mask once
        # and adds one eigh for the vectors and the eigvalsh of G^c(I/n).
        calls = count_calls(monkeypatch, np.linalg, ["eigvalsh", "eigh"])
        m = gen.random_unit_diagonal_mask(8, rng)
        cap.hadamard_bound(m, 8)
        assert calls == {"eigvalsh": 1, "eigh": 0}
        calls.update(eigvalsh=0)
        cap.verify_hqc(m, 8)
        assert calls == {"eigvalsh": 2, "eigh": 1}

    def test_each_complement_read_without_a_state_check(self, rng, monkeypatch):
        # Only the output G(rho), M * rho and the mask take the state or mask
        # check; each complementary output, formed from them, takes one eigvalsh.
        chan = gen.random_covariant(cc.Spectrum(np.arange(6.0)), rng)
        rho = gen.random_state(6, rng)
        m = gen.random_unit_diagonal_mask(6, rng)
        linalg = count_calls(monkeypatch, np.linalg, ["eigvalsh", "eigh"])
        checks = count_calls(monkeypatch, mc, ["_psd_check"])
        for run, counts in [(lambda: cap.coherent_information(chan, rho), (1, 2, 0)),
                            (lambda: cap.verify_hqc(m, 6), (1, 2, 1)),
                            (lambda: cap._mask_numbers(*cap._check_mask(m, 6), rho), (2, 4, 1))]:
            linalg.update(eigvalsh=0, eigh=0)
            checks.update(_psd_check=0)
            run()
            assert (checks["_psd_check"], linalg["eigvalsh"], linalg["eigh"]) == counts


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_masks_are_refused(entry):
    # NaN fails every comparison, so without its own test [[1, nan], [nan, 1]]
    # passed the Hermitian and eigenvalue checks: a bound of 1.0, and the
    # zero channel from hadamard_channel.
    mask = np.array([[1.0, entry], [entry, 1.0]])
    for call in (cap.hadamard_channel, lambda m: cap.hadamard_bound(m, 2),
                 lambda m: cap.verify_hqc(m, 2)):
        with pytest.raises(MaskNotPSD, match="^mask has non-finite entries$"):
            call(mask)


def test_a_skewed_mask_is_read_by_its_hermitian_part():
    # The skew 8e-10 is below EPS_H.  The bound read the lower triangle and the
    # channel the Hermitian part, so verify_hqc reported 5.1e-10 and the bound
    # depended on which triangle carried the skew.
    c = np.sqrt(0.5)
    upper = np.array([[1.0, c + 8e-10], [c, 1.0]])
    assert cap.verify_hqc(upper, 2) < 1e-14
    assert cap.hadamard_bound(upper, 2) == cap.hadamard_bound(upper.T, 2)


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


class TestMaskRoute:
    @PROPERTY
    @given(n=st.integers(1, 12), mask=st.sampled_from(["random", "rank-deficient"]),
           state=st.sampled_from(["pure", "diagonal", "full-rank", "maximally-mixed"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_kraus_oracle(self, n, mask, state, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        if mask == "random":
            m = gen.random_unit_diagonal_mask(n, rng)
        else:
            m = rank_deficient_mask(n, int(rng.integers(1, max(n - 1, 1) + 1)), rng)
        if state == "pure":
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            rho = cc.DensityMatrix(np.outer(v, v.conj()) / np.vdot(v, v).real)
        elif state == "diagonal":
            p = rng.random(n)
            rho = cc.DensityMatrix(np.diag(p / p.sum()))
        elif state == "full-rank":
            rho = gen.random_state(n, rng)
        else:
            rho = cc.DensityMatrix(np.eye(n) / n)
        got = cap._mask_numbers(*cap._check_mask(m, n),
                                None if state == "maximally-mixed" else rho)[0]
        assert abs(got - hadamard_coherent_information_by_kraus(m, rho)) <= 1e-12

    def test_refuses_a_state_of_another_dimension(self):
        with pytest.raises(DimensionMismatch):
            cap._mask_numbers(*cap._check_mask(mask_c(0.5), 2), cc.DensityMatrix(np.eye(3) / 3))

    @pytest.mark.parametrize("fault", ["rotated vectors", "reversed eigenvalues"])
    def test_verify_hqc_sees_vectors_that_do_not_decompose_the_mask(self, rng, monkeypatch,
                                                                   fault):
        # The complement's spectrum is that of any unitary's columns scaled by
        # the eigenvalues, so the rotation shows only in G(I/n) = diag(V V^dag)/n.
        n = 6
        m = gen.random_unit_diagonal_mask(n, rng)
        assert cap.verify_hqc(m, n) < 1e-14
        u = gen.random_unitary(n, rng)
        eigh = np.linalg.eigh

        def broken(a):
            vals, vecs = eigh(a)
            return (vals, vecs @ u) if fault == "rotated vectors" else (vals[::-1], vecs)

        monkeypatch.setattr(np.linalg, "eigh", broken)
        assert cap.verify_hqc(m, n) > 1e-4
