import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import covchan as cc
from covchan import channels as mcore
from covchan import generate as gen
from covchan import timing as tim
from covchan.errors import DimensionMismatch, NotCP, NotDensityMatrix

from conftest import (
    amplitude_damping,
    bipartite_apply,
    cptp_by_full_choi,
    dephasing_channel,
    deterministic_eig_loop,
    plus_state,
)

# Derandomized: every run draws the same examples.
ORACLE = settings(derandomize=True, max_examples=40, deadline=None, database=None)


class TestApply:
    def test_identity(self):
        rho = plus_state()
        out = cc.apply(cc.identity_channel(2), rho)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_dephasing_kills_offdiagonals(self):
        out = cc.apply(dephasing_channel(), plus_state())
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0.5]), atol=1e-14)

    def test_amplitude_damping_half(self):
        # Hand Kraus arithmetic: A0 |1><1| A0^dag = 0.5 |1><1|,
        # A1 |1><1| A1^dag = 0.5 |0><0|.
        rho = cc.DensityMatrix(np.diag([0.0, 1.0]))
        out = cc.apply(amplitude_damping(0.5), rho)
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0.5]), atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cc.apply(cc.identity_channel(3), plus_state())

    def test_trace_preserved_random(self, rng):
        for dim in (2, 3, 5):
            chan = gen.random_cptp(dim, rng)
            rho = gen.random_state(dim, rng)
            out = cc.apply(chan, rho)
            assert abs(np.trace(out.matrix) - 1.0) < 1e-10

    def test_linearity_on_random_operators(self, rng):
        chan = gen.random_cptp(3, rng)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        alpha, beta = 0.3 - 0.2j, 1.1 + 0.7j
        lhs = cc.apply_matrix(chan, alpha * a + beta * b)
        rhs = alpha * cc.apply_matrix(chan, a) + beta * cc.apply_matrix(chan, b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestChoi:
    def test_identity_choi(self):
        choi = cc.choi_of(cc.identity_channel(2))
        phi = np.array([1.0, 0.0, 0.0, 1.0])  # unnormalized maximally entangled
        np.testing.assert_allclose(choi.matrix, np.outer(phi, phi), atol=1e-14)

    def test_dephasing_choi_diagonal(self):
        choi = cc.choi_of(dephasing_channel())
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 1.0
        np.testing.assert_allclose(choi.matrix, expected, atol=1e-14)

    def test_amplitude_damping_entry(self):
        choi = cc.choi_of(amplitude_damping(0.5))
        # C[(0,0),(1,1)] = (A0)_{00} conj((A0)_{11}) = sqrt(0.5)
        assert abs(choi.matrix[0, 3] - np.sqrt(0.5)) < 1e-14


class TestKrausFromChoi:
    def test_identity_round_trip(self):
        chan = cc.kraus_from_choi(cc.choi_of(cc.identity_channel(2)))
        assert len(chan.kraus) == 1
        k = chan.kraus[0]
        np.testing.assert_allclose(k / k[0, 0], np.eye(2), atol=1e-12)

    def test_dephasing_rank_one_kraus(self):
        chan = cc.kraus_from_choi(cc.choi_of(dephasing_channel()))
        assert len(chan.kraus) == 2
        for k in chan.kraus:
            assert np.linalg.matrix_rank(k, tol=1e-10) == 1
            # diagonal projector structure
            np.testing.assert_allclose(k - np.diag(np.diag(k)), 0, atol=1e-12)

    def test_random_channel_round_trip(self, rng):
        chan = gen.random_cptp(3, rng)
        rebuilt = cc.kraus_from_choi(cc.choi_of(chan))
        for j in range(3):
            for k in range(3):
                unit = np.zeros((3, 3), dtype=complex)
                unit[j, k] = 1.0
                np.testing.assert_allclose(
                    cc.apply_matrix(rebuilt, unit),
                    cc.apply_matrix(chan, unit),
                    atol=1e-10,
                )

    def test_choi_round_trip_frobenius(self, rng):
        for dim in (2, 4):
            chan = gen.random_cptp(dim, rng)
            choi = cc.choi_of(chan)
            again = cc.choi_of(cc.kraus_from_choi(choi))
            assert np.linalg.norm(again.matrix - choi.matrix) < 1e-10

    def test_not_cp_rejected(self):
        bad = cc.ChoiMatrix(2, 2, np.diag([1.0, 1.0, 1.0, -0.5]).astype(complex))
        with pytest.raises(NotCP):
            cc.kraus_from_choi(bad)

    def test_deterministic_output(self, rng):
        chan = gen.random_cptp(3, rng)
        choi = cc.choi_of(chan)
        a = cc.kraus_from_choi(choi)
        b = cc.kraus_from_choi(choi)
        for ka, kb in zip(a.kraus, b.kraus):
            np.testing.assert_array_equal(ka, kb)


class TestIsCPTP:
    def test_identity(self):
        rep = cc.is_cptp(cc.identity_channel(2))
        assert rep.tp_defect < 1e-12 and rep.cp_defect < 1e-12

    def test_scaled_identity(self):
        rep = cc.is_cptp(cc.Channel((2.0 * np.eye(2, dtype=complex),)))
        assert abs(rep.tp_defect - 3.0 * np.sqrt(2.0)) < 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5, 0.9, 1.0])
    def test_amplitude_damping(self, gamma):
        rep = cc.is_cptp(amplitude_damping(gamma))
        assert rep.tp_defect <= 1e-12 and rep.cp_defect <= 1e-12

    @pytest.mark.parametrize("count", ["below", "equal", "above"])
    @ORACLE
    @given(data=st.data())
    def test_matches_full_choi(self, count, data):
        # K Kraus operators below, at or above dim_in * dim_out: is_cptp
        # diagonalises V^dag V (above, it has K - dim_in * dim_out extra zero
        # eigenvalues), the oracle the Choi matrix V V^dag; scales 0.5 and
        # 1.3 take the channels off trace preservation.
        dim_in, dim_out = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        size = dim_in * dim_out
        assume(count != "below" or size > 1)
        k = {"below": data.draw(st.integers(1, max(1, size - 1))),
             "equal": size,
             "above": size + data.draw(st.integers(1, 4))}[count]
        scale = data.draw(st.sampled_from([1.0, 0.5, 1.3]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        stacked = rng.normal(size=(k * dim_out, dim_in)) + 1j * rng.normal(size=(k * dim_out, dim_in))
        if stacked.shape[0] >= dim_in:
            stacked = np.linalg.qr(stacked)[0]  # orthonormal columns: trace preserving
        else:
            stacked /= np.linalg.norm(stacked, 2)  # too few rows to preserve the trace
        ops = scale * stacked.reshape(k, dim_out, dim_in)
        chan = cc.Channel(tuple(ops))
        tp, cp = cptp_by_full_choi(chan)
        rep = cc.is_cptp(chan)
        assert abs(rep.tp_defect - tp) <= 1e-12
        choi_norm = float(np.linalg.norm(cc.choi_of(chan).matrix))
        assert abs(rep.cp_defect - cp) <= 1e-12 * max(1.0, choi_norm)

    def test_few_kraus_needs_no_choi_matrix(self, monkeypatch):
        # A K = 3 shift mixture at n = 32 is checked through its 3 x 3 Gram
        # matrix; the 1024 x 1024 Choi matrix is never built.
        spec = cc.Spectrum(np.arange(32.0))
        chan = tim.build_shift_mixture(spec, [(0.0, 0.5), (2.0, 0.3), (-1.0, 0.2)]).channel

        def refuse(channel):
            raise AssertionError("is_cptp built the Choi matrix")

        monkeypatch.setattr(mcore, "choi_of", refuse)
        rep = cc.is_cptp(chan)
        assert rep.cp_defect <= 1e-12
        assert rep.tp_defect > 0.1  # the shifts lose their edge levels


def _eig_cases():
    rng = np.random.default_rng(5)
    cases = []
    for n in (1, 2, 3, 5, 8, 13, 16):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        low = g[:, : max(1, n // 3)]
        for name, mat in [("psd", g @ g.conj().T), ("rank-deficient", low @ low.conj().T),
                          ("eye", np.eye(n)), ("ones", np.ones((n, n))),
                          ("zeros", np.zeros((n, n)))]:
            cases.append(pytest.param(mat.astype(complex), id=f"{name}-{n}"))
    return cases


class TestDeterministicEig:
    @pytest.mark.parametrize("mat", _eig_cases())
    def test_bit_identical_to_column_loop(self, mat):
        vals, vecs = mcore._deterministic_eig(mat)
        want_vals, want_vecs = deterministic_eig_loop(mat)
        assert vals.tobytes() == want_vals.tobytes()
        assert vecs.tobytes() == want_vecs.tobytes()


class TestEntropy:
    def test_pure_state(self):
        assert cc.von_neumann_entropy(cc.DensityMatrix(np.diag([1.0, 0.0]))) == 0.0

    def test_maximally_mixed(self):
        s = cc.von_neumann_entropy(cc.DensityMatrix(np.diag([0.5, 0.5])))
        assert abs(s - 1.0) < 1e-12

    def test_scalar_evaluation(self):
        s = cc.von_neumann_entropy(cc.DensityMatrix(np.diag([0.8536, 0.1464])))
        assert abs(s - 0.6009) < 5e-4

    def test_unitary_invariance(self, rng):
        for _ in range(5):
            rho = gen.random_state(4, rng)
            u = gen.random_unitary(4, rng)
            rotated = cc.DensityMatrix(u @ rho.matrix @ u.conj().T)
            assert abs(cc.von_neumann_entropy(rotated)
                       - cc.von_neumann_entropy(rho)) < 1e-10

    def test_reads_validated_spectrum(self, rng, monkeypatch):
        rho = gen.random_state(5, rng)
        np.testing.assert_array_equal(rho.eigenvalues, np.linalg.eigvalsh(
            (rho.matrix + rho.matrix.conj().T) / 2.0))
        assert not rho.eigenvalues.flags.writeable

        def no_eigensolve(*args, **kwargs):
            raise AssertionError("the entropy re-diagonalised a validated state")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        assert cc.von_neumann_entropy(rho) == mcore.entropy_of_eigenvalues(rho.eigenvalues)


class TestBipartiteApply:
    @staticmethod
    def _max_entangled(n):
        phi = np.zeros(n * n, dtype=complex)
        for j in range(n):
            phi[j * n + j] = 1.0 / np.sqrt(n)
        return cc.DensityMatrix(np.outer(phi, phi.conj()))

    def test_identity(self):
        state = self._max_entangled(2)
        out = bipartite_apply(cc.identity_channel(2), state)
        np.testing.assert_allclose(out.matrix, state.matrix, atol=1e-14)

    def test_dephasing(self):
        out = bipartite_apply(dephasing_channel(), self._max_entangled(2))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        np.testing.assert_allclose(out.matrix, expected, atol=1e-14)

    def test_amplitude_damping_eigenvalues(self):
        out = bipartite_apply(amplitude_damping(0.5), self._max_entangled(2))
        vals = np.sort(np.linalg.eigvalsh(out.matrix))[::-1]
        np.testing.assert_allclose(vals[:2], [0.75, 0.25], atol=1e-12)
        np.testing.assert_allclose(vals[2:], 0.0, atol=1e-12)


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotDensityMatrix):
            cc.DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(NotDensityMatrix):
            cc.DensityMatrix(np.diag([0.7, 0.7]))

    def test_rejects_negative(self):
        with pytest.raises(NotDensityMatrix):
            cc.DensityMatrix(np.diag([1.5, -0.5]))
