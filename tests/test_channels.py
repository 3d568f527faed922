import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import covchan as cc
from covchan import capacity as cap
from covchan import channels as mcore
from covchan import covariant as cov
from covchan import fock
from covchan import generate as gen
from covchan import serialize as ser
from covchan import timing as tim
from covchan.errors import (
    DiagonalNotUnit,
    DimensionMismatch,
    InvalidParameter,
    MaskNotPSD,
    NotCP,
    NotDensityMatrix,
)

from conftest import (
    amplitude_damping,
    bipartite_apply,
    cptp_by_full_choi,
    dephasing_channel,
    deterministic_eig_loop,
    largest_held_beside_stack,
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

    @pytest.mark.parametrize("count, match", [(0, "at least 1, got 0"), (-2, "at least 1"),
                                              (2.0, "an integer, got 2.0")])
    def test_random_generators_refuse_a_kraus_count_that_is_not_positive(self, count, match):
        # kraus_count = 0 read as dim, and 2.0 raised numpy's TypeError.
        for make in (lambda: gen.random_cptp(3, np.random.default_rng(0), count),
                     lambda: gen.random_covariant(cc.Spectrum(np.arange(3.0)),
                                                  np.random.default_rng(0), count)):
            with pytest.raises(InvalidParameter, match=match):
                make()

    @pytest.mark.parametrize("k, dim_out, dim_in", [(1, 3, 3), (4, 2, 3), (9, 3, 3), (5, 4, 2)])
    def test_one_product_matches_the_operator_loop(self, rng, k, dim_out, dim_in):
        ops = rng.normal(size=(k, dim_out, dim_in)) + 1j * rng.normal(size=(k, dim_out, dim_in))
        mat = rng.normal(size=(dim_in, dim_in)) + 1j * rng.normal(size=(dim_in, dim_in))
        want = sum(a @ mat @ a.conj().T for a in ops)
        np.testing.assert_allclose(cc.apply_matrix(cc.Channel(tuple(ops)), mat), want,
                                   rtol=0, atol=1e-13 * np.abs(want).max())

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

    def test_tp_defect_computed_once_per_channel(self, monkeypatch):
        # is_cptp and decompose both read it; the K n^3 product runs once.
        calls = []
        tp_defect = mcore._tp_defect
        monkeypatch.setattr(mcore, "_tp_defect", lambda ops: calls.append(1) or tp_defect(ops))
        chan = amplitude_damping(0.3)
        spec = cc.Spectrum(energies=np.array([0.0, 1.0]))
        rep = cc.is_cptp(chan)
        cc.decompose(chan, spec)
        assert len(calls) == 1 and rep.tp_defect == tp_defect(chan._ops)

    def test_one_nonzero_per_row_reads_the_diagonal(self):
        # Every operator of a reconstruction has at most one nonzero per row, so
        # sum A^dag A is diagonal: the defect of the Gaussian channel reconstructed
        # at dim 48 (K = 1,814) is read from the column sums of |A|^2, within
        # rounding of the product's, with no conjugated copy of its 64 MB stack.
        decomp = fock.gaussian_decomposition(fock.FockParams(dim=48, std_dev=1.0))
        ops = cov.reconstruct(decomp)._ops
        stacked = ops.reshape(-1, 48)
        product = float(np.linalg.norm(stacked.conj().T @ stacked - np.eye(48)))
        tracemalloc.start()
        try:
            got = mcore._tp_defect(ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ops.nbytes / 8  # the nonzero test's booleans are ops.nbytes / 16
        assert abs(got - product) <= 4.5 * len(stacked) * 2.0**-53 * np.sqrt(48)

    def test_sum_of_squares_taken_once_per_channel(self, monkeypatch, rng):
        # is_cptp and decompose both certify the Gram product of the stack; the
        # sum of squares over its K n^2 entries is taken once, in either order.
        spec = cc.Spectrum(np.arange(4.0))
        made = [gen.random_covariant(spec, rng) for _ in range(2)]
        sums, sum_of_squares = [], mcore._sum_of_squares
        monkeypatch.setattr(mcore, "_sum_of_squares",
                            lambda factors: sums.append(factors) or sum_of_squares(factors))
        cc.is_cptp(made[0])
        cov.decompose(made[0], spec)
        cov.decompose(made[1], spec)
        cc.is_cptp(made[1])
        assert len(sums) == 2
        assert all(np.shares_memory(f, chan._ops) for f, chan in zip(sums, made))

    def test_tp_defect_far_from_unit_scale(self):
        # The squares of the Frobenius norm overflowed from Kraus entries of
        # about 1e77 on (tier-1 turns the RuntimeWarning into an error).  At
        # a power of two the value is exact: ||2^600 I_2||_F = sqrt(2) 2^600.
        assert cc.is_cptp(cc.Channel((np.eye(2) * 2.0**300,))).tp_defect == \
            np.sqrt(2.0) * 2.0**600
        big = cc.is_cptp(cc.Channel((np.eye(2) * 1e80,))).tp_defect
        assert big == pytest.approx(np.sqrt(2.0) * 1e160, rel=1e-15)
        tiny = cc.is_cptp(cc.Channel((np.eye(2) * 1e-200,))).tp_defect
        assert tiny == np.sqrt(2.0)

    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5, 0.9, 1.0])
    def test_amplitude_damping(self, gamma):
        rep = cc.is_cptp(amplitude_damping(gamma))
        assert rep.tp_defect <= 1e-12 and rep.cp_defect <= 1e-12

    @pytest.mark.parametrize("count", ["below", "equal", "above"])
    @ORACLE
    @given(data=st.data())
    def test_matches_full_choi(self, count, data):
        # K Kraus operators below, at or above dim_in * dim_out: is_cptp
        # proves CP by the Gram bound on its operators, or else diagonalises
        # their K x K Gram matrix (above, it has K - dim_in * dim_out extra
        # zero eigenvalues), the oracle the Choi matrix; scales 0.5 and 1.3
        # take the channels off trace preservation.
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

    def test_few_kraus_needs_no_choi_matrix(self, monkeypatch, choi_products):
        # A K = 3 shift mixture at n = 32 is proved CP by the Gram bound on
        # its 3 operators; neither the 1024 x 1024 Choi matrix nor the one on
        # the support (K = 3 < |S| = 93) is built.  Its operators mixed by a
        # 5 x 3 isometry are a mixed family, whose check and decompose form the
        # Choi matrix on the support once, in either order; afterwards neither
        # channel nor its label holds an array of 93 x 93 entries.
        spec = cc.Spectrum(np.arange(32.0))
        chan = tim.build_shift_mixture(spec, [(0.0, 0.5), (2.0, 0.3), (-1.0, 0.2)]).channel
        assert len(chan.kraus) < chan._support.size == 93

        def refuse(*args):
            raise AssertionError("is_cptp built the Choi matrix")

        monkeypatch.setattr(mcore, "choi_of", refuse)
        choi_products.refuse()
        rep = cc.is_cptp(chan)
        assert rep.cp_defect <= 1e-12
        assert rep.tp_defect > 0.1  # the shifts lose their edge levels
        choi_products.refused = False
        u = np.linalg.qr(np.random.default_rng(3).normal(size=(5, 3)))[0]
        mixed = cc.Channel(tuple(np.tensordot(u, chan._ops, axes=1)))
        assert mixed._support.size == 93 and not cov._label(mixed, spec).pure
        for family in (chan, mixed):
            cc.is_cptp(family)
            cov.covariance_defect(family, spec)
            cov.decompose(family, spec)
            assert largest_held_beside_stack(family) < 93 * 93
        again = cc.Channel(mixed.kraus)
        cov.decompose(again, spec)
        cov.covariance_defect(again, spec)
        assert choi_products.sizes == [93, 93]

    def test_workload_shapes_need_no_factorisation_and_no_eigensolve(self, monkeypatch,
                                                                       choi_products):
        # The benchmark's channel shapes: random_covariant at n = 16 on the
        # integer spectrum and at n = 12 on the sqrt(prime) one (K = |S|), a
        # Hadamard channel at n = 24 and a K = 3 shift mixture at n = 32
        # (K < |S|).  The Gram rounding bound on the operators proves each.
        rng = np.random.default_rng(1)
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
        sqrt_prime = cc.Spectrum(np.r_[0.0, np.cumsum(np.sqrt(primes))])
        chans = [gen.random_covariant(cc.Spectrum(np.arange(16.0)), rng),
                 gen.random_covariant(sqrt_prime, rng),
                 cap.hadamard_channel(gen.random_unit_diagonal_mask(24, rng)),
                 tim.build_shift_mixture(cc.Spectrum(np.arange(32.0)),
                                         [(0.0, 0.5), (2.0, 0.3), (-1.0, 0.2)]).channel]

        def refuse(*args, **kwargs):
            raise AssertionError("is_cptp ran more than the Gram bound")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        choi_products.refuse()
        for chan in chans:
            assert cc.is_cptp(chan).cp_defect == 0.0

    @pytest.mark.parametrize("count", ["below", "equal", "above"])
    @ORACLE
    @given(data=st.data())
    def test_matches_full_choi_on_any_support(self, count, data):
        # K below, at or above |S|, the Choi pairs where some operator is
        # nonzero: is_cptp proves the Choi matrix within EPS_PSD / 2 of PSD by
        # the Gram rounding bound on the operators, and diagonalises the Gram
        # matrix only when the proof fails, so a nonzero cp_defect is that
        # eigensolve's own.  One operator may be a duplicate, 1e-8 from
        # another or zero.  The operators are scaled by 1e-50 to 1e50, so the
        # Choi and Gram matrices by 1e-100 to 1e100: above about 1e4 the proof
        # fails (its margin is absolute), at and below 3 it passes.
        dim_in, dim_out = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        support = np.sort(rng.permutation(dim_in * dim_out)[:data.draw(
            st.integers(1, dim_in * dim_out))])
        size = support.size
        assume(count != "below" or size > 1)
        k = {"below": data.draw(st.integers(1, max(1, size - 1))),
             "equal": size,
             "above": size + data.draw(st.integers(1, 4))}[count]
        vecs = np.zeros((k, dim_in * dim_out), dtype=complex)
        vecs[:, support] = rng.normal(size=(k, size)) + 1j * rng.normal(size=(k, size))
        edit = data.draw(st.sampled_from(["none", "duplicate", "near", "zero"]))
        if k > 1 and edit != "none":
            i, j = rng.choice(k, size=2, replace=False)
            vecs[j] = 0.0 if edit == "zero" else vecs[i]
            if edit == "near":
                vecs[j, support] += 1e-8 * (rng.normal(size=size) + 1j * rng.normal(size=size))
        scale = data.draw(st.sampled_from([1e-50, 1e-4, 0.3, 1.0, 1.0, 3.0, 1e4, 1e50]))
        chan = cc.Channel(tuple(scale * vecs.reshape(k, dim_out, dim_in)))
        np.testing.assert_array_equal(chan._support, support)
        tp, cp = cptp_by_full_choi(chan)
        rep = cc.is_cptp(chan)
        bound = 1e-12 * max(1.0, float(np.linalg.norm(cc.choi_of(chan).matrix)))
        assert abs(rep.tp_defect - tp) <= bound
        assert abs(rep.cp_defect - cp) <= bound
        flat = chan._ops.reshape(k, -1)
        gram_lmin = float(np.linalg.eigvalsh(flat.conj() @ flat.T).min())
        assert rep.cp_defect in (0.0, max(0.0, -gram_lmin))
        if count == "above" and 0.3 <= scale <= 3.0:
            # The Gram matrix is singular, but the Choi matrix on S is proved
            # positive definite: no roundoff from K - |S| zero eigenvalues.
            assert rep.cp_defect == 0.0

    def test_a_completed_cholesky_that_fails_the_rounding_bound_proves_nothing(self):
        # A one-pair channel at scale 1e5: its 1 x 1 Choi matrix factors even
        # shifted down by 1.5 EPS_PSD, but the Gram rounding bound on its
        # operators fails, so cp_defect is the Gram eigensolve's roundoff.
        chan = cc.Channel((np.array([[10000 + 120000j]]), np.array([[36007 - 3000j]])))
        np.linalg.cholesky(cc.choi_of(chan).matrix - 1.5 * mcore.EPS_PSD)
        flat = chan._ops.reshape(2, -1)
        assert not mcore._gram_certified(flat[None], 2)
        gram_lmin = float(np.linalg.eigvalsh(flat.conj() @ flat.T).min())
        assert gram_lmin < 0.0
        assert cc.is_cptp(chan).cp_defect == -gram_lmin


def gram_blocks(x, rows, hermitised, s):
    """The blocks the mask check is handed from fl(X X^H), formed as the
    library forms them, and the Hermitian part the check takes of them.

    A real X is multiplied as fock's C C^T, a complex one as decompose's
    V^T conj(V) with V = X^T; the block on rows is Hermitised first when
    hermitised is set, and scaled by diag(s) on both sides as _restore_tp
    scales, when s is given."""
    if np.iscomplexobj(x):
        v = np.ascontiguousarray(x.T)
        product = v.T @ v.conj()
    else:
        product = (x[None] @ x[None].transpose(0, 2, 1))[0]
    block = product[np.ix_(rows, rows)]
    if hermitised:
        block = (block + block.conj().T) / 2.0
    if s is not None:
        t = s[rows]
        block = block * (t[:, None] * t[None, :])
    return block, (block + block.conj().T) / 2.0


def exact_sq_distance(herm, x, rows, s):
    """||herm - D X X^H D||_F^2 on rows x rows in rationals, D = diag(s) (or 1)."""
    parts = [[(Fraction(float(z.real)), Fraction(float(z.imag))) for z in row]
             for row in np.asarray(x, dtype=complex)[rows]]
    scale = [Fraction(1) if s is None else Fraction(float(s[i])) for i in rows]
    total = Fraction(0)
    for i, (xi, si) in enumerate(zip(parts, scale)):
        for j, (xj, sj) in enumerate(zip(parts, scale)):
            re = sum(a * c + b * d for (a, b), (c, d) in zip(xi, xj)) * si * sj
            im = sum(b * c - a * d for (a, b), (c, d) in zip(xi, xj)) * si * sj
            got = complex(herm[i, j])
            total += (Fraction(got.real) - re) ** 2 + (Fraction(got.imag) - im) ** 2
    return total


@st.composite
def gram_factors(draw):
    """A d x k factor (d, k <= 8), real non-negative or complex, at a common
    scale from subnormal to 1e4, a principal set of its rows, whether the
    block is Hermitised before the check, and an optional diagonal scaling."""
    d, k = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    scale = 10.0 ** draw(st.integers(-320, 3))
    mantissas = st.lists(st.floats(0.0, 10.0, allow_subnormal=True), min_size=d * k,
                         max_size=d * k)
    x = np.array(draw(mantissas)).reshape(d, k) * scale
    if draw(st.booleans()):
        signs = st.lists(st.sampled_from([-1.0, 1.0]), min_size=d * k, max_size=d * k)
        im = np.array(draw(mantissas)).reshape(d, k) * scale
        x = (x * np.array(draw(signs)).reshape(d, k)) + 1j * (im * np.array(draw(signs)).reshape(d, k))
    rows = sorted(draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True)))
    s = draw(st.none() | st.lists(st.floats(0.5, 1024.0), min_size=d, max_size=d).map(np.array))
    return x, rows, draw(st.booleans()), s


# k = 8 real products summed one after another, each rounding up by almost
# half an ulp, then a scaling whose two roundings go the same way: about 8.8 u
# of F, more than a gamma without its k could cover.
_ROUNDING_UP = np.array([[1.0] + [float(np.sqrt(2.0 ** -53 * (1 + 2.0 ** -20)))] * 7])


class TestGramBound:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @example(drawn=(_ROUNDING_UP, [0], False, np.array([1.0357351429103054])))
    @given(drawn=gram_factors())
    def test_bound_dominates_the_exact_rounding_error(self, drawn):
        x, rows, hermitised, s = drawn
        block, herm = gram_blocks(x, rows, hermitised, s)
        top = 1.0 if s is None else float(s.max())
        bound = mcore._gram_bound(x[None], x.shape[1], top * top)
        assert exact_sq_distance(herm, x, rows, s) <= Fraction(bound) ** 2
        assert np.abs(block - block.conj().T).max() <= 2.0 * bound
        assert np.linalg.eigvalsh(herm).min() >= -bound

    def test_certifies_within_half_the_check_tolerance(self):
        # The pass line is min(EPS_H, EPS_PSD) / 2, and a non-finite factor
        # proves nothing.
        tau = min(mcore.EPS_H, mcore.EPS_PSD) / 2.0
        for k in (1, 186, 4096):
            x = np.ones((1, 1, k))
            gamma_f = mcore._gram_bound(x, k) / k  # per unit of ||X||_F^2
            below = np.full((1, 1, k), np.sqrt(0.99 * tau / gamma_f / k))
            above = np.full((1, 1, k), np.sqrt(1.01 * tau / gamma_f / k))
            assert mcore._gram_certified(below, k) and not mcore._gram_certified(above, k)
            assert not mcore._gram_certified(below, k, scale=1.03)
        assert not mcore._gram_certified(np.array([[[1.0, np.inf]]]), 2)
        assert not mcore._gram_certified(np.array([[[1.0]]]), 1, scale=np.inf)
        assert not mcore._gram_certified(np.array([[[1.0]]]), 1, scale=np.nan)


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
        vals, vecs, _, _ = mcore._deterministic_eig([mat[None]])
        want_vals, want_vecs = deterministic_eig_loop(mat)
        assert vals.tobytes() == want_vals.tobytes()
        assert vecs.tobytes() == want_vecs.tobytes()

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_stack_is_each_matrix_alone(self, n):
        mats = np.stack([case.values[0] for case in _eig_cases() if case.values[0].shape == (n, n)])
        vals, vecs, _, _ = mcore._deterministic_eig([mats])
        assert vals.shape == (len(mats) * n,) and vecs.shape == (len(mats) * n, n)
        for mat, got_vals, got_vecs in zip(mats, vals.reshape(-1, n), vecs.reshape(mats.shape)):
            want_vals, want_vecs = deterministic_eig_loop(mat)
            assert got_vals.tobytes() == want_vals.tobytes()
            assert got_vecs.tobytes() == want_vecs.tobytes()

    def test_stacks_of_several_sizes_are_each_matrix_alone(self):
        # One pass over stacks of sizes 8, 1 and 3 keyed out of stack order:
        # the matrices come out by key, each as it comes alone, its
        # eigenvectors zero-padded to the largest size.
        stacks = [np.stack([case.values[0] for case in _eig_cases()
                            if case.values[0].shape == (n, n)]) for n in (8, 1, 3)]
        keys = np.random.default_rng(2).permutation(sum(map(len, stacks)))
        vals, rows, key, _ = mcore._deterministic_eig(
            stacks, np.split(keys, np.cumsum([len(s) for s in stacks])[:-1]))
        mats = [mat for stack in stacks for mat in stack]
        start = 0
        for i in np.argsort(keys).tolist():
            d = len(mats[i])
            want_vals, want_vecs = deterministic_eig_loop(mats[i])
            assert (key[start:start + d] == keys[i]).all()
            assert vals[start:start + d].tobytes() == want_vals.tobytes()
            assert np.ascontiguousarray(rows[start:start + d, :d]).tobytes() == want_vecs.tobytes()
            assert not rows[start:start + d, d:].any()
            start += d
        assert start == len(vals) == len(rows)

    def test_a_factor_gives_the_scaled_eigenvectors_of_its_gram_product(self):
        # An (m, p, d) stack with p < d is a factor F of each M = F^T conj(F): its p
        # eigenpairs per matrix are the Gram's eigenvalues and w = F^T u, M w = lam w and
        # ||w||^2 = lam, phase-fixed and sorted by the same tail, beside a square stack.
        rng = np.random.default_rng(7)
        factor = rng.normal(size=(3, 2, 5)) + 1j * rng.normal(size=(3, 2, 5))
        square = rng.normal(size=(1, 4, 4)) + 1j * rng.normal(size=(1, 4, 4))
        vals, rows, key, scaled = mcore._deterministic_eig([factor, square @ square.conj().mT])
        assert key.tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 3, 3]
        assert scaled.tolist() == [True] * 6 + [False] * 4
        for i, f in enumerate(factor):
            m, lam, w = f.T @ f.conj(), vals[2 * i:2 * i + 2], rows[2 * i:2 * i + 2]
            np.testing.assert_allclose(lam, np.linalg.eigvalsh(m)[::-1][:2], rtol=1e-12)
            np.testing.assert_allclose(w @ m.T, lam[:, None] * w, atol=1e-12 * lam[0])
            np.testing.assert_allclose(np.vecdot(w, w).real, lam, rtol=1e-12)
            pivots = w[np.arange(2), np.argmax(np.abs(w), axis=1)]
            assert (pivots.real > 0).all() and (np.abs(pivots.imag) <= 1e-15 * pivots.real).all()


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
    def test_owns_a_copy_of_its_matrix(self):
        # A later write to the caller's array reaches neither the matrix nor
        # the eigenvalues cached with it.
        base = np.array([np.diag([0.5, 0.5]), np.eye(2)], dtype=complex)
        rho = cc.DensityMatrix(base[0])
        base[0] = np.diag([1.0, 0.0])
        np.testing.assert_array_equal(rho.matrix, np.diag([0.5, 0.5]))
        assert cc.von_neumann_entropy(rho) == 1.0
        assert base.flags.writeable

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotDensityMatrix):
            cc.DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(NotDensityMatrix):
            cc.DensityMatrix(np.diag([0.7, 0.7]))

    def test_rejects_an_overflowing_trace_without_a_warning(self):
        # np.trace overflowed to inf with a RuntimeWarning before the trace was refused.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotDensityMatrix, match="trace"):
                cc.DensityMatrix(np.diag([8e307] * 3))

    def test_rejects_negative(self):
        with pytest.raises(NotDensityMatrix):
            cc.DensityMatrix(np.diag([1.5, -0.5]))

    def test_rejects_an_empty_matrix(self):
        # A bare ValueError from the empty Hermiticity maximum before.
        with pytest.raises(NotDensityMatrix, match="non-empty square"):
            cc.DensityMatrix(np.zeros((0, 0)))


PSD_KINDS = ("psd", "skew above EPS_H", "skew below EPS_H", "indefinite", "non-finite",
             "8e307 entry")


@st.composite
def psd_check_inputs(draw):
    """A complex n x n matrix of each PSD_KINDS kind, of unit trace but for a
    non-finite or an 8e307 diagonal entry: the skews lie 1e-6 EPS_H from
    EPS_H, the negative eigenvalues span -1e-11 to -0.1 across -EPS_PSD."""
    kind = draw(st.sampled_from(PSD_KINDS))
    n = draw(st.integers(1 if kind in ("psd", "non-finite", "8e307 entry") else 2, 8))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    b = x @ x.conj().T + n * np.eye(n)
    b /= np.trace(b).real
    i, j = sorted(rng.choice(n, size=2, replace=False).tolist()) if n > 1 else (0, 0)
    if kind in ("non-finite", "8e307 entry") and draw(st.booleans()):
        j = i  # on the diagonal
    if kind.startswith("skew"):
        b[i, j] += mcore.EPS_H * (1.0 + (1e-6 if kind.endswith("above EPS_H") else -1e-6))
    elif kind == "indefinite":
        lam, u = np.linalg.eigh(b)
        t = 10.0 ** draw(st.floats(-11.0, -1.0))
        lam[-1] += lam[0] + t  # the trace stays 1
        lam[0] = -t
        b = (u * lam) @ u.conj().T
    elif kind == "non-finite":
        b[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf, complex(0.0, np.inf)]))
    elif kind == "8e307 entry":
        b[i, j] = 8e307
        b[j, i] = 8e307  # off the diagonal an indefinite matrix, on it a PSD one
    return b


def psd_verdict(mat):
    """The acceptance rule written out on one matrix: None, or why it fails."""
    if not np.isfinite(mat).all():
        return mcore.NON_FINITE
    if np.max(np.abs(mat - mat.conj().T)) > mcore.EPS_H:
        return mcore.NOT_HERMITIAN
    if np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[0] < -mcore.EPS_PSD:
        return mcore.NEGATIVE
    return None


def verdict_of(build, reasons):
    """None when build() passes the PSD check, or the reason that reasons, a
    list of (exception type, message start, reason), names for what it raised.
    An error of the diagonal check, which follows, counts as a pass; one of
    the trace check, which comes before the eigenvalue report, as "trace"."""
    try:
        build()
    except (NotDensityMatrix, MaskNotPSD, InvalidParameter) as exc:
        for kind, start, reason in reasons:
            if isinstance(exc, kind) and str(exc).startswith(start):
                return reason
        if not str(exc).startswith("trace"):
            raise
        return "trace"
    except DiagonalNotUnit:
        pass
    return None


def spy_psd_check(monkeypatch):
    """Calls of channels._psd_check, each recorded as (its input, its result)."""
    calls, check = [], mcore._psd_check

    def spy(mats, **options):  # DensityMatrix passes finite=True
        calls.append((mats, check(mats, **options)))
        return calls[-1][1]

    monkeypatch.setattr(mcore, "_psd_check", spy)
    return calls


class TestOnePsdCheck:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(mat=psd_check_inputs())
    def test_one_verdict_at_every_entry_point(self, mat):
        # The same matrix as a state, as a capacity mask and as a SectorMask
        # block: each is refused for the rule's reason or passes the check,
        # and every eigenvalue the check keeps is eigvalsh's of the Hermitian
        # part, bit for bit.
        n = len(mat)
        mask_reasons = [(MaskNotPSD, "mask has non-finite", mcore.NON_FINITE),
                        (MaskNotPSD, "mask is not Hermitian", mcore.NOT_HERMITIAN)]
        with pytest.MonkeyPatch.context() as mp:
            calls = spy_psd_check(mp)
            verdicts = [
                verdict_of(lambda: cc.DensityMatrix(mat), [
                    (InvalidParameter, "matrix contains NaN or Inf", mcore.NON_FINITE),
                    (NotDensityMatrix, "matrix is not Hermitian", mcore.NOT_HERMITIAN),
                    (NotDensityMatrix, "minimum eigenvalue", mcore.NEGATIVE)]),
                verdict_of(lambda: cap._check_mask(mat, n), mask_reasons
                           + [(MaskNotPSD, "mask minimum eigenvalue", mcore.NEGATIVE)]),
                verdict_of(lambda: cov.SectorMask(0.0, mat, tuple(range(n)), n),
                           [(kind, "sector 0.0: " + start, reason)
                            for kind, start, reason in mask_reasons]
                           + [(MaskNotPSD, "sector 0.0: domain submatrix eigenvalue",
                               mcore.NEGATIVE)]),
            ]
        # The spy saw the three checks, but for a non-finite state, which the
        # copy refuses first.
        assert len(calls) == (2 if verdicts[0] == mcore.NON_FINITE else 3)
        if verdicts[0] == "trace":  # an 8e307 diagonal: the state's check as recorded
            verdicts[0] = calls[0][1][2] and calls[0][1][2][1]
        assert verdicts == [psd_verdict(mat)] * 3
        for mats, (herm, vals, _) in calls:
            np.testing.assert_array_equal(mats.reshape(n, n), mat)
            for h, v in zip(herm, vals):
                np.testing.assert_array_equal(h, (mat + mat.conj().T) / 2.0)
                np.testing.assert_array_equal(v, np.linalg.eigvalsh(h))

    def test_every_entry_point_calls_it_once(self, monkeypatch, rng):
        mask = gen.random_unit_diagonal_mask(4, rng)
        calls = spy_psd_check(monkeypatch)
        rho = cc.DensityMatrix(mask / 4)
        assert len(calls) == 1
        cap._check_mask(mask, 4)
        assert len(calls) == 2
        cov.SectorMask(0.0, mask, (0, 1, 2, 3), 4)
        assert len(calls) == 3
        assert cov._mask_failure(mask, [0.0]) is None
        assert len(calls) == 4
        np.testing.assert_array_equal(calls[0][1][1][0], rho.eigenvalues)
        for mats, (_, _, failure) in calls[1:]:
            np.testing.assert_array_equal(mats.reshape(4, 4), mask)
            assert failure is None


@pytest.mark.parametrize("layout", ["transposed", "fortran"])
def test_inputs_in_any_memory_order(rng, layout):
    # The finiteness check viewed a copy in the input's own order as floats,
    # which a Fortran-ordered array cannot be: a bare ValueError.
    def arrange(mat):
        return np.ascontiguousarray(mat.T).T if layout == "transposed" else np.asfortranarray(mat)

    rho = gen.random_state(3, rng).matrix
    state = cc.DensityMatrix(arrange(rho))
    np.testing.assert_array_equal(state.matrix, rho)
    assert state.matrix.flags.c_contiguous
    choi = cc.choi_of(amplitude_damping(0.3)).matrix
    np.testing.assert_array_equal(cc.ChoiMatrix(2, 2, arrange(choi)).matrix, choi)
    ops = [np.array([[1.0, 0.5j], [0.0, 2.0]]), np.eye(2)]
    chan = cc.Channel(tuple(arrange(a) for a in ops))
    np.testing.assert_array_equal(chan._ops, ops)


class TestChannelValidation:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_a_non_finite_entry_in_any_operator(self, value):
        ops = [np.eye(2, dtype=complex) for _ in range(3)]
        ops[2][1, 0] = value * 1j
        with pytest.raises(ValueError, match="NaN or Inf"):
            cc.Channel(tuple(ops))

    @pytest.mark.parametrize("ops", [(np.eye(2), np.eye(3)), (1.0,), (np.ones(2),)],
                             ids=["two-shapes", "scalar", "vector"])
    def test_rejects_operators_that_are_not_matrices_of_one_shape(self, ops):
        with pytest.raises(DimensionMismatch):
            cc.Channel(ops)

    @pytest.mark.parametrize("shape", [(2, 0), (0, 2), (0, 0)])
    def test_rejects_operators_with_a_zero_dimension(self, shape):
        # is_cptp and the capacity path raised a bare ValueError on them.
        with pytest.raises(DimensionMismatch, match="non-empty matrices"):
            cc.Channel((np.zeros(shape),))

    def test_operators_are_read_only(self):
        chan = cc.Channel((np.eye(2), np.zeros((2, 2))))
        assert not any(k.flags.writeable for k in chan.kraus)

    def test_owns_a_copy_of_its_operators(self):
        # The caller's complex arrays stay writeable, and writing them later
        # changes neither the operators nor what is derived from them.
        a = np.eye(2, dtype=complex)
        cc.Channel((a,))
        assert a.flags.writeable
        base = np.array([np.eye(2), np.zeros((2, 2))], dtype=complex)
        chan = cc.Channel(tuple(base))
        base[0, 0, 0] = 2.0
        assert cc.is_cptp(chan).tp_defect == 0.0
        np.testing.assert_array_equal(chan.kraus[0], np.eye(2))

    def test_built_stacks_are_adopted_without_a_second_check(self, rng, monkeypatch):
        # reconstruct, kraus_from_choi and hadamard_channel hand the stack they
        # have just computed to the channel: no copy and no finiteness check,
        # the operators read-only rows of it, the same bits as a copy.
        spec = cc.Spectrum(np.arange(4.0))
        decomp = cov.decompose(gen.random_covariant(spec, rng), spec)
        choi = cc.choi_of(gen.random_cptp(3, rng))
        mask = gen.random_unit_diagonal_mask(5, rng)
        monkeypatch.setattr(mcore, "_as_complex", lambda mat: pytest.fail("copied again"))
        built = [cov.reconstruct(decomp), cc.kraus_from_choi(choi), cc.hadamard_channel(mask),
                 tim.build_shift_mixture(spec, [(0.0, 0.5), (1.0, 0.3), (7.0, 0.2)]).channel]
        monkeypatch.undo()
        for chan in built:
            assert not chan._ops.flags.writeable
            assert all(np.shares_memory(k, chan._ops) for k in chan.kraus)
            assert cc.Channel(chan.kraus)._ops.tobytes() == chan._ops.tobytes()


    def test_kraus_is_made_from_the_stack_on_first_read(self, rng):
        # A channel keeps its stack alone until kraus is read, adopted or
        # copied; kraus is then the read-only rows of the stack, made once, and
        # the JSON writer writes them as the operators given.
        given_ops = [np.eye(3, dtype=complex), np.diag([0.0, 1j, 0.5])]
        for chan in (cc.hadamard_channel(gen.random_unit_diagonal_mask(6, rng)),
                     cc.Channel(given_ops)):
            assert "kraus" not in chan.__dict__
            kraus = chan.kraus
            assert kraus is chan.kraus and len(kraus) == len(chan._ops)
            for k, row in zip(kraus, chan._ops):
                assert not k.flags.writeable and np.shares_memory(k, chan._ops)
                assert k.tobytes() == row.tobytes()
        assert not any(np.shares_memory(k, chan._ops) for k in given_ops)
        assert ser.channel_to_json(cc.Channel(given_ops)) == {
            "dim_in": 3, "dim_out": 3, "kraus": [ser.matrix_to_json(k) for k in given_ops]}


class TestChoiMatrixValidation:
    def test_owns_a_copy_of_its_matrix(self):
        mat = cc.choi_of(cc.identity_channel(2)).matrix.copy()
        choi = cc.ChoiMatrix(2, 2, mat)
        mat[0, 0] = 5.0
        assert choi.matrix[0, 0] == 1.0 and not choi.matrix.flags.writeable
        assert mat.flags.writeable
