"""Dense complex linear algebra and quantum channel primitives.

States are density matrices, channels are lists of Kraus operators, and the
dual Choi representation follows the index convention

    C[(j', j), (k', k)] = <j'| G(|j><k|) |k'>

with the pair (j', j) flattened row-major as j' * dim_in + j.  Everything in
this module is a pure function over immutable inputs.  A DensityMatrix, a
Channel and a ChoiMatrix each own a read-only copy of the arrays they are
built from, so a caller's later writes never reach them.

A Channel keeps its Kraus operators as one (K, dim_out, dim_in) stack (the
kraus tuple of its rows is made when first read), and derives from it, each
once: its trace-preservation defect and the sum of squares of its entries
that the Gram bound reads, which is_cptp and decompose both need, and its
support S, the Choi pairs at which some operator is nonzero.  No channel
keeps a Choi matrix: choi_of forms the product on S x S (_choi_on_support)
in each call, and covariant forms it at most once per spectrum, keeping only
what it reads of it on its sector label of the operators, one per spectrum:
O(K) numbers, two floats, the index tables of the sectors the channel
touches and their raw Choi blocks, O(sum d^2) entries, never an |S| x |S|
matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, NotCP, NotDensityMatrix

# Validation tolerances.  Doubles give ~1e-12 roundoff at the matrix
# sizes this package targets (dim <= 64), so 1e-9 leaves headroom.  The
# Gaussian mask blocks C C^T reach dim 186; over dims 8-186 and std_dev 0.1-1
# (step 0.1) they were exactly symmetric and their most negative eigenvalue
# was -1.6e-14 (at dim 173, std_dev 0.1, sigma 0).  Each is a Gram product of
# its factor, whose rounding bound (_gram_bound) is at most 1.6e-11 at dim 186
# for any accepted std_dev, within EPS_PSD / 2 = 5e-10: every Gaussian mask,
# like every block decompose keeps and every Choi matrix is_cptp passes, is
# proved with no factorisation and no eigensolve.  Every other state (but the
# complements _formed_entropy reads), mask or block takes the one check,
# _psd_check: finite, skew at most EPS_H, no Hermitian-part eigenvalue below -EPS_PSD.
EPS_H = 1e-9
EPS_TR = 1e-9
EPS_PSD = 1e-9
EPS_TP = 1e-9

_U = float(np.finfo(float).eps) / 2.0  # unit roundoff, 2^-53
_ETA = float(np.finfo(float).smallest_subnormal)  # 2^-1074


# Why _psd_check refuses a matrix; the first two end a sentence on a mask.
NON_FINITE, NOT_HERMITIAN, NEGATIVE = "has non-finite entries", "is not Hermitian", "negative"


def _psd_check(mats: np.ndarray, finite: bool = False):
    """The one positivity check of a state, a mask or a (m, d, d) stack of blocks: the
    Hermitian parts, their ascending eigenvalues (one eigvalsh) and None, or (i, reason) for
    the first matrix with a non-finite entry, a skew above EPS_H or an eigenvalue vals[i, 0]
    below -EPS_PSD.  The parts and eigenvalues stop before the first non-finite matrix;
    finite skips that scan for a stack the caller scanned (DensityMatrix's copy)."""
    stack = mats.reshape(-1, *mats.shape[-2:])
    count = end = len(stack)
    if not finite and not np.isfinite(stack).all():
        end = int(np.argmin(np.isfinite(stack).all(axis=(-2, -1))))  # the first non-finite
        stack = stack[:end]
    adjoint = stack.conj().swapaxes(-1, -2)
    skew = np.abs(stack - adjoint).max(axis=(-2, -1), initial=0.0) > EPS_H
    herm = (stack + adjoint) / 2.0
    vals = np.linalg.eigvalsh(herm)
    bad = skew | (vals.min(axis=-1, initial=0.0) < -EPS_PSD)
    if bad.any():
        i = int(bad.argmax())
        return herm, vals, (i, NOT_HERMITIAN if skew[i] else NEGATIVE)
    return herm, vals, None if end == count else (end, NON_FINITE)


def _as_complex(mat) -> np.ndarray:
    """A C-ordered complex copy of mat that owns its memory, checked finite."""
    arr = np.array(mat, dtype=complex, order="C")  # view(float) needs the last axis contiguous
    if not np.all(np.isfinite(arr.view(float))):
        raise InvalidParameter("matrix contains NaN or Inf entries")
    return arr


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A positive unit-trace operator, validated on construction.

    ``eigenvalues`` holds the ascending spectrum of the Hermitian part that
    the positivity check computes, so entropies need no second eigensolve.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = _as_complex(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
            raise NotDensityMatrix(f"expected a non-empty square matrix, got shape {mat.shape}")
        _, (vals,), failure = _psd_check(mat[None], finite=True)  # _as_complex scanned it
        if failure == (0, NOT_HERMITIAN):
            raise NotDensityMatrix("matrix is not Hermitian within tolerance")
        with np.errstate(over="ignore"):  # an overflowing trace is refused below, as inf
            trace = np.trace(mat)
        if abs(trace.real - 1.0) > EPS_TR or abs(trace.imag) > EPS_TR:
            raise NotDensityMatrix(f"trace {trace} is not 1 within tolerance")
        if failure is not None:
            raise NotDensityMatrix(f"minimum eigenvalue {vals[0]:.3e} below -{EPS_PSD:.1e}")
        mat.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Channel:
    """A completely positive map stored as a list of Kraus operators.

    Trace preservation and complete positivity are not enforced here; use
    :func:`is_cptp` to check either.  Kraus operators are dim_out x dim_in,
    the rows of the channel's own read-only (K, dim_out, dim_in) stack: a
    copy of the operators given, checked finite, or a stack the package has
    just built from checked arrays, adopted as it is (_adopt).
    """

    kraus: tuple[np.ndarray, ...]
    _ops: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ops = [np.asarray(k, dtype=complex) for k in self.kraus]
        if not ops:
            raise InvalidParameter("channel needs at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) != 2 or 0 in shape or any(k.shape != shape for k in ops):
            raise DimensionMismatch("all Kraus operators must be non-empty matrices of one shape")
        self._keep(_as_complex(ops))  # one copy and one finiteness check for the family

    @classmethod
    def _adopt(cls, stack: np.ndarray) -> Channel:
        """The channel of a fresh C-ordered complex (K, dim_out, dim_in) stack
        that nothing else holds, finite because it was computed from checked
        arrays: kept with no copy and no second check."""
        channel = object.__new__(cls)
        channel._keep(stack)
        return channel

    def _keep(self, stack: np.ndarray) -> None:
        stack.setflags(write=False)
        self.__dict__.pop("kraus", None)  # the operators given: kraus is read from the stack
        self.__dict__["_ops"] = stack

    def __getattr__(self, name):
        # Reached only for an unset attribute: kraus, the stack's rows, made when first read.
        if name != "kraus":
            raise AttributeError(name)
        self.__dict__["kraus"] = kraus = tuple(self._ops)
        return kraus

    @property
    def dim_in(self) -> int:
        return self._ops.shape[2]

    @property
    def dim_out(self) -> int:
        return self._ops.shape[1]

    @cached_property
    def _support(self) -> np.ndarray:
        """S, the Choi pairs at which some Kraus operator is nonzero, ascending."""
        support = np.flatnonzero(self._ops.reshape(len(self._ops), -1).any(axis=0))
        support.setflags(write=False)
        return support

    @cached_property
    def _tp_defect(self) -> float:
        """_tp_defect of the stack, computed once for is_cptp and decompose."""
        return _tp_defect(self._ops)

    @cached_property
    def _squares(self) -> float:
        """_sum_of_squares of the stack, taken once for the Gram certificates of
        is_cptp and decompose."""
        return _sum_of_squares(self._ops.reshape(1, -1))


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Choi matrix of a channel under the module's index convention."""

    dim_in: int
    dim_out: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_complex(self.matrix)
        n = self.dim_in * self.dim_out
        if mat.shape != (n, n):
            raise DimensionMismatch(f"Choi matrix must be {n}x{n}, got {mat.shape}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class CPTPReport:
    tp_defect: float
    cp_defect: float


def apply_matrix(channel: Channel, mat: np.ndarray) -> np.ndarray:
    """Apply the Kraus sum to an arbitrary (not necessarily Hermitian) matrix,
    one product of the stacked A_m mat with the stacked A_m (_kraus_sum),
    which holds two copies of the Kraus stack while it runs."""
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (channel.dim_in, channel.dim_in):
        raise DimensionMismatch(
            f"operator shape {mat.shape} does not match channel input dim {channel.dim_in}"
        )
    ops = channel._ops
    return _kraus_sum(_side_by_side(ops @ mat), ops)


def _side_by_side(stack: np.ndarray) -> np.ndarray:
    """The (K, rows, cols) stack's matrices side by side, [S_0 ... S_{K-1}]: a copy
    (a view when K = 1)."""
    return stack.swapaxes(0, 1).reshape(stack.shape[1], -1)


def _kraus_sum(prods: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """sum_m X_m A_m^dag as one product [X_0 ... X_{K-1}] [A_0 ... A_{K-1}]^dag,
    prods the left factor (_side_by_side of the X_m) and ops the (K, dim_out,
    dim_in) stack of the A_m.  The right factor is laid out in one copy and
    conjugated in place, so the product holds two stacks, prods included."""
    right = np.empty((ops.shape[1], len(ops), ops.shape[2]), dtype=complex)
    np.conjugate(ops.swapaxes(0, 1), out=right)
    return prods @ right.reshape(ops.shape[1], -1).T


def apply(channel: Channel, rho: DensityMatrix) -> DensityMatrix:
    """Apply the channel to a state: rho -> sum_j A_j rho A_j^dag."""
    return DensityMatrix(apply_matrix(channel, rho.matrix))


def choi_of(channel: Channel) -> ChoiMatrix:
    """Choi matrix C = sum_m vec(A_m) vec(A_m)^dag with row-major vec.

    The product is the channel's Choi matrix on its support (the pairs some
    Kraus operator touches) and the rest of C is zero, so this matrix and the
    blocks covariant reads from the same product agree bit for bit.
    """
    support = channel._support
    size = channel.dim_in * channel.dim_out
    mat = np.zeros((size, size), dtype=complex)
    mat[np.ix_(support, support)] = _choi_on_support(support, channel._ops)
    return ChoiMatrix(channel.dim_in, channel.dim_out, mat)


def _choi_on_support(support: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """The Choi matrix on S x S of a (K, dim_out, dim_in) stack, S the ascending
    pairs support, which holds every pair where some operator is nonzero.

    That matrix is V_S^T conj(V_S), V_S the rows vec(A_m) restricted to S;
    every Choi entry in a row or column off S is exactly zero.  With S all
    pairs the product runs on the rows themselves, as choi_of always did.
    """
    vecs = ops.reshape(len(ops), -1)
    if support.size < vecs.shape[1]:
        vecs = vecs[:, support]
    return vecs.T @ vecs.conj()


def _deterministic_eig(stacks, keys=None, hermitian=False):
    """Eigenpairs of every matrix of a sequence of stacks, keys[i] the distinct
    sort keys of stack i's m matrices (by default they are numbered stack
    after stack), from one eigh per stack (LAPACK takes one size at a time).
    A stack is one of two sources.  An (m, d, d) stack holds the matrices: the
    eigh is of its Hermitian part, or of the stack itself when hermitian says
    every matrix is exactly Hermitian (its Hermitian part is then itself, bit
    for bit), and gives d unit eigenvectors each.  An (m, p, d) stack with
    p < d holds a factor F of each matrix M = F^T conj(F), whose rank is at
    most p: the eigh is of the p x p Gram matrices G = conj(F) F^T, and each
    eigenpair (lam, u) of G gives the scaled eigenvector w = F^T u of M
    (M w = F^T G u = lam w, ||w||^2 = u^H G u = lam), p each.  One tail
    serves both: each vector rotated so its largest-magnitude entry is real
    positive, all of them sorted by matrix key, then by descending
    eigenvalue, ties broken by lexicographic comparison of the (phase-fixed)
    entries.  Returns the eigenvalues (N,), the vectors as rows (N, D)
    zero-padded to the largest size, each one's matrix key (N,) and whether
    it is scaled already, from a factor (N,), None when no stack is one."""
    shapes = [stack.shape for stack in stacks]
    count = sum(m * p for m, p, _ in shapes)
    vals, rows = np.empty(count), np.zeros((count, max(d for *_, d in shapes)), dtype=complex)
    thin = [p < d for _, p, d in shapes]
    scaled = np.repeat(thin, [m * p for m, p, _ in shapes]) if any(thin) else None
    start = 0
    for (m, p, d), stack in zip(shapes, stacks):
        if p < d:  # the Gram's eigenvectors u, taken to F^T u
            lam, vecs = np.linalg.eigh(stack.conj() @ stack.swapaxes(1, 2))
            vecs = stack.swapaxes(1, 2) @ vecs
        else:
            herm = stack if hermitian else (stack + stack.conj().swapaxes(1, 2)) / 2.0
            lam, vecs = np.linalg.eigh(herm)
        vals[start:start + m * p] = lam.reshape(-1)
        rows[start:start + m * p].reshape(m, p, -1)[:, :, :d] = vecs.swapaxes(1, 2)
        start += m * p
    sizes = np.repeat([p for _, p, _ in shapes], [m for m, *_ in shapes])  # pairs per matrix
    key = np.repeat(np.arange(sizes.size) if keys is None else np.concatenate(keys), sizes)
    pivots = rows[np.arange(count), np.argmax(np.abs(rows), axis=1)]
    rows *= np.exp(-1j * np.angle(pivots))[:, None]
    # lexsort's last key is the primary one: the matrix, then -vals, then
    # Re/Im of entry 0, 1, ... of the eigenvector.  The entries decide only
    # between equal eigenvalues of one matrix: without one, two keys suffice.
    order = np.lexsort((-vals, key))
    if ((key[order[1:]] == key[order[:-1]]) & (vals[order[1:]] == vals[order[:-1]])).any():
        order = np.lexsort(np.vstack([rows.view(float).T[::-1], -vals, key]))
    return vals[order], rows[order], key[order], None if scaled is None else scaled[order]


def _scaled_eigenvectors(stacks, keys=None, hermitian=False):
    """Vectors sqrt(lam) v of every matrix of a sequence of stacks of PSD
    matrices or of their factors (_deterministic_eig's two sources), in its
    order: matrix after matrix by key, each one's smallest eigenvalue and
    number of eigenpairs (d; p, and the Gram's smallest, for a factor), the
    number of vectors kept, and the kept vectors as rows zero-padded to the
    largest size, a factor's w times 1.  kraus_from_choi raises on a smallest
    eigenvalue below -EPS_PSD.  The rank cutoff is relative and much tighter
    than the PSD tolerance so that the choi -> kraus -> choi round trip stays
    accurate to ~1e-13.  hermitian is _deterministic_eig's."""
    vals, rows, key, scaled = _deterministic_eig(stacks, keys, hermitian)
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])  # each matrix's largest
    sizes = np.append(first[1:], key.size) - first
    keep = vals > np.repeat(1e-14 * np.maximum(vals[first], 1.0), sizes)  # a prefix of each
    count = np.add.reduceat(keep, first, dtype=np.intp)
    gain = np.sqrt(vals[keep])
    if scaled is not None:
        gain[scaled[keep]] = 1.0
    return vals[first + sizes - 1], sizes, count, gain[:, None] * rows[keep]


def kraus_from_choi(choi: ChoiMatrix) -> Channel:
    """Recover a Kraus family from a Choi matrix by eigendecomposition.

    Eigenvalues in [-EPS_PSD, 0) are clipped to zero; anything more negative
    raises NotCP.  The returned operators are ordered by descending Choi
    eigenvalue with a deterministic tie-break.
    """
    if np.max(np.abs(choi.matrix - choi.matrix.conj().T)) > EPS_H:
        raise NotCP(f"Choi matrix is not Hermitian within {EPS_H:.1e}")
    shape = (choi.dim_out, choi.dim_in)
    lmin, _, _, vecs = _scaled_eigenvectors([choi.matrix[None]])
    if lmin[0] < -EPS_PSD:
        raise NotCP(f"Choi minimum eigenvalue {lmin[0]:.3e} below -{EPS_PSD:.1e}")
    ops = vecs.reshape((-1,) + shape)
    return Channel._adopt(ops if len(ops) else np.zeros((1,) + shape, dtype=complex))


def is_cptp(channel: Channel) -> CPTPReport:
    """Report the trace-preservation and complete-positivity defects.

    tp_defect is the Frobenius norm of sum_j A_j^dag A_j - 1, cp_defect the
    magnitude of the most negative Choi eigenvalue (0 if none).  With V the
    matrix whose column m is vec(A_m), the Choi matrix is the Gram product
    V V^dag, and V^dag V (the K x K Gram matrix of the Kraus family) has the
    same nonzero spectrum.  A Kraus family is CP by construction, so
    cp_defect measures only roundoff in the operators.  It is 0.0, with no
    product and no eigensolve, when the rounding bound on V (_gram_bound,
    inner dimension K) proves the computed Choi matrix within EPS_PSD / 2
    of PSD.  Only when that bound fails is the Gram matrix diagonalised, a
    K x K eigensolve, whose most negative eigenvalue is reported: roundoff
    of either sign on its K - rank zero eigenvalues.
    """
    ops = channel._ops
    vecs = ops.reshape(len(ops), -1)  # row m = vec(A_m)
    cp_defect = 0.0
    if not _gram_certified(vecs[None], len(ops), 1.0, channel._squares):
        cp_defect = max(0.0, -float(np.linalg.eigvalsh(vecs.conj() @ vecs.T).min()))
    return CPTPReport(tp_defect=channel._tp_defect, cp_defect=cp_defect)


def _gram_bound(factors: np.ndarray, k: int, scale: float = 1.0, squares=None) -> float:
    """A bound beta, over each factor X of the stack factors (entry i holds
    the entries of X_i, d rows of inner dimension k, in any shape), on how
    far the Gram product P = fl(X X^H) and any block the SectorMask check
    can be handed from it lie from an exact PSD matrix: P itself (the Choi
    matrix is_cptp vouches for, X = V), its principal submatrices, its
    pinchings (zero rows and columns where a row of X is zero), their
    Hermitian parts, and these scaled by diag(s) on both sides with scale >=
    max s^2.  The bound is a priori, one sum of squares per factor and no
    factorisation; it holds only for a P formed from X in the caller's own
    code path.

    Each real and imaginary part of P_ij is a sum of the 2 k (k for a real
    X) real products of X's entries, in whatever order, blocking or fusing
    the GEMM chooses.  The inner-product bound (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sections 3.1 and 3.6), with
    gradual underflow adding at most eta = 2^-1074 per product, gives
    entrywise

        |P - X X^H| <= sqrt2 gamma_2k |X| |X|^H + 2 sqrt2 k eta,

    and || |X| |X|^H ||_F <= ||X||_F^2 = F.  A principal submatrix or a
    pinching keeps each entry's bound.  A Hermitian part fl((B + B^H) / 2)
    adds u |B| + eta per entry, u = 2^-53, and the congruence fl(B * fl(s
    s^T)) scales what came before by at most scale and adds 2 u (1 + u)
    scale |B| + eta.  With D = diag(s), every such block B', Hermitised by
    the caller and once more by the check, satisfies

        ||B' - D X X^H D||_F <= beta = scale gamma F + 4 (k + 2) d eta max(scale, 1),

    gamma = 4 (k + 2) u: it exceeds sqrt2 gamma_2k + 4 u by at least 5 u
    for any k below 1e13, which absorbs the second-order terms, eta F, and
    the roundings of this bound and of the check's comparisons.  D X X^H D
    is PSD, so the check's Hermitian part has lambda_min >= -beta (Weyl) and
    its skew is at most 2 beta per entry, and entries within beta of it are
    finite.  The blocks pass when beta <= tau = min(EPS_H, EPS_PSD) / 2: the
    other half of EPS_PSD is left to the eigensolver's reading of
    lambda_min, whose backward error is a modest multiple of d u ||B'||.  F
    is the computed sum of the n real squares (_sum_of_squares, or squares
    when the caller has kept it), inflated to (1 + 2 n u) F + n eta for its
    own rounding.  At k = 186 and F = 186 beta is 1.6e-11; at k = 4096 and
    F = 64, 1.2e-10.
    """
    size = factors[0].size
    d, n = size // k, size * (2 if np.iscomplexobj(factors) else 1)
    sq = _sum_of_squares(factors) if squares is None else squares
    return (scale * 4 * (k + 2) * _U * ((1.0 + 2 * n * _U) * sq + n * _ETA)
            + 4 * (k + 2) * d * _ETA * max(scale, 1.0))


def _gram_certified(factors: np.ndarray, k: int, scale: float = 1.0, squares=None) -> bool:
    """Whether _gram_bound proves every block of the Gram products of
    factors, as described there, to pass the SectorMask check."""
    return _gram_bound(factors, k, scale, squares) <= min(EPS_H, EPS_PSD) / 2.0


def _sum_of_squares(factors: np.ndarray) -> float:
    """F of _gram_bound: the largest sum of the squared real and imaginary parts
    of one factor's entries, over the stack factors (entry i holds factor i)."""
    terms = factors.reshape(len(factors), -1)
    if np.iscomplexobj(terms):
        terms = terms.view(float)
    return float(np.einsum("ij,ij->i", terms, terms).max(initial=0.0))


def _one_per_row(rows: np.ndarray) -> bool:
    """Whether every row of a 2-d array has at most one nonzero entry."""
    return bool((np.count_nonzero(rows, axis=1) <= 1).all())


def _tp_defect(ops: np.ndarray) -> float:
    """||sum_m A_m^dag A_m - 1||_F of a C-ordered (K, dim_out, dim_in) stack of Kraus operators.

    When every operator has at most one nonzero entry per row (every family
    covariant.reconstruct, hadamard_channel and build_shift_mixture build, and
    amplitude damping), each product conj(A_ij) A_ik with j != k is zero, so
    the sum is diagonal and its diagonal is the column sums of |A|^2: read so,
    in K dim_out dim_in products, with no conjugated copy of the stack.  Any
    other stack takes the product.  The norm squares the entries, so the
    difference is first scaled by the power of two that brings its largest
    entry into [1/2, 1): the scaling is exact, and so is undoing it after the
    square root, so the value is the unscaled norm's to the bit wherever that
    one does not overflow."""
    n = ops.shape[-1]
    stacked = ops.reshape(-1, n)  # rows of A_0, then of A_1, ...
    if _one_per_row(stacked[:ops.shape[1]]) and _one_per_row(stacked):  # A_0 first, to fail fast
        parts = stacked.view(float)  # the real and imaginary part of each entry, side by side
        squares = np.einsum("rk,rk->k", parts, parts)
        diff = squares[0::2] + squares[1::2] - 1.0
    else:
        diff = stacked.conj().T @ stacked - np.eye(n)
    peak = float(np.max(np.abs(diff)))
    if not 0.0 < peak < math.inf:
        return float(np.linalg.norm(diff))
    scale = math.ldexp(1.0, -math.frexp(peak)[1])
    return float(np.linalg.norm(diff * scale)) / scale


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy in bits, with 0 log 0 := 0, from the spectrum the
    state was validated with."""
    return entropy_of_eigenvalues(rho.eigenvalues)


def _formed_entropy(mat: np.ndarray) -> float:
    """Entropy in bits of a matrix formed from checked inputs, as Channel._adopt keeps a stack:
    the Hermitian part as _psd_check forms it and one eigvalsh, with no copy, scan or trace."""
    return entropy_of_eigenvalues(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0))


def entropy_of_eigenvalues(vals: np.ndarray) -> float:
    """Shannon entropy (base 2) of a spectrum, dropping roundoff negatives.

    Eigenvalues in [-EPS_PSD, 0] add nothing; anything more negative raises
    NotDensityMatrix.
    """
    vals = np.asarray(vals, dtype=float)
    if vals.min() < -EPS_PSD:
        raise NotDensityMatrix(f"eigenvalue {vals.min():.3e} below -{EPS_PSD:.1e}")
    pos = vals[vals > 0]
    return float(-(pos * np.log2(pos)).sum())


def identity_channel(dim: int) -> Channel:
    return Channel((np.eye(dim, dtype=complex),))
