"""Dense complex linear algebra and quantum channel primitives.

States are density matrices, channels are lists of Kraus operators, and the
dual Choi representation follows the index convention

    C[(j', j), (k', k)] = <j'| G(|j><k|) |k'>

with the pair (j', j) flattened row-major as j' * dim_in + j.  Everything in
this module is a pure function over immutable inputs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, NotCP, NotDensityMatrix

# Validation tolerances.  Doubles give ~1e-12 roundoff at the matrix
# sizes this package targets (dim <= 64), so 1e-9 leaves headroom.  The
# Gaussian mask blocks reach dim 186; over dims 8-186 and std_dev 0.1-1 (step
# 0.1) their largest Hermiticity residue was 2.2e-16 and their most negative
# eigenvalue -1.1e-14 (at dim 150, std_dev 0.1, sigma 0).
EPS_H = 1e-9
EPS_TR = 1e-9
EPS_PSD = 1e-9
EPS_TP = 1e-9


def _as_complex(mat) -> np.ndarray:
    arr = np.asarray(mat, dtype=complex)
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError("matrix contains NaN or Inf entries")
    return arr


@dataclass(frozen=True)
class DensityMatrix:
    """A positive unit-trace operator, validated on construction.

    ``eigenvalues`` holds the ascending spectrum of the Hermitian part that
    the positivity check computes, so entropies need no second eigensolve.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = _as_complex(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise NotDensityMatrix(f"expected a square matrix, got shape {mat.shape}")
        if np.max(np.abs(mat - mat.conj().T)) > EPS_H:
            raise NotDensityMatrix("matrix is not Hermitian within tolerance")
        if abs(np.trace(mat).real - 1.0) > EPS_TR or abs(np.trace(mat).imag) > EPS_TR:
            raise NotDensityMatrix(f"trace {np.trace(mat)} is not 1 within tolerance")
        vals = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
        if vals[0] < -EPS_PSD:
            raise NotDensityMatrix(f"minimum eigenvalue {vals[0]:.3e} below -{EPS_PSD:.1e}")
        mat.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Channel:
    """A completely positive map stored as a list of Kraus operators.

    Trace preservation and complete positivity are not enforced here; use
    :func:`is_cptp` to check either.  Kraus operators are dim_out x dim_in.
    """

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ops:
            raise InvalidParameter("channel needs at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) != 2 or any(k.shape != shape for k in ops):
            raise DimensionMismatch("all Kraus operators must be matrices of one shape")
        _as_complex(np.stack(ops))  # one finiteness check for the whole family
        for k in ops:
            k.setflags(write=False)
        object.__setattr__(self, "kraus", ops)

    @property
    def dim_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.kraus[0].shape[0]


@dataclass(frozen=True)
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
    """Apply the Kraus sum to an arbitrary (not necessarily Hermitian) matrix."""
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (channel.dim_in, channel.dim_in):
        raise DimensionMismatch(
            f"operator shape {mat.shape} does not match channel input dim {channel.dim_in}"
        )
    out = np.zeros((channel.dim_out, channel.dim_out), dtype=complex)
    for k in channel.kraus:
        out += k @ mat @ k.conj().T
    return out


def apply(channel: Channel, rho: DensityMatrix) -> DensityMatrix:
    """Apply the channel to a state: rho -> sum_j A_j rho A_j^dag."""
    return DensityMatrix(apply_matrix(channel, rho.matrix))


def choi_of(channel: Channel) -> ChoiMatrix:
    """Choi matrix C = sum_m vec(A_m) vec(A_m)^dag with row-major vec."""
    vecs = np.stack(channel.kraus).reshape(len(channel.kraus), -1)  # row m = vec(A_m)
    return ChoiMatrix(channel.dim_in, channel.dim_out, vecs.T @ vecs.conj())


def _deterministic_eig(mats: np.ndarray):
    """Eigendecomposition of a matrix, or of each matrix of a (m, d, d) stack,
    with a reproducible ordering and phase gauge.

    Eigenpairs are sorted by descending eigenvalue; ties are broken by
    lexicographic comparison of the (phase-fixed) eigenvector entries.  Each
    eigenvector is rotated so its largest-magnitude entry is real positive.
    The eigenvectors are returned as the rows of one array per matrix.
    """
    shape = mats.shape
    stack = mats.reshape((-1,) + shape[-2:])
    vals, vecs = np.linalg.eigh((stack + stack.conj().swapaxes(1, 2)) / 2.0)
    m, d = vals.shape
    pivots = vecs[np.arange(m)[:, None], np.argmax(np.abs(vecs), axis=1), np.arange(d)]
    rows = (vecs * np.exp(-1j * np.angle(pivots))[:, None, :]).swapaxes(1, 2)
    rows = np.ascontiguousarray(rows).reshape(m * d, d)

    # lexsort's last key is the primary one: the matrix, then -vals, then
    # Re/Im of entry 0, 1, ... of the eigenvector.
    order = np.lexsort(np.vstack([rows.view(float).T[::-1], -vals.reshape(-1),
                                  np.arange(m).repeat(d)]))
    return vals.reshape(-1)[order].reshape(shape[:-1]), rows[order].reshape(shape)


def _scaled_eigenvectors(mats: np.ndarray):
    """Vectors sqrt(lam) v of each matrix of a (m, d, d) stack of PSD matrices,
    in _deterministic_eig order.

    Returns the smallest eigenvalue of each matrix, the number of vectors
    each keeps, and the kept vectors as the rows of one array, matrix after
    matrix; callers raise on a smallest eigenvalue below -EPS_PSD.  The rank
    cutoff is relative and much tighter than the PSD tolerance so that the
    choi -> kraus -> choi round trip stays accurate to ~1e-13.
    """
    vals, vecs = _deterministic_eig(mats)
    cutoff = 1e-14 * np.maximum(vals.max(axis=1, initial=0.0), 1.0)
    keep = vals > cutoff[:, None]  # a prefix of each matrix's descending eigenvalues
    return vals.min(axis=1), keep.sum(axis=1), np.sqrt(vals[keep])[:, None] * vecs[keep]


def kraus_from_choi(choi: ChoiMatrix) -> Channel:
    """Recover a Kraus family from a Choi matrix by eigendecomposition.

    Eigenvalues in [-EPS_PSD, 0) are clipped to zero; anything more negative
    raises NotCP.  The returned operators are ordered by descending Choi
    eigenvalue with a deterministic tie-break.
    """
    if np.max(np.abs(choi.matrix - choi.matrix.conj().T)) > EPS_PSD:
        raise NotCP(f"Choi matrix is not Hermitian within {EPS_PSD:.1e}")
    shape = (choi.dim_out, choi.dim_in)
    lmin, _, vecs = _scaled_eigenvectors(choi.matrix[None])
    if lmin[0] < -EPS_PSD:
        raise NotCP(f"Choi minimum eigenvalue {lmin[0]:.3e} below -{EPS_PSD:.1e}")
    ops = vecs.reshape((-1,) + shape)
    return Channel(tuple(ops) if len(ops) else (np.zeros(shape, dtype=complex),))


def is_cptp(channel: Channel) -> CPTPReport:
    """Report the trace-preservation and complete-positivity defects.

    tp_defect is the Frobenius norm of sum_j A_j^dag A_j - 1, cp_defect the
    magnitude of the most negative Choi eigenvalue (0 if none).  With V the
    matrix whose column m is vec(A_m), the Choi matrix is V V^dag, and V^dag V
    (the K x K Gram matrix of the Kraus family) has the same nonzero
    spectrum, so the Gram matrix is diagonalised instead: a channel with K
    Kraus operators costs a K x K eigensolve.  A Kraus family is CP by
    construction, so cp_defect measures only roundoff in the operators.
    """
    ops = np.stack(channel.kraus)
    stacked = ops.reshape(-1, channel.dim_in)  # rows of A_0, then of A_1, ...
    gram = stacked.conj().T @ stacked  # sum_m A_m^dag A_m
    tp_defect = float(np.linalg.norm(gram - np.eye(channel.dim_in)))
    vecs = ops.reshape(len(ops), -1)  # row m = vec(A_m)
    lmin = float(np.linalg.eigvalsh(vecs.conj() @ vecs.T).min())  # V^dag V
    return CPTPReport(tp_defect=tp_defect, cp_defect=max(0.0, -lmin))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy in bits, with 0 log 0 := 0, from the spectrum the
    state was validated with."""
    return entropy_of_eigenvalues(rho.eigenvalues)


def entropy_of_eigenvalues(vals: np.ndarray) -> float:
    """Shannon entropy (base 2) of a spectrum, clipping roundoff negatives.

    Eigenvalues in [-EPS_PSD, 0) are clipped to zero; anything more negative
    raises NotDensityMatrix.
    """
    vals = np.asarray(vals, dtype=float)
    if vals.min() < -EPS_PSD:
        raise NotDensityMatrix(f"eigenvalue {vals.min():.3e} below -{EPS_PSD:.1e}")
    vals = np.clip(vals, 0.0, None)
    pos = vals[vals > 0]
    return float(-np.sum(pos * np.log2(pos)))


def identity_channel(dim: int) -> Channel:
    return Channel((np.eye(dim, dtype=complex),))
