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
# sizes this package targets (dim <= 64), so 1e-9 leaves headroom.
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
    """A positive unit-trace operator, validated on construction."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_complex(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise NotDensityMatrix(f"expected a square matrix, got shape {mat.shape}")
        if np.max(np.abs(mat - mat.conj().T)) > EPS_H:
            raise NotDensityMatrix("matrix is not Hermitian within tolerance")
        if abs(np.trace(mat).real - 1.0) > EPS_TR or abs(np.trace(mat).imag) > EPS_TR:
            raise NotDensityMatrix(f"trace {np.trace(mat)} is not 1 within tolerance")
        lmin = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0).min())
        if lmin < -EPS_PSD:
            raise NotDensityMatrix(f"minimum eigenvalue {lmin:.3e} below -{EPS_PSD:.1e}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

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
        ops = tuple(_as_complex(k) for k in self.kraus)
        if not ops:
            raise InvalidParameter("channel needs at least one Kraus operator")
        shape = ops[0].shape
        if any(k.shape != shape for k in ops):
            raise DimensionMismatch("all Kraus operators must share one shape")
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


def _deterministic_eig(mat: np.ndarray):
    """Eigendecomposition with a reproducible ordering and phase gauge.

    Eigenpairs are sorted by descending eigenvalue; ties are broken by
    lexicographic comparison of the (phase-fixed) eigenvector entries.  Each
    eigenvector is rotated so its largest-magnitude entry is real positive.
    The eigenvectors are returned as the rows of one array.
    """
    vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    pivots = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vals.size)]
    rows = np.ascontiguousarray((vecs * np.exp(-1j * np.angle(pivots))).T)

    # lexsort's last key is the primary one: -vals, then Re/Im of entry 0, 1, ...
    order = np.lexsort(np.vstack([rows.view(float).T[::-1], -vals]))
    return vals[order], rows[order]


def _scaled_eigenvectors(mat: np.ndarray, error: type, label: str):
    """Vectors sqrt(lam) v of a PSD matrix in _deterministic_eig order.

    An eigenvalue below -EPS_PSD raises ``error``.  The rank cutoff is relative
    and much tighter than the PSD tolerance so that the choi -> kraus -> choi
    round trip stays accurate to ~1e-13.
    """
    vals, vecs = _deterministic_eig(mat)
    if vals.min() < -EPS_PSD:
        raise error(f"{label} eigenvalue {vals.min():.3e} below -{EPS_PSD:.1e}")
    cutoff = 1e-14 * max(float(vals.max(initial=0.0)), 1.0)
    return [np.sqrt(lam) * v for lam, v in zip(vals, vecs) if lam > cutoff]


def kraus_from_choi(choi: ChoiMatrix) -> Channel:
    """Recover a Kraus family from a Choi matrix by eigendecomposition.

    Eigenvalues in [-EPS_PSD, 0) are clipped to zero; anything more negative
    raises NotCP.  The returned operators are ordered by descending Choi
    eigenvalue with a deterministic tie-break.
    """
    if np.max(np.abs(choi.matrix - choi.matrix.conj().T)) > EPS_PSD:
        raise NotCP(f"Choi matrix is not Hermitian within {EPS_PSD:.1e}")
    shape = (choi.dim_out, choi.dim_in)
    vecs = _scaled_eigenvectors(choi.matrix, NotCP, "Choi minimum")
    ops = [v.reshape(shape) for v in vecs]
    return Channel(tuple(ops or [np.zeros(shape, dtype=complex)]))


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
    """Von Neumann entropy in bits, with 0 log 0 := 0."""
    return entropy_of_eigenvalues(np.linalg.eigvalsh(rho.matrix))


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


def hadamard_product(mask: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Entrywise (Schur) product of two equally shaped matrices."""
    mask = np.asarray(mask, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if mask.shape != rho.shape:
        raise DimensionMismatch(f"shapes {mask.shape} and {rho.shape} differ")
    return mask * rho


def bipartite_apply(channel: Channel, state: DensityMatrix) -> DensityMatrix:
    """Apply id (x) G to a state on the doubled space, G acting on the right factor."""
    n = channel.dim_in
    if channel.dim_out != n:
        raise DimensionMismatch("bipartite_apply needs a square channel")
    if state.dim != n * n:
        raise DimensionMismatch(f"state dim {state.dim} is not {n}**2")
    eye = np.eye(n)
    out = np.zeros((n * n, n * n), dtype=complex)
    for k in channel.kraus:
        ext = np.kron(eye, k)
        out += ext @ state.matrix @ ext.conj().T
    return DensityMatrix(out)


def identity_channel(dim: int) -> Channel:
    return Channel((np.eye(dim, dtype=complex),))
