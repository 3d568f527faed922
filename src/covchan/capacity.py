"""Coherent information and the dephasing-mask lower bound on quantum capacity.

For a Hadamard channel rho -> M * rho with a unit-diagonal PSD mask M on n
levels, the quantum capacity satisfies Q >= log2(n) - S(M/n).  The bound is
attained by the coherent information at the maximally mixed input, which this
module can verify numerically.

The coherent information is S(G(rho)) - S(G^c(rho)), with the complementary
channel G^c(rho)_ab = tr(A_a rho A_b^dag) over the Kraus operators A_a
(Devetak-Shor, CMP 256 (2005); King-Matsumoto-Nathanson-Ruskai,
quant-ph/0509126).  A Hadamard channel has the Kraus operators diag(v_a), v_a
= sqrt(lam_a) u_a from the eigenpairs of M; with V the n x n matrix whose
columns are the v_a, its complementary output depends on the diagonal of rho
alone,

    G^c(rho) = V^T diag(rho) conj(V),

so a mask is never turned into Kraus operators here: I_c(rho) = S(M * rho) -
S(V^T diag(rho) conj(V)) is O(n^3).  At rho = I/n the vectors are
orthonormal, G^c(I/n) = diag(lam/n) has the spectrum of M/n and the bound
holds with equality.  verify_hqc tests that equality from the vectors: it
reads G(I/n) = diag(V V^dag)/n and the spectrum of V^T conj(V)/n, and
compares their entropies with the bound's log2(n) - S(lam/n), lam from the
mask check's own eigvalsh.  Vectors that do not decompose M move the first
entropy, and a spectrum that is not M's moves the second.
"""
from __future__ import annotations

import numpy as np

from . import channels as mc
from .channels import Channel, DensityMatrix
from .errors import DiagonalNotUnit, DimensionMismatch, MaskNotPSD


def coherent_information(channel: Channel, rho: DensityMatrix) -> float:
    """I_c = S(G(rho)) - S(G^c(rho)) in bits.

    G^c(rho)_ab = tr(A_a rho A_b^dag) is the complementary channel on the
    K Kraus indices; its output has the entropy of (id (x) G)(|phi><phi|) for
    any purification |phi> of rho, so no n^2 x n^2 state is formed.  Both
    outputs are read from the one stack X_m = A_m rho.
    """
    if channel.dim_in != channel.dim_out:
        raise DimensionMismatch("coherent information needs a square channel")
    if rho.dim != channel.dim_in:
        raise DimensionMismatch("state and channel dimensions differ")
    kraus = channel._ops
    k = len(kraus)
    prods = kraus @ rho.matrix
    comp = prods.reshape(k, -1) @ kraus.reshape(k, -1).conj().T
    out = mc._kraus_sum(mc._side_by_side(prods), kraus)
    del prods  # freed before the outputs are validated
    return mc.von_neumann_entropy(DensityMatrix(out)) - mc.von_neumann_entropy(DensityMatrix(comp))


def _check_mask(mask: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The mask's Hermitian part as a complex array and its ascending eigenvalues, once checked."""
    mask = np.asarray(mask, dtype=complex)
    if mask.shape != (n, n):
        raise DimensionMismatch(f"mask shape {mask.shape} is not ({n}, {n})")
    if n == 0:
        raise DimensionMismatch("mask has no levels")
    if not np.isfinite(mask).all():  # NaN fails no comparison below
        raise MaskNotPSD("mask has non-finite entries")
    adjoint = mask.conj().T
    if np.max(np.abs(mask - adjoint)) > mc.EPS_H:
        raise MaskNotPSD("mask is not Hermitian")
    mask = (mask + adjoint) / 2.0
    vals = np.linalg.eigvalsh(mask)
    if vals[0] < -mc.EPS_PSD:
        raise MaskNotPSD(f"mask minimum eigenvalue {vals[0]:.3e}")
    if np.max(np.abs(np.diag(mask) - 1.0)) > mc.EPS_TR:
        raise DiagonalNotUnit("mask diagonal is not identically 1")
    return mask, vals


def _bound(vals: np.ndarray, n: int) -> float:
    """log2(n) - S(lam/n) from the checked mask's eigenvalues lam."""
    return float(np.log2(n)) - mc.entropy_of_eigenvalues(vals / n)


def _mask_coherent_information(mask: np.ndarray, rho: DensityMatrix | None) -> float:
    """I_c(rho) = S(M * rho) - S(V^T diag(rho) conj(V)) of the Hadamard channel
    of a checked mask M, rho None for I/n.

    V comes from one eigh of M.  At I/n the output diag(V V^dag)/n is read
    from the vectors, as the Kraus operators diag(v_a) would give it.
    """
    n = mask.shape[0]
    if rho is not None and rho.dim != n:
        raise DimensionMismatch("state and channel dimensions differ")
    vals, vecs = np.linalg.eigh(mask)
    vecs = vecs * np.sqrt(np.clip(vals, 0.0, None))
    if rho is None:
        weights = np.full(n, 1.0 / n)
        out = mc.entropy_of_eigenvalues(np.vecdot(vecs, vecs).real / n)
    else:
        weights = np.diag(rho.matrix).real
        out = mc.von_neumann_entropy(DensityMatrix(mask * rho.matrix))
    comp = vecs.T @ (weights[:, None] * vecs.conj())
    return out - mc.von_neumann_entropy(DensityMatrix(comp))


def hadamard_channel(mask: np.ndarray) -> Channel:
    """The dephasing channel rho -> M * rho as a Kraus family.

    Kraus operators are the diagonal matrices built from the spectral vectors
    of M (deterministic eigendecomposition ordering, as everywhere else).
    """
    n = np.shape(mask)[0] if np.ndim(mask) else 0  # a 0-d mask fails the shape check
    vecs = mc._scaled_eigenvectors(_check_mask(mask, n)[0][None])[2]
    return Channel(tuple([np.diag(v) for v in vecs] or [np.zeros((n, n), dtype=complex)]))


def hadamard_bound(mask: np.ndarray, n: int) -> float:
    """Capacity lower bound log2(n) - S(M/n) in bits."""
    return _bound(_check_mask(mask, n)[1], n)


def verify_hqc(mask: np.ndarray, n: int) -> float:
    """|coherent information at the maximally mixed input - hadamard_bound|.

    The bound is an equality at this input: the mask's spectral vectors are
    orthonormal, so the complementary output G^c(I/n) = V^T conj(V)/n has the
    spectrum of M/n, and the returned difference must vanish up to roundoff.
    The coherent information comes from the vectors of one eigh, the bound
    from the eigenvalues of the mask check.
    """
    mask, vals = _check_mask(mask, n)
    return abs(_mask_coherent_information(mask, None) - _bound(vals, n))
