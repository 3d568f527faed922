"""Coherent information and the dephasing-mask lower bound on quantum capacity.

For a Hadamard channel rho -> M * rho with a unit-diagonal PSD mask M on n
levels, the quantum capacity satisfies Q >= log2(n) - S(M/n).  The bound is
attained by the coherent information at the maximally mixed input, which this
module can verify numerically.

The coherent information is S(G(rho)) - S(G^c(rho)), with the complementary
channel G^c(rho)_ab = tr(A_a rho A_b^dag) over the Kraus operators A_a
(Devetak-Shor, CMP 256 (2005); King-Matsumoto-Nathanson-Ruskai,
quant-ph/0509126).  For the Hadamard channel with Kraus operators
diag(sqrt(lam_a) v_a) from the eigenpairs of M, G^c(I/n) = diag(lam/n): the
branches are orthogonal and the bound holds with equality.
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
    any purification |phi> of rho, so no n^2 x n^2 state is formed.
    """
    if channel.dim_in != channel.dim_out:
        raise DimensionMismatch("coherent information needs a square channel")
    if rho.dim != channel.dim_in:
        raise DimensionMismatch("state and channel dimensions differ")
    out_entropy = mc.von_neumann_entropy(mc.apply(channel, rho))
    kraus = np.stack(channel.kraus)
    k = len(kraus)
    comp = (kraus @ rho.matrix).reshape(k, -1) @ kraus.reshape(k, -1).conj().T
    return out_entropy - mc.von_neumann_entropy(DensityMatrix(comp))


def _check_mask(mask: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The mask as a complex array and its ascending eigenvalues, once checked."""
    mask = np.asarray(mask, dtype=complex)
    if mask.shape != (n, n):
        raise DimensionMismatch(f"mask shape {mask.shape} is not ({n}, {n})")
    if n == 0:
        raise DimensionMismatch("mask has no levels")
    if np.max(np.abs(mask - mask.conj().T)) > mc.EPS_H:
        raise MaskNotPSD("mask is not Hermitian")
    vals = np.linalg.eigvalsh(mask)
    if vals[0] < -mc.EPS_PSD:
        raise MaskNotPSD(f"mask minimum eigenvalue {vals[0]:.3e}")
    if np.max(np.abs(np.diag(mask) - 1.0)) > mc.EPS_TR:
        raise DiagonalNotUnit("mask diagonal is not identically 1")
    return mask, vals


def hadamard_channel(mask: np.ndarray) -> Channel:
    """The dephasing channel rho -> M * rho as a Kraus family.

    Kraus operators are the diagonal matrices built from the spectral vectors
    of M (deterministic eigendecomposition ordering, as everywhere else).
    """
    n = np.shape(mask)[0] if np.ndim(mask) else 0  # a 0-d mask fails the shape check
    mask = _check_mask(mask, n)[0]
    lmin, _, vecs = mc._scaled_eigenvectors(mask[None])
    if lmin[0] < -mc.EPS_PSD:
        raise MaskNotPSD(f"mask minimum eigenvalue {lmin[0]:.3e} below -{mc.EPS_PSD:.1e}")
    return Channel(tuple([np.diag(v) for v in vecs] or [np.zeros((n, n), dtype=complex)]))


def hadamard_bound(mask: np.ndarray, n: int) -> float:
    """Capacity lower bound log2(n) - S(M/n) in bits."""
    vals = _check_mask(mask, n)[1]
    return float(np.log2(n)) - mc.entropy_of_eigenvalues(vals / n)


def verify_hqc(mask: np.ndarray, n: int) -> float:
    """|coherent information at the maximally mixed input - hadamard_bound|.

    The bound is an equality at this input: the mask's spectral vectors are
    orthonormal, so the complementary output G^c(I/n) = diag(lam/n) has the
    spectrum of M/n, and the returned difference must vanish up to roundoff.
    """
    bound = hadamard_bound(mask, n)  # the mask is checked against n first
    mixed = DensityMatrix(np.eye(n) / n)
    return abs(coherent_information(hadamard_channel(mask), mixed) - bound)
