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

from dataclasses import dataclass

import numpy as np

from . import channels as mc
from .channels import Channel, DensityMatrix
from .errors import DiagonalNotUnit, DimensionMismatch, MaskNotPSD


@dataclass(frozen=True)
class CapacityReport:
    coherent_information: float  # bits
    hadamard_bound: float | None  # bits; None when no mask was given
    input_dim: int


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


def _check_mask(mask: np.ndarray, n: int) -> np.ndarray:
    mask = np.asarray(mask, dtype=complex)
    if mask.shape != (n, n):
        raise DimensionMismatch(f"mask shape {mask.shape} is not ({n}, {n})")
    if np.max(np.abs(mask - mask.conj().T)) > mc.EPS_H:
        raise MaskNotPSD("mask is not Hermitian")
    lmin = float(np.linalg.eigvalsh(mask).min())
    if lmin < -mc.EPS_PSD:
        raise MaskNotPSD(f"mask minimum eigenvalue {lmin:.3e}")
    if np.max(np.abs(np.diag(mask) - 1.0)) > mc.EPS_TR:
        raise DiagonalNotUnit("mask diagonal is not identically 1")
    return mask


def hadamard_channel(mask: np.ndarray) -> Channel:
    """The dephasing channel rho -> M * rho as a Kraus family.

    Kraus operators are the diagonal matrices built from the spectral vectors
    of M (deterministic eigendecomposition ordering, as everywhere else).
    """
    n = np.asarray(mask).shape[0]
    mask = _check_mask(mask, n)
    vecs = mc._scaled_eigenvectors(mask, MaskNotPSD, "mask minimum")
    return Channel(tuple([np.diag(v) for v in vecs] or [np.zeros((n, n), dtype=complex)]))


def hadamard_bound(mask: np.ndarray, n: int) -> float:
    """Capacity lower bound log2(n) - S(M/n) in bits."""
    mask = _check_mask(mask, n)
    vals = np.linalg.eigvalsh(mask / n)
    return float(np.log2(n)) - mc.entropy_of_eigenvalues(vals)


def verify_hqc(mask: np.ndarray, n: int) -> float:
    """|coherent information at the maximally mixed input - hadamard_bound|.

    The bound is an equality at this input: the mask's spectral vectors are
    orthonormal, so the complementary output G^c(I/n) = diag(lam/n) has the
    spectrum of M/n, and the returned difference must vanish up to roundoff.
    """
    mask = _check_mask(mask, n)
    chan = hadamard_channel(mask)
    mixed = DensityMatrix(np.eye(n) / n)
    return abs(coherent_information(chan, mixed) - hadamard_bound(mask, n))


def capacity_report(
    channel: Channel,
    rho: DensityMatrix,
    mask: np.ndarray | None = None,
) -> CapacityReport:
    bound = None if mask is None else hadamard_bound(mask, channel.dim_in)
    return CapacityReport(
        coherent_information=coherent_information(channel, rho),
        hadamard_bound=bound,
        input_dim=channel.dim_in,
    )
