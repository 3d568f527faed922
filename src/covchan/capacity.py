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
entropy, and a spectrum that is not M's moves the second.  Each G^c(rho) is the Gram
matrix of the vectors vec(A_a rho^{1/2}), formed from checked inputs, with the trace of
G(rho): G(rho) keeps its state check and G^c(rho) skips it (channels._formed_entropy).
"""
from __future__ import annotations

import numpy as np

from . import channels as mc
from .channels import Channel, DensityMatrix
from .covariant import _shift_kraus
from .errors import DiagonalNotUnit, DimensionMismatch, InvalidParameter, MaskNotPSD


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
    del prods  # freed before the output is validated
    return mc.von_neumann_entropy(DensityMatrix(out)) - mc._formed_entropy(comp)


def _check_mask(mask: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The mask's Hermitian part as a complex array and its ascending eigenvalues, once checked."""
    mask = np.asarray(mask, dtype=complex)
    if mask.shape != (n, n):
        raise DimensionMismatch(f"mask shape {mask.shape} is not ({n}, {n})")
    if n == 0:
        raise DimensionMismatch("mask has no levels")
    herm, vals, failure = mc._psd_check(mask[None])
    if failure is not None:
        raise MaskNotPSD(f"mask minimum eigenvalue {vals[0, 0]:.3e}" if failure[1] == mc.NEGATIVE
                         else f"mask {failure[1]}")
    if np.abs(np.diag(herm[0]) - 1.0).max() > mc.EPS_TR:
        raise DiagonalNotUnit("mask diagonal is not identically 1")
    return herm[0], vals[0]


def spectrum_to_bound(q: np.ndarray) -> float:
    """log2(N) - S(q) in bits for a probability vector q of length N: the
    Hadamard bound of a mask whose eigenvalues are N q.  A q that is not a
    non-empty 1-d vector raises InvalidParameter.  Its sum is not checked:
    timing_channel passes the q whose sum is tr G(|phi0><phi0|), below 1 for a
    trace-decreasing channel."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 1 or q.size == 0:
        raise InvalidParameter(f"q must be a non-empty vector, got shape {q.shape}")
    return float(np.log2(q.size)) - mc.entropy_of_eigenvalues(q)


def _mask_numbers(mask: np.ndarray, vals: np.ndarray,
                  rho: DensityMatrix | None) -> tuple[float, float, float]:
    """(I_c(rho), the bound, |I_c(I/n) - the bound|) of the Hadamard channel of a
    mask M that passed _check_mask with eigenvalues vals, rho None for I/n.

    I_c(rho) = S(M * rho) - S(V^T diag(rho) conj(V)), V from one eigh of M.  At
    I/n the output diag(V V^dag)/n is read from the vectors, as the Kraus
    operators diag(v_a) would give it.
    """
    n = mask.shape[0]
    lam, vecs = np.linalg.eigh(mask)
    vecs = vecs * np.sqrt(np.clip(lam, 0.0, None))

    def complement(weights):  # S(G^c(rho)) from the diagonal of rho
        return mc._formed_entropy(vecs.T @ (weights[:, None] * vecs.conj()))

    mixed = coh = (mc.entropy_of_eigenvalues(np.vecdot(vecs, vecs).real / n)
                   - complement(np.full(n, 1.0 / n)))
    if rho is not None:
        if rho.dim != n:
            raise DimensionMismatch("state and channel dimensions differ")
        # checked: its trace can miss 1 by M's diagonal slack plus rho's trace slack
        coh = (mc.von_neumann_entropy(DensityMatrix(mask * rho.matrix))
               - complement(np.diag(rho.matrix).real))
    bound = spectrum_to_bound(vals / n)
    return coh, bound, abs(mixed - bound)


def hadamard_channel(mask: np.ndarray) -> Channel:
    """The dephasing channel rho -> M * rho as the Kraus family diag(v), v the spectral
    vectors of M in deterministic order: one sigma = 0 sector on all levels (_shift_kraus)."""
    n = np.shape(mask)[0] if np.ndim(mask) else 0  # a 0-d mask fails the shape check
    _, _, count, vecs = mc._scaled_eigenvectors([_check_mask(mask, n)[0][None]])
    return _shift_kraus(np.arange(n) * (n + 1), np.array([n]), count, vecs, n)  # pairs (j, j)


def hadamard_bound(mask: np.ndarray, n: int) -> float:
    """Capacity lower bound log2(n) - S(M/n) in bits."""
    return spectrum_to_bound(_check_mask(mask, n)[1] / n)


def verify_hqc(mask: np.ndarray, n: int) -> float:
    """|coherent information at the maximally mixed input - hadamard_bound|,
    zero up to roundoff: at I/n the bound holds with equality (module docstring)."""
    return _mask_numbers(*_check_mask(mask, n), None)[2]
