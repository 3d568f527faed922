"""Reliable-timing detection and the circulant timing-channel capacity bound.

A covariant channel has the reliable timing property at step s if some input
state and its time translate produce perfectly distinguishable outputs.  When
the dynamics is periodic with period s*N, the channel restricted to the N
orbit states U_{sj} phi0 is a Hadamard channel with a circulant mask V,
V_{jk} = v(j - k), where v is the Fourier transform of the energy-shift
distribution evaluated at -s*j.  The DFT of v gives a probability vector q,
and the quantum capacity is at least log2(N) - S(q).  For a pure phi0 each of
these is a Gram product of the orbit factor B_j = [A_k U_{sj} phi0]_k (_orbit).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels as mc
from .channels import Channel
from .covariant import EnergyShiftDistribution, Spectrum, partial_shift
from .errors import DimensionMismatch, InvalidParameter, NotPeriodic, NotReliableTiming


@dataclass(frozen=True)
class TimingChannelReport:
    N: int
    s: float
    v: np.ndarray  # coherence vector, length N
    q: np.ndarray  # DFT spectrum, length N, a probability vector
    bound: float  # bits
    orthogonality_defect: float

    def __post_init__(self):
        v = np.asarray(self.v, dtype=complex)
        q = np.asarray(self.q, dtype=float)
        v.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class ShiftMixture:
    """A mixture of partial shifts; trace preserving only on tp_support."""

    channel: Channel
    tp_support: tuple[int, ...]
    tp_defect: float  # Frobenius defect of sum p_j S^dag S - 1 on the full space


def _orbit(channel: Channel, spectrum: Spectrum, phi0: np.ndarray, s: float, N: int):
    """Check phi0 and the dimensions once; return (ph, B): ph[j] is the diagonal of
    U_{sj} = e^{-iHsj} and B[j][:, k] = A_k U_{sj} phi0 (N x dim_out x K).  With
    rho0 = |phi0><phi0| and phi_{sj} = U_{sj} phi0 the Kraus sum gives
        G(U_{sj} rho0 U_{sj}^dag) = B_j B_j^dag,    G(|phi0><phi_{sj}|) = B_0 B_j^dag.
    """
    phi0 = np.asarray(phi0, dtype=complex).reshape(-1)
    n = spectrum.dim
    if phi0.size != n or channel.dim_in != n:
        raise DimensionMismatch("phi0, channel and spectrum dimensions differ")
    if abs(np.linalg.norm(phi0) - 1.0) > mc.EPS_TR:
        raise InvalidParameter(f"phi0 must be normalized, got norm {np.linalg.norm(phi0)}")
    ph = spectrum.phases(s * np.arange(N)[:, None])
    b = np.stack(channel.kraus).reshape(-1, n) @ (ph * phi0).T  # rows (k, output level)
    return ph, b.reshape(-1, channel.dim_out, N).transpose(2, 1, 0)


def is_reliable_timing(
    channel: Channel, spectrum: Spectrum, phi0: np.ndarray, s: float
) -> float:
    """Orthogonality defect tr(G(rho) G(rho_s)) for rho = |phi0><phi0|.

    The reliable timing property holds at step s iff the defect vanishes.
    """
    b = _orbit(channel, spectrum, phi0, s, 2)[1]
    out = b @ b.conj().swapaxes(1, 2)
    return float(np.vdot(out[0], out[1]).real)  # tr(out_0 out_1) for Hermitian outputs


def build_shift_mixture(spectrum: Spectrum, shifts) -> ShiftMixture:
    """Channel rho -> sum_j p_j S_{sigma_j} rho S_{sigma_j}^dag.

    ``shifts`` is a list of (sigma, p) with the p summing to one.  The map is
    covariant by construction but trace preserving only on the subspace where
    every partial shift acts isometrically; that subspace is reported.
    """
    shifts = [(float(s), float(p)) for s, p in shifts]
    total = sum(p for _, p in shifts)
    if abs(total - 1.0) > mc.EPS_TR:
        raise ValueError(f"shift probabilities sum to {total}, not 1")
    ops = []
    weight = np.zeros(spectrum.dim)
    for sigma, p in shifts:
        sh = partial_shift(spectrum, sigma)
        ops.append(np.sqrt(p) * sh.matrix)
        weight[list(sh.domain)] += p
    support = tuple(int(j) for j in np.nonzero(np.abs(weight - 1.0) <= mc.EPS_TP)[0])
    defect = float(np.linalg.norm(weight - 1.0))
    return ShiftMixture(channel=Channel(tuple(ops)), tp_support=support, tp_defect=defect)


def v_from_distribution(dist: EnergyShiftDistribution, s: float, N: int) -> np.ndarray:
    """Coherence vector v(j) = sum_sigma p(sigma) e^{-i sigma s j}."""
    sig = np.array([x for x, _ in dist.pairs])
    p = np.array([y for _, y in dist.pairs])
    j = np.arange(N)
    return (p[None, :] * np.exp(-1j * np.outer(j * s, sig))).sum(axis=1)


def circulant(v: np.ndarray) -> np.ndarray:
    """Circulant matrix V_{jk} = v((j - k) mod N)."""
    v = np.asarray(v, dtype=complex)
    n = v.size
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return v[idx]


def spectrum_to_bound(q: np.ndarray) -> float:
    """log2(N) - S(q) for a DFT probability vector q."""
    q = np.asarray(q, dtype=float)
    return float(np.log2(q.size)) - mc.entropy_of_eigenvalues(q)


def timing_channel(
    channel: Channel,
    spectrum: Spectrum,
    phi0: np.ndarray,
    s: float,
    N: int,
    tol: float = 1e-9,
) -> TimingChannelReport:
    """Restrict a reliable-timing channel to its N orbit states and bound Q.

    Checks, in order: N and s*N, the dimensions and phi0, periodicity of the
    dynamics (e^{-iHsN} proportional to the identity), pairwise orthogonality
    of the N outputs, then evaluates, with the orbit factor B of _orbit,

        v(j) = tr( U_{sj} P G(|phi_0><phi_{sj}|) ) = tr( U_{sj} P B_0 B_j^dag )

    with P the support projector of G(|phi_0><phi_0|) and U_t = e^{-iHt}.
    The DFT q_k = (1/N) sum_j v(j) e^{-2 pi i jk / N} yields the capacity
    lower bound log2(N) - S(q).
    """
    if N < 1:
        raise InvalidParameter("N must be positive")
    if not np.isfinite(s * N):
        raise InvalidParameter(f"step s = {s} and period s * N must be finite")
    if channel.dim_out != spectrum.dim:
        raise DimensionMismatch("phi0, channel and spectrum dimensions differ")
    ph, b = _orbit(channel, spectrum, phi0, s, N)

    # Periodicity: all phases omega_j * s * N must agree mod 2 pi.
    phases = spectrum.phases(s * N)
    period_defect = float(np.max(np.abs(phases - phases[0])))
    if not period_defect <= 1e-9:  # NaN when omega * s * N overflows
        raise NotPeriodic(f"e^(-iHsN) deviates from a global phase by {period_defect:.3e}")

    # Pairwise orthogonality: tr(out_a out_b) = vdot(out_a, out_b), out_j being Hermitian.
    outs = b @ b.conj().swapaxes(1, 2)
    flat = outs.reshape(N, -1)
    defect = float((flat.conj() @ flat.T).real[np.triu_indices(N, 1)].max(initial=0.0))
    if defect > tol:
        raise NotReliableTiming(defect, tol)

    # Support projector of G(rho0), relative eigenvalue cutoff.
    vals, vecs = np.linalg.eigh(outs[0])
    cut = mc.EPS_PSD * max(float(vals.max(initial=0.0)), 0.0)
    support = vecs[:, vals > cut]
    proj = support @ support.conj().T

    v = np.einsum("ja,ak,jak->j", ph, proj @ b[0], b.conj())

    # The circulant built from v is Hermitian for covariant channels, so the
    # DFT spectrum is real up to roundoff.
    q = (np.fft.fft(v) / N).real
    return TimingChannelReport(
        N=N, s=float(s), v=v, q=q, bound=spectrum_to_bound(q), orthogonality_defect=defect
    )
