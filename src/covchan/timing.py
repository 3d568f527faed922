"""Reliable-timing detection and the circulant timing-channel capacity bound.

A covariant channel has the reliable timing property at step s if some input
state and its time translate produce perfectly distinguishable outputs.  When
the dynamics is periodic with period s*N, the channel restricted to the N
orbit states U_{sj} phi0 is a Hadamard channel with a circulant mask V,
V_{jk} = v(j - k), where v is the Fourier transform of the energy-shift
distribution evaluated at -s*j.  The DFT of v gives a probability vector q,
and the quantum capacity is at least log2(N) - S(q).

timing_channel reads the orthogonality defects and v of a pure phi0 from two
things: out_0 = G(|phi0><phi0|) and weights p_i at exact energy differences
sigma_i.  The orbit outputs of a covariant channel are U_{sj} out_0 U_{sj}^dag, so
tr(out_a out_b) depends on b - a alone (_lag_overlaps), and v(j) = sum_i p_i
e^{-i sigma_i s j} (_fourier, which also serves v_from_distribution).  The route is
read from the channel's sector label on the spectrum (covariant._label), made once per
(channel, spectrum) and kept on the channel.  When every Kraus operator A_k moves
energy by one exact difference sigma_k (all its nonzero entries (j', j) share one
E_j' - E_j, bit for bit: the label's shifts), the family is covariant by construction:
out_0 = sum_k a_k a_k^dag, a_k = A_k phi0, and p_k = |a_k|^2, and _fourier's table of
distinct |sigma_k| is the label's too.  Every other family is decomposed first
(decompose, which refuses a channel that is not covariant, and forms no Choi matrix
for a sector-pure one): out_0 = apply_sectors(|phi0><phi0|), and each sector pair
(j', j) weighs M_sigma(j, j) |phi0_j|^2 at its own exact E_j' - E_j, the weights
summed per distinct difference.  is_reliable_timing applies the Kraus operators to
phi0 and U_s phi0 and needs neither.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channels as mc
from .capacity import spectrum_to_bound
from .channels import Channel
from .covariant import (EnergyShiftDistribution, Spectrum, _check_phase, _label, _magnitudes,
                        _shift_kraus, apply_sectors, decompose, partial_shift)
from .errors import DimensionMismatch, InvalidParameter, NotPeriodic, NotReliableTiming
from .inputs import MAX_N, check_orbit_length  # noqa: F401 (MAX_N is timing.MAX_N)


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class ShiftMixture:
    """A mixture of partial shifts; trace preserving only on tp_support."""

    channel: Channel
    tp_support: tuple[int, ...]
    tp_defect: float  # Frobenius defect of sum p_j S^dag S - 1 on the full space


def _checked_phi0(channel: Channel, spectrum: Spectrum, phi0, s: float, N: int) -> np.ndarray:
    """phi0 as a complex vector, after the checks in order: the dimensions, the norm of
    phi0, then every phase argument E_k s j and (E_j' - E_j) s j, j = 0..N (the orbit's
    and its period's), finite."""
    phi0 = np.asarray(phi0, dtype=complex).reshape(-1)
    n = spectrum.dim
    if phi0.size != n or channel.dim_in != n:
        raise DimensionMismatch("phi0, channel and spectrum dimensions differ")
    if abs(np.linalg.norm(phi0) - 1.0) > mc.EPS_TR:
        raise InvalidParameter(f"phi0 must be normalized, got norm {np.linalg.norm(phi0)}")
    en = spectrum.energies  # increasing: the ends and the span bound every |E_k|, |E_j' - E_j|
    _check_phase([en[0], en[-1], float(en[-1]) - float(en[0])], float(s) * N, f"s * N, s = {s}")
    return phi0


def _lag_overlaps(out0: np.ndarray, spectrum: Spectrum, s: float, lags: np.ndarray) -> np.ndarray:
    """Re tr(out_0 out_d) at each lag d, out_d = U_{sd} out_0 U_{sd}^dag the orbit outputs of
    a covariant channel (out0 may be out_0's conjugate): sum_jl |out_0(j, l)|^2
    e^{-i(E_j - E_l) s d}, per-level phases."""
    ph = spectrum.phases(s * lags[:, None])
    return np.vecdot(ph, ph @ np.abs(out0) ** 2).real


def is_reliable_timing(
    channel: Channel, spectrum: Spectrum, phi0: np.ndarray, s: float
) -> float:
    """Orthogonality defect tr(G(rho) G(rho_s)) for rho = |phi0><phi0|.

    The reliable timing property holds at step s iff the defect vanishes.
    A step whose phases E_k s j or (E_j' - E_j) s j (j <= 2) are not finite raises
    InvalidParameter.  The Kraus operators act on phi0 and on U_s phi0: with rows b_k = A_k phi,
    G(|phi><phi|) = sum_k b_k b_k^dag.  No family is tested or decomposed.
    """
    phi0 = _checked_phi0(channel, spectrum, phi0, s, 2)
    b0, b1 = channel._ops @ phi0, channel._ops @ (spectrum.phases(s) * phi0)
    return float(np.vdot(b0.T @ b0.conj(), b1.T @ b1.conj()).real)  # tr(out_0 out_1), Hermitian


def build_shift_mixture(spectrum: Spectrum, shifts) -> ShiftMixture:
    """Channel rho -> sum_j p_j S_{sigma_j} rho S_{sigma_j}^dag.

    ``shifts`` is a list of (sigma, p) with finite sigmas and the p summing to one.
    The map is covariant by construction but trace preserving only on the subspace
    where every partial shift acts isometrically; that subspace is reported.
    """
    shifts = [(float(s), float(p)) for s, p in shifts]
    if not all(0.0 <= p < math.inf for _, p in shifts):  # NaN fails this too
        raise InvalidParameter("shift probabilities must be finite and non-negative")
    if not all(math.isfinite(s) for s, _ in shifts):  # it would name no sector: a zero shift
        raise InvalidParameter("shift sigmas must be finite")
    total = sum(p for _, p in shifts)
    if abs(total - 1.0) > mc.EPS_TR:
        raise InvalidParameter(f"shift probabilities sum to {total}, not 1")
    n = spectrum.dim
    held = [partial_shift(spectrum, sigma) for sigma, _ in shifts]
    sizes = np.array([len(sh.domain) for sh in held])
    domains = np.array([j for sh in held for j in sh.domain], dtype=np.intp)
    pairs = np.array([i for sh in held for i in sh.image], dtype=np.intp) * n + domains
    probs = np.array([p for _, p in shifts])
    channel = _shift_kraus(pairs, sizes, np.ones_like(sizes),  # one row sqrt(p_j) * 1 per shift
                           np.repeat(np.sqrt(probs)[:, None], sizes.max(), axis=1), n)
    weight = np.bincount(domains, np.repeat(probs, sizes), n)
    support = tuple(int(j) for j in np.nonzero(np.abs(weight - 1.0) <= mc.EPS_TP)[0])
    defect = float(np.linalg.norm(weight - 1.0))
    return ShiftMixture(channel=channel, tp_support=support, tp_defect=defect)


def _fourier(weights: np.ndarray, sigmas: np.ndarray, magnitudes, s: float,
             N: int) -> np.ndarray:
    """sum_i weights[i] e^{-i sigmas[i] s j} at j = 0..N-1, in np.longdouble: a phase
    argument sigma s j rounded to a double is off by up to |sigma s j| u (3e-14 at
    sigma s j = 300), and one such phase carries a sector's whole weight.  On x86-64
    the sums come within about one double ulp of a 40-digit evaluation; where longdouble
    is double they are what a double evaluation gives.

    Energy differences mostly come in exact +- pairs, so the exponentials are formed
    once per |sigma|: magnitudes is covariant._magnitudes(sigmas), the distinct |sigma|
    and each sigma's index in them.  The column of a negative sigma is its magnitude's
    conjugate, conj(e^{-ix}) being e^{ix} bit for bit; the columns keep the order of sigmas."""
    mags, col = magnitudes
    phases = np.exp(-1j * np.outer(np.arange(N) * np.longdouble(s), mags))[:, col]
    np.conjugate(phases, out=phases, where=sigmas < 0)
    return (phases @ weights).astype(complex)


def v_from_distribution(dist: EnergyShiftDistribution, s: float, N: int) -> np.ndarray:
    """Coherence vector v(j) = sum_sigma p(sigma) e^{-i sigma s j}, j < N (finite
    phases), for N in [1, MAX_N]."""
    check_orbit_length(N)
    sig = np.array([x for x, _ in dist.pairs])
    _check_phase(sig, float(s) * (N - 1), f"s * (N - 1), s = {s}")
    return _fourier(np.array([y for _, y in dist.pairs]), sig, _magnitudes(sig), s, N)


def circulant(v: np.ndarray) -> np.ndarray:
    """Circulant matrix V_{jk} = v((j - k) mod N) of a vector v of length N."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise InvalidParameter(f"v must be a vector, got shape {v.shape}")
    n = v.size
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return v[idx]


def timing_channel(
    channel: Channel,
    spectrum: Spectrum,
    phi0: np.ndarray,
    s: float,
    N: int,
    tol: float = 1e-9,
) -> TimingChannelReport:
    """Restrict a reliable-timing channel to its N orbit states and bound Q.

    Checks, in order: N, tol (>= 0, inf allowed: NaN would switch the
    orthogonality check off), the dimensions and phi0, the phase arguments
    E_k s j up to the period, periodicity of the dynamics (e^{-iHsN}
    proportional to the identity), pairwise orthogonality of the N outputs
    (a defect above tol raises NotReliableTiming), then evaluates

        v(j) = tr( U_{sj} P G(|phi_0><phi_{sj}|) )

    with P the support projector of G(|phi_0><phi_0|) and U_t = e^{-iHt}, as the
    module docstring says: a family that is not one of exact shifts is decomposed
    (NotCovariant, after periodicity) and read from its sectors.
    The DFT q_k = (1/N) sum_j v(j) e^{-2 pi i jk / N} yields the capacity
    lower bound log2(N) - S(q).
    """
    check_orbit_length(N)
    if not tol >= 0.0:
        raise InvalidParameter(f"tolerance must be >= 0 and not NaN, got {tol!r}")
    if channel.dim_out != spectrum.dim:
        raise DimensionMismatch("phi0, channel and spectrum dimensions differ")
    phi0 = _checked_phi0(channel, spectrum, phi0, s, N)

    # Periodicity: all phases omega_j * s * N must agree mod 2 pi.
    phases = spectrum.phases(s * N)
    period_defect = float(np.max(np.abs(phases - phases[0])))
    if not period_defect <= 1e-9:
        raise NotPeriodic(f"e^(-iHsN) deviates from a global phase by {period_defect:.3e}")

    label = _label(channel, spectrum)
    if label.shifts is None:  # the sectors' out_0; each pair's weight at its exact difference
        decomp, n, en = decompose(channel, spectrum), spectrum.dim, spectrum.energies
        out0 = apply_sectors(decomp, np.outer(phi0, phi0.conj()))
        pairs = decomp._layout.pairs  # slot after slot, as the diagonals
        diags = np.real(decomp._diagonals())
        sigmas, at = np.unique(en[pairs // n] - en[pairs % n], return_inverse=True)
        weights = np.bincount(at, diags * np.abs(phi0[pairs % n]) ** 2, sigmas.size)
        magnitudes = _magnitudes(sigmas)
    else:  # out_0's conjugate, a_k = A_k phi0 its rows' factors, of weight |a_k|^2 at sigma_k
        a = channel._ops @ phi0
        out0, weights = a.conj().T @ a, np.vecdot(a, a).real
        sigmas, magnitudes = label.shifts, label.magnitudes

    # Pairwise orthogonality: tr(out_a out_b) for a < b is a function of b - a alone.
    defect = float(_lag_overlaps(out0, spectrum, s, np.arange(1, N)).max(initial=0.0))
    if defect > tol:
        raise NotReliableTiming(defect, tol)
    v = _fourier(weights, sigmas, magnitudes, s, N)  # v(j) = sum_i p_i e^{-i sigma_i s j}

    # The circulant built from v is Hermitian for covariant channels, so the
    # DFT spectrum is real up to roundoff.
    q = (np.fft.fft(v) / N).real
    return TimingChannelReport(
        N=N, s=float(s), v=v, q=q, bound=spectrum_to_bound(q), orthogonality_defect=defect
    )
