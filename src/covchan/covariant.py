"""Time covariance: spectra, sector extraction, and the canonical
decomposition of a covariant channel into partial energy shifts composed with
Hadamard dephasing masks.

A channel G commuting with the Hamiltonian conjugation has the form

    G(rho) = sum_sigma  S_sigma (M_sigma * rho) S_sigma^dag

where sigma runs over the energy differences of the spectrum, S_sigma is the
0/1 partial permutation shifting each level by sigma where the target exists,
M_sigma is a positive mask supported on the shift's domain, and * is the
entrywise product.  Sector sigma is the set of Choi pairs (omega + sigma,
omega); a Spectrum decides these sets once, and every function here reads
that one sector map: a sigma names the cluster of differences within match_tol
of it, in partial_shift, SectorDecomposition.sector and EnergyShiftDistribution
alike.  Each mask is a principal block of one Choi matrix, which makes the
extraction independent of the Kraus gauge.

A sector is stored as sigma, the shift's domain and image as index tuples,
and the d x d mask block on the domain; every routine here reads the blocks.
PartialShift.matrix and SectorMask.mask are dim x dim views built on demand.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import channels as mc
from .channels import Channel, DensityMatrix
from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    MaskNotPSD,
    NotCovariant,
    NotCP,
    UnknownSector,
)


@dataclass(frozen=True)
class Spectrum:
    """Strictly increasing energies of a non-degenerate diagonal Hamiltonian.

    match_tol declares when two floating-point energy differences are "the
    same" sigma; spectra with gaps at or below match_tol are rejected.

    The sorted differences omega_{j'} - omega_j are clustered once, a step
    above match_tol starting a new cluster: sigmas[i] is the mean of cluster
    i and sector_pairs[i] its flat Choi pairs j' * n + j, by input level j.
    A cluster holding a level twice is no partial permutation and raises.
    The map is built with no loop over clusters: the pairs are sorted by
    (cluster, input level) and split at the cluster starts, the means are one
    reduceat, and a level held twice shows as equal neighbouring sorted keys.
    """

    energies: np.ndarray
    match_tol: float = 0.0  # 0 -> default relative tolerance
    sigmas: np.ndarray = field(init=False, repr=False, compare=False)
    sector_pairs: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    _spans: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        en = np.asarray(self.energies, dtype=float)
        if en.ndim != 1 or en.size == 0:
            raise DegenerateSpectrum("spectrum must be a non-empty 1-d list of energies")
        if not np.all(np.isfinite(en)):
            raise DegenerateSpectrum("spectrum contains non-finite energies")
        tol = self.match_tol
        if tol <= 0.0:
            tol = 1e-9 * max(1.0, float(np.max(np.abs(en))))
        if en.size > 1 and float(np.min(np.diff(en))) <= tol:
            raise DegenerateSpectrum(
                f"energies must be strictly increasing with gaps > {tol:.3e}"
            )
        n = en.size
        diffs = (en[:, None] - en[None, :]).reshape(-1)
        order = np.argsort(diffs, kind="stable")
        ranked = diffs[order]
        cuts = np.flatnonzero(np.diff(ranked) > tol) + 1
        starts, ends = np.r_[0, cuts], np.r_[cuts, n * n]
        cluster = np.repeat(np.arange(starts.size), ends - starts)  # per ranked difference
        in_key = cluster * n + order % n
        by_input = np.argsort(in_key, kind="stable")
        sector_pairs = np.split(order[by_input], cuts)
        # np.mean's reduction is 0 + pairwise(cluster); reduceat would add the first
        # difference to the pairwise sum of the rest, so each run starts with a 0.
        padded = np.zeros(n * n + starts.size)
        padded[np.arange(n * n) + cluster + 1] = ranked
        sigmas = np.add.reduceat(padded, starts + np.arange(starts.size)) / (ends - starts)
        in_key = in_key[by_input]
        out_key = np.sort(cluster * n + order // n)
        twice = (in_key[1:] == in_key[:-1]) | (out_key[1:] == out_key[:-1])
        if twice.any():
            raise DegenerateSpectrum(
                f"energy differences near {sigmas[cluster[1:][twice][0]]:.9g} chain within "
                f"match_tol {tol:.3e} into one sector that holds a level twice"
            )
        spans = np.stack([ranked[starts], ranked[ends - 1]])  # lowest, highest
        for arr in (en, sigmas, spans, *sector_pairs):
            arr.setflags(write=False)
        object.__setattr__(self, "energies", en)
        object.__setattr__(self, "match_tol", tol)
        object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "sector_pairs", tuple(sector_pairs))
        object.__setattr__(self, "_spans", spans)

    @property
    def dim(self) -> int:
        return self.energies.size

    def phases(self, t: float) -> np.ndarray:
        """Diagonal e^{-i omega_j t} of e^{-iHt}."""
        return np.exp(-1j * self.energies * t)

    def _cluster_at(self, sigma: float) -> int | None:
        """Index i of the cluster holding a difference within match_tol of sigma
        (sigmas[i], sector_pairs[i]), or None: the one sigma -> sector rule."""
        lowest, highest = self._spans
        i = int(np.searchsorted(highest, sigma - self.match_tol))
        if i < len(self.sector_pairs) and lowest[i] - self.match_tol <= sigma:
            return i
        return None


@dataclass(frozen=True)
class PartialShift:
    """0/1 partial permutation S_sigma = sum_k |image[k]><domain[k]| on dim levels."""

    sigma: float
    domain: tuple[int, ...]
    image: tuple[int, ...]
    dim: int

    @property
    def matrix(self) -> np.ndarray:
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        mat[list(self.image), list(self.domain)] = 1.0
        return mat


@dataclass(frozen=True)
class SectorMask:
    """M_sigma as its block on domain x domain (zero elsewhere), checked once when built."""

    sigma: float
    domain_submatrix: np.ndarray
    domain: tuple[int, ...]
    dim: int

    def __post_init__(self):
        block = np.asarray(self.domain_submatrix)
        block = block.astype(np.result_type(block, float), copy=False)  # a real block stays real
        if block.shape != (len(self.domain),) * 2:
            raise DimensionMismatch(f"sector {self.sigma}: block {block.shape} vs {self.domain}")
        if block.size:
            if np.max(np.abs(block - block.conj().T)) > mc.EPS_H:
                raise MaskNotPSD(f"sector {self.sigma}: mask is not Hermitian")
            lmin = float(np.linalg.eigvalsh((block + block.conj().T) / 2.0).min())
            if lmin < -mc.EPS_PSD:
                raise MaskNotPSD(f"sector {self.sigma}: domain submatrix eigenvalue {lmin:.3e}")
        block.setflags(write=False)
        object.__setattr__(self, "domain_submatrix", block)

    def on_domain(self, sigma: float, domain: tuple[int, ...]) -> SectorMask:
        """The same checked read-only block as the mask of sector sigma on another
        domain of equal size, without a second check."""
        if len(domain) != len(self.domain):
            raise DimensionMismatch(f"sector {sigma}: block of {len(self.domain)} levels vs {domain}")
        twin = copy.copy(self)  # copies the fields without running __post_init__
        object.__setattr__(twin, "sigma", sigma)
        object.__setattr__(twin, "domain", tuple(domain))
        return twin

    @property
    def mask(self) -> np.ndarray:
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        mat[np.ix_(self.domain, self.domain)] = self.domain_submatrix
        return mat


@dataclass(frozen=True)
class SectorDecomposition:
    """The canonical family sigma -> (S_sigma, M_sigma) of one channel.

    projection_defect is the Choi Frobenius distance between the input channel
    and the decomposition; it is zero (up to roundoff) for exactly covariant
    inputs and reports the sector-projection distance otherwise.
    """

    spectrum: Spectrum
    sectors: tuple[tuple[PartialShift, SectorMask], ...]
    projection_defect: float = 0.0

    def sigmas(self) -> np.ndarray:
        return np.array([shift.sigma for shift, _ in self.sectors])

    def sector(self, sigma: float) -> tuple[PartialShift, SectorMask]:
        """The sector whose shift is partial_shift(spectrum, sigma)."""
        want = partial_shift(self.spectrum, sigma)
        for shift, mask in self.sectors:
            if want.domain and (shift.domain, shift.image) == (want.domain, want.image):
                return shift, mask
        raise UnknownSector(f"no sector at sigma = {sigma}")

    def diagonal_sums(self) -> np.ndarray:
        """sum_sigma M_sigma(j, j) at every input level j: all ones for a TP channel."""
        return _diagonal_sums(((shift.domain, mask.domain_submatrix)
                               for shift, mask in self.sectors), self.spectrum.dim)


@dataclass(frozen=True)
class EnergyShiftDistribution:
    """Probabilities p(sigma) = tr(G_sigma(rho)) of the energy given away.

    probability(sigma) is the p of the stored sigma in the same cluster of
    the spectrum as sigma; without a spectrum it matches sigma exactly.
    """

    pairs: tuple[tuple[float, float], ...]
    spectrum: Spectrum | None = field(default=None, repr=False, compare=False)

    def probability(self, sigma: float) -> float:
        if self.spectrum is None:
            found = (p for s, p in self.pairs if s == sigma)
        else:
            i = self.spectrum._cluster_at(sigma)
            found = (p for s, p in self.pairs
                     if i is not None and self.spectrum._cluster_at(s) == i)
        return next(found, 0.0)

    def as_dict(self) -> dict[float, float]:
        return {s: p for s, p in self.pairs}


# ---------------------------------------------------------------------------
# Spectra and shifts


def partial_shift(spectrum: Spectrum, sigma: float) -> PartialShift:
    """The partial isometry S_sigma : |omega> -> |omega + sigma|>, 0 off-domain."""
    n = spectrum.dim
    i = spectrum._cluster_at(sigma)
    pairs = np.empty(0, dtype=np.intp) if i is None else spectrum.sector_pairs[i]
    return PartialShift(sigma=float(sigma), domain=tuple((pairs % n).tolist()),
                        image=tuple((pairs // n).tolist()), dim=n)


# ---------------------------------------------------------------------------
# Sector extraction


def _choi_and_cross(channel: Channel, spectrum: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """The Choi matrix and its |entries| between two sectors (zero within one)."""
    if channel.dim_in != spectrum.dim or channel.dim_out != spectrum.dim:
        raise DimensionMismatch("channel and spectrum dimensions differ")
    choi = mc.choi_of(channel).matrix
    cross = np.abs(choi)
    for pairs in spectrum.sector_pairs:
        cross[np.ix_(pairs, pairs)] = 0.0
    return choi, cross


def _sq_norm(arr: np.ndarray) -> float:
    """Squared Frobenius norm."""
    return float(np.vdot(arr, arr).real)


def _pinch(choi: np.ndarray, spectrum: Spectrum) -> list[np.ndarray]:
    """Principal Choi block of every sector (a pinching: PSD stays PSD)."""
    return [choi[np.ix_(pairs, pairs)] for pairs in spectrum.sector_pairs]


def _diagonal_sums(sectors, n: int) -> np.ndarray:
    """Per level of n, the block diagonals summed over (levels, block) pairs in order."""
    total = np.zeros(n)
    for levels, block in sectors:
        total[np.asarray(levels, dtype=np.intp)] += np.real(np.diag(block))
    return total


def _restore_tp(blocks: list[np.ndarray], spectrum: Spectrum) -> list[np.ndarray]:
    """Congruence by diag(w)^(-1/2), w_j the summed block diagonals at input
    level j, so that the diagonals sum to one at every level (TP)."""
    n = spectrum.dim
    levels = [pairs % n for pairs in spectrum.sector_pairs]
    scale = 1.0 / np.sqrt(_diagonal_sums(zip(levels, blocks), n))
    return [block * np.outer(scale[j], scale[j]) for j, block in zip(levels, blocks)]


def _scatter(sectors, n: int) -> np.ndarray:
    """The Choi matrix holding each (pairs, block) on its pairs, zero elsewhere."""
    choi = np.zeros((n * n, n * n), dtype=complex)
    for pairs, block in sectors:
        choi[np.ix_(pairs, pairs)] = block
    return choi


def covariance_defect(channel: Channel, spectrum: Spectrum) -> float:
    """Largest |Choi entry| coupling two different energy-difference sectors.

    Zero exactly when the channel commutes with the time evolution: under
    alpha_t conjugation the Choi entries pick up relative phases between
    sectors, so any cross-sector mass breaks covariance.
    """
    return float(_choi_and_cross(channel, spectrum)[1].max())


def decompose(
    channel: Channel,
    spectrum: Spectrum,
    tol: float = 1e-10,
) -> SectorDecomposition:
    """Extract the canonical sector decomposition from the Choi matrix.

    For each energy difference sigma the mask entries are

        M_sigma(j, k) = <j + d_sigma| G(|j><k|) |k + d_sigma>

    read directly from the Choi matrix (a principal submatrix, hence PSD).
    The Choi matrix is built once; complete positivity is the SectorMask
    check of each kept block, trace preservation is checked on the partial
    trace.  Inputs covariant only within ``tol`` are sector-projected: cross-sector Choi mass is
    discarded, and if the input was trace preserving the mask diagonals are
    renormalized to restore the trace-preservation identity.  The Choi
    distance of that projection is reported, never hidden.
    """
    choi, cross = _choi_and_cross(channel, spectrum)
    defect = float(cross.max())
    if defect > tol:
        raise NotCovariant(defect, tol)
    pinched = _pinch(choi, spectrum)
    blocks = [(b + b.conj().T) / 2.0 for b in pinched]

    # The partial trace of C over the output is (sum_m A_m^dag A_m)^T, so
    # this is the tp_defect of is_cptp.
    n = spectrum.dim
    gram = np.trace(choi.reshape(n, n, n, n), axis1=0, axis2=2)
    if np.linalg.norm(gram - np.eye(n)) <= mc.EPS_TP:
        blocks = _restore_tp(blocks, spectrum)

    # ||C - scatter(kept blocks)||^2 entry by entry: the cross-sector
    # entries, plus each sector's Choi block minus its kept block (or zero).
    peak = max(defect, max(float(np.max(np.abs(raw))) for raw in pinched))
    floor = 1e-13 * max(1.0, peak)  # peak = max |C|
    sq_defect = _sq_norm(cross)
    sectors = []
    for s, raw, block in zip(spectrum.sigmas, pinched, blocks):
        if float(np.max(np.abs(block))) <= floor:
            sq_defect += _sq_norm(raw)
            continue
        sq_defect += _sq_norm(raw - block)
        shift = partial_shift(spectrum, s)
        try:
            mask = SectorMask(sigma=shift.sigma, domain_submatrix=block,
                              domain=shift.domain, dim=n)
        except MaskNotPSD as exc:
            raise NotCP(f"Choi {exc}") from exc
        sectors.append((shift, mask))
    return SectorDecomposition(
        spectrum=spectrum, sectors=tuple(sectors), projection_defect=float(np.sqrt(sq_defect))
    )


def sector_kraus(shift: PartialShift, mask: SectorMask):
    """Kraus operators S_sigma diag(d), d the spectral vectors of the block on the domain."""
    vecs = mc._scaled_eigenvectors(mask.domain_submatrix, MaskNotPSD, f"sector {shift.sigma}:")
    ops = np.zeros((max(len(vecs), 1), shift.dim, shift.dim), dtype=complex)
    ops[:, shift.image, shift.domain] = vecs or 0.0
    return list(ops)


def apply_sectors(sectors, mat: np.ndarray) -> np.ndarray:
    """sum_sigma S_sigma (M_sigma * mat) S_sigma^dag over (shift, mask) pairs, for any
    square mat: each block times mat on its domain lands on the shift's image."""
    out = np.zeros(np.shape(mat), dtype=complex)
    for shift, mask in sectors:
        dom, img = np.ix_(shift.domain, shift.domain), np.ix_(shift.image, shift.image)
        out[img] += mask.domain_submatrix * mat[dom]
    return out


def reconstruct(decomp: SectorDecomposition) -> Channel:
    """Rebuild the channel sum_sigma S_sigma (M_sigma * rho) S_sigma^dag."""
    ops = []
    for shift, mask in decomp.sectors:
        ops.extend(sector_kraus(shift, mask))
    return Channel(tuple(ops))


def shift_distribution(
    decomp: SectorDecomposition, rho: DensityMatrix
) -> EnergyShiftDistribution:
    """Energy shift probabilities p(sigma) = tr(G_sigma(rho))."""
    if rho.dim != decomp.spectrum.dim:
        raise DimensionMismatch("state and spectrum dimensions differ")
    pairs = []
    diag = np.diag(rho.matrix)
    for shift, mask in decomp.sectors:
        # tr(S (M * rho) S^dag) = sum_j M(j, j) rho(j, j) over the domain.
        p = float(np.sum(np.real(np.diag(mask.domain_submatrix) * diag[list(shift.domain)])))
        if p < -mc.EPS_PSD:
            raise MaskNotPSD(f"negative probability {p:.3e} at sigma {shift.sigma}")
        pairs.append((shift.sigma, min(max(p, 0.0), 1.0)))
    return EnergyShiftDistribution(pairs=tuple(pairs), spectrum=decomp.spectrum)


# ---------------------------------------------------------------------------
# Characteristic function and its consistency checks


def characteristic_function(
    channel: Channel,
    spectrum: Spectrum,
    K: np.ndarray,
    rho: DensityMatrix,
    t: float,
) -> complex:
    """f(t) = tr(K G(rho e^{-iHt}) e^{iHt}).

    For a covariant channel this is the Fourier series
    sum_sigma tr(K G_sigma(rho)) e^{i sigma t} of the sector components.
    """
    K = np.asarray(K, dtype=complex)
    n = spectrum.dim
    if K.shape != (n, n) or rho.dim != n or channel.dim_in != n:
        raise DimensionMismatch("characteristic_function: dimensions do not match")
    ph = spectrum.phases(t)
    shifted = rho.matrix * ph[None, :]
    out = mc.apply_matrix(channel, shifted) * ph.conj()[None, :]
    return complex(np.trace(K @ out))


def bochner_check(
    channel: Channel,
    spectrum: Spectrum,
    K: np.ndarray,
    rho: DensityMatrix,
    times,
) -> float:
    """Minimum eigenvalue of the Gram matrix F[k, l] = f(t_k - t_l).

    Positive semidefiniteness of f makes this >= 0 (up to roundoff) for every
    covariant CPTP channel and PSD observable K.
    """
    times = np.asarray(times, dtype=float)
    m = times.size
    F = np.empty((m, m), dtype=complex)
    for a in range(m):
        for b in range(m):
            F[a, b] = characteristic_function(channel, spectrum, K, rho, times[a] - times[b])
    F = (F + F.conj().T) / 2.0
    return float(np.linalg.eigvalsh(F).min())


def domain_extension_check(
    decomp: SectorDecomposition, rho: DensityMatrix, t: float
) -> float:
    """Largest defect of G_sigma(rho e^{-iHt}) = G_sigma(rho) e^{-iHt} e^{i sigma t}.

    The left-hand side applies the sector map to the non-Hermitian operator
    directly; the identity must hold numerically for covariant channels.
    """
    spectrum = decomp.spectrum
    ph = spectrum.phases(t)
    shifted = rho.matrix * ph[None, :]
    worst = 0.0
    for sector in decomp.sectors:
        lhs = apply_sectors([sector], shifted)
        rhs = apply_sectors([sector], rho.matrix) * ph[None, :] * np.exp(1j * sector[0].sigma * t)
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst
