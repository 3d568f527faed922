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

Sector work runs on stacks of equal-size sectors, not sector by sector.  A
Spectrum groups its sectors by domain size on first use and caches the
groups (sector indices and (m, d) level arrays); for each size, decompose
gathers the (m, d, d) Choi blocks at once, checks them with one stacked
eigensolve and takes the shifts from the groups, reconstruct runs one
stacked eigh and one scatter, and shift_distribution one product.  A
decomposition keeps the stacks its masks are views of.  The results are the
per-sector loops' bit for bit: diagonal sums add in sector order, each
block's residue is its own dot product, and the first failing sector in
sector order is the one reported.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import channels as mc
from .channels import Channel, DensityMatrix
from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    InvalidParameter,
    MaskNotPSD,
    NotCovariant,
    NotCP,
    UnknownSector,
)


class _SizeGroup(NamedTuple):
    """The sectors of one domain size d: their positions (m,), ascending, the
    input levels (m, d) and output levels (m, d) of each, and for the sectors
    of a decomposition their (m, d, d) stack of mask blocks."""

    index: np.ndarray
    domains: np.ndarray
    images: np.ndarray
    blocks: np.ndarray | None = None


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

    @cached_property
    def _groups(self) -> tuple[_SizeGroup, ...]:
        """The sectors grouped by domain size, built on first use (fock builds a
        Spectrum per Gaussian decomposition and never reads them)."""
        n = self.dim
        sizes = np.array([pairs.size for pairs in self.sector_pairs])
        flat = np.concatenate(self.sector_pairs)
        starts = np.cumsum(sizes) - sizes
        groups = []
        for d in np.flatnonzero(np.bincount(sizes)).tolist():  # the sizes present, ascending
            index = np.flatnonzero(sizes == d)
            pairs = flat[starts[index, None] + np.arange(d)]
            group = _SizeGroup(index, pairs % n, pairs // n)
            for arr in group[:3]:
                arr.setflags(write=False)
            groups.append(group)
        return tuple(groups)

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
        failure = _mask_failure(block, [self.sigma])
        if failure is not None:
            raise MaskNotPSD(failure[1])
        block.setflags(write=False)
        object.__setattr__(self, "domain_submatrix", block)

    @classmethod
    def _checked(cls, sigma: float, block: np.ndarray, domain: tuple[int, ...],
                 dim: int) -> SectorMask:
        """A mask of a read-only block that has passed _mask_failure, built
        without running the check again."""
        mask = object.__new__(cls)
        for name, value in (("sigma", sigma), ("domain_submatrix", block),
                            ("domain", domain), ("dim", dim)):
            object.__setattr__(mask, name, value)
        return mask

    def on_domain(self, sigma: float, domain: tuple[int, ...]) -> SectorMask:
        """The same checked read-only block as the mask of sector sigma on another
        domain of equal size, without a second check."""
        if len(domain) != len(self.domain):
            raise DimensionMismatch(f"sector {sigma}: block of {len(self.domain)} levels vs {domain}")
        return SectorMask._checked(sigma, self.domain_submatrix, tuple(domain), self.dim)

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
        levels = [j for shift, _ in self.sectors for j in shift.domain]
        diags = [np.real(np.diag(mask.domain_submatrix)) for _, mask in self.sectors]
        return _diagonal_sums(np.array(levels, dtype=np.intp),
                              np.concatenate([np.zeros(0), *diags]), self.spectrum.dim)

    @cached_property
    def _groups(self) -> tuple[_SizeGroup, ...]:
        """The sectors grouped by domain size with their blocks stacked, built on
        first use; decompose stores the stacks its masks are views of."""
        return _group_sectors(self.sectors)


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


def _group_sectors(sectors) -> tuple[_SizeGroup, ...]:
    """(shift, mask) pairs grouped by domain size and block dtype (a real block is
    diagonalised as real), each group in sector order."""
    members: dict[tuple, list[int]] = {}
    for i, (shift, mask) in enumerate(sectors):
        members.setdefault((len(shift.domain), mask.domain_submatrix.dtype), []).append(i)
    groups = []
    for (d, _), index in members.items():
        picked = [sectors[i] for i in index]
        groups.append(_SizeGroup(
            np.array(index),
            np.array([shift.domain for shift, _ in picked], dtype=np.intp).reshape(len(index), d),
            np.array([shift.image for shift, _ in picked], dtype=np.intp).reshape(len(index), d),
            np.stack([mask.domain_submatrix for _, mask in picked]),
        ))
    return tuple(groups)


def _mask_failure(blocks: np.ndarray, sigmas) -> tuple[int, str] | None:
    """The check of every SectorMask, on one d x d block or a (m, d, d) stack
    of blocks at once.

    Returns (i, message) for the first block that is not Hermitian within
    EPS_H or has an eigenvalue below -EPS_PSD, sigmas[i] naming its sector,
    or None when every block passes.
    """
    if not blocks.shape[-1]:
        return None
    adjoint = blocks.conj().swapaxes(-1, -2)
    skew = np.ravel(np.max(np.abs(blocks - adjoint), axis=(-2, -1)) > mc.EPS_H)
    lmin = np.ravel(np.linalg.eigvalsh((blocks + adjoint) / 2.0).min(axis=-1))
    bad = np.flatnonzero(skew | (lmin < -mc.EPS_PSD))
    if not bad.size:
        return None
    i = int(bad[0])
    if skew[i]:
        return i, f"sector {sigmas[i]}: mask is not Hermitian"
    return i, f"sector {sigmas[i]}: domain submatrix eigenvalue {lmin[i]:.3e}"


# ---------------------------------------------------------------------------
# Sector extraction


def _block_index(group: _SizeGroup, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Fancy index of the group's (m, d, d) stack of principal Choi blocks."""
    pairs = group.images * n + group.domains
    return pairs[:, :, None], pairs[:, None, :]


def _choi_and_cross(channel: Channel, spectrum: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """The Choi matrix and its |entries| between two sectors (zero within one)."""
    if channel.dim_in != spectrum.dim or channel.dim_out != spectrum.dim:
        raise DimensionMismatch("channel and spectrum dimensions differ")
    groups = spectrum._groups  # built before the n^4 arrays, so never in the heap above them
    choi = mc.choi_of(channel).matrix
    cross = np.abs(choi)
    for group in groups:
        cross[_block_index(group, spectrum.dim)] = 0.0
    return choi, cross


def _sq_norm(arr: np.ndarray) -> float:
    """Squared Frobenius norm."""
    return float(np.vdot(arr, arr).real)


def _pinch(choi: np.ndarray, groups, n: int) -> list[np.ndarray]:
    """Stacked principal Choi blocks of each group's sectors (a pinching: PSD stays PSD)."""
    return [choi[_block_index(group, n)] for group in groups]


def _diagonal_sums(levels: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Per level of n, the values at that level added one after another in the order given."""
    total = np.zeros(n)
    np.add.at(total, levels, values)
    return total


def _restore_tp(blocks: list[np.ndarray], groups, n: int) -> list[np.ndarray]:
    """Congruence by diag(w)^(-1/2), w_j the block diagonals at input level j
    summed in sector order, so that the diagonals sum to one at every level (TP)."""
    order = np.argsort(np.concatenate(
        [np.repeat(g.index, g.domains.shape[1]) for g in groups]), kind="stable")
    levels = np.concatenate([g.domains.reshape(-1) for g in groups])
    diags = np.concatenate([np.real(np.diagonal(b, axis1=1, axis2=2)).reshape(-1) for b in blocks])
    scale = 1.0 / np.sqrt(_diagonal_sums(levels[order], diags[order], n))
    out = []
    for group, block in zip(groups, blocks):
        s = scale[group.domains]
        out.append(block * (s[:, :, None] * s[:, None, :]))  # np.outer(s, s) per block
    return out


def _scatter(groups, blocks: list[np.ndarray], n: int) -> np.ndarray:
    """The Choi matrix holding each group's blocks on their pairs, zero elsewhere."""
    choi = np.zeros((n * n, n * n), dtype=complex)
    for group, block in zip(groups, blocks):
        choi[_block_index(group, n)] = block
    return choi


def _sectors(groups, sigmas: list[float], n: int) -> tuple[tuple[PartialShift, SectorMask], ...]:
    """The (shift, mask) pair at every position of the groups, in position order.

    The masks pass SectorMask's one check, run on each group's stack at once;
    the failing block at the lowest position raises MaskNotPSD.
    """
    failures = []
    for group in groups:
        found = _mask_failure(group.blocks, [sigmas[i] for i in group.index.tolist()])
        if found is not None:
            failures.append((int(group.index[found[0]]), found[1]))
    if failures:
        raise MaskNotPSD(min(failures)[1])
    sectors = [None] * len(sigmas)
    for group in groups:
        group.blocks.setflags(write=False)
        for i, block, domain, image in zip(group.index.tolist(), group.blocks,
                                           group.domains.tolist(), group.images.tolist()):
            domain = tuple(domain)
            shift = PartialShift(sigma=sigmas[i], domain=domain, image=tuple(image), dim=n)
            sectors[i] = (shift, SectorMask._checked(sigmas[i], block, domain, n))
    return tuple(sectors)


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
    trace.  Inputs covariant only within ``tol`` (finite, >= 0) are
    sector-projected: cross-sector Choi mass is discarded, and if the input
    was trace preserving the mask diagonals are renormalized to restore the
    trace-preservation identity.  The Choi distance of that projection is
    reported, never hidden.
    """
    if not 0.0 <= tol < np.inf:
        raise InvalidParameter(f"tolerance must be finite and >= 0, got {tol!r}")
    choi, cross = _choi_and_cross(channel, spectrum)
    defect = float(cross.max())
    if defect > tol:
        raise NotCovariant(defect, tol)
    n, groups = spectrum.dim, spectrum._groups
    raw = _pinch(choi, groups, n)
    sq_cross = _sq_norm(cross)
    # The partial trace of C over the output is (sum_m A_m^dag A_m)^T, so
    # this is the tp_defect of is_cptp.
    gram = np.trace(choi.reshape(n, n, n, n), axis1=0, axis2=2)
    # Freed before any output is allocated, so that the outputs take no
    # fresh pages above the n^4 arrays that a later Choi matrix could reuse.
    del choi, cross
    blocks = [(r + r.conj().swapaxes(1, 2)) / 2.0 for r in raw]
    if np.linalg.norm(gram - np.eye(n)) <= mc.EPS_TP:
        blocks = _restore_tp(blocks, groups, n)

    # ||C - scatter(kept blocks)||^2 entry by entry: the cross-sector
    # entries, plus each sector's Choi block minus its kept block (or zero).
    peak = max(defect, max(float(np.max(np.abs(r))) for r in raw))
    floor = 1e-13 * max(1.0, peak)  # peak = max |C|
    sq_terms = np.empty(len(spectrum.sigmas))
    kept = np.zeros(len(spectrum.sigmas), dtype=bool)
    kept_groups = []
    for group, r, block in zip(groups, raw, blocks):
        drop = np.max(np.abs(block), axis=(1, 2)) <= floor
        resid = np.where(drop[:, None, None], r, r - block).reshape(len(r), -1)
        sq_terms[group.index] = np.vecdot(resid, resid).real  # per block the dot of _sq_norm
        keep = ~drop
        kept[group.index] = keep
        if keep.any():
            kept_groups.append(_SizeGroup(group.index[keep], group.domains[keep],
                                          group.images[keep], block[keep]))
    # A running sum adds the terms in sector order, as one float after another.
    sq_defect = np.add.accumulate(np.r_[sq_cross, sq_terms])[-1]
    position = np.cumsum(kept) - 1  # of each sector among the kept ones
    kept_groups = tuple(g._replace(index=position[g.index]) for g in kept_groups)
    try:
        sectors = _sectors(kept_groups, spectrum.sigmas[kept].tolist(), n)
    except MaskNotPSD as exc:
        raise NotCP(f"Choi {exc}") from exc
    decomp = SectorDecomposition(
        spectrum=spectrum, sectors=sectors, projection_defect=float(np.sqrt(sq_defect))
    )
    object.__setattr__(decomp, "_groups", kept_groups)  # the masks are views of these stacks
    return decomp


def _kraus_stack(sectors, groups, n: int) -> np.ndarray:
    """The (K, n, n) Kraus operators S_sigma diag(d) of the sectors, sector after
    sector, d the spectral vectors of each block on its domain; a sector with
    none keeps one zero operator, and no sectors give one zero operator."""
    lmin = np.empty(len(sectors))
    count = np.empty(len(sectors), dtype=np.intp)
    spectral = []
    for group in groups:
        low, kept, vecs = mc._scaled_eigenvectors(group.blocks)
        lmin[group.index], count[group.index] = low, kept
        spectral.append(vecs)
    bad = np.flatnonzero(lmin < -mc.EPS_PSD)
    if bad.size:
        i = bad[0]
        raise MaskNotPSD(f"sector {sectors[i][0].sigma}: eigenvalue {lmin[i]:.3e} "
                         f"below -{mc.EPS_PSD:.1e}")
    slots = np.maximum(count, 1)
    first = np.cumsum(slots) - slots  # each sector's first operator
    ops = np.zeros((max(int(slots.sum()), 1), n, n), dtype=complex)
    for group, vecs in zip(groups, spectral):
        k = count[group.index]
        # vector r of the group's sector s goes to operator first[s] + r
        op = np.repeat(first[group.index] - (np.cumsum(k) - k), k) + np.arange(len(vecs))
        ops[op[:, None], np.repeat(group.images, k, axis=0),
            np.repeat(group.domains, k, axis=0)] = vecs
    return ops


def sector_kraus(shift: PartialShift, mask: SectorMask):
    """Kraus operators S_sigma diag(d), d the spectral vectors of the block on the domain."""
    sectors = ((shift, mask),)
    return list(_kraus_stack(sectors, _group_sectors(sectors), shift.dim))


def apply_sectors(sectors, mat: np.ndarray) -> np.ndarray:
    """sum_sigma S_sigma (M_sigma * mat) S_sigma^dag over (shift, mask) pairs, for any
    square mat: each block times mat on its domain lands on the shift's image."""
    out = np.zeros(np.shape(mat), dtype=complex)
    for shift, mask in sectors:
        dom, img = np.ix_(shift.domain, shift.domain), np.ix_(shift.image, shift.image)
        out[img] += mask.domain_submatrix * mat[dom]
    return out


def reconstruct(decomp: SectorDecomposition) -> Channel:
    """Rebuild the channel sum_sigma S_sigma (M_sigma * rho) S_sigma^dag; a
    decomposition with no sectors is the zero map, one zero Kraus operator."""
    return Channel(tuple(_kraus_stack(decomp.sectors, decomp._groups, decomp.spectrum.dim)))


def shift_distribution(
    decomp: SectorDecomposition, rho: DensityMatrix
) -> EnergyShiftDistribution:
    """Energy shift probabilities p(sigma) = tr(G_sigma(rho))."""
    if rho.dim != decomp.spectrum.dim:
        raise DimensionMismatch("state and spectrum dimensions differ")
    diag = np.diag(rho.matrix)
    p = np.empty(len(decomp.sectors))
    for group in decomp._groups:
        # tr(S (M * rho) S^dag) = sum_j M(j, j) rho(j, j) over the domain.
        terms = np.diagonal(group.blocks, axis1=1, axis2=2) * diag[group.domains]
        p[group.index] = np.real(terms).sum(axis=1)
    bad = np.flatnonzero(p < -mc.EPS_PSD)
    if bad.size:
        i = bad[0]
        raise MaskNotPSD(f"negative probability {p[i]:.3e} at sigma {decomp.sectors[i][0].sigma}")
    pairs = tuple((shift.sigma, min(max(q, 0.0), 1.0))
                  for (shift, _), q in zip(decomp.sectors, p.tolist()))
    return EnergyShiftDistribution(pairs=pairs, spectrum=decomp.spectrum)


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
