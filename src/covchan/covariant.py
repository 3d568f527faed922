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
alike.  Each mask is a principal block of the Choi matrix, which makes the
extraction independent of the Kraus gauge.  The Choi matrix is formed only
on the pairs some Kraus operator touches: every other row and column is
zero, so a shift mixture or a dephasing channel, whose operators S_sigma
diag(d) touch O(n) of the n^2 pairs, never builds the n^2 x n^2 matrix.  It
is the channel's own (Channel._choi): formed once and shared by
covariance_defect and decompose when the channel keeps it (|S| <= K), and
formed by each of them when there are fewer Kraus operators than pairs.

A decomposition is one store: per position, the spectrum cluster c it sits
on (sigma, domain and image from spectrum.sigmas[c] and sector_pairs[c]) and
its read-only d x d block, which every library reader reads.  The public
view, (PartialShift, SectorMask) pairs, is made from it one pair at a time by
SectorDecomposition._pairs; PartialShift.matrix and SectorMask.mask are dim x
dim views built on demand.

Sector work runs over all sectors at once.  decompose lays the blocks of
the sectors the channel touches out in one flat buffer, in size order
(_Layout, its tables built per call for those sectors alone), and gathers,
Hermitises, scales for TP and tests them for the drop once over it; the
decomposition's size groups and blocks are views of the buffer.  reconstruct
runs one stacked eigh per size (LAPACK takes one size at a time), then
orders and cuts the eigenvectors of all sectors at once, and _shift_kraus,
the one builder of covariant Kraus families, scatters them in one
assignment.  Every block decompose keeps is a pinched principal block of
the Gram product C_S = V_S^T conj(V_S), so one rounding bound on the Kraus
operators' norm (channels._gram_bound) proves all of them pass the mask
check; only when it does not is the check run, one stacked eigvalsh per
size.  The results are the per-sector loops' bit for bit: one level sum
adds the diagonals in sector order (_level_sums), each block's residue is
its own dot product, and the first failing sector in sector order is the
one reported.
characteristic_function and bochner_check apply no channel: they read one
n x n weight matrix W per call, whose sum over a sector's pairs is
tr(K G_sigma(rho)).
"""
from __future__ import annotations

from collections import namedtuple
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
    input levels (m, d) and output levels (m, d) of each, and their (m, d, d)
    stack of mask blocks."""

    index: np.ndarray
    domains: np.ndarray
    images: np.ndarray
    blocks: np.ndarray


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Strictly increasing energies of a non-degenerate diagonal Hamiltonian.

    match_tol (finite; at or below 0 it picks a relative default) declares
    when two floating-point energy differences are "the same" sigma; spectra
    with gaps at or below match_tol are rejected.

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
    sigmas: np.ndarray = field(init=False, repr=False)
    sector_pairs: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _spans: np.ndarray = field(init=False, repr=False)
    _starts: np.ndarray = field(init=False, repr=False)  # of each cluster's pairs in _flat
    _flat: np.ndarray = field(init=False, repr=False)  # the sector_pairs one after another

    def __post_init__(self):
        en = np.asarray(self.energies, dtype=float)
        if en.ndim != 1 or en.size == 0:
            raise DegenerateSpectrum("spectrum must be a non-empty 1-d list of energies")
        if not np.all(np.isfinite(en)):
            raise DegenerateSpectrum("spectrum contains non-finite energies")
        tol = float(self.match_tol)
        if not np.isfinite(tol):  # NaN would pass every comparison below
            raise InvalidParameter(f"match_tol must be finite, got {tol!r}")
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
        flat = order[by_input]  # every cluster's pairs, one cluster after another
        flat.setflags(write=False)  # before the split, so that each view is read-only too
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
        for arr in (en, sigmas, spans, starts):
            arr.setflags(write=False)
        self.__dict__.update(energies=en, match_tol=tol, sigmas=sigmas, _spans=spans,
                             sector_pairs=tuple(np.split(flat, cuts)), _starts=starts, _flat=flat)

    @property
    def dim(self) -> int:
        return self.energies.size

    def phases(self, t: float) -> np.ndarray:
        """Diagonal e^{-i omega_j t} of e^{-iHt}."""
        return np.exp(-1j * self.energies * t)

    @cached_property
    def _tables(self) -> tuple[np.ndarray, ...]:
        """The sectors in size order (ascending domain size, then sector), each
        one's size and first pair in the flat pairs of all sectors one after
        another, those pairs, and the sector of every flat pair j' * n + j:
        O(n^2), built on first use, from _starts and _flat."""
        sizes = np.diff(np.r_[self._starts, self._flat.size])
        sector = np.empty(self.dim ** 2, dtype=np.intp)
        sector[self._flat] = np.repeat(np.arange(sizes.size), sizes)
        tables = (np.argsort(sizes, kind="stable"), sizes, self._starts, self._flat, sector)
        for arr in tables:
            arr.setflags(write=False)
        return tables

    def _cluster_at(self, sigma: float) -> int | None:
        """Index i of the cluster whose span [lowest, highest] of differences lies
        nearest to sigma, at distance 0 inside it, when that distance is within
        match_tol (sigmas[i], sector_pairs[i]), or None: the one sigma -> sector
        rule.  A cluster may start exactly match_tol above its neighbour's top, so
        sigma can lie within match_tol of two spans; the spans are disjoint, and
        the nearest one makes every sigmas[i] resolve to i."""
        lowest, highest = self._spans
        i = int(np.searchsorted(highest, sigma))  # highest[i - 1] < sigma <= highest[i]
        near = []  # (distance, cluster), the lower cluster first on a tie
        if i > 0:
            near.append((sigma - highest[i - 1], i - 1))
        if i < highest.size:
            near.append((max(lowest[i] - sigma, 0.0), i))
        distance, i = min(near, key=lambda pair: pair[0])
        return i if distance <= self.match_tol else None


@dataclass(frozen=True)
class PartialShift:
    """0/1 partial permutation S_sigma = sum_k |image[k]><domain[k]| on dim levels."""

    sigma: float
    domain: tuple[int, ...]
    image: tuple[int, ...]
    dim: int

    @classmethod
    def _of_pairs(cls, sigma: float, pairs: np.ndarray, dim: int) -> PartialShift:
        """The shift holding one sector's flat Choi pairs j' * dim + j."""
        return cls(sigma, tuple((pairs % dim).tolist()), tuple((pairs // dim).tolist()), dim)

    @property
    def matrix(self) -> np.ndarray:
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        mat[list(self.image), list(self.domain)] = 1.0
        return mat


@dataclass(frozen=True, eq=False)
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
        """A mask of a read-only block that has passed the check, built
        without running it again: _mask_failure passed it, or a Gram bound
        on the factor it was formed from (channels._gram_bound) proved it
        would."""
        mask = object.__new__(cls)
        for name, value in (("sigma", sigma), ("domain_submatrix", block),
                            ("domain", domain), ("dim", dim)):
            object.__setattr__(mask, name, value)
        return mask

    @property
    def mask(self) -> np.ndarray:
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        mat[np.ix_(self.domain, self.domain)] = self.domain_submatrix
        return mat


@dataclass(frozen=True, eq=False)
class SectorDecomposition:
    """The canonical family sigma -> (S_sigma, M_sigma) of one channel: its store
    (module docstring), from which ``sectors`` is made when first read.  Pairs
    given to the constructor are read into the store, each shift the
    spectrum's sector at its sigma; sigmas(), like sector(sigma)'s pairs, are the clusters'.

    projection_defect is the Choi Frobenius distance between the input channel
    and the decomposition; it is zero (up to roundoff) for exactly covariant
    inputs and reports the sector-projection distance otherwise.
    """

    spectrum: Spectrum
    sectors: tuple[tuple[PartialShift, SectorMask], ...]
    projection_defect: float = 0.0

    def __post_init__(self):
        spec, clusters = self.spectrum, []
        for shift, mask in self.sectors:
            if not shift.dim == mask.dim == spec.dim:
                raise DimensionMismatch(f"sector {shift.sigma}: shift dim {shift.dim} and mask dim "
                                        f"{mask.dim}, spectrum dim {spec.dim}")
            c = spec._cluster_at(shift.sigma)
            pairs = np.multiply(shift.image, spec.dim) + shift.domain
            if c is None or not np.array_equal(pairs, spec.sector_pairs[c]):
                raise UnknownSector(f"sector {shift.sigma}: not the spectrum's shift at that sigma")
            if c in clusters:
                raise UnknownSector(f"sector {shift.sigma}: listed twice")
            if spec._cluster_at(mask.sigma) != c or tuple(mask.domain) != tuple(shift.domain):
                raise UnknownSector(f"sector {shift.sigma}: its mask is for sigma {mask.sigma} "
                                    f"on levels {tuple(mask.domain)}")
            clusters.append(c)
        self.__dict__.update(_clusters=np.array(clusters, dtype=np.intp),
                             _blocks=tuple(mask.domain_submatrix for _, mask in self.sectors))

    @classmethod
    def _of_store(cls, spectrum: Spectrum, clusters: np.ndarray, blocks: tuple, **fields):
        """The decomposition of a store, no pair made; fields are its other fields
        and _groups, the store's size groups, when the caller has them."""
        decomp = object.__new__(cls)
        decomp.__dict__.update({"projection_defect": 0.0, **fields, "spectrum": spectrum,
                                "_clusters": clusters, "_blocks": blocks})
        return decomp

    def __getattr__(self, name):
        # Reached only for an attribute that is not set: a field derived from
        # the store when first read, by _derived_<name>.
        derive = getattr(type(self), f"_derived_{name}", None)
        if derive is None:
            raise AttributeError(name)
        self.__dict__[name] = value = derive(self)
        return value

    def _derived_sectors(self) -> tuple[tuple[PartialShift, SectorMask], ...]:
        return tuple(self._pairs())

    def _pairs(self, positions=None):
        """The (shift, mask) pair at each position (all, in sector order, by default), made
        from its cluster's sector pairs and its block, checked before it was stored."""
        spec = self.spectrum
        for i in range(len(self._blocks)) if positions is None else positions:
            c = int(self._clusters[i])
            shift = PartialShift._of_pairs(float(spec.sigmas[c]), spec.sector_pairs[c], spec.dim)
            yield shift, SectorMask._checked(shift.sigma, self._blocks[i], shift.domain, spec.dim)

    def sigmas(self) -> np.ndarray:
        return self.spectrum.sigmas[self._clusters]

    def sector(self, sigma: float) -> tuple[PartialShift, SectorMask]:
        """The sector on the cluster of sigma, whose shift is partial_shift(spectrum, sigma)."""
        try:
            i = self._clusters.tolist().index(self.spectrum._cluster_at(sigma))
        except ValueError:
            raise UnknownSector(f"no sector at sigma = {sigma}") from None
        return next(self._pairs([i]))

    def diagonal_sums(self) -> np.ndarray:
        """sum_sigma M_sigma(j, j) at every input level j: all ones for a TP channel."""
        diags = [np.real(np.diagonal(block)) for block in self._blocks]
        return _level_sums(_held_pairs(self.spectrum, self._clusters)[0] % self.spectrum.dim,
                           np.concatenate([np.zeros(0), *diags]), self.spectrum.dim)

    @cached_property
    def _groups(self) -> tuple[_SizeGroup, ...]:
        """The store grouped by domain size and block dtype (a real block is
        diagonalised as real), each group in position order, built on first use."""
        members: dict[tuple, list[int]] = {}
        for i, block in enumerate(self._blocks):
            members.setdefault((len(block), block.dtype), []).append(i)
        n, held = self.spectrum.dim, self.spectrum.sector_pairs
        groups = []
        for index in members.values():
            pairs = np.stack([held[c] for c in self._clusters[index].tolist()])
            blocks = [self._blocks[i] for i in index]
            if all(block is blocks[0] for block in blocks):  # e.g. the +-a of a Gaussian one
                stack = np.broadcast_to(blocks[0], (len(blocks), *blocks[0].shape))  # no copy
            else:
                stack = np.stack(blocks)
            groups.append(_SizeGroup(np.array(index), pairs % n, pairs // n, stack))
        return tuple(groups)


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
    i = spectrum._cluster_at(sigma)
    pairs = np.empty(0, dtype=np.intp) if i is None else spectrum.sector_pairs[i]
    return PartialShift._of_pairs(float(sigma), pairs, spectrum.dim)


def _mask_failure(blocks: np.ndarray, sigmas) -> tuple[int, str] | None:
    """The check of every SectorMask, channels._psd_check of one d x d block or a
    (m, d, d) stack: None, or (i, message) for the first failing block, sigmas[i]
    naming its sector.  A block formed as a Gram product reaches it only when
    the rounding bound on its factor (channels._gram_bound) fails."""
    _, vals, failure = mc._psd_check(blocks)
    if failure is None:
        return None
    i, reason = failure
    text = (f"domain submatrix eigenvalue {vals[i, 0]:.3e}" if reason == mc.NEGATIVE
            else f"mask {reason}")
    return i, f"sector {sigmas[i]}: {text}"


# ---------------------------------------------------------------------------
# Sector extraction


def _support_choi(channel: Channel,
                  spectrum: Spectrum) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The channel's Choi matrix on its support S: S (the pairs where some
    Kraus operator is nonzero), C on S x S (read-only, the channel's own) and
    its |entries| between two sectors (zero within one).  Every Choi row and
    column off S is zero, so the cross-sector entries off S x S are too."""
    if channel._ops.shape[1:] != (spectrum.dim, spectrum.dim):
        raise DimensionMismatch("channel and spectrum dimensions differ")
    *_, sector = spectrum._tables  # built before the Choi arrays, so never above them
    support, choi = channel._support, channel._choi()
    sector = sector[support]
    cross = np.abs(choi)
    cross[sector[:, None] == sector[None, :]] = 0.0
    return support, choi, cross


# Sectors (K,) in size order (ascending d, then sector), their sizes (K,) and
# flat Choi pairs j' * n + j (sum d), their d x d blocks row-major in one buffer
# (sum d^2), and for each entry the positions in pairs of its row and column
# and the buffer position of its transpose.
_Layout = namedtuple("_Layout", "index sizes pairs blocks rows cols trans")


def _held_pairs(spectrum: Spectrum, clusters: np.ndarray):
    """The flat Choi pairs of the clusters one after another, each one's size and first pair."""
    _, sizes, starts, flat, _ = spectrum._tables
    sizes = sizes[clusters]
    first = np.cumsum(sizes) - sizes
    return flat[np.arange(sizes.sum()) + np.repeat(starts[clusters] - first, sizes)], sizes, first


def _sector_blocks(choi: np.ndarray, support: np.ndarray, spectrum: Spectrum) -> _Layout:
    """The layout of the sectors that hold a pair of the support, with their
    principal blocks of the Choi matrix choi on support x support, +0.0 at
    the pairs off the support (a pinching: PSD stays PSD).  Every other
    sector's block is zero and is left out, and no table is built for it:
    over all sectors the tables would hold about 2 n^3 / 3 entries each."""
    n = spectrum.dim
    order, sizes, _, _, sector = spectrum._tables
    held = np.zeros(sizes.size, dtype=bool)
    held[sector[support]] = True
    index = order[held[order]]
    pairs, sizes, first = _held_pairs(spectrum, index)
    square = sizes * sizes
    start = np.repeat(np.cumsum(square) - square, square)  # of each entry's block
    d = np.repeat(sizes, square)
    rows, cols = np.divmod(np.arange(d.size) - start, d)  # the entry's place in its block
    trans = start + cols * d + rows
    base = np.repeat(first, square)
    rows += base
    cols += base
    del start, d, base  # freed before the gather, which runs beside the Choi arrays
    at = np.full(n * n, -1)  # the row of each pair in choi, -1 off the support
    at[support] = np.arange(support.size)
    row, col = at[pairs][rows], at[pairs][cols]
    blocks = choi[row, col]
    blocks[(row < 0) | (col < 0)] = 0.0
    return _Layout(index, sizes, pairs, blocks, rows, cols, trans)


def _size_groups(index, sizes, pairs, blocks, n: int) -> tuple[_SizeGroup, ...]:
    """The size groups of sectors laid out in size order, as a _Layout's index,
    sizes, pairs and buffer: every array of a group a view of those."""
    domains, images = pairs % n, pairs // n
    counts = np.bincount(sizes)
    groups, k, p, e = [], 0, 0, 0
    for d in np.flatnonzero(counts).tolist():  # the sizes present, ascending
        m = int(counts[d])
        groups.append(_SizeGroup(index[k:k + m], domains[p:p + m * d].reshape(m, d),
                                 images[p:p + m * d].reshape(m, d),
                                 blocks[e:e + m * d * d].reshape(m, d, d)))
        k, p, e = k + m, p + m * d, e + m * d * d
    return tuple(groups)


def _level_sums(levels: np.ndarray, diagonals: np.ndarray, n: int) -> np.ndarray:
    """sum_sigma M_sigma(j, j) at every input level j of n: the block diagonals at
    their levels added one after another in the order given, the sector order."""
    total = np.zeros(n)
    np.add.at(total, levels, diagonals)
    return total


def _restore_tp(layout: _Layout, n: int) -> tuple[_Layout, float]:
    """The layout's blocks under the congruence by diag(s), s = w^(-1/2) and w
    their level sums, so that the diagonals sum to one at every level (TP);
    and max s^2, by which the congruence can scale rounding."""
    levels = layout.pairs % n
    order = np.argsort(np.repeat(layout.index, layout.sizes), kind="stable")  # sector order
    diags = np.real(layout.blocks[layout.rows == layout.cols])  # in pair order
    scale = 1.0 / np.sqrt(_level_sums(levels[order], diags[order], n))
    s = scale[levels]
    top = float(scale.max(initial=0.0))
    return layout._replace(blocks=layout.blocks * (s[layout.rows] * s[layout.cols])), top * top


def _scatter(layout: _Layout, n: int) -> np.ndarray:
    """The Choi matrix holding the layout's blocks on their pairs, zero elsewhere."""
    choi = np.zeros((n * n, n * n), dtype=complex)
    choi[layout.pairs[layout.rows], layout.pairs[layout.cols]] = layout.blocks
    return choi


def covariance_defect(channel: Channel, spectrum: Spectrum) -> float:
    """Largest |Choi entry| coupling two different energy-difference sectors.

    Zero exactly when the channel commutes with the time evolution: under
    alpha_t conjugation the Choi entries pick up relative phases between
    sectors, so any cross-sector mass breaks covariance.
    """
    return float(_support_choi(channel, spectrum)[2].max(initial=0.0))


def decompose(
    channel: Channel,
    spectrum: Spectrum,
    tol: float = 1e-10,
) -> SectorDecomposition:
    """Extract the canonical sector decomposition from the Choi matrix.

    For each energy difference sigma the mask entries are

        M_sigma(j, k) = <j + d_sigma| G(|j><k|) |k + d_sigma>

    read directly from the Choi matrix (a principal submatrix, hence PSD).
    The Choi matrix is the channel's, on the pairs where some Kraus operator
    is nonzero; a sector with none of them has a zero mask and is dropped.
    Complete positivity is the SectorMask check of each kept block, passed
    at once when the rounding bound of the Gram product C_S = V_S^T
    conj(V_S), scaled for the trace-preservation congruence, proves it
    (channels._gram_bound; about 1.2e-10 at n = 64 with 4096 Kraus
    operators), and run on the blocks otherwise.  Trace preservation is
    is_cptp's check on the Kraus operators.
    Inputs covariant only within ``tol`` (finite, >= 0) are
    sector-projected: cross-sector Choi mass is discarded, and if the input
    was trace preserving the mask diagonals are renormalized to restore the
    trace-preservation identity.  The Choi distance of that projection is
    reported, never hidden.
    """
    if not 0.0 <= tol < np.inf:
        raise InvalidParameter(f"tolerance must be finite and >= 0, got {tol!r}")
    support, choi, cross = _support_choi(channel, spectrum)
    defect = float(cross.max(initial=0.0))
    if defect > tol:
        raise NotCovariant(defect, tol)
    n = spectrum.dim
    layout = _sector_blocks(choi, support, spectrum)
    sq_cross = float(np.vdot(cross, cross).real)  # its squared Frobenius norm
    # Freed before any output is allocated, so that the outputs take no fresh
    # pages above the Choi arrays that a later Choi matrix could reuse (the
    # channel keeps its Choi matrix when |S| <= K, and then none is formed).
    del choi, cross
    raw = layout.blocks
    layout = layout._replace(blocks=(raw + raw[layout.trans].conj()) / 2.0)
    scale = 1.0
    if channel._tp_defect <= mc.EPS_TP:
        layout, scale = _restore_tp(layout, n)

    # ||C - scatter(kept blocks)||^2 entry by entry: the cross-sector
    # entries, plus each sector's Choi block minus its kept block (or zero).
    blocks, sizes, square = layout.blocks, layout.sizes, layout.sizes * layout.sizes
    peak = max(defect, float(np.abs(raw).max(initial=0.0)))
    floor = 1e-13 * max(1.0, peak)  # peak = max |C|
    drop = np.maximum.reduceat(np.abs(blocks), np.cumsum(square) - square) <= floor
    resid = np.where(np.repeat(drop, square), raw, raw - blocks)
    sq_terms = np.zeros(len(spectrum.sigmas))  # a sector left out adds 0.0
    for group in _size_groups(layout.index, sizes, layout.pairs, resid, n):
        terms = group.blocks.reshape(len(group.index), -1)
        sq_terms[group.index] = np.vecdot(terms, terms).real  # one dot per block, as vdot
    # A running sum adds the terms in sector order, as one float after another.
    sq_defect = np.add.accumulate(np.r_[sq_cross, sq_terms])[-1]
    keep = ~drop
    clusters = np.sort(layout.index[keep])
    position = np.searchsorted(clusters, layout.index[keep])  # of each kept sector
    blocks = blocks[np.repeat(keep, square)]
    blocks.setflags(write=False)
    groups = _size_groups(position, sizes[keep], layout.pairs[np.repeat(keep, sizes)], blocks, n)
    # Every block is a pinched principal block of C_S = V_S^T conj(V_S), V_S the
    # vec(A_m) rows on the support, Hermitised and maybe scaled by _restore_tp.
    ops = channel._ops
    if not mc._gram_certified(ops.reshape(1, -1), len(ops), scale, channel._squares):
        sigmas = spectrum.sigmas[clusters].tolist()
        failures = []
        for group in groups:
            found = _mask_failure(group.blocks, [sigmas[i] for i in group.index.tolist()])
            if found is not None:
                failures.append((int(group.index[found[0]]), found[1]))
        if failures:
            raise NotCP(f"Choi {min(failures)[1]}")
    views = [block for group in groups for block in group.blocks]  # in layout order
    stored = tuple(views[i] for i in np.argsort(position).tolist())
    return SectorDecomposition._of_store(spectrum, clusters, stored, _groups=groups,
                                         projection_defect=float(np.sqrt(sq_defect)))


def _shift_kraus(pairs, sizes, count, vecs, n: int) -> Channel:
    """The one builder of covariant Kraus operators S_sigma diag(v), sector after sector:
    sector s holds the next sizes[s] flat Choi pairs j' * n + j (level j to j') and the next
    count[s] rows v of vecs (zero-padded to the longest); a sector with no row keeps one zero
    operator, and no sectors give one.  The rows come from checked arrays: the stack is adopted."""
    slots = np.maximum(count, 1)
    sector = np.repeat(np.arange(count.size), count)  # of each row
    # row r of sector s goes to operator first[s] + r
    op = np.arange(len(vecs)) + (np.cumsum(slots) - slots - np.cumsum(count) + count)[sector]
    d = sizes[sector]
    entry = np.arange(vecs.shape[1]) < d[:, None]
    at = ((np.cumsum(sizes) - sizes)[sector][:, None] + np.arange(vecs.shape[1]))[entry]
    ops = np.zeros((max(int(slots.sum()), 1), n * n), dtype=complex)
    ops[np.repeat(op, d), pairs[at]] = vecs[entry]
    return Channel._adopt(ops.reshape(-1, n, n))


def apply_sectors(decomp: SectorDecomposition, mat: np.ndarray) -> np.ndarray:
    """sum_sigma S_sigma (M_sigma * mat) S_sigma^dag over decomp's sectors in order, for
    a dim x dim mat (DimensionMismatch otherwise): each block times mat on its domain lands on
    the shift's image."""
    n = decomp.spectrum.dim
    if np.shape(mat) != (n, n):
        raise DimensionMismatch(f"matrix shape {np.shape(mat)} does not match spectrum dim {n}")
    out = np.zeros((n, n), dtype=complex)
    for c, block in zip(decomp._clusters.tolist(), decomp._blocks):
        img, dom = np.divmod(decomp.spectrum.sector_pairs[c], n)
        out[np.ix_(img, img)] += block * mat[np.ix_(dom, dom)]
    return out


def reconstruct(decomp: SectorDecomposition) -> Channel:
    """Rebuild the channel sum_sigma S_sigma (M_sigma * rho) S_sigma^dag as the operators
    S_sigma diag(v), v the spectral vectors of each block; a decomposition with no
    sectors is the zero map, one zero Kraus operator."""
    count, vecs = np.zeros(0, dtype=np.intp), np.zeros((0, 0))
    if decomp._groups:
        index, _, _, blocks = zip(*decomp._groups)
        _, _, count, vecs = mc._scaled_eigenvectors(blocks, index)  # by position
    pairs, sizes, _ = _held_pairs(decomp.spectrum, decomp._clusters)
    return _shift_kraus(pairs, sizes, count, vecs, decomp.spectrum.dim)


def shift_distribution(
    decomp: SectorDecomposition, rho: DensityMatrix
) -> EnergyShiftDistribution:
    """Energy shift probabilities p(sigma) = tr(G_sigma(rho))."""
    if rho.dim != decomp.spectrum.dim:
        raise DimensionMismatch("state and spectrum dimensions differ")
    diag = np.diag(rho.matrix)
    sigmas = decomp.sigmas().tolist()
    p = np.empty(len(sigmas))
    for group in decomp._groups:
        # tr(S (M * rho) S^dag) = sum_j M(j, j) rho(j, j) over the domain.
        terms = np.diagonal(group.blocks, axis1=1, axis2=2) * diag[group.domains]
        p[group.index] = np.real(terms).sum(axis=1)
    bad = np.flatnonzero(p < -mc.EPS_PSD)
    if bad.size:
        i = bad[0]
        raise MaskNotPSD(f"negative probability {p[i]:.3e} at sigma {sigmas[i]}")
    pairs = tuple((sigma, min(max(q, 0.0), 1.0)) for sigma, q in zip(sigmas, p.tolist()))
    return EnergyShiftDistribution(pairs=pairs, spectrum=decomp.spectrum)


# ---------------------------------------------------------------------------
# Characteristic function and its consistency checks


def _check_phase(values, t: float, name: str) -> None:
    """Refuse a non-finite phase x * t, x in values, in Python floats (no overflow warning)."""
    if not np.isfinite(float(np.max(np.abs(values), initial=0.0)) * abs(float(t))):
        raise InvalidParameter(f"{name} = {t}: a phase argument is not finite")


def _characteristic(channel: Channel, spectrum: Spectrum, K: np.ndarray,
                    rho: DensityMatrix, lags: np.ndarray) -> np.ndarray:
    """f at every lag, phi^H W phi: tr(K A rho diag(phi) A^dag diag(conj(phi))) is
    sum_jk conj(phi_j) (K A rho)_jk conj(A)_jk phi_k for each Kraus operator A."""
    K = np.asarray(K, dtype=complex)
    ops, n = channel._ops, spectrum.dim
    if K.shape != (n, n) or rho.dim != n or ops.shape[1:] != (n, n):
        raise DimensionMismatch("characteristic_function: dimensions do not match")
    _check_phase(spectrum.energies, np.max(np.abs(lags)), "largest |t|")
    w = np.vecdot(ops, K @ ops @ rho.matrix, axis=0)  # vecdot conjugates ops
    ph = spectrum.phases(lags[:, None])
    return np.vecdot(ph, ph @ w.T)


def characteristic_function(
    channel: Channel,
    spectrum: Spectrum,
    K: np.ndarray,
    rho: DensityMatrix,
    t: float,
) -> complex:
    """f(t) = tr(K G(rho e^{-iHt}) e^{iHt}) = phi^H W phi, phi the diagonal of e^{-iHt}
    and W = sum_m (K A_m rho) * conj(A_m).  W summed over a sector's pairs is
    tr(K G_sigma(rho)): f is the Fourier series sum_sigma tr(K G_sigma(rho)) e^{i sigma t}
    of a covariant channel.  Non-finite phases E_k t raise InvalidParameter."""
    return complex(_characteristic(channel, spectrum, K, rho, np.array([float(t)]))[0])


def bochner_check(
    channel: Channel,
    spectrum: Spectrum,
    K: np.ndarray,
    rho: DensityMatrix,
    times,
) -> float:
    """Minimum eigenvalue of the Gram matrix F[k, l] = f(t_k - t_l).

    Positive semidefiniteness of f makes this >= 0 (up to roundoff) for every
    covariant CPTP channel and PSD observable K.  One W (characteristic_function)
    serves all m^2 differences; no times or non-finite phases raise InvalidParameter.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    if not times.size or not np.isfinite(float(np.max(times)) - float(np.min(times))):
        raise InvalidParameter("bochner_check needs one or more times, all t_k - t_l finite")
    m = times.size
    F = _characteristic(channel, spectrum, K, rho, (times[:, None] - times).ravel()).reshape(m, m)
    F = (F + F.conj().T) / 2.0
    return float(np.linalg.eigvalsh(F).min())


def domain_extension_check(
    decomp: SectorDecomposition, rho: DensityMatrix, t: float
) -> float:
    """Largest defect of G_sigma(rho e^{-iHt}) = G_sigma(rho) e^{-iHt} e^{i sigma t}.

    Both sides lie on the shift's image: sector sigma's defect is ||M_sigma * rho_dom * (phi_dom -
    phi_img e^{i sigma t})||_F, phi = diag e^{-iHt} on the columns, one product per size group.  A
    state of another dimension raises DimensionMismatch, a non-finite phase InvalidParameter.
    """
    spectrum = decomp.spectrum
    if rho.dim != spectrum.dim:
        raise DimensionMismatch("state and spectrum dimensions differ")
    _check_phase(np.r_[spectrum.energies, spectrum.sigmas], t, "t")
    ph, sigmas = spectrum.phases(t), decomp.sigmas()
    worst = 0.0
    for index, dom, img, blocks in decomp._groups:
        factor = ph[dom] - ph[img] * np.exp(1j * sigmas[index] * t)[:, None]
        defect = blocks * rho.matrix[dom[:, :, None], dom[:, None, :]] * factor[:, None, :]
        worst = max(worst, float(np.linalg.norm(defect, axis=(1, 2)).max()))
    return worst
