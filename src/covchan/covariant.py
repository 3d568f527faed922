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
extraction independent of the Kraus gauge.

A channel meets a spectrum through its sector label (_label, a _Label), made by
one pass over its Kraus operators on its support when first asked for and kept
on the channel, one per spectrum: each operator's cluster, or -1 when its
nonzero entries lie in two (mixed), and, when every operator's entries share
one exact difference E_j' - E_j, those shifts, which timing reads.  The label
keeps the channel's raw Choi blocks on the sectors it touches, read once
(_raw), and no channel keeps a Choi matrix.  Every family the library builds
(reconstruct, hadamard_channel, build_shift_mixture) is sector-pure, no
operator mixed: its cross-sector Choi entries are sums of exact zeros, so
covariance_defect is 0.0 with no Choi matrix, and each sector's block is
X_sigma^T conj(X_sigma) from the operators labelled sigma and the sector's
pairs, one product per size group (_label_blocks).  A mixed family
(random_covariant's, whose sectors mix at roundoff, or one that is not
covariant) forms its Choi matrix on the pairs some Kraus operator touches,
every other row and column being zero, once per (channel, spectrum) in the
first of covariance_defect and decompose: the label keeps the largest
cross-sector |entry| and their squared norm, and the blocks gathered from it
(_sector_blocks), and the matrix is dropped.  Either route lays out the
sectors the channel touches, and the one table object of that layout
(_Groups), which holds every table that the support and the spectrum fix,
is kept on the label too.

A decomposition is one store (_Layout), which every library reader reads: its
sectors in size order, each with its spectrum cluster c (sigma, domain and
image from spectrum.sigmas[c] and sector_pairs[c]), flat Choi pairs and the
offset of its read-only d x d block in one flat buffer.  A size's sectors are
a size group, an (m, d, d) view of the buffer (_Groups): their blocks lie one
after another, or at one offset (the +-a of a Gaussian decomposition).  A
size's real blocks in a complex buffer are a group of their own on its real
part, so they are diagonalised as real.  The (PartialShift, SectorMask)
pairs are made from the store one at a time (SectorDecomposition._pairs).
Given blocks, from the pairs the constructor checks or from a decomposition
file, go into a store through one builder (_store_of_blocks).

Sector work runs over all sectors at once, on index tables made once.  decompose
reads the raw blocks of the sectors the channel touches, laid out in one buffer,
Hermitises, scales for TP and tests them for the drop once over it, and keeps
the kept blocks' buffer as its store.  When no sector is dropped the store is
the label's layout with that buffer, and the decomposition reads the label's
_Groups, so a warm decompose builds no index table.  reconstruct runs one
stacked eigh per size group, on the blocks as stored when decompose stored
them (they are exactly Hermitian) and on their Hermitian parts otherwise, then
orders and cuts the eigenvectors of all sectors at once, and _shift_kraus, the
one builder of covariant Kraus families, scatters them in one assignment.
shift_distribution reads every block's diagonal in one gather and clips all
probabilities at once; only its sums run per size group.  Every
block decompose keeps is a pinched principal block of the Gram product
C_S = V_S^T conj(V_S), so one rounding bound on the Kraus operators' norm
(channels._gram_bound) proves all of them pass the mask check; only when it
does not is the check run, one stacked eigvalsh per size.  The results are
the per-sector loops' bit for bit: one level sum, which diagonal_sums and the
TP scaling share, adds the diagonals in sector order (_Groups.level_sums), each
block's residue is its own dot product, and the first failing block in sector
order is reported (_store_failure, any store).
characteristic_function and bochner_check apply no channel: they read one
n x n weight matrix W per call, whose sum over a sector's pairs is
tr(K G_sigma(rho)).
"""
from __future__ import annotations

import reprlib
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

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


def _real_numbers(values, ndim: int, error: type, what: str) -> np.ndarray:
    """A float copy of values, a non-empty array of ndim axes, or error(what): complex, text
    and bool entries, ragged lists and ints past any double are refused, with no warning.
    numpy reads a bool among numbers as a number, so the items are looked at as given."""
    try:
        arr = np.array(values)
        items = np.array(values, dtype=object).ravel().tolist()
        if (arr.dtype.kind in "iufO" and arr.ndim == ndim and arr.size
                and not any(isinstance(x, (bool, np.bool_)) for x in items)):
            return arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(what)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Strictly increasing energies of a non-degenerate diagonal Hamiltonian.

    match_tol (finite; at or below 0 it picks the relative default 1e-9 max|E|,
    or 1e-9 for the one level at 0) declares when two floating-point energy
    differences are "the same" sigma; spectra with gaps at or below match_tol
    are rejected.  The default scales with the energies: at 2^k E the map is
    that of E, its sigmas 2^k times E's.

    The sorted differences omega_{j'} - omega_j are clustered once, a step
    above match_tol starting a new cluster: sigmas[i] is the mean of cluster
    i and sector_pairs[i] its flat Choi pairs j' * n + j, by input level j.
    A cluster holding a level twice is no partial permutation and raises.
    The map is built with no loop over clusters: the pairs are sorted by
    (cluster, input level) and split at the cluster starts, the means are one
    reduceat, and a level held twice shows as equal neighbouring sorted keys.
    Its read-only tables, built with it: the clusters' sizes (_sizes), the clusters
    in size order (_by_size, a size's by index), their pairs one after another (_flat,
    cluster i's from _starts[i]) and the cluster of every flat pair (_cluster).
    """

    energies: np.ndarray
    match_tol: float = 0.0  # 0 -> default relative tolerance
    sigmas: np.ndarray = field(init=False, repr=False)
    sector_pairs: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _spans: np.ndarray = field(init=False, repr=False)
    _starts: np.ndarray = field(init=False, repr=False)
    _flat: np.ndarray = field(init=False, repr=False)
    _sizes: np.ndarray = field(init=False, repr=False)
    _by_size: np.ndarray = field(init=False, repr=False)
    _cluster: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        en = _real_numbers(self.energies, 1, DegenerateSpectrum,  # its own copy, made read-only
                           "spectrum must be a non-empty 1-d list of real energies")
        if not np.all(np.isfinite(en)):
            raise DegenerateSpectrum("spectrum contains non-finite energies")
        if not np.isfinite(float(en.max()) - float(en.min())):  # before any difference is formed
            raise DegenerateSpectrum("the energy span max E - min E is not finite")
        got = reprlib.repr(self.match_tol)  # an int past any double is not echoed in full
        tol = float(_real_numbers(self.match_tol, 0, InvalidParameter,
                                  f"match_tol must be a real number, got {got}"))
        if not np.isfinite(tol):  # NaN would pass every comparison below
            raise InvalidParameter(f"match_tol must be finite, got {tol!r}")
        if tol <= 0.0:  # relative; 1e-9 for the one level at 0
            tol = 1e-9 * (float(np.max(np.abs(en))) or 1.0)
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
        sizes, pair_cluster = ends - starts, np.empty(n * n, dtype=np.intp)
        pair_cluster[order] = cluster
        by_size = np.argsort(sizes, kind="stable")
        for arr in (en, sigmas, spans, starts, sizes, by_size, pair_cluster):
            arr.setflags(write=False)
        self.__dict__.update(energies=en, match_tol=tol, sigmas=sigmas, _spans=spans,
                             sector_pairs=tuple(np.split(flat, cuts)), _starts=starts, _flat=flat,
                             _sizes=sizes, _by_size=by_size, _cluster=pair_cluster)

    @property
    def dim(self) -> int:
        return self.energies.size

    def phases(self, t: float) -> np.ndarray:
        """Diagonal e^{-i omega_j t} of e^{-iHt}."""
        return np.exp(-1j * self.energies * t)

    def _cluster_at(self, sigma: float) -> int | None:
        """Index i of the cluster whose span [lowest, highest] of differences lies
        nearest to sigma, at distance 0 inside it, when that distance is within
        match_tol (sigmas[i], sector_pairs[i]), or None: the one sigma -> sector
        rule.  Two spans are candidates, the last below sigma and the next: the
        nearer wins, the lower on a tie (a cluster may start exactly match_tol
        above its neighbour's top), and one missing, or NaN or +-inf, is never
        within.  The spans are disjoint, so every sigmas[i] resolves to i."""
        i = int(self._clusters_at(np.array([sigma], dtype=float))[0])
        return None if i < 0 else i

    def _clusters_at(self, sigmas: np.ndarray) -> np.ndarray:
        """_cluster_at of every sigma of a float array, -1 for None, in one pass."""
        lowest, highest = self._spans
        top = highest.size - 1
        i = np.searchsorted(highest, sigmas)  # highest[i - 1] < sigma <= highest[i]
        below = np.where(i > 0, sigmas - highest[np.maximum(i - 1, 0)], np.inf)
        distance = np.where(i <= top, np.maximum(lowest[np.minimum(i, top)] - sigmas, 0.0),
                            np.inf)
        lower = below <= distance
        distance = np.where(lower, below, distance)
        return np.where(distance <= self.match_tol, i - lower, -1)


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
        mask.__dict__.update(sigma=sigma, domain_submatrix=block, domain=domain, dim=dim)
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
    given to the constructor are checked all at once (_pair_clusters), each shift the
    spectrum's sector at its sigma, and their blocks concatenated; sigmas(), like
    sector(sigma)'s, are the clusters'.

    projection_defect is the Choi Frobenius distance between the input channel
    and the decomposition; it is zero (up to roundoff) for exactly covariant
    inputs and reports the sector-projection distance otherwise.
    """

    spectrum: Spectrum
    sectors: tuple[tuple[PartialShift, SectorMask], ...]
    projection_defect: float = 0.0
    _hermitian = False  # every block exactly Hermitian: set on decompose's stores

    def __post_init__(self):
        clusters = _pair_clusters(self.spectrum, self.sectors)
        self.__dict__["_store"] = _store_of_blocks(
            self.spectrum, clusters, [mask.domain_submatrix for _, mask in self.sectors])

    @classmethod
    def _of_store(cls, spectrum: Spectrum, store: _Layout, **fields):
        """The decomposition of a store, no pair made; fields are its other fields."""
        decomp = object.__new__(cls)
        decomp.__dict__.update({"projection_defect": 0.0, **fields, "spectrum": spectrum,
                                "_store": store})
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

    def _derived__groups(self) -> _Groups:  # the store's size groups, decompose's handed over
        return _Groups(self._store, self.spectrum.dim)

    def _derived__stacked(self) -> tuple:  # the store's size groups with their blocks
        return tuple(self._groups.stacks(self._store.blocks))

    def _derived__by_slot(self) -> list:  # each slot's (pairs, block), views of its size group
        return [pair for _, rows, blocks in self._stacked for pair in zip(rows, blocks)]

    def _pairs(self, slots=None):
        """The (shift, mask) pair of each slot (all, in sector order, by default), made
        from its cluster's sector pairs and its block, checked before it was stored."""
        spec, store = self.spectrum, self._store
        for k in store.order.tolist() if slots is None else slots:
            c, block = int(store.clusters[k]), self._by_slot[k][1]
            shift = PartialShift._of_pairs(float(spec.sigmas[c]), spec.sector_pairs[c], spec.dim)
            yield shift, SectorMask._checked(shift.sigma, block, shift.domain, spec.dim)

    def sigmas(self) -> np.ndarray:
        return self.spectrum.sigmas[self._store.clusters[self._store.order]]

    def sector(self, sigma: float) -> tuple[PartialShift, SectorMask]:
        """The sector on the cluster of sigma, whose shift is partial_shift(spectrum, sigma)."""
        try:
            k = self._store.clusters.tolist().index(self.spectrum._cluster_at(sigma))
        except ValueError:
            raise UnknownSector(f"no sector at sigma = {sigma}") from None
        return next(self._pairs([k]))

    def _diagonals(self) -> np.ndarray:
        """Every block's diagonal M_sigma(j, j), slot after slot, at the store's pairs (j', j)."""
        return self._store.blocks[self._groups.diagonal]

    def diagonal_sums(self) -> np.ndarray:
        """sum_sigma M_sigma(j, j) at every input level j: all ones for a TP channel."""
        return self._groups.level_sums(self._store.blocks)


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


def _cross_entries(choi: np.ndarray, support: np.ndarray, spectrum: Spectrum) -> np.ndarray:
    """|C| between two sectors, zero within one, for C on support x support.  Every
    Choi row and column off the support is zero, so the cross-sector entries off it are."""
    sector = spectrum._cluster[support]
    cross = np.abs(choi)
    cross[sector[:, None] == sector[None, :]] = 0.0
    return cross


def _magnitudes(sigmas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct |sigma|, ascending, and the index of each sigma's in them."""
    return np.unique(np.abs(sigmas), return_inverse=True)


class _Label:
    """The sector label of one Kraus family on one spectrum, made by one pass over
    its operators on the channel's support (_label).  cluster[k] is the spectrum
    cluster of operator k's first nonzero entry when all its nonzero entries lie in
    it, and -1 (mixed) otherwise; pure says no operator is mixed.  shifts[k] is the
    one exact difference E_j' - E_j that all of operator k's nonzero entries share,
    bit for bit, and shifts is None unless every operator has one.  An operator with
    no nonzero entry reads the support's first pair (pair 0 when the support is
    empty).  cross is (max, squared Frobenius norm) of the cross-sector |Choi|
    entries: (0.0, 0.0) for a pure family, whose cross-sector entries are sums of
    exact zeros, and for a mixed one None until _raw forms its Choi matrix.  raw (a
    _Layout, set by _raw) holds the raw Choi blocks of the sectors the channel's
    support touches, read-only, O(sum d^2) entries.  groups (a _Groups, set by _raw
    with _block_tables) is the layout of those sectors with every table that the
    channel's support and the spectrum fix, O(sum d^2) indices, each made once: the
    entries' places in the pairs, the size groups, which reconstruct and
    shift_distribution read too, and _restore_tp's levels.  magnitudes is
    _magnitudes(shifts), made on its first read (timing._fourier's table)."""

    def __init__(self, cluster: np.ndarray, shifts: np.ndarray | None):
        cluster.setflags(write=False)
        if shifts is not None:
            shifts.setflags(write=False)
        self.cluster, self.shifts, self.pure = cluster, shifts, bool(cluster.min() >= 0)
        self.cross = (0.0, 0.0) if self.pure else None
        self.raw = self.groups = None

    @cached_property
    def magnitudes(self) -> tuple[np.ndarray, np.ndarray]:
        return _magnitudes(self.shifts)


def _label(channel: Channel, spectrum: Spectrum) -> _Label:
    """The channel's _Label on spectrum, made on the first call and kept on the
    channel, one per spectrum, which the channel keeps alive (DimensionMismatch unless
    its operators are n x n).  Only the entries on the channel's support are read."""
    labels = channel.__dict__.setdefault("_labels", {})
    label = labels.get(spectrum)
    if label is not None:
        return label
    ops, n = channel._ops, spectrum.dim
    if ops.shape[1:] != (n, n):
        raise DimensionMismatch("channel and spectrum dimensions differ")
    support = channel._support if channel._support.size else np.zeros(1, dtype=np.intp)
    nonzero = (ops.reshape(len(ops), -1) != 0)[:, support]
    first = np.argmax(nonzero, axis=1)  # each operator's first nonzero entry
    sector = spectrum._cluster[support]
    cluster = sector[first]
    mixed = ~(nonzero <= (sector == cluster[:, None])).all(axis=1)
    shifts = None
    if not mixed.any():  # E_j' - E_j at every pair, then at each first entry
        diffs = spectrum.energies[support // n] - spectrum.energies[support % n]
        shifts = diffs[first]
        if not (nonzero <= (diffs == shifts[:, None])).all():
            shifts = None
    cluster[mixed] = -1
    labels[spectrum] = label = _Label(cluster, shifts)
    return label


# A store, or decompose's work layout: per slot, in size order, its cluster, domain
# size d, whether its block is real in a complex buffer and the offset of its d x d
# row-major block in the buffer blocks; the slots in sector order; the flat pairs.
_Layout = namedtuple("_Layout", "clusters sizes real offsets blocks order pairs")


def _runs(starts, sizes):
    """The indices starts[i], ..., starts[i] + sizes[i] - 1 of every run, one run after another."""
    return np.arange(sizes.sum()) + np.repeat(starts - np.cumsum(sizes) + sizes, sizes)


def _lay_out(spectrum: Spectrum, clusters, blocks, offsets=None) -> _Layout:
    """The read-only _Layout of the sectors on clusters (in size order), their pairs read
    from the spectrum, sector order that of the clusters, no block real in a complex buffer
    and the blocks at offsets in blocks (by default one after another)."""
    sizes, starts = spectrum._sizes[clusters], spectrum._starts[clusters]
    offsets = np.cumsum(sizes * sizes) - sizes * sizes if offsets is None else offsets
    layout = _Layout(clusters, sizes, np.zeros(clusters.size, dtype=bool), offsets, blocks,
                     np.argsort(clusters, kind="stable"), spectrum._flat[_runs(starts, sizes)])
    for arr in layout._replace(blocks=offsets):  # all but the blocks, which may be in the making
        arr.setflags(write=False)
    return layout


def _pair_clusters(spectrum: Spectrum, sectors) -> np.ndarray:
    """The cluster of each given (shift, mask) pair, every pair checked at once: the first
    pair in the given order that fails is named, by the first check it fails of: shift,
    mask and spectrum dimensions; the shift is the spectrum's at its sigma; its cluster is
    not listed before; the mask is on that cluster and the shift's levels."""
    n, m = spectrum.dim, len(sectors)
    shifts, masks = [pair[0] for pair in sectors], [pair[1] for pair in sectors]
    clusters = spectrum._clusters_at(np.array([shift.sigma for shift in shifts], dtype=float))
    sizes = np.where(clusters < 0, 0, spectrum._sizes[clusters])
    pairs = spectrum._flat[_runs(spectrum._starts[clusters], sizes)]  # the spectrum's, by pair

    def differ(runs, want):  # per pair: its run of levels is not its sizes[i] entries of want
        held = np.array([len(run) for run in runs], dtype=np.intp) == sizes
        kept = runs if held.all() else [run for run, h in zip(runs, held.tolist()) if h]
        got = np.fromiter(chain.from_iterable(kept), np.intp, int(sizes[held].sum()))
        wrong = np.bincount(np.repeat(np.flatnonzero(held), sizes[held]), minlength=m,
                            weights=got != want[np.repeat(held, sizes)])
        return ~held | (wrong > 0)

    wrong_dim = np.array([not shift.dim == mask.dim == n for shift, mask in sectors], dtype=bool)
    unknown = ((clusters < 0) | differ([shift.domain for shift in shifts], pairs % n)
               | differ([shift.image for shift in shifts], pairs // n))
    _, first, at = np.unique(clusters, return_index=True, return_inverse=True)
    twice = first[at] < np.arange(m)
    moved = (spectrum._clusters_at(np.array([mask.sigma for mask in masks], dtype=float))
             != clusters) | differ([mask.domain for mask in masks], pairs % n)
    failing = wrong_dim | unknown | twice | moved
    if failing.any():
        i = int(np.argmax(failing))
        shift, mask = sectors[i]
        if wrong_dim[i]:
            raise DimensionMismatch(f"sector {shift.sigma}: shift dim {shift.dim} and mask dim "
                                    f"{mask.dim}, spectrum dim {n}")
        if unknown[i]:
            raise UnknownSector(f"sector {shift.sigma}: not the spectrum's shift at that sigma")
        if twice[i]:
            raise UnknownSector(f"sector {shift.sigma}: listed twice")
        raise UnknownSector(f"sector {shift.sigma}: its mask is for sigma {mask.sigma} "
                            f"on levels {tuple(mask.domain)}")
    return clusters


def _store_of_blocks(spectrum: Spectrum, clusters, blocks) -> _Layout:
    """The one store of given blocks, blocks[i] the d x d block of the sector on cluster
    clusters[i] and the sector order the given one: the blocks one after another in size
    order, a size's real ones first, in one read-only buffer.  The blocks are not checked."""
    real = np.array([not np.iscomplexobj(block) for block in blocks], dtype=bool)
    slots = np.lexsort((~real, spectrum._sizes[clusters]))  # size order, a size's real first
    buffer = np.concatenate([np.zeros(0), *(blocks[i].reshape(-1) for i in slots.tolist())])
    buffer.setflags(write=False)
    store = _lay_out(spectrum, np.array(clusters, dtype=np.intp)[slots], buffer)
    return store._replace(order=np.argsort(slots), real=real[slots] & np.iscomplexobj(buffer))


def _read_only(*arrays) -> tuple:
    """The arrays, each set read-only."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


# A size group of a layout: its slots (a slice), their pairs (m, d), the place of the
# first in the layout's flat pairs, the offset of its blocks, m, d, whether its blocks
# are real in a complex buffer, and whether they are one block at one offset.
_Span = namedtuple("_Span", "slots pairs first offset m d real shared")


class _Groups:
    """Every table of one layout, kept on a label or a decomposition: the size groups, in
    size order (spans, _Span), found once from its sizes, real flags and offsets, a
    store's blocks aside, and its other tables, each made on first read: sector_order,
    the places of the layout's flat pairs sector after sector; keys, the places in sector
    order of each group's slots (reconstruct's eigenvector keys and _store_failure's);
    diagonal, the places in the buffer of every slot's diagonal entries, slot after slot,
    as the pairs; real_entries, the places among those of the real blocks' entries;
    entries, per entry the places in the pairs of its row and column and of its
    transpose (rows, cols, trans); and tp_levels, the input levels of each entry's row
    and column (_restore_tp's).  entries and tp_levels hold only for a layout whose
    blocks lie one after another, as every label's does (not a Gaussian store's, whose
    +-a blocks share one offset).  n is the spectrum's dimension."""

    def __init__(self, layout: _Layout, n: int):
        self.layout, self.n = layout, n
        key, offsets = 2 * layout.sizes + layout.real, layout.offsets.tolist()
        starts = np.flatnonzero(np.concatenate((key[:1] >= 0, key[1:] != key[:-1])))  # 0 if any
        first = (np.cumsum(layout.sizes) - layout.sizes)[starts].tolist()
        self.spans = []
        for start, end, p, real in zip(starts.tolist(), [*starts[1:].tolist(), key.size], first,
                                       layout.real[starts].tolist()):
            m, d, o = end - start, int(layout.sizes[start]), offsets[start]
            self.spans.append(_Span(slice(start, end), layout.pairs[p:p + m * d].reshape(m, d),
                                    p, o, m, d, real, m > 1 and offsets[start + 1] == o))

    def stacks(self, buffer: np.ndarray):
        """Per group its slots, their pairs (m, d) and their blocks (m, d, d) in buffer, views."""
        for slots, pairs, _, o, m, d, real, shared in self.spans:
            part = buffer.real if real else buffer
            blocks = (np.broadcast_to(part[o:o + d * d].reshape(d, d), (m, d, d)) if shared
                      else part[o:o + m * d * d].reshape(m, d, d))
            yield slots, pairs, blocks

    @cached_property
    def sector_order(self) -> np.ndarray:
        sizes, order = self.layout.sizes, self.layout.order
        return _runs((np.cumsum(sizes) - sizes)[order], sizes[order])

    @cached_property
    def keys(self) -> list:
        position = np.argsort(self.layout.order)  # of each slot in sector order
        return [position[span.slots] for span in self.spans]

    @cached_property
    def diagonal(self) -> np.ndarray:
        sizes = self.layout.sizes
        rank = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)  # in its slot
        return np.repeat(self.layout.offsets, sizes) + rank * np.repeat(sizes + 1, sizes)

    @cached_property
    def real_entries(self) -> np.ndarray:
        return np.flatnonzero(np.repeat(self.layout.real, self.layout.sizes))

    @cached_property
    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        sizes = self.layout.sizes
        square = sizes * sizes
        start = np.repeat(self.layout.offsets, square)  # of each entry's block
        d = np.repeat(sizes, square)
        rows, cols = np.divmod(np.arange(d.size) - start, d)  # the entry's place in its block
        trans = start + cols * d + rows
        base = np.repeat(np.cumsum(sizes) - sizes, square)
        return _read_only(rows + base, cols + base, trans)

    @cached_property
    def _sum_places(self) -> tuple[np.ndarray, np.ndarray]:
        # The levels of the flat pairs and the places of their diagonal entries, in sector order.
        at = self.sector_order
        return _read_only(self.layout.pairs[at] % self.n, self.diagonal[at])

    @cached_property
    def tp_levels(self) -> tuple[np.ndarray, np.ndarray]:
        levels, (rows, cols, _) = self.layout.pairs % self.n, self.entries
        return _read_only(levels[rows], levels[cols])

    def level_sums(self, blocks: np.ndarray) -> np.ndarray:
        """sum_sigma M_sigma(j, j) at every input level j of the blocks (a buffer of this
        layout): the block diagonals at their levels added one after another in sector
        order."""
        levels, diagonal = self._sum_places
        total = np.zeros(self.n)
        np.add.at(total, levels, np.real(blocks[diagonal]))
        return total


def _store_failure(spectrum: Spectrum, store: _Layout) -> str | None:
    """The SectorMask check of a store, one _mask_failure per size group (whose slots lie in
    sector order): None, or the message of the failing block first in sector order."""
    groups = _Groups(store, spectrum.dim)
    found = [(int(key[failed[0]]), failed[1])
             for key, (slots, _, stack) in zip(groups.keys, groups.stacks(store.blocks))
             if (failed := _mask_failure(stack, spectrum.sigmas[store.clusters[slots]].tolist()))]
    return min(found)[1] if found else None


def _block_tables(support: np.ndarray, spectrum: Spectrum) -> _Groups:
    """The _Groups of the layout of the sectors holding a pair of the support, its blocks
    not formed.  No other sector is laid out: over all sectors each entry table would
    hold about 2 n^3 / 3 entries."""
    order = spectrum._by_size
    held = np.zeros(order.size, dtype=bool)
    held[spectrum._cluster[support]] = True
    return _Groups(_lay_out(spectrum, order[held[order]], None), spectrum.dim)


def _sector_blocks(choi: np.ndarray, support: np.ndarray, spectrum: Spectrum,
                   groups: _Groups) -> _Layout:
    """The layout of the groups (_block_tables(support, spectrum)) with the blocks of
    choi on support x support, +0.0 off it (a pinching: PSD stays PSD)."""
    at = np.full(spectrum.dim ** 2, -1)  # the row of each pair in choi, -1 off the support
    at[support] = np.arange(support.size)
    (rows, cols, _), at = groups.entries, at[groups.layout.pairs]
    row, col = at[rows], at[cols]
    off = (row < 0) | (col < 0)
    place = row * support.size + col
    place[off] = 0  # a valid place, whose entry is replaced
    blocks = choi.reshape(-1)[place]
    blocks[off] = 0.0
    return groups.layout._replace(blocks=blocks)


def _operator_gather(label: _Label, groups: _Groups, support: np.ndarray, spectrum: Spectrum):
    """The label route's gather (_label_blocks) of a sector-pure family: the places in
    one flat buffer of every size group's stack X, m x p x d, p the group's most operators
    on one sector and at least two, and each group's (offset, m, d, p, start in the
    buffer); the places of the operators' entries on their sectors' pairs in that buffer
    and in the flat Kraus stack, slot after slot, a slot's operators in operator order;
    and whether each block entry is off the support."""
    layout, n = groups.layout, spectrum.dim
    slot = np.full(len(spectrum.sigmas), -1)
    slot[layout.clusters] = np.arange(layout.clusters.size)
    slot = slot[label.cluster]  # of each operator; -1 for zero ones off every laid-out sector
    ops = np.flatnonzero(slot >= 0)
    ops = ops[np.argsort(slot[ops], kind="stable")]  # slot after slot, in operator order
    count = np.bincount(slot[ops], minlength=layout.clusters.size)
    starts = np.cumsum(count) - count  # of each slot's operators in ops
    rank = np.arange(ops.size) - np.repeat(starts, count)  # each operator's within its slot
    stacks, into, start = [], np.empty(ops.size, dtype=np.intp), 0
    for span in groups.spans:  # the size groups, in size order
        a, b, o, m, d = span.slots.start, span.slots.stop, span.offset, span.m, span.d
        p = max(2, int(count[a:b].max()))
        mine = slice(starts[a], starts[b - 1] + count[b - 1])
        into[mine] = start + ((slot[ops[mine]] - a) * p + rank[mine]) * d  # row of X
        stacks.append((o, m, d, p, start))
        start += m * p * d
    width = layout.sizes[slot[ops]]  # of each operator's row of X
    first = (np.cumsum(layout.sizes) - layout.sizes)[slot[ops]]  # of each operator's pairs
    entry = _runs(np.zeros(ops.size, dtype=np.intp), width)  # each entry's place in its row
    dst = np.repeat(into, width) + entry
    src = np.repeat(ops * (n * n), width) + layout.pairs[np.repeat(first, width) + entry]
    held = np.zeros(n * n, dtype=bool)
    held[support] = True
    held = held[layout.pairs]
    rows, cols, _ = groups.entries
    return stacks, start, dst, src, ~(held[rows] & held[cols])


def _label_blocks(channel: Channel, spectrum: Spectrum, label: _Label) -> _Layout:
    """_sector_blocks of a sector-pure family on its label's groups, formed with
    no Choi matrix: sector sigma's block is X_sigma^T conj(X_sigma), X_sigma the entries
    of the operators labelled sigma on its pairs, in operator order.  A size group's
    X_sigma are one stack, each padded with zero rows to the group's most operators and
    to at least two, so that the one product per group is a BLAS product for every
    sector (numpy takes a product of inner dimension 1 in its own loop).  The stacks
    lie in one buffer, filled by one gather (_operator_gather): a group's stack holds at
    most p m d entries, p <= max(2, K), so all of them at most max(2, K) n^2, twice the
    Kraus stack's at most.  An entry off the support is a sum of +-0.0, set to +0.0 as
    the Choi matrix's."""
    groups = label.groups
    stacks, size, dst, src, off = _operator_gather(label, groups, channel._support, spectrum)
    x = np.zeros(size, dtype=complex)
    x[dst] = channel._ops.reshape(-1)[src]
    xc = x.conj()
    blocks = np.empty(off.size, dtype=complex)
    for o, m, d, p, start in stacks:
        stack = x[start:start + m * p * d].reshape(m, p, d)
        np.matmul(stack.swapaxes(1, 2), xc[start:start + m * p * d].reshape(m, p, d),
                  out=blocks[o:o + m * d * d].reshape(m, d, d))
    blocks[off] = 0.0
    return groups.layout._replace(blocks=blocks)


def _raw(channel: Channel, spectrum: Spectrum, label: _Label) -> _Layout:
    """label.raw, set on the first call with label.groups (_block_tables): the layout of
    the sectors the channel's support touches with its raw Choi blocks, read-only.  A
    pure family's come from its operators (_label_blocks).  A mixed family's Choi matrix
    on its support is formed here, once per (channel, spectrum): label.cross is read
    from its |entries|, which are freed before the tables are made and its blocks are
    gathered (_sector_blocks), and then it is dropped.  The blocks hold as many entries
    as each of the groups' three entry tables (rows, cols and trans)."""
    if label.raw is None:
        support, choi = channel._support, None
        if not label.pure:
            choi = mc._choi_on_support(support, channel._ops)
            cross = _cross_entries(choi, support, spectrum)
            label.cross = (float(cross.max(initial=0.0)), float(np.vdot(cross, cross).real))
            del cross
        label.groups = groups = _block_tables(support, spectrum)
        raw = (_label_blocks(channel, spectrum, label) if choi is None
               else _sector_blocks(choi, support, spectrum, groups))
        raw.blocks.setflags(write=False)
        label.raw = raw
    return label.raw


def _restore_tp(layout: _Layout, groups: _Groups) -> tuple[_Layout, float]:
    """The layout's blocks (its groups' tables) under the congruence by diag(s), s =
    w^(-1/2) and w their level sums, so that the diagonals sum to one at every level
    (TP); and max s^2, by which the congruence can scale rounding."""
    scale = 1.0 / np.sqrt(groups.level_sums(layout.blocks))
    top = float(scale.max(initial=0.0))
    row_level, col_level = groups.tp_levels
    blocks = layout.blocks * (scale[row_level] * scale[col_level])
    return layout._replace(blocks=blocks), top * top


def _scatter(layout: _Layout, groups: _Groups) -> np.ndarray:
    """The Choi matrix holding the layout's blocks on their pairs (its groups'), zero elsewhere."""
    (rows, cols, _), n = groups.entries, groups.n
    choi = np.zeros((n * n, n * n), dtype=complex)
    choi[layout.pairs[rows], layout.pairs[cols]] = layout.blocks
    return choi


def covariance_defect(channel: Channel, spectrum: Spectrum) -> float:
    """Largest |Choi entry| coupling two different energy-difference sectors.

    Zero exactly when the channel commutes with the time evolution: under
    alpha_t conjugation the Choi entries pick up relative phases between
    sectors, so any cross-sector mass breaks covariance.
    """
    label = _label(channel, spectrum)
    if label.cross is None:
        _raw(channel, spectrum, label)
    return label.cross[0]


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
    A sector-pure family (the channel's label on spectrum, module docstring)
    forms no Choi matrix: each block is the product of its own sector's
    operators, the Choi matrix's block up to roundoff, and the covariance
    defect is 0.0.  A mixed family forms its Choi matrix once per spectrum,
    in the first of covariance_defect and decompose.  Either route's raw
    blocks, and the cross-sector defect and squared norm, are those the label
    keeps (_raw), so a warm decompose forms no block and gathers none.
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
    label = _label(channel, spectrum)
    layout = _raw(channel, spectrum, label)
    defect, sq_cross = label.cross
    if defect > tol:
        raise NotCovariant(defect, tol)
    groups, raw = label.groups, layout.blocks
    layout = layout._replace(blocks=(raw + raw[groups.entries[2]].conj()) / 2.0)
    scale = 1.0
    if channel._tp_defect <= mc.EPS_TP:
        layout, scale = _restore_tp(layout, groups)

    # ||C - scatter(kept blocks)||^2 entry by entry: the cross-sector
    # entries, plus each sector's Choi block minus its kept block (or zero).
    blocks, square = layout.blocks, layout.sizes * layout.sizes
    peak = max(defect, float(np.abs(raw).max(initial=0.0)))
    floor = 1e-13 * max(1.0, peak)  # peak = max |C|
    drop = np.maximum.reduceat(np.abs(blocks), layout.offsets) <= floor
    dropped = bool(drop.any())
    resid = np.where(np.repeat(drop, square), raw, raw - blocks) if dropped else raw - blocks
    sq_terms = np.zeros(len(spectrum.sigmas))  # a sector left out adds 0.0
    for slots, _, terms in groups.stacks(resid):  # one dot per block, as vdot
        terms = terms.reshape(len(terms), -1)
        sq_terms[layout.clusters[slots]] = np.vecdot(terms, terms).real
    # A running sum adds the terms in sector order, as one float after another.
    sq_defect = np.add.accumulate(np.r_[sq_cross, sq_terms])[-1]
    # The store is the label's layout, its size groups the label's, unless a sector
    # is dropped; its blocks are Hermitised, so reconstruct takes them as they are.
    fields = {"projection_defect": float(np.sqrt(sq_defect)), "_hermitian": True}
    if dropped:
        blocks = blocks[np.repeat(~drop, square)]
        store = _lay_out(spectrum, layout.clusters[~drop], blocks)
    else:
        store = layout
        fields["_groups"] = groups
    blocks.setflags(write=False)
    # Every block is a pinched principal block of C_S = V_S^T conj(V_S), V_S the
    # vec(A_m) rows on the support, Hermitised and maybe scaled by _restore_tp; a
    # pure family's is its sector's own product, with at most K nonzero terms an
    # entry and exact zeros for the rest, so the same bound holds.
    ops = channel._ops
    if not mc._gram_certified(ops.reshape(1, -1), len(ops), scale, channel._squares):
        failure = _store_failure(spectrum, store)
        if failure is not None:
            raise NotCP(f"Choi {failure}")
    return SectorDecomposition._of_store(spectrum, store, **fields)


def _choi_distance(channel: Channel, recon: Channel, spectrum: Spectrum) -> float:
    """||C - C_rec||_F for the Choi matrices of a channel and of the reconstruction of
    its decomposition, read sector by sector from both labels' raw blocks (_raw): the
    channel's cross-sector squared norm plus each of its sectors' block difference.
    recon is sector-pure and its sectors are among the channel's (a dropped sector
    differs by the channel's block), so every other entry of either matrix is zero."""
    label = _label(channel, spectrum)
    mine, theirs = _raw(channel, spectrum, label), _raw(recon, spectrum, _label(recon, spectrum))
    held = np.isin(mine.clusters, theirs.clusters)  # recon's slots, in the same size order
    diff = mine.blocks.copy()
    diff[_runs(mine.offsets[held], (mine.sizes * mine.sizes)[held])] -= theirs.blocks
    return float(np.sqrt(label.cross[1] + np.vdot(diff, diff).real))


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
    a dim x dim array-like mat (DimensionMismatch otherwise): each block times mat on its
    domain lands on the shift's image."""
    n, mat = decomp.spectrum.dim, np.asarray(mat)
    if mat.shape != (n, n):
        raise DimensionMismatch(f"matrix shape {mat.shape} does not match spectrum dim {n}")
    out = np.zeros((n, n), dtype=complex)
    for k in decomp._store.order.tolist():
        pairs, block = decomp._by_slot[k]
        img, dom = np.divmod(pairs, n)
        out[img[:, None], img] += block * mat[dom[:, None], dom]  # np.ix_ took twice as long
    return out


def reconstruct(decomp: SectorDecomposition) -> Channel:
    """Rebuild the channel sum_sigma S_sigma (M_sigma * rho) S_sigma^dag as the operators
    S_sigma diag(v), v the spectral vectors of each block; a decomposition with no
    sectors is the zero map, one zero Kraus operator.  The blocks decompose stores are
    exactly Hermitian, so their Hermitian part is not taken again."""
    store, groups = decomp._store, decomp._groups
    count, vecs = np.zeros(0, dtype=np.intp), np.zeros((0, 0))
    if store.clusters.size:
        blocks = [stack for *_, stack in decomp._stacked]
        _, _, count, vecs = mc._scaled_eigenvectors(blocks, groups.keys, decomp._hermitian)
    return _shift_kraus(store.pairs[groups.sector_order], store.sizes[store.order], count,
                        vecs, decomp.spectrum.dim)


def shift_distribution(
    decomp: SectorDecomposition, rho: DensityMatrix
) -> EnergyShiftDistribution:
    """Energy shift probabilities p(sigma) = tr(G_sigma(rho)), each clipped to [0, 1]."""
    if rho.dim != decomp.spectrum.dim:
        raise DimensionMismatch("state and spectrum dimensions differ")
    store, groups = decomp._store, decomp._groups
    # tr(S (M * rho) S^dag) = sum_j M(j, j) rho(j, j) over the domain: every block's
    # diagonal in one gather, a real block's multiplied as real.
    diags, weights = decomp._diagonals(), np.diag(rho.matrix)[store.pairs % decomp.spectrum.dim]
    terms = np.real(diags * weights)
    real = groups.real_entries
    terms[real] = diags[real].real * weights[real].real
    p = np.empty(store.clusters.size)  # by slot, then in sector order
    for span in groups.spans:  # row sums add as one sum per sector does; reduceat would not
        rows = terms[span.first:span.first + span.m * span.d].reshape(span.m, span.d)
        p[span.slots] = rows.sum(axis=1)
    p, sigmas = p[store.order], decomp.sigmas().tolist()
    bad = np.flatnonzero(p < -mc.EPS_PSD)
    if bad.size:
        i = bad[0]
        raise MaskNotPSD(f"negative probability {p[i]:.3e} at sigma {sigmas[i]}")
    pairs = tuple(zip(sigmas, np.minimum(np.maximum(p, 0.0), 1.0).tolist()))
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
    spectrum, store = decomp.spectrum, decomp._store
    if rho.dim != spectrum.dim:
        raise DimensionMismatch("state and spectrum dimensions differ")
    _check_phase(np.r_[spectrum.energies, spectrum.sigmas], t, "t")
    ph, n, sigmas = spectrum.phases(t), spectrum.dim, spectrum.sigmas[store.clusters]
    worst = 0.0
    for slots, pairs, blocks in decomp._stacked:
        dom, img = pairs % n, pairs // n
        factor = ph[dom] - ph[img] * np.exp(1j * sigmas[slots] * t)[:, None]
        defect = blocks * rho.matrix[dom[:, :, None], dom[:, None, :]] * factor[:, None, :]
        worst = max(worst, float(np.linalg.norm(defect, axis=(1, 2)).max()))
    return worst
