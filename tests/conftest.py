import dataclasses
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.laguerre import laggauss

import covchan as cc
from covchan import channels as mc
from covchan import covariant as cov
from covchan import fock
from covchan import generate as gen
from covchan import timing as tim
from covchan.errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    InvalidParameter,
    MaskNotPSD,
    NotCovariant,
    NotCP,
    NotPeriodic,
    NotReliableTiming,
    UnknownSector,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def env_with_src() -> dict:
    """The environment with the repository's src first on PYTHONPATH, for subprocesses."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def amplitude_damping(gamma: float) -> cc.Channel:
    a0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    a1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return cc.Channel((a0, a1))


def dephasing_channel() -> cc.Channel:
    return cc.Channel((np.diag([1.0, 0.0]).astype(complex),
                       np.diag([0.0, 1.0]).astype(complex)))


def plus_state() -> cc.DensityMatrix:
    return cc.DensityMatrix(np.full((2, 2), 0.5, dtype=complex))


def bipartite_apply(channel: cc.Channel, state: cc.DensityMatrix) -> cc.DensityMatrix:
    """Apply id (x) G to a state on the doubled space, G acting on the right factor."""
    n = channel.dim_in
    if channel.dim_out != n:
        raise DimensionMismatch("bipartite_apply needs a square channel")
    if state.dim != n * n:
        raise DimensionMismatch(f"state dim {state.dim} is not {n}**2")
    eye = np.eye(n)
    out = np.zeros((n * n, n * n), dtype=complex)
    for k in channel.kraus:
        ext = np.kron(eye, k)
        out += ext @ state.matrix @ ext.conj().T
    return cc.DensityMatrix(out)


def evolve_matrix(spectrum: cc.Spectrum, t: float, mat: np.ndarray) -> np.ndarray:
    """Conjugation e^{-iHt} mat e^{iHt} for an arbitrary operator."""
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (spectrum.dim, spectrum.dim):
        raise DimensionMismatch(f"operator shape {mat.shape} vs spectrum dim {spectrum.dim}")
    ph = spectrum.phases(t)
    return mat * np.outer(ph, ph.conj())


def characteristic_by_dense_application(channel: cc.Channel, spectrum: cc.Spectrum,
                                        K: np.ndarray, rho: cc.DensityMatrix,
                                        t: float) -> complex:
    """Oracle for covariant.characteristic_function: f(t) = tr(K G(rho e^{-iHt})
    e^{iHt}) by one dense Kraus application of the channel."""
    K = np.asarray(K, dtype=complex)
    n = spectrum.dim
    if K.shape != (n, n) or rho.dim != n or channel.dim_in != n:
        raise DimensionMismatch("characteristic_function: dimensions do not match")
    ph = spectrum.phases(t)
    shifted = rho.matrix * ph[None, :]
    out = mc.apply_matrix(channel, shifted) * ph.conj()[None, :]
    return complex(np.trace(K @ out))


def bochner_by_dense_applications(channel: cc.Channel, spectrum: cc.Spectrum,
                                  K: np.ndarray, rho: cc.DensityMatrix, times) -> float:
    """Oracle for covariant.bochner_check: the minimum eigenvalue of the Gram
    matrix F[k, l] = f(t_k - t_l), one dense application per time pair."""
    times = np.asarray(times, dtype=float)
    m = times.size
    F = np.empty((m, m), dtype=complex)
    for a in range(m):
        for b in range(m):
            F[a, b] = characteristic_by_dense_application(channel, spectrum, K, rho,
                                                          times[a] - times[b])
    F = (F + F.conj().T) / 2.0
    return float(np.linalg.eigvalsh(F).min())


def sector_channel(decomp: cc.SectorDecomposition, sigma: float) -> cc.Channel:
    """The single CP (possibly trace-decreasing) component G_sigma, from its
    own eigh of the sector's block (sector_kraus_per_block)."""
    return cc.Channel(tuple(sector_kraus_per_block(*decomp.sector(sigma))))


def purify(rho: cc.DensityMatrix, unitary: np.ndarray | None = None) -> np.ndarray:
    """A purification |phi> of rho on reference (x) system, system on the right.

    ``unitary`` rotates the reference basis; the coherent information must
    not depend on it.
    """
    vals, vecs = np.linalg.eigh(rho.matrix)
    vals = np.clip(vals, 0.0, None)
    n = rho.dim
    ref = np.eye(n, dtype=complex) if unitary is None else np.asarray(unitary, dtype=complex)
    phi = np.zeros(n * n, dtype=complex)
    for i in range(n):
        phi += np.sqrt(vals[i]) * np.kron(ref[:, i], vecs[:, i])
    return phi


def purified_coherent_information(channel: cc.Channel, rho: cc.DensityMatrix,
                                  unitary: np.ndarray | None = None) -> float:
    """Oracle I_c = S(G(rho)) - S((id (x) G)(|phi><phi|)) on the doubled space."""
    phi = purify(rho, unitary)
    joint = bipartite_apply(channel, cc.DensityMatrix(np.outer(phi, phi.conj())))
    return (cc.von_neumann_entropy(cc.apply(channel, rho))
            - cc.von_neumann_entropy(joint))


def coherent_information_by_checked_outputs(channel: cc.Channel, rho: cc.DensityMatrix) -> float:
    """Oracle for coherent_information: the same products, with both G(rho) and
    G^c(rho) checked as states (DensityMatrix) before their entropies are read."""
    if channel.dim_in != channel.dim_out:
        raise DimensionMismatch("coherent information needs a square channel")
    if rho.dim != channel.dim_in:
        raise DimensionMismatch("state and channel dimensions differ")
    kraus = channel._ops
    k = len(kraus)
    prods = kraus @ rho.matrix
    comp = prods.reshape(k, -1) @ kraus.reshape(k, -1).conj().T
    out = mc._kraus_sum(mc._side_by_side(prods), kraus)
    return (cc.von_neumann_entropy(cc.DensityMatrix(out))
            - cc.von_neumann_entropy(cc.DensityMatrix(comp)))


def hadamard_coherent_information_by_kraus(mask: np.ndarray, rho: cc.DensityMatrix) -> float:
    """Oracle for the mask route of capacity: I_c of rho -> M * rho through the
    n diagonal Kraus operators of hadamard_channel, the channel applied
    operator by operator and the complement formed over the Kraus indices."""
    kraus = np.stack(cc.hadamard_channel(mask).kraus)
    k = len(kraus)
    out = sum(a @ rho.matrix @ a.conj().T for a in kraus)
    comp = (kraus @ rho.matrix).reshape(k, -1) @ kraus.reshape(k, -1).conj().T
    return (cc.von_neumann_entropy(cc.DensityMatrix(out))
            - cc.von_neumann_entropy(cc.DensityMatrix(comp)))


def deterministic_eig_loop(mat: np.ndarray):
    """Oracle for channels._deterministic_eig: the phase gauge column by column.

    Each eigenvector is rotated so its largest-magnitude entry is real
    positive, then the pairs are sorted by descending eigenvalue with ties
    broken by the interleaved (Re, Im) entries.
    """
    vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    cols = []
    for i in range(len(vals)):
        v = vecs[:, i].copy()
        pivot = int(np.argmax(np.abs(v)))
        if abs(v[pivot]) > 0:
            v *= np.exp(-1j * np.angle(v[pivot]))
        cols.append(v)
    entries = np.array(cols).view(float)
    order = np.lexsort(np.vstack([entries.T[::-1], -vals]))
    return vals[order], np.array([cols[i] for i in order])


def scaled_eigenvectors_per_matrix(mat: np.ndarray, error: type, label: str) -> list:
    """Oracle for channels._scaled_eigenvectors on one matrix: the vectors
    sqrt(lam) v in deterministic order above the relative rank cutoff, raising
    ``error`` on an eigenvalue below -EPS_PSD."""
    vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    pivots = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vals.size)]
    rows = np.ascontiguousarray((vecs * np.exp(-1j * np.angle(pivots))).T)
    order = np.lexsort(np.vstack([rows.view(float).T[::-1], -vals]))
    vals, vecs = vals[order], rows[order]
    if vals.min() < -mc.EPS_PSD:
        raise error(f"{label} eigenvalue {vals.min():.3e} below -{mc.EPS_PSD:.1e}")
    cutoff = 1e-14 * max(float(vals.max(initial=0.0)), 1.0)
    return [np.sqrt(lam) * v for lam, v in zip(vals, vecs) if lam > cutoff]


def mask_failure_by_eigvalsh(blocks: np.ndarray, sigmas) -> tuple[int, str] | None:
    """Oracle for covariant._mask_failure on finite stacks: one eigvalsh over
    every Hermitised block.

    Returns (i, message) for the first block that is not Hermitian within
    EPS_H or has an eigenvalue below -EPS_PSD, sigmas[i] naming its sector,
    or None when every block passes.
    """
    if not blocks.shape[-1]:
        return None
    stack = blocks.reshape(-1, *blocks.shape[-2:])
    adjoint = stack.conj().swapaxes(-1, -2)
    skew = np.max(np.abs(stack - adjoint), axis=(-2, -1)) > mc.EPS_H
    lmin = np.linalg.eigvalsh((stack + adjoint) / 2.0).min(axis=-1)
    bad = np.flatnonzero(skew | (lmin < -mc.EPS_PSD))
    if not bad.size:
        return None
    i = int(bad[0])
    if skew[i]:
        return i, f"sector {sigmas[i]}: mask is not Hermitian"
    return i, f"sector {sigmas[i]}: domain submatrix eigenvalue {lmin[i]:.3e}"


def refuse_mask_check(blocks, sigmas):
    """A stand-in for covariant._mask_failure where a Gram certificate must
    have proved the blocks."""
    raise AssertionError("the SectorMask check ran on blocks a Gram bound should prove")


def sha256_of(value) -> str:
    """Digest of a value down to the bytes: arrays by dtype, shape and data,
    tuples of ints by repr,
    dataclasses by type and fields, floats by repr (so -0.0 differs from 0.0)."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, np.ndarray):
            h.update(f"nd{v.dtype.str}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif dataclasses.is_dataclass(v) and not isinstance(v, type):
            h.update(type(v).__name__.encode())
            for f in dataclasses.fields(v):
                feed(getattr(v, f.name))
        elif type(v) is tuple and set(map(type, v)) <= {int}:
            h.update(f"ints{v!r}".encode())  # a shift's levels in one update
        elif isinstance(v, (list, tuple)):
            h.update(f"seq{len(v)}".encode())
            for x in v:
                feed(x)
        else:
            h.update(f"{type(v).__name__}:{v!r}".encode())

    feed(value)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Per-sector oracles for covariant's work on stacks of equal-size sectors: one
# Python iteration per sector, each with its own partial_shift and SectorMask.


def choi_and_cross_per_sector(channel: cc.Channel, spectrum: cc.Spectrum):
    """The Choi matrix and its |entries| with each sector's block zeroed in turn."""
    if channel.dim_in != spectrum.dim or channel.dim_out != spectrum.dim:
        raise DimensionMismatch("channel and spectrum dimensions differ")
    choi = mc.choi_of(channel).matrix
    cross = np.abs(choi)
    for pairs in spectrum.sector_pairs:
        cross[np.ix_(pairs, pairs)] = 0.0
    return choi, cross


def covariance_defect_per_sector(channel: cc.Channel, spectrum: cc.Spectrum) -> float:
    return float(choi_and_cross_per_sector(channel, spectrum)[1].max())


def restore_tp_per_sector(blocks: list, spectrum: cc.Spectrum) -> list:
    """Each sector's block times s s^T, s = (summed block diagonals)^(-1/2) on its
    input levels, the diagonals summed sector after sector."""
    n = spectrum.dim
    levels = [pairs % n for pairs in spectrum.sector_pairs]
    total = np.zeros(n)
    for j, block in zip(levels, blocks):
        total[j] += np.real(np.diag(block))
    scale = 1.0 / np.sqrt(total)
    return [block * np.outer(scale[j], scale[j]) for j, block in zip(levels, blocks)]


def blocks_per_operator(channel: cc.Channel, spectrum: cc.Spectrum):
    """Each sector's Choi block of a family whose operators each lie in one sector:
    X^T conj(X), X the rows vec(A) of its operators on its pairs, in operator order,
    padded with zero rows to at least two, so that it is a BLAS product as decompose's
    (whose further zero rows add exact zeros); +0.0 on a pair no operator touches.
    None for a family that mixes sectors, one look per operator and sector."""
    flat = [op.reshape(-1) for op in channel.kraus]
    held = [[op for op in flat if np.any(op[pairs] != 0)] for pairs in spectrum.sector_pairs]
    if sum(len(ops) for ops in held) > sum(bool(np.any(op != 0)) for op in flat):
        return None  # an operator with nonzero entries in two sectors
    blocks = []
    for pairs, ops in zip(spectrum.sector_pairs, held):
        x = np.zeros((max(2, len(ops)), len(pairs)), dtype=complex)
        for k, op in enumerate(ops):
            x[k] = op[pairs]
        block = x.T @ x.conj()
        touched = np.any(x != 0, axis=0)
        block[~(touched[:, None] & touched[None, :])] = 0.0
        blocks.append(block)
    return blocks


def on_the_choi_route(channel: cc.Channel, spectrum: cc.Spectrum) -> cc.Channel:
    """A copy of channel whose sector label on spectrum calls every operator mixed, so
    that covariance_defect, decompose and timing_channel read its Choi matrix, as they
    do for a family that mixes sectors."""
    copy = cc.Channel(channel.kraus)
    copy.__dict__["_labels"] = {spectrum: cov._Label(np.full(len(channel.kraus), -1), None)}
    return copy


def reconstruction_distance_by_union_choi(channel: cc.Channel, recon: cc.Channel) -> float:
    """Oracle for the CLI's reconstruction_choi_distance: both families' Choi matrices on
    the union of their supports, one product each (they agree, both zero, off it)."""
    vecs = [ops.reshape(len(ops), -1) for ops in (channel._ops, recon._ops)]
    support = np.flatnonzero(vecs[0].any(axis=0) | vecs[1].any(axis=0))
    a, b = (v[:, support] for v in vecs)
    return float(np.linalg.norm(a.T @ a.conj() - b.T @ b.conj()))


def held_arrays(obj) -> list:
    """Every numpy array that obj holds, through attributes, dict values and the items
    of tuples and lists, each object visited once."""
    found, seen, todo = [], set(), [obj]
    while todo:
        item = todo.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, dict):
            todo.extend(item.values())
        elif isinstance(item, (tuple, list)):
            todo.extend(item)
        elif hasattr(item, "__dict__") and not isinstance(item, type):
            todo.extend(vars(item).values())
    return found


def largest_held_beside_stack(channel: cc.Channel) -> int:
    """The most entries of an array that the channel or its labels hold, its Kraus
    stack and the stack's rows apart."""
    ops = channel._ops
    return max(a.size for a in held_arrays(channel) if a is not ops and a.base is not ops)


def decompose_per_sector(channel: cc.Channel, spectrum: cc.Spectrum,
                         tol: float = 1e-10) -> cc.SectorDecomposition:
    """Oracle for covariant.decompose: every sector's block pinched, kept or
    dropped, and checked by its own SectorMask, in sector order.  Each shift
    comes from its own cluster's pairs.  A family whose operators each lie in one
    sector has its blocks summed per operator (blocks_per_operator), as decompose
    does; the blocks of any other family are read from the Choi matrix."""
    choi, cross = choi_and_cross_per_sector(channel, spectrum)
    defect = float(cross.max())
    if defect > tol:
        raise NotCovariant(defect, tol)
    pinched = blocks_per_operator(channel, spectrum)
    if pinched is None:
        pinched = [choi[np.ix_(pairs, pairs)] for pairs in spectrum.sector_pairs]
    blocks = [(b + b.conj().T) / 2.0 for b in pinched]
    n = spectrum.dim
    gram = np.trace(choi.reshape(n, n, n, n), axis1=0, axis2=2)
    if np.linalg.norm(gram - np.eye(n)) <= mc.EPS_TP:
        blocks = restore_tp_per_sector(blocks, spectrum)
    peak = max(defect, max(float(np.max(np.abs(raw))) for raw in pinched))
    floor = 1e-13 * max(1.0, peak)
    sq_defect = float(np.vdot(cross, cross).real)
    sectors = []
    for s, pairs, raw, block in zip(spectrum.sigmas, spectrum.sector_pairs, pinched, blocks):
        if float(np.max(np.abs(block))) <= floor:
            sq_defect += float(np.vdot(raw, raw).real)
            continue
        sq_defect += float(np.vdot(raw - block, raw - block).real)
        shift = cc.PartialShift(sigma=float(s), domain=tuple((pairs % n).tolist()),
                                image=tuple((pairs // n).tolist()), dim=n)
        try:
            mask = cc.SectorMask(sigma=shift.sigma, domain_submatrix=block,
                                 domain=shift.domain, dim=n)
        except MaskNotPSD as exc:
            raise NotCP(f"Choi {exc}") from exc
        sectors.append((shift, mask))
    return cc.SectorDecomposition(spectrum=spectrum, sectors=tuple(sectors),
                                  projection_defect=float(np.sqrt(sq_defect)))


def reconstruct_per_sector(decomp: cc.SectorDecomposition) -> cc.Channel:
    """Oracle for covariant.reconstruct: S_sigma diag(d) for the spectral vectors
    d of each block, sector after sector (one zero operator for no sectors)."""
    n = decomp.spectrum.dim
    ops = [op for shift, mask in decomp.sectors for op in sector_kraus_per_block(shift, mask)]
    return cc.Channel(tuple(ops or [np.zeros((n, n), dtype=complex)]))


# reconstruct's thin route (a size group of a sector-pure family with few operators on
# each sector, covariant._thin: one eigh of the Gram of its operators) against the
# spectral route of reconstruct_per_sector: each sector's Choi block differs by at most
# THIN_ROUTE_C u ||M_sigma||_F.  Over 2,400 draws of test_properties.thin_family (800
# each of three-shift mixtures and amplitude damping at 7 <= n <= 12 and of shift
# families mixed by an isometry at 9 <= n <= 12, one BLAS thread) the largest ratio was
# 23.5; the bound is about twice that.
THIN_ROUTE_C = 48.0


def thin_route_ratio(decomp: cc.SectorDecomposition, want: cc.SectorDecomposition) -> float:
    """The largest ||C_got - C_want||_F / (u ||M_sigma||_F) over want's sectors, C_got the
    Choi block of reconstruct(decomp) and C_want that of reconstruct_per_sector(want) on the
    sector's pairs; AssertionError unless both have as many Kraus operators."""
    got, oracle = cov.reconstruct(decomp), reconstruct_per_sector(want)
    assert len(got.kraus) == len(oracle.kraus)
    n, u = want.spectrum.dim, np.finfo(float).eps / 2
    a, b = mc.choi_of(got).matrix, mc.choi_of(oracle).matrix
    ratio = 0.0
    for shift, mask in want.sectors:
        at = np.ix_(*[np.array(shift.image) * n + np.array(shift.domain)] * 2)
        ratio = max(ratio, float(np.linalg.norm(a[at] - b[at]))
                    / (u * float(np.linalg.norm(mask.domain_submatrix))))
    return ratio


def assert_reconstructs_as_per_sector(decomp: cc.SectorDecomposition,
                                      want: cc.SectorDecomposition) -> None:
    """reconstruct(decomp) against reconstruct_per_sector of want, its oracle: bit for bit
    unless decomp keeps a factor (a sector-pure family with a thin group, which takes the
    Gram route); then as many Kraus operators and each sector's Choi block within
    THIN_ROUTE_C u ||M_sigma||_F."""
    if decomp._factors is None:
        assert sha256_of(cov.reconstruct(decomp)) == sha256_of(reconstruct_per_sector(want))
    else:
        assert thin_route_ratio(decomp, want) <= THIN_ROUTE_C


def sector_kraus_per_block(shift: cc.PartialShift, mask: cc.SectorMask) -> np.ndarray:
    """The operators S_sigma diag(v) of one sector, v the spectral vectors of its
    block from one eigh of that block alone (one zero operator when it has none)."""
    vecs = scaled_eigenvectors_per_matrix(mask.domain_submatrix, MaskNotPSD,
                                          f"sector {shift.sigma}:")
    ops = np.zeros((max(len(vecs), 1), shift.dim, shift.dim), dtype=complex)
    ops[:, shift.image, shift.domain] = vecs or 0.0
    return ops


def hadamard_channel_by_diagonals(mask: np.ndarray) -> cc.Channel:
    """Oracle for capacity.hadamard_channel: diag(v) for each spectral vector v of
    the mask's Hermitian part, from one eigh, each operator laid out on its own."""
    mask = np.asarray(mask, dtype=complex)
    vecs = scaled_eigenvectors_per_matrix((mask + mask.conj().T) / 2.0, MaskNotPSD, "mask")
    return cc.Channel(tuple(np.diag(v) for v in vecs))


def shift_mixture_by_dense_shifts(spectrum: cc.Spectrum, shifts) -> cc.Channel:
    """Oracle for the channel of timing.build_shift_mixture: sqrt(p) times the
    dense matrix of each shift's partial_shift, one operator per (sigma, p)."""
    return cc.Channel(tuple(np.sqrt(float(p)) * cov.partial_shift(spectrum, float(sigma)).matrix
                            for sigma, p in shifts))


def shift_distribution_per_sector(decomp: cc.SectorDecomposition,
                                  rho: cc.DensityMatrix) -> cc.EnergyShiftDistribution:
    """Oracle for covariant.shift_distribution: one diagonal product per sector."""
    pairs = []
    diag = np.diag(rho.matrix)
    for shift, mask in decomp.sectors:
        p = float(np.sum(np.real(np.diag(mask.domain_submatrix) * diag[list(shift.domain)])))
        if p < -mc.EPS_PSD:
            raise MaskNotPSD(f"negative probability {p:.3e} at sigma {shift.sigma}")
        pairs.append((shift.sigma, min(max(p, 0.0), 1.0)))
    return cc.EnergyShiftDistribution(pairs=tuple(pairs), spectrum=decomp.spectrum)


def apply_sectors_per_sector(sectors, mat: np.ndarray) -> np.ndarray:
    """Oracle for covariant.apply_sectors: sum_sigma S_sigma (M_sigma * mat)
    S_sigma^dag over (shift, mask) pairs, one scatter onto the shift's image per pair."""
    out = np.zeros(np.shape(mat), dtype=complex)
    for shift, mask in sectors:
        dom, img = np.ix_(shift.domain, shift.domain), np.ix_(shift.image, shift.image)
        out[img] += mask.domain_submatrix * mat[dom]
    return out


def domain_extension_per_sector(decomp: cc.SectorDecomposition, rho: cc.DensityMatrix,
                                t: float) -> float:
    """Oracle for covariant.domain_extension_check: both sides of
    G_sigma(rho e^{-iHt}) = G_sigma(rho) e^{-iHt} e^{i sigma t} as n x n
    matrices, the left one applying the sector to the non-Hermitian operator,
    sector after sector."""
    ph = decomp.spectrum.phases(t)
    shifted = rho.matrix * ph[None, :]
    worst = 0.0
    for sector in decomp.sectors:
        lhs = apply_sectors_per_sector([sector], shifted)
        rhs = (apply_sectors_per_sector([sector], rho.matrix) * ph[None, :]
               * np.exp(1j * sector[0].sigma * t))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def random_covariant_per_sector(spectrum: cc.Spectrum, rng: np.random.Generator,
                                kraus_count: int | None = None) -> cc.Channel:
    """Oracle for generate.random_covariant: the sector blocks of a random CPTP
    channel pinched, renormalised and scattered back one sector at a time."""
    n = spectrum.dim
    base = mc.choi_of(gen.random_cptp(n, rng, kraus_count)).matrix
    blocks = restore_tp_per_sector(
        [base[np.ix_(pairs, pairs)] for pairs in spectrum.sector_pairs], spectrum)
    choi = np.zeros((n * n, n * n), dtype=complex)
    for pairs, block in zip(spectrum.sector_pairs, blocks):
        choi[np.ix_(pairs, pairs)] = block
    vecs = scaled_eigenvectors_per_matrix(choi, NotCP, "Choi minimum")
    return cc.Channel(tuple(v.reshape(n, n) for v in vecs) or (np.zeros((n, n), dtype=complex),))


def cptp_by_full_choi(channel: cc.Channel) -> tuple[float, float]:
    """Oracle (tp_defect, cp_defect): a per-Kraus Gram loop and the
    eigenvalues of the full dim_out*dim_in square Choi matrix."""
    acc = np.zeros((channel.dim_in, channel.dim_in), dtype=complex)
    for k in channel.kraus:
        acc += k.conj().T @ k
    lmin = float(np.linalg.eigvalsh(cc.choi_of(channel).matrix).min())
    return float(np.linalg.norm(acc - np.eye(channel.dim_in))), max(0.0, -lmin)


def scatter_projection_defect(channel: cc.Channel, decomp) -> float:
    """Oracle ||C - C_masks||: C_masks holds each mask entry M_sigma(j, k) at
    the Choi pair ((t(j), j), (t(k), k)), t(j) the level S_sigma sends j to."""
    n = channel.dim_in
    recon = np.zeros((n * n, n * n), dtype=complex)
    for shift, mask in decomp.sectors:
        dom = list(shift.domain)
        idx = [int(np.argmax(np.abs(shift.matrix[:, j]))) * n + j for j in dom]
        recon[np.ix_(idx, idx)] = mask.mask[np.ix_(dom, dom)]
    return float(np.linalg.norm(cc.choi_of(channel).matrix - recon))


def gaussian_decomposition_per_sector(params: fock.FockParams) -> fock.GaussianDecomposition:
    """Quadrature oracle for fock.gaussian_decomposition, independent of its
    loss-amplifier factorisation: the exact laggauss rule with dim nodes for
    the radial integral of D_sigma rho D_sigma^dag, one Laguerre recurrence and
    one block per order, and per sigma its own partial_shift; the block of
    each |sigma| passes its own SectorMask at sigma = -|sigma|, and
    M_{|sigma|} reuses it.

    After u = r^2 the mask integrand is e^{-u} poly(u) e^{-u/(2 s^2)} / (2 s^2),
    where e^{-u} is the e^{-r^2/2} normalisation of D squared.  With
    beta = 1 + 1/(2 s^2) the weight is e^{-beta u}, so the laggauss nodes x_i
    and weights w_i become x_i / beta and w_i / (2 s^2 beta); the polynomial
    u^|sigma| L_j L_k has degree at most 2 dim - 2, which dim nodes integrate
    exactly.  numpy 2.4 has finite rules up to dim 186.
    """
    dim, s = params.dim, params.std_dev
    x, w = laggauss(dim)
    beta = 1.0 + 1.0 / (2.0 * s * s)
    x, w = x / beta, w / (2.0 * s * s * beta)
    spec = fock.integer_spectrum(dim)
    log_fact = fock._log_factorials(dim)
    checked = {}
    sectors = []
    for sigma in range(-params.sigma_max, params.sigma_max + 1):
        shift = cov.partial_shift(spec, float(sigma))
        a = abs(sigma)
        if a not in checked:
            ratio = np.exp(0.5 * (log_fact[:dim - a] - log_fact[a:]))  # sqrt(j!/(j+a)!)
            coeff = x ** (a / 2.0) * ratio[:, None] * laguerre_rows_per_order(dim - a - 1, a, x)
            checked[a] = cc.SectorMask(sigma=shift.sigma, domain_submatrix=(coeff * w) @ coeff.T,
                                       domain=shift.domain, dim=dim)
        mask = cov.SectorMask._checked(shift.sigma, checked[a].domain_submatrix, shift.domain, dim)
        sectors.append((shift, mask))
    return fock.GaussianDecomposition(params=params, spectrum=spec, sectors=tuple(sectors))


def diagonal_sums_per_sector(decomp: cc.SectorDecomposition) -> np.ndarray:
    """Oracle for SectorDecomposition.diagonal_sums: each sector's block
    diagonal added onto its input levels, sector after sector."""
    total = np.zeros(decomp.spectrum.dim)
    for shift, mask in decomp.sectors:
        for j, value in zip(shift.domain, np.real(np.diag(mask.domain_submatrix))):
            total[j] += value
    return total


def laguerre_rows_per_order(jmax: int, alpha: int, x: np.ndarray) -> np.ndarray:
    """Oracle for fock._laguerre_rows: one scalar order per recurrence.
    Rows L_0^(alpha)(x) ... L_jmax^(alpha)(x), stable three-term recurrence."""
    rows = np.zeros((jmax + 2,) + x.shape)  # rows[k + 1] is L_k, starting from L_-1 = 0
    rows[1] = 1.0
    for k in range(jmax):
        rows[k + 2] = ((2 * k + 1 + alpha - x) * rows[k + 1] - (k + alpha) * rows[k]) / (k + 1)
    return rows[1:]


def mask_chunk_by_padded_exp(orders: range, log_fact: np.ndarray,
                             n: float) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for fock._mask_chunk: the factors and their padded product with
    -inf written off the support and one exp over the whole stack, every table
    made in the call.

    The factors C_a and blocks M_a = C_a C_a^T, a in orders, of the channel
    adding N = n photons on dim = log_fact.size levels, as two zero-padded
    (len(orders), dim - a0, dim - a0) stacks, a0 = orders[0].

    The factors (module docstring) are one stack with entry [a - a0, j, l]:
    log C_a[j, l] is a row term in j, a column term in l and a band term in
    j - l, so it takes no per-sector Python.  It is exp(-inf) = 0 outside
    l <= j < dim - a, so each block lands in its corner of the product.
    """
    dim = log_fact.size
    a = np.array(orders)[:, None]
    k = np.arange(dim - orders[0])  # j along rows, l along columns
    pair = log_fact[k] + log_fact[np.minimum(k + a, dim - 1)]  # clipped past the domain
    row = 0.5 * pair
    col = (k + a / 2.0) * -math.log1p(1.0 / n) - 0.5 * pair  # log(N / (1+N)) = -log1p(1/N)
    d = np.abs(k[:, None] - k[None, :])  # j - l wherever C_a is non-zero
    band = -log_fact[d] - (d + 0.5) * math.log1p(n)
    band[k[None, :] > k[:, None]] = -np.inf  # l > j
    c = row[:, :, None] + col[:, None, :]  # one stack, worked on in place
    c += band
    c[k >= dim - a] = -np.inf  # the rows j past each domain
    np.exp(c, out=c)
    return c, c @ c.transpose(0, 2, 1)


def sector_map_by_cluster_loop(energies: np.ndarray, tol: float):
    """Oracle (sigmas, sector_pairs) for the Spectrum sector map at the resolved
    match_tol: an argsort, a mean and two unique calls per cluster, raising
    DegenerateSpectrum where a cluster holds a level twice."""
    en = np.asarray(energies, dtype=float)
    n = en.size
    diffs = (en[:, None] - en[None, :]).reshape(-1)
    order = np.argsort(diffs, kind="stable")
    ranked = diffs[order]
    cuts = np.flatnonzero(np.diff(ranked) > tol) + 1
    starts, ends = np.r_[0, cuts], np.r_[cuts, n * n]
    sector_pairs = [order[lo:hi][np.argsort(order[lo:hi] % n)]
                    for lo, hi in zip(starts, ends)]
    sigmas = np.array([np.mean(ranked[lo:hi]) for lo, hi in zip(starts, ends)])
    for sigma, pairs in zip(sigmas, sector_pairs):
        if np.unique(pairs % n).size + np.unique(pairs // n).size < 2 * pairs.size:
            raise DegenerateSpectrum(
                f"energy differences near {sigma:.9g} chain within match_tol "
                f"{tol:.3e} into one sector that holds a level twice"
            )
    return sigmas, sector_pairs


def cluster_at_by_nearest_span(spectrum: cc.Spectrum, sigma: float) -> int | None:
    """Oracle for Spectrum._cluster_at: the distance from sigma to the span below it
    and to the next span, the nearer one by min (the lower cluster on a tie), within
    match_tol or None."""
    lowest, highest = spectrum._spans
    i = int(np.searchsorted(highest, sigma))  # highest[i - 1] < sigma <= highest[i]
    near = []  # (distance, cluster), the lower cluster first on a tie
    if i > 0:
        near.append((sigma - highest[i - 1], i - 1))
    if i < highest.size:
        near.append((max(lowest[i] - sigma, 0.0), i))
    distance, i = min(near, key=lambda pair: pair[0])
    return i if distance <= spectrum.match_tol else None


def pair_clusters_by_loop(spectrum: cc.Spectrum, sectors) -> list[int]:
    """Oracle for covariant._pair_clusters: each (shift, mask) pair checked in turn,
    its dimensions, its shift's pairs against the spectrum's at its sigma, its cluster
    against those seen before and its mask's sigma and levels; the first fault raises."""
    clusters, seen = [], set()
    for shift, mask in sectors:
        if not shift.dim == mask.dim == spectrum.dim:
            raise DimensionMismatch(f"sector {shift.sigma}: shift dim {shift.dim} and mask dim "
                                    f"{mask.dim}, spectrum dim {spectrum.dim}")
        c = spectrum._cluster_at(shift.sigma)
        pairs = np.multiply(shift.image, spectrum.dim) + shift.domain
        if c is None or not np.array_equal(pairs, spectrum.sector_pairs[c]):
            raise UnknownSector(f"sector {shift.sigma}: not the spectrum's shift at that sigma")
        if c in seen:
            raise UnknownSector(f"sector {shift.sigma}: listed twice")
        if spectrum._cluster_at(mask.sigma) != c or tuple(mask.domain) != tuple(shift.domain):
            raise UnknownSector(f"sector {shift.sigma}: its mask is for sigma {mask.sigma} "
                                f"on levels {tuple(mask.domain)}")
        clusters.append(c)
        seen.add(c)
    return clusters


def monte_carlo_by_full_displacement(rho: cc.DensityMatrix,
                                     params: fock.FockParams) -> fock.MonteCarloResult:
    """Oracle for fock.monte_carlo_channel: the same Philox samples, each
    applied as a full dim x dim displacement D, summing D rho D^dag with no
    factoring of the state.  It chunks on its own 1024 boundaries and shares
    no code with fock: each D is R_theta Q e^{i r lam} Q^dag R_theta^dag from
    its own eigh of the complex generator -i (a^dag - a), with
    R_theta = diag(e^{-i theta j}) and numpy's complex exp for every phase."""
    dim, n = params.dim, params.mc_samples
    u = np.random.Generator(np.random.Philox(key=params.seed)).random((n, 2))
    r = params.std_dev * np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    theta = 2.0 * np.pi * u[:, 1]
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)
    lam, Q = np.linalg.eigh(-1j * (a.conj().T - a))
    # The spectrum is symmetric about 0 (diag((-1)^j) maps the generator to
    # its negative); taken exactly so, as the eigensolver's lam leaves an
    # asymmetry of roundoff size, which phases r lam past 1e100 turn into
    # unrelated angles.
    lam = (lam - lam[::-1]) / 2.0
    acc = np.zeros((dim, dim), dtype=complex)
    acc_sq = np.zeros((dim, dim))
    for i0 in range(0, n, 1024):
        rr, th = r[i0:i0 + 1024], theta[i0:i0 + 1024]
        base = (Q * np.exp(1j * rr[:, None, None] * lam)) @ Q.conj().T
        ph = np.exp(-1j * np.outer(th, np.arange(dim)))
        D = ph[:, :, None] * base * ph.conj()[:, None, :]
        out = D @ rho.matrix @ np.conj(np.swapaxes(D, 1, 2))
        acc += out.sum(axis=0)
        acc_sq += (out.real ** 2 + out.imag ** 2).sum(axis=0)
    mean = acc / n
    var = np.maximum(acc_sq / n - (mean.real ** 2 + mean.imag ** 2), 0.0)
    return fock.MonteCarloResult(mean=mean, standard_error=np.sqrt(var / n), samples=n)


def dense_pair_defect(channel: cc.Channel, spectrum: cc.Spectrum, rho0: np.ndarray,
                      s: float, N: int) -> tuple[list, float]:
    """Oracle orbit outputs G(U_{sj} rho0 U_{sj}^dag), one dense Kraus sum
    each, and the largest pairwise tr(out_a out_b) (0 when N < 2)."""
    outs = [mc.apply_matrix(channel, evolve_matrix(spectrum, s * j, rho0)) for j in range(N)]
    defect = 0.0
    for a in range(N):
        for b in range(a + 1, N):
            defect = max(defect, float(np.real(np.trace(outs[a] @ outs[b]))))
    return outs, defect


def timing_by_dense_applications(channel: cc.Channel, spectrum: cc.Spectrum,
                                 phi0: np.ndarray, s: float, N: int, tol: float = 1e-9):
    """Oracle (v, q, bound, defect) for timing.timing_channel: 2N dense
    channel applications and a loop over the output pairs.  A channel whose
    covariance defect exceeds decompose's default tolerance is refused, after
    the period check, as timing_channel refuses it."""
    phi0 = np.asarray(phi0, dtype=complex).reshape(-1)
    n = spectrum.dim
    if phi0.size != n or channel.dim_in != n or channel.dim_out != n:
        raise DimensionMismatch("phi0, channel and spectrum dimensions differ")
    if abs(np.linalg.norm(phi0) - 1.0) > mc.EPS_TR:
        raise InvalidParameter("phi0 must be normalized")
    if N < 1:
        raise InvalidParameter("N must be positive")
    if not np.isfinite(s * N):
        raise InvalidParameter(f"step s = {s} and period s * N must be finite")

    phases = spectrum.phases(s * N)
    period_defect = float(np.max(np.abs(phases - phases[0])))
    if not period_defect <= 1e-9:
        raise NotPeriodic(
            f"e^(-iHsN) deviates from a global phase by {period_defect:.3e}"
        )
    covariance = cov.covariance_defect(channel, spectrum)
    if covariance > 1e-10:
        raise NotCovariant(covariance, 1e-10)

    rho0 = np.outer(phi0, phi0.conj())
    outs, defect = dense_pair_defect(channel, spectrum, rho0, s, N)
    if defect > tol:
        raise NotReliableTiming(defect, tol)

    vals, vecs = np.linalg.eigh(outs[0])
    cut = mc.EPS_PSD * max(float(vals.max(initial=0.0)), 0.0)
    support = vecs[:, vals > cut]
    proj = support @ support.conj().T

    v = np.empty(N, dtype=complex)
    for j in range(N):
        ph = spectrum.phases(s * j)
        g_out = mc.apply_matrix(channel, np.outer(phi0, (ph * phi0).conj()))
        v[j] = np.trace((ph[:, None] * proj) @ g_out)

    q = (np.fft.fft(v) / N).real
    return v, q, tim.spectrum_to_bound(q), defect


def dumps_by_recursion(value):
    """Oracle for serialize.dumps: one isinstance chain per value, every float
    formatted on its own at 17 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, complex):
        return dumps_by_recursion([value.real, value.imag])
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {dumps_by_recursion(v)}"
                          for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)) or isinstance(value, np.ndarray):
        return "[" + ", ".join(dumps_by_recursion(v) for v in value) + "]"
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value)}")


def csv_lines_by_entry(name, mat):
    """Oracle for the CLI's CSV matrix lines: one numpy complex scalar at a time."""
    mat = np.asarray(mat, dtype=complex)
    header = "matrix,row," + ",".join(
        f"re{c},im{c}" for c in range(mat.shape[1])
    )
    lines = [header]
    for rix, row in enumerate(mat):
        cells = ",".join(f"{x.real:.17g},{x.imag:.17g}" for x in row)
        lines.append(f"{name},{rix},{cells}")
    return lines


# Collected by the acceptance tests; flushed after the run so the one-line
# verdicts survive pytest's output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


class ChoiProducts:
    """The Choi products formed while a test runs: channels._choi_on_support, the one
    place a Choi matrix is formed, spied on.  sizes holds |S| of each product; after
    refuse(), a product fails the test."""

    def __init__(self, monkeypatch):
        self.sizes, self.refused = [], False
        form = mc._choi_on_support

        def product(support, ops):
            if self.refused:
                raise AssertionError("a Choi matrix was formed")
            self.sizes.append(support.size)
            return form(support, ops)

        monkeypatch.setattr(mc, "_choi_on_support", product)

    def refuse(self):
        self.refused = True


@pytest.fixture
def choi_products(monkeypatch):
    return ChoiProducts(monkeypatch)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(20250825))


@pytest.fixture
def qubit_spectrum():
    return cc.Spectrum(np.array([0.0, 1.0]))
