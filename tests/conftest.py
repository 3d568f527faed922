import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

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


def sector_channel(decomp: cc.SectorDecomposition, sigma: float) -> cc.Channel:
    """The single CP (possibly trace-decreasing) component G_sigma."""
    shift, mask = decomp.sector(sigma)
    return cc.Channel(tuple(cov.sector_kraus(shift, mask)))


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


def sha256_of(value) -> str:
    """Digest of a value down to the bytes: arrays by dtype, shape and data,
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


def decompose_per_sector(channel: cc.Channel, spectrum: cc.Spectrum,
                         tol: float = 1e-10) -> cc.SectorDecomposition:
    """Oracle for covariant.decompose: every sector's block pinched, kept or
    dropped, and checked by its own SectorMask, in sector order.  Each shift
    comes from its own cluster's pairs, not from partial_shift(spectrum, sigma),
    which picks the lower of two clusters whose edges lie exactly match_tol
    from sigma."""
    choi, cross = choi_and_cross_per_sector(channel, spectrum)
    defect = float(cross.max())
    if defect > tol:
        raise NotCovariant(defect, tol)
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
    ops = []
    for shift, mask in decomp.sectors:
        vecs = scaled_eigenvectors_per_matrix(mask.domain_submatrix, MaskNotPSD,
                                              f"sector {shift.sigma}:")
        block_ops = np.zeros((max(len(vecs), 1), n, n), dtype=complex)
        block_ops[:, shift.image, shift.domain] = vecs or 0.0
        ops.extend(block_ops)
    return cc.Channel(tuple(ops or [np.zeros((n, n), dtype=complex)]))


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


def laguerre_rows_per_order(jmax: int, alpha: int, x: np.ndarray) -> np.ndarray:
    """Oracle for fock._laguerre_rows: one scalar order per recurrence.
    Rows L_0^(alpha)(x) ... L_jmax^(alpha)(x), stable three-term recurrence."""
    rows = np.zeros((jmax + 2,) + x.shape)  # rows[k + 1] is L_k, starting from L_-1 = 0
    rows[1] = 1.0
    for k in range(jmax):
        rows[k + 2] = ((2 * k + 1 + alpha - x) * rows[k + 1] - (k + alpha) * rows[k]) / (k + 1)
    return rows[1:]


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


def monte_carlo_by_full_displacement(rho: cc.DensityMatrix,
                                     params: fock.FockParams) -> fock.MonteCarloResult:
    """Oracle for fock.monte_carlo_channel: the same Philox samples, each
    applied as a full dim x dim displacement D, summing D rho D^dag with no
    factoring of the state.  It chunks on its own 1024 boundaries."""
    dim, n = params.dim, params.mc_samples
    u = np.random.Generator(np.random.Philox(key=params.seed)).random((n, 2))
    r = params.std_dev * np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    theta = 2.0 * np.pi * u[:, 1]
    lam, Q = fock._generator_eigenpairs(dim)
    acc = np.zeros((dim, dim), dtype=complex)
    acc_sq = np.zeros((dim, dim))
    for i0 in range(0, n, 1024):
        D = fock._displacement_batch(r[i0:i0 + 1024], theta[i0:i0 + 1024], lam, Q)
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
    channel applications and a loop over the output pairs."""
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


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(20250825))


@pytest.fixture
def qubit_spectrum():
    return cc.Spectrum(np.array([0.0, 1.0]))
