"""Truncated single-mode Gaussian channel: displacement operators, their
energy-shift sectors via Laguerre polynomials, dephasing masks from the exact
Gauss-Laguerre rule for the weight e^{-beta u} with dim nodes (dims up to 186),
and a Monte Carlo oracle that shares the generator eigenpairs of
displacement_matrix; expm of the generator is the test oracle.
The Monte Carlo displaces a factor rho = Psi diag(p) Psi^dag of the state
rather than forming D rho D^dag, so it costs O(samples * dim^2 * rank).

The channel displaces the mode by a random phase-space translation r*z with z
uniform on the unit circle and r Rayleigh distributed with scale s.  Rotation
invariance makes it covariant for H = diag(0, 1, 2, ...), so it decomposes
into integer energy-shift sectors.  The sector component of the displacement
acts as

    D_sigma(r) |j> = e^{-r^2/2} r^sigma sqrt(j!/(j+sigma)!) L_j^(sigma)(r^2) |j+sigma>

for sigma >= 0; below the diagonal, D_{-a} = (-1)^a D_a^T, so M_a and M_{-a}
are one block on the domains 0..dim-1-a and a..dim-1.  The factor e^{-r^2/2}
is kept explicitly: it is forced by unitarity of D and by the Monte Carlo
oracle, and the masks therefore carry an extra e^{-u} inside the radial
integral (u = r^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.laguerre import laggauss

from . import covariant as cov
from .channels import DensityMatrix
from .errors import InvalidParameter, SectorOutOfRange

_MC_CHUNK = 4096  # fixed chunk size keeps the reduction order deterministic


@dataclass(frozen=True)
class FockParams:
    """Truncation and sampling parameters of the Gaussian channel."""

    dim: int
    std_dev: float
    sigma_max: int = 0  # 0 -> dim - 1
    mc_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.dim < 2:
            raise InvalidParameter("dim must be at least 2")
        if not 0.0 < self.std_dev < math.inf:
            raise InvalidParameter("std_dev must be positive and finite")
        if self.sigma_max == 0:
            object.__setattr__(self, "sigma_max", self.dim - 1)
        if not 0 < self.sigma_max < self.dim:
            raise InvalidParameter("sigma_max must lie in [1, dim)")
        if self.mc_samples < 1:
            raise InvalidParameter("mc_samples must be positive")
        if not 0 <= self.seed < 2**128:  # the Philox key range
            raise InvalidParameter("seed must lie in [0, 2**128)")


@dataclass(frozen=True)
class GaussianDecomposition:
    """Sectors (S_sigma, M_sigma) of the truncated Gaussian channel on levels
    0..dim-1, ordered by sigma, on the integer spectrum.

    truncation_defect[j] = |1 - sum_sigma M_sigma(j, j)| is the per-level
    deviation from trace preservation caused by the finite cutoff; it is tiny
    for j well below dim and grows toward the truncation edge.
    """

    params: FockParams
    spectrum: cov.Spectrum
    sectors: tuple[tuple[cov.PartialShift, cov.SectorMask], ...]
    truncation_defect: np.ndarray

    def __post_init__(self):
        td = np.asarray(self.truncation_defect, dtype=float)
        td.setflags(write=False)
        object.__setattr__(self, "truncation_defect", td)

    @property
    def masks(self) -> tuple[cov.SectorMask, ...]:
        return tuple(m for _, m in self.sectors)

    def mask(self, sigma: int) -> cov.SectorMask:
        for _, m in self.sectors:
            if int(round(m.sigma)) == sigma:
                return m
        raise SectorOutOfRange(f"no mask at sigma = {sigma}")

    def to_sector_decomposition(self) -> cov.SectorDecomposition:
        """View as a covariant-module decomposition on the integer spectrum."""
        return cov.SectorDecomposition(spectrum=self.spectrum, sectors=self.sectors)


@dataclass(frozen=True)
class MonteCarloResult:
    """Sample mean of D rho D^dag and the per-entry standard error."""

    mean: np.ndarray
    standard_error: np.ndarray
    samples: int


@dataclass(frozen=True)
class ComparisonReport:
    max_entry_deviation: float
    max_allowed: float
    worst_ratio: float
    ok: bool
    sampled: MonteCarloResult  # the Monte Carlo estimate compared against


def integer_spectrum(dim: int) -> cov.Spectrum:
    return cov.Spectrum(energies=np.arange(dim, dtype=float))


def _laguerre_rows(jmax: int, alpha: int, x: np.ndarray) -> np.ndarray:
    """Rows L_0^(alpha)(x) ... L_jmax^(alpha)(x), stable three-term recurrence."""
    rows = np.zeros((jmax + 2,) + x.shape)  # rows[k + 1] is L_k, starting from L_-1 = 0
    rows[1] = 1.0
    for k in range(jmax):
        rows[k + 2] = ((2 * k + 1 + alpha - x) * rows[k + 1] - (k + alpha) * rows[k]) / (k + 1)
    return rows[1:]


def laguerre(j: int, alpha: int, x):
    """Generalized Laguerre polynomial L_j^(alpha)(x), stable three-term recurrence."""
    if j < 0 or alpha < 0:
        raise ValueError("laguerre needs j >= 0 and alpha >= 0")
    return _laguerre_rows(j, alpha, np.asarray(x, dtype=float))[j]


def _generator_eigenpairs(dim: int):
    """(lam, Q) of -i (a^dag - a) on dim levels: exp(r (a^dag - a)) = Q e^{i r lam} Q^dag."""
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)
    return np.linalg.eigh(-1j * (a.conj().T - a))


def _displacement_batch(r: np.ndarray, theta: np.ndarray, lam, Q):
    """Batch of truncated displacements D(e^{i theta}, r).

    Uses D(z, r) = R_theta exp(r (a^dag - a)) R_theta^dag with R_theta the
    number-operator phase rotation, and the generator eigenpairs (lam, Q).
    """
    E = np.exp(1j * r[:, None] * lam[None, :])
    base = (Q[None, :, :] * E[:, None, :]) @ Q.conj().T
    ph = np.exp(-1j * np.outer(theta, np.arange(lam.size)))
    return ph[:, :, None] * base * ph.conj()[:, None, :]


def displacement_matrix(z: complex, r: float, dim: int) -> np.ndarray:
    """Truncated displacement exp(r (conj(z) a^dag - z a)) on dim levels.

    Exactly unitary only up to truncation; columns are contractions, and the
    low levels are accurate as long as dim exceeds the displaced support.
    """
    z = complex(z)
    if abs(abs(z) - 1.0) > 1e-12:
        raise ValueError("z must lie on the unit circle")
    if r < 0:
        raise ValueError("r must be non-negative")
    lam, Q = _generator_eigenpairs(dim)
    return _displacement_batch(np.array([float(r)]), np.array([np.angle(z)]), lam, Q)[0]


def _sector_poly_coeffs(a: int, u: np.ndarray, dim: int) -> np.ndarray:
    """Per-level coefficients of D_a (a >= 0) at u = r^2, without the e^{-u/2} factor.

    Returns array (dim - a, len(u)); row j is the coefficient carried from
    input level j to output level j + a.
    """
    u = np.asarray(u, dtype=float)
    log_fact = np.array([math.lgamma(k + 1) for k in range(dim)])  # k! overflows past 170
    ratio = np.exp(0.5 * (log_fact[:dim - a] - log_fact[a:]))  # sqrt(j!/(j+a)!)
    return u ** (a / 2.0) * ratio[:, None] * _laguerre_rows(dim - a - 1, a, u)


def displacement_sector(sigma: int, r: float, dim: int) -> np.ndarray:
    """The sigma-sector (row - col = sigma) of the displacement at z = 1.

    Matches the corresponding diagonal band of displacement_matrix(1, r, dim)
    up to truncation error; that equality is this module's oracle.
    """
    if abs(sigma) >= dim:
        raise SectorOutOfRange(f"|sigma| = {abs(sigma)} must be < dim = {dim}")
    if r < 0:
        raise ValueError("r must be non-negative")
    if sigma < 0:
        return (-1) ** sigma * displacement_sector(-sigma, r, dim).T
    coeff = _sector_poly_coeffs(sigma, [r * r], dim)[:, 0] * np.exp(-r * r / 2.0)
    return np.diag(coeff, -sigma).astype(complex)  # column j -> row j + sigma


def _quad_nodes(s: float, dim: int):
    """Exact Gauss-Laguerre rule with dim nodes for the mask integrals.

    After u = r^2 the mask integrand is e^{-u} * poly(u) * e^{-u/(2 s^2)} /
    (2 s^2), where the e^{-u} comes from the retained e^{-r^2/2}
    normalization of D.  With beta = 1 + 1/(2 s^2) the weight is e^{-beta u},
    so the laggauss(dim) nodes x_i and weights w_i become u_i = x_i / beta and
    w_i / (2 s^2 beta).  poly(u) = u^|sigma| L_j L_k has degree at most
    2 dim - 2, below the 2 dim - 1 that dim nodes integrate exactly.
    From a node count that depends on the numpy version (187 in numpy 2.4)
    laggauss returns non-finite weights without raising, so they are checked;
    dims up to 186 therefore work.
    """
    with np.errstate(all="ignore"):
        try:
            x, w = laggauss(dim)
        except np.linalg.LinAlgError:
            x = w = np.array([np.nan])  # reported as non-finite below
    if not np.all(np.isfinite(np.r_[x, w])):
        raise InvalidParameter(f"no finite {dim}-node Gauss-Laguerre rule in numpy")
    beta = 1.0 + 1.0 / (2.0 * s * s)
    return x / beta, w / (2.0 * s * s * beta)


def _block_at_nodes(a: int, dim: int, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The (dim - a) x (dim - a) block of M_a and M_{-a}: C diag(W) C^T from
    the sector coefficients C at the quadrature nodes and the non-negative
    effective weights W, so PSD by construction."""
    coeff = _sector_poly_coeffs(a, x, dim)
    return (coeff * w[None, :]) @ coeff.T


def gaussian_mask_matrix(sigma: int, dim: int, s: float) -> np.ndarray:
    """Full mask M_sigma on levels 0..dim-1: its block padded on both axes."""
    a = abs(sigma)
    return np.pad(_block_at_nodes(a, dim, *_quad_nodes(s, dim)), (a, 0) if sigma < 0 else (0, a))


def gaussian_decomposition(params: FockParams) -> GaussianDecomposition:
    """Sectors for sigma in [-sigma_max, sigma_max] plus per-level TP defects."""
    dim, s = params.dim, params.std_dev
    spec = integer_spectrum(dim)
    x, w = _quad_nodes(s, dim)
    blocks = [_block_at_nodes(a, dim, x, w) for a in range(params.sigma_max + 1)]
    sectors = []
    diag_sum = np.zeros(dim)
    for sigma in range(-params.sigma_max, params.sigma_max + 1):
        shift = cov.partial_shift(spec, float(sigma))
        block = blocks[abs(sigma)]
        diag_sum[list(shift.domain)] += np.diag(block)
        sectors.append((shift, cov.SectorMask(sigma=shift.sigma, domain_submatrix=block,
                                               domain=shift.domain, dim=dim)))
    return GaussianDecomposition(
        params=params,
        spectrum=spec,
        sectors=tuple(sectors),
        truncation_defect=np.abs(1.0 - diag_sum),
    )


def monte_carlo_channel(rho: DensityMatrix, params: FockParams) -> MonteCarloResult:
    """Estimate G(rho) by averaging D(z, r) rho D(z, r)^dag over random
    displacements: z uniform on the circle, r Rayleigh with scale std_dev.

    rho = Psi diag(p) Psi^dag is factored once; the weights keep their sign,
    so the roundoff negatives DensityMatrix admits still count, and only
    columns with |p| <= 1e-14 max|p| are dropped.  Each sample displaces the
    factor, D Psi = R_theta Q (e^{i r lam} * (Q^dag R_theta^dag Psi)), as one
    product of the input phases with the fixed Q^dag Psi array and one with
    Q, and contributes (D Psi) diag(p) (D Psi)^dag.  No dim x dim
    displacement is formed: the cost is O(samples * dim^2 * rank).

    The uniforms are drawn chunk by chunk from the counter-based Philox
    stream keyed by the seed (the same numbers as one draw of all of them),
    so results are bit-reproducible, memory does not grow with the sample
    count, and the chunked reduction runs in a fixed order.
    """
    dim = params.dim
    if rho.dim != dim:
        raise ValueError(f"state dim {rho.dim} differs from params.dim {dim}")
    n = params.mc_samples
    rng = np.random.Generator(np.random.Philox(key=params.seed))
    p, psi = np.linalg.eigh((rho.matrix + rho.matrix.conj().T) / 2.0)
    keep = np.abs(p) > 1e-14 * np.abs(p).max()
    p, psi = p[keep], psi[:, keep]
    rank = p.size

    lam, Q = _generator_eigenpairs(dim)
    levels = np.arange(dim)
    qpsi = (psi[:, :, None] * Q.conj()[:, None, :]).reshape(dim, rank * dim)  # [j, (c, l)]
    acc = np.zeros((dim, dim), dtype=complex)
    acc_sq = np.zeros(2 * dim * dim)  # squared real and imaginary parts, interleaved
    for i0 in range(0, n, _MC_CHUNK):
        m = min(_MC_CHUNK, n - i0)
        u = rng.random((m, 2))
        r = params.std_dev * np.sqrt(-2.0 * np.log1p(-u[:, 0]))
        ph = np.exp(2j * np.pi * np.outer(u[:, 1], levels))  # diagonal of R_theta^dag
        w = (ph @ qpsi).reshape(m, rank, dim) * np.exp(1j * np.outer(r, lam))[:, None, :]
        v = (w.reshape(m * rank, dim) @ Q.T).reshape(m, rank, dim) * ph.conj()[:, None, :]
        out = np.swapaxes(v, 1, 2) @ (v.conj() * p[:, None])  # v[s, c] is column c of D Psi
        acc += out.sum(axis=0)
        flat = out.view(float).reshape(m, -1)
        acc_sq += np.einsum("si,si->i", flat, flat)
        del out, flat  # two chunk products alive at once would double the peak memory
    mean = acc / n
    sq = acc_sq.reshape(dim, dim, 2).sum(axis=2)
    # |mean|^2 in the form acc_sq sums, so that one sample has variance exactly 0
    var = np.maximum(sq / n - (mean.real ** 2 + mean.imag ** 2), 0.0)
    return MonteCarloResult(
        mean=mean, standard_error=np.sqrt(var / n), samples=n
    )


def compare_decomposition_to_mc(
    params: FockParams, rho: DensityMatrix
) -> ComparisonReport:
    """Entrywise check of the quadrature decomposition against Monte Carlo.

    The prediction is G(rho) = sum_sigma S_sigma (M_sigma * rho) S_sigma^dag
    straight from the masks.  The allowance at entry (j, k) is
    max(3 * standard error, truncation defect at level j or k): statistical
    noise dominates deep in the bulk, the cutoff defect near the truncation
    edge.
    """
    decomp = gaussian_decomposition(params)
    predicted = cov.apply_sectors(decomp.sectors, rho.matrix)
    sampled = monte_carlo_channel(rho, params)
    dev = np.abs(predicted - sampled.mean)
    td = decomp.truncation_defect
    level_allow = np.maximum(td[:, None], td[None, :])
    allowed = np.maximum(3.0 * sampled.standard_error, level_allow)
    ratio = dev / np.maximum(allowed, 1e-300)
    worst = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
    return ComparisonReport(
        max_entry_deviation=float(dev[worst]),
        max_allowed=float(allowed[worst]),
        worst_ratio=float(ratio[worst]),
        ok=bool(np.all(dev <= allowed)),
        sampled=sampled,
    )
