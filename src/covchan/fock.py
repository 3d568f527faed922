"""Truncated single-mode Gaussian channel: displacement operators, their
energy-shift sectors via Laguerre polynomials, dephasing masks by
Gauss-Laguerre quadrature, and a Monte Carlo oracle that shares the generator
eigenpairs of displacement_matrix; expm of the generator is the test oracle.

The channel displaces the mode by a random phase-space translation r*z with z
uniform on the unit circle and r Rayleigh distributed with scale s.  Rotation
invariance makes it covariant for H = diag(0, 1, 2, ...), so it decomposes
into integer energy-shift sectors.  The sector component of the displacement
acts as

    D_sigma(r) |j> = e^{-r^2/2} r^sigma sqrt(j!/(j+sigma)!) L_j^(sigma)(r^2) |j+sigma>

for sigma >= 0; below the diagonal, D_{-a} carries the same coefficients
moved down by a levels with the sign (-1)^a.  The factor e^{-r^2/2} is kept
explicitly: it is forced by unitarity of D and by the Monte Carlo oracle, and
the masks therefore carry an extra e^{-u} inside the radial integral (u = r^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.laguerre import laggauss

from . import covariant as cov
from .channels import DensityMatrix
from .errors import InvalidParameter, QuadratureUnderResolved, SectorOutOfRange

_MC_CHUNK = 4096  # fixed chunk size keeps the reduction order deterministic


@dataclass(frozen=True)
class FockParams:
    """Truncation and sampling parameters of the Gaussian channel."""

    dim: int
    std_dev: float
    sigma_max: int = 0  # 0 -> dim - 1
    quad_points: int = 0  # 0 -> max(2 * dim, 64)
    mc_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.dim < 2:
            raise InvalidParameter("dim must be at least 2")
        if self.std_dev <= 0.0:
            raise InvalidParameter("std_dev must be positive")
        if self.sigma_max == 0:
            object.__setattr__(self, "sigma_max", self.dim - 1)
        if not 0 < self.sigma_max < self.dim:
            raise InvalidParameter("sigma_max must lie in [1, dim)")
        if self.quad_points == 0:
            object.__setattr__(self, "quad_points", max(2 * self.dim, 64))
        if self.quad_points < 2 * self.dim:
            raise QuadratureUnderResolved(
                f"quad_points {self.quad_points} < 2 * dim = {2 * self.dim}"
            )
        if self.mc_samples < 1:
            raise InvalidParameter("mc_samples must be positive")


@dataclass(frozen=True)
class GaussianDecomposition:
    """Sector masks of the truncated Gaussian channel on levels 0..dim-1.

    truncation_defect[j] = |1 - sum_sigma M_sigma(j, j)| is the per-level
    deviation from trace preservation caused by the finite cutoff; it is tiny
    for j well below dim and grows toward the truncation edge.
    """

    params: FockParams
    masks: tuple[cov.SectorMask, ...]  # ordered by sigma
    truncation_defect: np.ndarray

    def __post_init__(self):
        td = np.asarray(self.truncation_defect, dtype=float)
        td.setflags(write=False)
        object.__setattr__(self, "truncation_defect", td)

    def mask(self, sigma: int) -> cov.SectorMask:
        for m in self.masks:
            if int(round(m.sigma)) == sigma:
                return m
        raise SectorOutOfRange(f"no mask at sigma = {sigma}")

    def to_sector_decomposition(self) -> cov.SectorDecomposition:
        """View as a covariant-module decomposition on the integer spectrum."""
        spec = integer_spectrum(self.params.dim)
        sectors = tuple(
            (cov.partial_shift(spec, m.sigma), m) for m in self.masks
        )
        return cov.SectorDecomposition(spectrum=spec, sectors=sectors)


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

    Returns array (dim, len(u)); row j is the coefficient carried from input
    level j to output level j + a (zero where the target is truncated).
    _signed_sector gives the coefficients of D_{-a}.
    """
    u = np.asarray(u, dtype=float)
    log_fact = np.array([math.lgamma(k + 1) for k in range(dim)])  # k! overflows past 170
    ratio = np.exp(0.5 * (log_fact[:dim - a] - log_fact[a:]))  # sqrt(j!/(j+a)!)
    out = np.zeros((dim, u.size))
    out[:dim - a] = u ** (a / 2.0) * ratio[:, None] * _laguerre_rows(dim - a - 1, a, u)
    return out


def _signed_sector(arr: np.ndarray, sigma: int) -> np.ndarray:
    """The sector-sigma array from the sector-|sigma| one.

    arr is indexed by levels on every axis (a coefficient vector or a mask).
    For sigma < 0 each axis moves down by |sigma| levels and carries the sign
    (-1)^|sigma|, so on a mask the signs cancel.
    """
    if sigma >= 0:
        return arr
    a, dim = -sigma, arr.shape[0]
    moved = arr[(slice(0, dim - a),) * arr.ndim]
    out = np.zeros_like(arr)
    out[(slice(a, None),) * arr.ndim] = moved if a * arr.ndim % 2 == 0 else -moved
    return out


def displacement_sector(sigma: int, r: float, dim: int) -> np.ndarray:
    """The sigma-sector (row - col = sigma) of the displacement at z = 1.

    Matches the corresponding diagonal band of displacement_matrix(1, r, dim)
    up to truncation error; that equality is this module's oracle.
    """
    if abs(sigma) >= dim:
        raise SectorOutOfRange(f"|sigma| = {abs(sigma)} must be < dim = {dim}")
    if r < 0:
        raise ValueError("r must be non-negative")
    coeff = _signed_sector(_sector_poly_coeffs(abs(sigma), [r * r], dim)[:, 0], sigma)
    coeff = coeff * np.exp(-r * r / 2.0)
    return (np.eye(dim, k=-sigma) * coeff).astype(complex)  # column j -> row j + sigma


def _quad_nodes(s: float, quad_points: int):
    """Gauss-Laguerre nodes plus weights carrying the Rayleigh radial factor.

    After u = r^2 the mask integrand is e^{-u} * poly(u) * e^{-u/(2 s^2)} /
    (2 s^2); the e^{-u} (from the retained e^{-r^2/2} normalization of D) is
    the quadrature weight and the residual exponential is evaluated at nodes.
    From a node count that depends on the numpy version (187 in numpy 2.4)
    laggauss returns non-finite weights without raising, so they are checked.
    """
    with np.errstate(all="ignore"):
        try:
            x, w = laggauss(quad_points)
        except np.linalg.LinAlgError:
            x = w = np.array([np.nan])  # reported as non-finite below
    if not np.all(np.isfinite(np.r_[x, w])):
        raise InvalidParameter(f"no finite {quad_points}-node Gauss-Laguerre rule in numpy")
    return x, w * np.exp(-x / (2.0 * s * s)) / (2.0 * s * s)


def _mask_at_nodes(sigma: int, dim: int, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    coeff = _sector_poly_coeffs(abs(sigma), x, dim)
    return _signed_sector((coeff * w[None, :]) @ coeff.T, sigma)


def gaussian_mask_matrix(
    sigma: int, dim: int, s: float, quad_points: int
) -> np.ndarray:
    """Full mask M_sigma on levels 0..dim-1, PSD by construction.

    Assembled as C diag(W) C^T from the per-level sector coefficients C at the
    quadrature nodes and the non-negative effective weights W.
    """
    if quad_points < dim + (abs(sigma) + 1) // 2:
        raise QuadratureUnderResolved(
            f"{quad_points} nodes cannot integrate degree {2 * (dim - 1) + abs(sigma)}"
        )
    return _mask_at_nodes(sigma, dim, *_quad_nodes(s, quad_points))


def gaussian_mask(sigma: int, j: int, jp: int, s: float, quad_points: int) -> float:
    """Single mask entry M_sigma(j, j'), read off gaussian_mask_matrix."""
    if sigma < 0:
        raise SectorOutOfRange("gaussian_mask takes sigma >= 0; negative sectors "
                               "are index-shifted copies (use gaussian_mask_matrix)")
    dim = max(j, jp) + 1 + sigma
    return float(gaussian_mask_matrix(sigma, dim, s, quad_points)[j, jp])


def gaussian_decomposition(params: FockParams) -> GaussianDecomposition:
    """Masks for sigma in [-sigma_max, sigma_max] plus per-level TP defects."""
    dim, s = params.dim, params.std_dev
    spec = integer_spectrum(dim)
    x, w = _quad_nodes(s, params.quad_points)
    upper = [_mask_at_nodes(a, dim, x, w) for a in range(params.sigma_max + 1)]
    masks = []
    diag_sum = np.zeros(dim)
    for sigma in range(-params.sigma_max, params.sigma_max + 1):
        mat = _signed_sector(upper[abs(sigma)], sigma)
        diag_sum += np.diag(mat)
        dom = cov.shift_domain(spec, float(sigma))
        masks.append(cov.SectorMask(sigma=float(sigma), mask=mat.astype(complex), domain=dom))
    return GaussianDecomposition(
        params=params,
        masks=tuple(masks),
        truncation_defect=np.abs(1.0 - diag_sum),
    )


def monte_carlo_channel(rho: DensityMatrix, params: FockParams) -> MonteCarloResult:
    """Estimate G(rho) by averaging D(z, r) rho D(z, r)^dag over random
    displacements: z uniform on the circle, r Rayleigh with scale std_dev.

    Uses the counter-based Philox stream keyed by the seed, so results are
    bit-reproducible; the chunked reduction runs in a fixed order.
    """
    dim = params.dim
    if rho.dim != dim:
        raise ValueError(f"state dim {rho.dim} differs from params.dim {dim}")
    n = params.mc_samples
    rng = np.random.Generator(np.random.Philox(key=params.seed))
    u = rng.random((n, 2))
    r = params.std_dev * np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    theta = 2.0 * np.pi * u[:, 1]

    lam, Q = _generator_eigenpairs(dim)
    acc = np.zeros((dim, dim), dtype=complex)
    acc_sq = np.zeros((dim, dim))
    for i0 in range(0, n, _MC_CHUNK):
        D = _displacement_batch(r[i0:i0 + _MC_CHUNK], theta[i0:i0 + _MC_CHUNK], lam, Q)
        out = D @ rho.matrix @ np.conj(np.swapaxes(D, 1, 2))
        acc += out.sum(axis=0)
        acc_sq += (out.real ** 2 + out.imag ** 2).sum(axis=0)
    mean = acc / n
    var = np.maximum(acc_sq / n - np.abs(mean) ** 2, 0.0)
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
    predicted = sum(shift.matrix @ (mask.mask * rho.matrix) @ shift.matrix.conj().T
                    for shift, mask in decomp.to_sector_decomposition().sectors)
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
