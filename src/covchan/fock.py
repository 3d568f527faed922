"""Truncated single-mode Gaussian channel: displacement operators, their
energy-shift sectors via Laguerre polynomials, dephasing masks in closed form
(dims up to inputs.MAX_MASK_DIM = 186), and a Monte Carlo oracle that shares the
real eigenbasis of the generator with displacement_matrix; expm of the
generator is the test oracle.  FockParams accepts dims up to MAX_DIM, so no bad dim reaches an
O(dim^2) allocation.  gaussian_decomposition is the one mask builder, and the
GaussianDecomposition it returns is a covariant.SectorDecomposition on the
integer spectrum.

The channel adds classical noise of mean photon number N = 2 s^2, and it
factors as a pure loss of transmissivity 1 / (1 + N) followed by an amplifier
of gain 1 + N (Caruso, Giovannetti & Holevo, NJP 8, 310 (2006)).  Both factors
have Fock-basis Kraus operators in closed form (Ivan, Sabapathy & Simon, PRA
84, 042311 (2011)): loss takes l of the j input photons, the amplifier adds
l + a, and the composite moves level j to j + a.  So M_a = C_a C_a^T with

    log C_a[j, l] = 1/2 [lf(j) + lf(j+a) - lf(l) - lf(l+a)] - lf(j-l)
                    + (l + a/2) log(N / (1 + N)) - (j - l + 1/2) log(1 + N)

for 0 <= l <= j <= dim-1-a (zero elsewhere), lf(k) = log k!.  Loss never
leaves the cut-off and the output is cut at dim, so this finite sum of
non-negative terms is the truncated mask exactly: no quadrature, no Laguerre
recurrence, nothing that cancels, and log(N / (1 + N)) = -log1p(1 / N) keeps
every accepted std_dev finite.  The per-sector work runs once per chunk of
_MASK_CHUNK consecutive orders, or once per dim:
- Every table that does not depend on N is made once per (dim, sigma_max),
  with the layout (_MaskTables, the one _gaussian_layout entry): the row
  and column terms' log factorials, the band's lf(j - l) and j - l + 1/2,
  the support of each order's factor and the corners of its block.
- A chunk's factors are one zero-padded (chunk, dim - a0, dim - a0) stack
  from one exp.  Its arguments are multiplied by the 0/1 support first, so
  exp sees 0 rather than -inf off it (numpy's vectorised exp slows several
  times on -inf), and its results after, which leaves exact zeros there.
  One batched C @ C^T then gives the chunk's blocks in their corners with
  exact zeros around them, and one boolean gather of the kept corners copies
  them into the decomposition's buffer.  The padded product is kept, not a triangular one: its inner
  dimension sets the order of BLAS's sums, so the blocks stay bit-identical.
- Each block is a Gram product of its factor, so the rounding bound of the
  product (channels._gram_bound, about 1.6e-11 at dim 186 against the
  check's 5e-10) proves the whole chunk passes the SectorMask check from one
  sum of squares of the factors: no factorisation and no eigensolve.  An
  unproved chunk sends the store through covariant._store_failure, so the
  error names the sector and eigenvalue that one check per sector would.
- The decomposition is its store (see covariant) on the integer spectrum,
  built once per dim (_shared_integer_spectrum): a layout kept with its tables
  once per (dim, sigma_max) (_gaussian_layout) and one buffer of one block per
  |sigma|, copied out of the chunk stacks, so no per-sector object is made.

The Monte Carlo displaces a factor rho = Psi diag(p) Psi^dag of the state
rather than forming D rho D^dag.  It works in the real eigenbasis O of the
generator, -i (a^dag - a) = T X T^dag with X the real Jacobi matrix and
T = diag((-i)^j), with the samples along the last axis: each product with O or
O^T is one real GEMM per chunk of samples, and O^T acts only on the levels
where Psi is non-zero (one for the vacuum).  The phases e^{i theta} and
e^{i r lam} come from one vectorised tan each, not from cos and sin.  The
route follows the rank of Psi.  A pure state costs O(samples * dim^2), its
moments two real symmetric products (syrk) per chunk, with no per-sample
dim x dim product; a mixed state keeps the per-sample product,
O(samples * dim^2 * rank), because the GEMM form would need rank^2 rows per
sample and is slower for every rank >= 2.  One sample has standard error
exactly 0.

The channel displaces the mode by a random phase-space translation r*z with z
uniform on the unit circle and r Rayleigh distributed with scale s.  Rotation
invariance makes it covariant for H = diag(0, 1, 2, ...), so it decomposes
into integer energy-shift sectors.  The sector component of the displacement
acts as

    D_sigma(r) |j> = e^{-r^2/2} r^sigma sqrt(j!/(j+sigma)!) L_j^(sigma)(r^2) |j+sigma>

for sigma >= 0; below the diagonal, D_{-a} = (-1)^a D_a^T, so M_a and M_{-a}
are one block on the domains 0..dim-1-a and a..dim-1.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import channels as mc
from . import covariant as cov
from .channels import DensityMatrix
from .errors import DimensionMismatch, InvalidParameter, MaskNotPSD, SectorOutOfRange, UnknownSector
from .inputs import MAX_DIM, _integer, check_fock_params, check_mask_dim  # noqa: F401 (MAX_DIM is fock.MAX_DIM)

_MC_CHUNK = 4096  # fixed chunk size keeps the reduction order deterministic
# Least allowance per entry of compare_decomposition_to_mc: the roundoff of the
# sampled mean, which neither the standard error nor the truncation defect
# covers where both are 0 (std_dev near 1e-154 makes every sample the identity;
# entries of the vacuum and of random states of rank 1, 2 and full at dims
# 2-16, 24, 32, 48 and 64 then deviated by at most 1.4e-15).
_MC_ROUNDOFF = 1e-13
_MASK_CHUNK = 16  # orders per factor stack and per SectorMask check (module docstring)


@dataclass(frozen=True)
class FockParams:
    """Truncation and sampling parameters of the Gaussian channel."""

    dim: int
    std_dev: float
    sigma_max: int = 0  # 0 -> dim - 1
    mc_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):  # the CLI applies the same rule before fock loads
        object.__setattr__(self, "sigma_max", check_fock_params(
            self.dim, self.std_dev, self.sigma_max, self.mc_samples, self.seed))


@dataclass(frozen=True, eq=False, kw_only=True)
class GaussianDecomposition(cov.SectorDecomposition):
    """Sectors (S_sigma, M_sigma) of the truncated Gaussian channel on levels
    0..dim-1, ordered by sigma, on the integer spectrum.

    truncation_defect[j] = |1 - sum_sigma M_sigma(j, j)|, summed from the blocks
    when first read, is the per-level deviation from trace preservation that
    the finite cutoff causes: tiny for j well below dim, growing toward the edge.
    """

    params: FockParams
    truncation_defect: np.ndarray = field(init=False, repr=False)

    def _derived_truncation_defect(self) -> np.ndarray:
        td = np.abs(1.0 - self.diagonal_sums())
        td.setflags(write=False)
        return td

    @property
    def masks(self) -> tuple[cov.SectorMask, ...]:
        return tuple(m for _, m in self.sectors)

    def mask(self, sigma: int) -> cov.SectorMask:
        try:
            return self.sector(sigma)[1]
        except UnknownSector:
            raise SectorOutOfRange(f"no mask at sigma = {sigma}") from None


@dataclass(frozen=True, eq=False)
class MonteCarloResult:
    """Sample mean of D rho D^dag and the per-entry standard error."""

    mean: np.ndarray
    standard_error: np.ndarray
    samples: int


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    max_entry_deviation: float
    max_allowed: float
    worst_ratio: float
    ok: bool
    sampled: MonteCarloResult  # the Monte Carlo estimate compared against


def integer_spectrum(dim: int) -> cov.Spectrum:
    return cov.Spectrum(energies=np.arange(dim, dtype=float))


@functools.lru_cache(maxsize=16)
def _shared_integer_spectrum(dim: int) -> cov.Spectrum:
    """integer_spectrum(dim), one per dim for all Gaussian decompositions of
    that dim: a Spectrum is immutable, so they can share it and the sector
    tables their stores read their pairs from.  gaussian_decomposition asks
    only for dims up to inputs.MAX_MASK_DIM: 1 MB at dim 186 with its tables."""
    return integer_spectrum(dim)


def _laguerre_rows(jmax: int, alpha: int, x: np.ndarray) -> np.ndarray:
    """Rows L_0^(alpha)(x) ... L_jmax^(alpha)(x), stable three-term recurrence."""
    rows = np.zeros((jmax + 2,) + x.shape)
    rows[1] = 1.0  # rows[k + 1] is L_k, starting from L_-1 = 0
    for k in range(jmax):
        rows[k + 2] = ((2 * k + 1 + alpha - x) * rows[k + 1] - (k + alpha) * rows[k]) / (k + 1)
    return rows[1:]


def _jacobi_eigenpairs(dim: int):
    """(lam, O) of the real Jacobi matrix X with off-diagonal sqrt(1) ...
    sqrt(dim - 1), lam ascending.

    The displacement generator is -i (a^dag - a) = T X T^dag with
    T = diag((-i)^j) (Golub & Welsch, Math. Comp. 23 (1969)), so
    exp(r (a^dag - a)) = T O e^{i r lam} O^T T^dag with O real.  The
    spectrum is symmetric about 0 (diag((-1)^j) maps X to -X), and lam is
    made exactly so, as (lam - lam[::-1]) / 2 of the eigensolver's: the
    phases of the lower half are then exactly the conjugates of the upper
    half mirrored, and an odd dim's middle eigenvalue is exactly 0.  The
    eigensolver leaves an asymmetry of roundoff size (5e-15 at dim 20, 1e-12
    near dim 1000), which a phase r lam past 1e100 turns into an unrelated
    angle.
    """
    off = np.sqrt(np.arange(1.0, dim))
    lam, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return (lam - lam[::-1]) / 2.0, vecs


def _unit_phases(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """e^{i x} from one tan per entry: with t = tan(x / 2),
    e^{i x} = ((1 - t^2) + 2 i t) / (1 + t^2).  Written into the complex
    ``out`` of x's shape when one is given.

    numpy's tan is vectorised where its cos, sin and complex exp are scalar
    libm calls, so this is several times faster than cos + i sin, and it
    stays within 4.5e-16 of it (tests/test_fock.py::TestUnitPhases).  No
    finite double, x / 2 included, lies closer than about 4.7e-19 to an odd
    multiple of pi / 2 (the closest is near 6381956970095103 * 2^797), so
    |t| < 1e19 and t^2 is finite.
    """
    t = np.multiply(x, 0.5)
    np.tan(t, out=t)
    den = np.square(t)
    if out is None:
        out = np.empty(t.shape, dtype=complex)
    np.subtract(1.0, den, out=out.real)
    den += 1.0
    out.real /= den
    t += t
    np.divide(t, den, out=out.imag)
    return out


def _rotation_powers(e_theta: np.ndarray, dim: int,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Rows w^0 ... w^(dim-1), w = -i e^{-i theta}, for each e^{i theta};
    written into the complex (dim, len(e_theta)) ``out`` when one is given.

    D(e^{i theta}, r) = R_theta exp(r (a^dag - a)) R_theta^dag with the
    number-operator rotation R_theta = diag(e^{-i theta j}), so with
    _jacobi_eigenpairs D = diag(w^j) O e^{i r lam} O^T diag(conj(w)^j), as
    R_theta T = diag(w^j).  Multiplying by -i only moves and negates the
    parts of e^{-i theta}, so it is exact.  The powers come by repeated
    doubling: log2(dim) products, each power at most log2(dim) roundings
    from exact.
    """
    w = np.empty(e_theta.shape, dtype=complex)
    w.real = -e_theta.imag
    w.imag = -e_theta.real
    if out is None:
        out = np.empty((dim, w.size), dtype=complex)
    out[0] = 1.0
    wk, k = w, 1  # wk = w^k
    while k < dim:
        step = min(k, dim - k)
        np.multiply(out[:step], wk, out=out[k:k + step])
        wk, k = wk * wk, k + step
    return out


def _check_oracle_dim(dim) -> None:
    """Refuse a dim of the displacement oracles that is not a positive integer."""
    if _integer("dim", dim) < 1:
        raise InvalidParameter("dim must be positive")


def displacement_matrix(z: complex, r: float, dim: int) -> np.ndarray:
    """Truncated displacement exp(r (conj(z) a^dag - z a)) on dim levels.

    Exactly unitary only up to truncation; columns are contractions, and the
    low levels are accurate as long as dim exceeds the displaced support.
    """
    z = complex(z)
    if not abs(abs(z) - 1.0) <= 1e-12:  # also true for NaN
        raise InvalidParameter("z must lie on the unit circle")
    if not 0.0 <= r < math.inf:  # also false for NaN
        raise InvalidParameter("r must be finite and non-negative")
    _check_oracle_dim(dim)
    lam, O = _jacobi_eigenpairs(dim)
    w = _rotation_powers(_unit_phases(np.array([np.angle(z)])), dim)[:, 0]
    return w[:, None] * ((O * _unit_phases(float(r) * lam)) @ O.T) * w.conj()


def _log_factorials(dim: int) -> np.ndarray:
    """log k! for k < dim (k! itself overflows past 170)."""
    return np.array([math.lgamma(k + 1) for k in range(dim)])


def _sector_poly_coeffs(a: int, u: np.ndarray, log_fact: np.ndarray) -> np.ndarray:
    """Per-level coefficients of D_a (a >= 0) at u = r^2, without the e^{-u/2} factor,
    on dim = log_fact.size levels given _log_factorials(dim).

    Returns array (dim - a, len(u)); row j is the coefficient carried from
    input level j to output level j + a.
    """
    u = np.asarray(u, dtype=float)
    dim = log_fact.size
    ratio = np.exp(0.5 * (log_fact[:dim - a] - log_fact[a:]))  # sqrt(j!/(j+a)!)
    return u ** (a / 2.0) * ratio[:, None] * _laguerre_rows(dim - a - 1, a, u)


def displacement_sector(sigma: int, r: float, dim: int) -> np.ndarray:
    """The sigma-sector (row - col = sigma) of the displacement at z = 1.

    Matches the corresponding diagonal band of displacement_matrix(1, r, dim)
    up to truncation error; that equality is this module's oracle.
    """
    _check_oracle_dim(dim)
    sigma = _integer("sigma", sigma)  # an int: numpy refuses (-1) ** a negative np.int64
    if abs(sigma) >= dim:
        raise SectorOutOfRange(f"|sigma| = {abs(sigma)} must be < dim = {dim}")
    if not 0.0 <= r < math.inf:
        raise InvalidParameter("r must be finite and non-negative")
    if sigma < 0:
        return (-1) ** sigma * displacement_sector(-sigma, r, dim).T
    coeff = _sector_poly_coeffs(sigma, [r * r], _log_factorials(dim))[:, 0] * np.exp(-r * r / 2.0)
    return np.diag(coeff, -sigma).astype(complex)  # column j -> row j + sigma


def _mask_chunk(orders: range, tables: _MaskTables,
                n: float) -> tuple[np.ndarray, np.ndarray]:
    """The factors C_a and blocks M_a = C_a C_a^T, a in orders, of the channel
    adding N = n photons on dim = tables.layout.n levels, as two zero-padded
    (len(orders), dim - a0, dim - a0) stacks; orders is one of tables.chunks,
    a0 = orders[0].

    The factors (module docstring) are one stack with entry [a - a0, j, l]:
    log C_a[j, l] is a row term in j, a column term in l and a band term in
    j - l, so it takes no per-sector Python, and the tables give the parts that
    do not depend on n.  The sum is finite everywhere: every log factorial is read
    inside the dim, and log1p(n) and log1p(1 / n) are finite for every accepted n.
    So multiplying it by the support l <= j < dim - a gives exp 0, not -inf, off the
    support, and multiplying after exp leaves exact zeros there: each block lands in
    its corner of the product.
    """
    a0 = orders[0]
    half_pair, photons, support = tables.chunk_terms[a0 // _MASK_CHUNK]
    col = photons * -math.log1p(1.0 / n) - half_pair  # log(N / (1+N)) = -log1p(1/N)
    band = tables.band[a0:, a0:] - tables.half_band[a0:, a0:] * math.log1p(n)
    c = half_pair[:, :, None] + col[:, None, :]  # one stack, worked on in place
    c += band
    c *= support
    np.exp(c, out=c)
    c *= support
    return c, c @ c.transpose(0, 2, 1)


class _MaskTables:
    """The layout of the Gaussian decompositions of dim levels and sigma_max top with
    every table of their chunks, made once per (dim, top) (_gaussian_layout).

    The layout holds the integer spectrum's clusters in size order (sigma = -top, top,
    ..., -1, 1, 0), sigma reading M_|sigma| of a buffer of M_0 .. M_top.  The orders
    0..top run in chunks of _MASK_CHUNK (chunks).  In a chunk's coordinates j, l < dim - a0
    its i-th order a = a0 + i has the row term lf(j) + lf(j + a) halved (half_pair,
    lf(j + a) read at dim - 1 past the domain), the column's l + a / 2 (photons) and the
    support l <= j < dim - a (support, a bottom-right corner of one dim-wide 0/1 stack);
    chunk_terms holds these three per chunk.  The band term's -lf(|j - l|) (band) and
    |j - l| + 1/2 (half_band) are dim x dim, read by each chunk in its bottom-right
    corner.  Per chunk, corners marks its blocks' (dim - a)^2 corners in the padded
    product and places is their slice of the buffer of size entries.  Every array is
    read-only."""

    def __init__(self, dim: int, top: int):
        slot = np.arange(2 * top + 1)
        sigmas = (top - slot // 2) * (slot % 2 * 2 - 1)
        square = (dim - np.arange(top + 1)) ** 2
        first = cov._run_starts(square)  # of the block of each order in the buffer
        self.layout = cov._Layout(_shared_integer_spectrum(dim), sigmas + (dim - 1),
                                  first[np.abs(sigmas)])
        self.size = int(square.sum())
        first = [*first.tolist(), self.size]  # and where the last block ends
        self.chunks = [range(a0, min(a0 + _MASK_CHUNK, top + 1))
                       for a0 in range(0, top + 1, _MASK_CHUNK)]
        log_fact, k = _log_factorials(dim), np.arange(dim)
        rows = k < dim - np.arange(len(self.chunks[0]))[:, None]  # j < dim - i
        support = (k <= k[:, None]) & rows[:, :, None]
        distance = np.abs(k - k[:, None])
        self.band, self.half_band = -log_fact[distance], distance + 0.5
        self.chunk_terms, self.corners, self.places = [], [], []
        for orders in self.chunks:
            m, a0 = len(orders), orders[0]
            a, j = np.array(orders)[:, None], k[:dim - a0]
            half_pair = 0.5 * (log_fact[j] + log_fact[np.minimum(j + a, dim - 1)])
            self.chunk_terms.append(cov._read_only(half_pair, j + a / 2.0, support[:m, a0:, a0:]))
            self.corners.append(rows[:m, a0:, None] & rows[:m, None, a0:])
            self.places.append(slice(first[a0], first[orders.stop]))
        cov._read_only(support, self.band, self.half_band, *self.corners)


# _gaussian_layout(dim, top): the one _MaskTables of a (dim, sigma_max), shared like the spectrum.
_gaussian_layout = functools.lru_cache(maxsize=16)(_MaskTables)


def gaussian_decomposition(params: FockParams) -> GaussianDecomposition:
    """Sectors for sigma in [-sigma_max, sigma_max] plus per-level TP defects.

    The decomposition is its store, the layout of the shared _gaussian_layout and one
    buffer in which M_a and M_{-a} are one block.  Each chunk of _MASK_CHUNK orders is
    one _mask_chunk stack, whose blocks one gather of the chunk's corners table copies
    from its padded product into the buffer; a chunk whose factors
    channels._gram_certified proves is checked no further.  C C^T is PSD, so an
    unproved chunk is rare; the whole store then takes the SectorMask check
    (covariant._store_failure), and MaskNotPSD names sigma = -a for the largest
    failing a, as one check per sector in sector order would.
    """
    dim, top = params.dim, params.sigma_max
    check_mask_dim(dim)
    tables, n = _gaussian_layout(dim, top), 2.0 * params.std_dev * params.std_dev
    # The buffer comes first, and each chunk's factors and product go as soon as they are
    # read, so a call frees little more than the buffer and one product on top of the heap.
    # That stays below glibc's trim threshold (twice the largest block it has freed, the
    # previous buffer) at dims 128-186: chunk pieces joined at the end did not at dim 186,
    # so malloc gave the memory back to the OS after every call and the next call faulted
    # it back in (5,200 page faults, about 8 ms).
    blocks, proved = np.empty(tables.size), True
    for orders, corners, place in zip(tables.chunks, tables.corners, tables.places):
        factors, padded = _mask_chunk(orders, tables, n)
        proved &= mc._gram_certified(factors, dim - orders[0])
        del factors
        blocks[place] = padded[corners]
        del padded
    blocks.setflags(write=False)
    layout = tables.layout
    failure = None if proved else cov._store_failure(layout, blocks)
    if failure is not None:
        raise MaskNotPSD(failure)
    return GaussianDecomposition._of_store(layout.spectrum, layout, blocks, params=params)


def _real_product(a: np.ndarray, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a @ z for a real (d, k) and a C-contiguous complex (k, ...) into the
    C-contiguous complex (d, ...) ``out``, as one real GEMM: each row of z
    read as floats is its real and imaginary parts interleaved, so the
    product costs half the flops of a complex one.  At k = 1 it is the same
    outer product by broadcasting, which BLAS runs several times slower."""
    if a.shape[1] == 1:
        return np.multiply(a.astype(complex).reshape(a.shape + (1,) * (z.ndim - 2)), z,
                           out=out)
    np.matmul(a, z.reshape(z.shape[0], -1).view(float),
              out=out.reshape(a.shape[0], -1).view(float))
    return out


def _chunk_moments(v: np.ndarray, p: np.ndarray, planes: np.ndarray):
    """Sums over one chunk of out_s = V_s diag(p) V_s^dag and of |out_s|^2
    entrywise, where v[:, c, s] is column c of V_s = D_s Psi, so v is
    (dim, rank, m).  At rank 1 the real (2, dim, m) planes, memory the caller
    has spent, is the work array; a mixed state needs none.

    At rank 1, with a + i b = v[:, 0] the (dim, m) matrix of displaced
    columns, the sums are p ((a a^T + b b^T) + i (b a^T - a b^T)) and, as
    |out_s(j, k)|^2 = p^2 |V(j, s)|^2 |V(k, s)|^2, p^2 |V|^2 (|V|^2)^T: two
    real symmetric products (S S^T, which numpy hands to syrk), the first on
    S = [a; b], and no out_s.
    """
    dim = v.shape[0]
    if p.size == 1:
        planes[0], planes[1] = v.real[:, 0], v.imag[:, 0]
        s = planes.reshape(2 * dim, -1)
        gram = s @ s.T
        part = np.empty((dim, dim), dtype=complex)
        part.real = gram[:dim, :dim] + gram[dim:, dim:]
        part.imag = gram[dim:, :dim] - gram[:dim, dim:]
        np.square(planes, out=planes)
        mod2 = np.add(planes[0], planes[1], out=planes[0])  # |V|^2
        return p[0] * part, p[0] ** 2 * (mod2 @ mod2.T)
    vt = np.ascontiguousarray(v.transpose(2, 0, 1))  # (m, dim, rank)
    out = vt @ (vt.conj().swapaxes(1, 2) * p[:, None])
    flat = out.view(float).reshape(out.shape[0], -1)  # real and imaginary parts interleaved
    sq = np.einsum("si,si->i", flat, flat).reshape(out.shape[1:] + (2,)).sum(axis=2)
    return out.sum(axis=0), sq


def monte_carlo_channel(rho: DensityMatrix, params: FockParams) -> MonteCarloResult:
    """Estimate G(rho) by averaging D(z, r) rho D(z, r)^dag over random
    displacements: z uniform on the circle, r Rayleigh with scale std_dev.

    rho = Psi diag(p) Psi^dag is factored once; the weights keep their sign,
    so the roundoff negatives DensityMatrix admits still count, and only
    columns with |p| <= 1e-14 max|p| are dropped.  Each sample displaces the
    factor in the real basis of the generator (_jacobi_eigenpairs,
    _rotation_powers), D Psi = diag(w^j) O (e^{i r lam} * (O^T diag(conj(w)^j) Psi)),
    with the samples along the last axis, so each product with O or O^T is
    one real GEMM per chunk (_real_product); O^T is applied only on the rows
    where Psi is non-zero (one for the vacuum), and no dim x dim
    displacement is formed.  The powers w^j come from one e^{i theta}, and
    e^{i theta} and e^{i r lam} each from one tan (_unit_phases).  The
    spectrum lam is symmetric, so only its upper half needs a tan; the lower
    half is the conjugate of the upper half mirrored.

    The route follows the rank of the factor.  A pure state (every caller in
    this package samples one) costs O(samples * dim^2) through two real
    symmetric products per chunk and never forms a per-sample dim x dim
    product.  A mixed state forms (D Psi) diag(p) (D Psi)^dag per sample,
    O(samples * dim^2 * rank): the GEMM form would need rank^2 rows per
    sample, and it measured slower than the per-sample product for every
    rank >= 2.

    The uniforms are drawn chunk by chunk from the counter-based Philox
    stream keyed by the seed (the same numbers as one draw of all of them),
    so results are bit-reproducible, memory does not grow with the sample
    count, and the chunked reduction runs in a fixed order.  The chunk's
    dim x m arrays are views of one work array per call, so no chunk
    allocates or frees any of them: three for a pure state, which writes
    each product over an array it has spent, and 2 + 2 rank for a mixed
    one.  One sample has standard error exactly 0, its population variance.
    """
    dim = params.dim
    if rho.dim != dim:
        raise DimensionMismatch(f"state dim {rho.dim} differs from params.dim {dim}")
    n = params.mc_samples
    rng = np.random.Generator(np.random.Philox(key=params.seed))
    p, psi = np.linalg.eigh((rho.matrix + rho.matrix.conj().T) / 2.0)
    keep = np.abs(p) > 1e-14 * np.abs(p).max()
    p, psi = p[keep], psi[:, keep]
    rows = np.flatnonzero(np.any(psi != 0.0, axis=1))  # the occupied levels

    lam, O = _jacobi_eigenpairs(dim)
    half = dim // 2
    o_rows = np.ascontiguousarray(O[rows].T)  # O^T on the occupied columns
    psi_rows = psi[rows][:, :, None]
    rank = p.size
    acc = np.zeros((dim, dim), dtype=complex)
    acc_sq = np.zeros((dim, dim))
    # One work array holds the chunk's dim x m arrays.  Allocated and freed
    # per chunk (5 MB per chunk at dim 16), they leave so much free memory at
    # the top of the heap that glibc's malloc returns it to the OS after
    # every call, and the caller's next allocations fault it back in: 100 to
    # 260 page faults per gaussian_decomposition at dims 48 and 64.  A pure
    # state writes v over the spent phases and the moments' planes over the
    # spent f, so it needs three of them; a mixed state needs 2 + 2 rank.
    pure = rank == 1
    work = np.empty((3 if pure else 2 + 2 * rank) * dim * min(n, _MC_CHUNK), dtype=complex)
    for i0 in range(0, n, _MC_CHUNK):
        m = min(_MC_CHUNK, n - i0)
        w, phases = work[:2 * dim * m].reshape(2, dim, m)  # w^j and e^{i r lam}
        f = work[2 * dim * m:(2 + rank) * dim * m].reshape(dim, rank, m)
        v = (phases.reshape(dim, 1, m) if pure
             else work[(2 + rank) * dim * m:(2 + 2 * rank) * dim * m].reshape(dim, rank, m))
        u = rng.random((m, 2))
        r = params.std_dev * np.sqrt(-2.0 * np.log1p(-u[:, 0]))
        _rotation_powers(_unit_phases(2.0 * np.pi * u[:, 1]), dim, out=w)
        _unit_phases(np.outer(lam[half:], r), out=phases[half:])
        np.conj(phases[::-1][:half], out=phases[:half])
        _real_product(o_rows, w[rows].conj()[:, None, :] * psi_rows, f)
        f *= phases[:, None, :]
        _real_product(O, f, v)  # over phases when pure
        v *= w[:, None, :]
        part, part_sq = _chunk_moments(v, p, f.view(float).reshape(2, dim, m) if pure else None)
        acc += part
        acc_sq += part_sq
    mean = acc / n
    if n == 1:
        # acc and acc_sq round differently on the pure-state route, so
        # acc_sq - |mean|^2 would leave ~1e-17 where the exact variance is 0.
        var = np.zeros((dim, dim))
    else:
        var = np.maximum(acc_sq / n - (mean.real ** 2 + mean.imag ** 2), 0.0)
    return MonteCarloResult(
        mean=mean, standard_error=np.sqrt(var / n), samples=n
    )


def compare_decomposition_to_mc(
    params: FockParams, rho: DensityMatrix
) -> ComparisonReport:
    """Entrywise check of the closed-form decomposition against Monte Carlo.

    The prediction is G(rho) = sum_sigma S_sigma (M_sigma * rho) S_sigma^dag
    straight from the blocks (covariant.apply_sectors).  The allowance at entry (j, k) is
    max(3 * standard error, truncation defect at level j or k, _MC_ROUNDOFF):
    statistical noise dominates deep in the bulk, the cutoff defect near the
    truncation edge, and roundoff where the samples do not vary.
    """
    if rho.dim != params.dim:
        raise DimensionMismatch(f"state dim {rho.dim} differs from params.dim {params.dim}")
    decomp = gaussian_decomposition(params)
    predicted = cov.apply_sectors(decomp, rho.matrix)
    sampled = monte_carlo_channel(rho, params)
    dev = np.abs(predicted - sampled.mean)
    td = decomp.truncation_defect
    level_allow = np.maximum(td[:, None], td[None, :])
    allowed = np.maximum(np.maximum(3.0 * sampled.standard_error, level_allow), _MC_ROUNDOFF)
    ratio = dev / allowed
    worst = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
    return ComparisonReport(
        max_entry_deviation=float(dev[worst]),
        max_allowed=float(allowed[worst]),
        worst_ratio=float(ratio[worst]),
        ok=bool(np.all(dev <= allowed)),
        sampled=sampled,
    )
