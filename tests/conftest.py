import numpy as np
import pytest

import covchan as cc
from covchan import fock

FIXTURES = __import__("pathlib").Path(__file__).resolve().parent.parent / "fixtures"


def amplitude_damping(gamma: float) -> cc.Channel:
    a0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    a1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return cc.Channel((a0, a1))


def dephasing_channel() -> cc.Channel:
    return cc.Channel((np.diag([1.0, 0.0]).astype(complex),
                       np.diag([0.0, 1.0]).astype(complex)))


def plus_state() -> cc.DensityMatrix:
    return cc.DensityMatrix(np.full((2, 2), 0.5, dtype=complex))


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
    joint = cc.bipartite_apply(channel, cc.DensityMatrix(np.outer(phi, phi.conj())))
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
