import numpy as np
import pytest

import covchan as cc

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
