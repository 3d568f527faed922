"""Random channel generators used by the tests, demos and fixtures."""
from __future__ import annotations

import numpy as np

from . import channels as mc
from .channels import Channel, ChoiMatrix, DensityMatrix
from .covariant import Spectrum, _label, _raw, _restore_tp, _scatter
from .errors import InvalidParameter
from .inputs import _integer


def random_state(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Haar-ish random full-rank density matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return DensityMatrix(mat / np.trace(mat).real)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_psd(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g @ g.conj().T


def random_unit_diagonal_mask(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random PSD mask with unit diagonal (a correlation-like matrix)."""
    m = random_psd(dim, rng)
    d = 1.0 / np.sqrt(np.real(np.diag(m)))
    return m * np.outer(d, d)


def random_cptp(dim: int, rng: np.random.Generator, kraus_count: int | None = None) -> Channel:
    """Random CPTP channel from a Stinespring isometry with Gaussian entries, with
    kraus_count operators (an integer of at least 1; None for dim)."""
    k = dim if kraus_count is None else _integer("kraus_count", kraus_count)
    if k < 1:
        raise InvalidParameter(f"kraus_count must be at least 1, got {k}")
    blocks = rng.normal(size=(k, dim, dim)) + 1j * rng.normal(size=(k, dim, dim))
    v = blocks.reshape(k * dim, dim)
    # Orthonormalize the columns so that sum_j A_j^dag A_j = 1.
    q, r = np.linalg.qr(v)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return Channel(tuple(q.reshape(k, dim, dim)))


def random_covariant(
    spectrum: Spectrum, rng: np.random.Generator, kraus_count: int | None = None
) -> Channel:
    """Random covariant CPTP channel on the given spectrum.

    Built by pinching the Choi matrix of a random CPTP channel onto the
    energy-difference sectors and renormalizing to trace preservation;
    kraus_count is random_cptp's.
    """
    n = spectrum.dim
    base = random_cptp(n, rng, kraus_count)
    label = _label(base, spectrum)
    blocks = _raw(base, spectrum, label)
    choi = _scatter(label.layout, _restore_tp(label.layout, blocks)[0])
    return mc.kraus_from_choi(ChoiMatrix(n, n, choi))
