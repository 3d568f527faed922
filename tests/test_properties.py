"""Property tests of the sector decomposition on three families of spectra:
integer gaps, incommensurate sqrt(prime) gaps, and near-unit gaps whose
energy differences chain within match_tol into one sector."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covchan as cc
from covchan import channels as mcore
from covchan import covariant as cov
from covchan import generate as gen

# Derandomized with a bounded example count: every run draws the same
# examples, and the suite stays fast.
PROPERTY = settings(derandomize=True, max_examples=12, deadline=None, database=None)

PRIMES = (2, 3, 5, 7, 11, 13)
MATCH_TOL = 1e-9


@st.composite
def integer_spectra(draw):
    gaps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    return cc.Spectrum(np.concatenate([[0.0], np.cumsum(gaps)]).astype(float))


@st.composite
def sqrt_prime_spectra(draw):
    primes = draw(st.lists(st.sampled_from(PRIMES), min_size=1, max_size=4, unique=True))
    return cc.Spectrum(np.concatenate([[0.0], np.cumsum(np.sqrt(primes))]))


@st.composite
def chained_spectra(draw):
    """Gaps 1 + a_j * match_tol with the sorted a_j at most 0.95 apart.

    The sigma ~ 1 differences chain into one sector whose extremes can lie
    more than match_tol from its mean.
    """
    steps = draw(st.lists(st.floats(0.3, 0.95), min_size=2, max_size=4))
    offsets = draw(st.permutations(np.cumsum(steps).tolist()))
    gaps = 1.0 + MATCH_TOL * np.array(offsets)
    return cc.Spectrum(np.concatenate([[0.0], np.cumsum(gaps)]), match_tol=MATCH_TOL)


SPECTRA = {
    "integer": integer_spectra(),
    "sqrt_prime": sqrt_prime_spectra(),
    "chained": chained_spectra(),
}
FAMILIES = pytest.mark.parametrize("family", sorted(SPECTRA))


def draw_decomposition(data, family):
    spec = data.draw(SPECTRA[family])
    seed = data.draw(st.integers(0, 2**32 - 1))
    chan = gen.random_covariant(spec, np.random.default_rng(seed))
    return spec, chan, cov.decompose(chan, spec)


@FAMILIES
@PROPERTY
@given(data=st.data())
def test_projection_defect_vanishes(family, data):
    _, _, decomp = draw_decomposition(data, family)
    assert decomp.projection_defect <= 1e-12


@FAMILIES
@PROPERTY
@given(data=st.data())
def test_diagonal_sums_are_one(family, data):
    spec, _, decomp = draw_decomposition(data, family)
    diag = sum(np.real(np.diag(mask.mask)) for _, mask in decomp.sectors)
    np.testing.assert_allclose(diag, np.ones(spec.dim), rtol=0, atol=1e-12)


@FAMILIES
@PROPERTY
@given(data=st.data())
def test_choi_spectrum_is_union_of_mask_spectra(family, data):
    spec, chan, decomp = draw_decomposition(data, family)
    choi_vals = np.linalg.eigvalsh(mcore.choi_of(chan).matrix)
    mask_vals = [np.linalg.eigvalsh(mask.domain_submatrix) for _, mask in decomp.sectors]
    # Sectors dropped as numerically empty contribute zero eigenvalues.
    mask_vals.append(np.zeros(spec.dim ** 2 - sum(v.size for v in mask_vals)))
    np.testing.assert_allclose(choi_vals, np.sort(np.concatenate(mask_vals)),
                               rtol=0, atol=1e-12)


def same_sector(spec, a, b):
    """Whether covariance_defect puts the Choi pairs a and b in one sector.

    The one-Kraus channel |a0><a1| + |b0><b1| has Choi entries only on a, b
    and the unit entry between them, so its defect is 0 or 1.
    """
    op = np.zeros((spec.dim, spec.dim), dtype=complex)
    op[a] += 1.0
    op[b] += 1.0
    return cov.covariance_defect(cc.Channel((op,)), spec) == 0.0


@FAMILIES
@PROPERTY
@given(data=st.data())
def test_shift_domain_is_the_covariance_sector(family, data):
    spec = data.draw(SPECTRA[family])
    n = spec.dim
    diff = spec.energies[:, None] - spec.energies[None, :]
    for sigma in spec.sigmas:
        anchor = np.unravel_index(np.argmin(np.abs(diff - sigma)), diff.shape)
        levels = tuple(
            j for j in range(n) if any(same_sector(spec, anchor, (jp, j)) for jp in range(n))
        )
        assert cov.partial_shift(spec, sigma).domain == levels


@FAMILIES
@PROPERTY
@given(data=st.data())
def test_block_scatter_equals_the_kraus_route(family, data):
    spec, _, decomp = draw_decomposition(data, family)
    n = spec.dim
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))  # not Hermitian
    want = mcore.apply_matrix(cov.reconstruct(decomp), X)
    got = cov.apply_sectors(decomp.sectors, X)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
