"""Property tests of the sector decomposition on three families of spectra:
integer gaps, incommensurate sqrt(prime) gaps, and near-unit gaps whose
energy differences chain within match_tol into one sector."""
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import covchan as cc
from covchan import channels as mcore
from covchan import covariant as cov
from covchan import fock
from covchan import generate as gen
from covchan.errors import DegenerateSpectrum, NotCP

from conftest import (
    covariance_defect_per_sector,
    decompose_per_sector,
    reconstruct_per_sector,
    sector_map_by_cluster_loop,
    sha256_of,
    shift_distribution_per_sector,
)

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


@FAMILIES
@PROPERTY
@given(data=st.data())
def test_bochner_gram_matrix_is_psd(family, data):
    spec = data.draw(SPECTRA[family])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    chan = gen.random_covariant(spec, rng)
    K = gen.random_psd(spec.dim, rng)
    rho = gen.random_state(spec.dim, rng)
    times = rng.uniform(0.0, 2.0 * np.pi, size=data.draw(st.integers(1, 6)))
    assert cov.bochner_check(chan, spec, K, rho, times) >= -1e-9


# Up to 40 levels for the sector map: its clusters reach 40 pairs, past the
# 8-term blocks of numpy's pairwise summation that the means must reproduce.
MANY_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
               73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151,
               157, 163, 167)


@st.composite
def many_level_energies(draw, family):
    """(energies, match_tol) with 1..40 levels; chained draws may hold a level
    twice within one sector."""
    n = draw(st.integers(1, 40))
    if family == "integer":
        gaps = draw(st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1))
        return np.concatenate([[0.0], np.cumsum(gaps)]).astype(float), 0.0
    if family == "sqrt_prime":
        primes = draw(st.permutations(MANY_PRIMES))[:n - 1]
        return np.concatenate([[0.0], np.cumsum(np.sqrt(primes))]), 0.0
    offsets = draw(st.lists(st.floats(0.0, 2.5), min_size=n - 1, max_size=n - 1))
    gaps = 1.0 + MATCH_TOL * np.array(offsets)
    return np.concatenate([[0.0], np.cumsum(gaps)]), MATCH_TOL


def resolved_tol(energies, match_tol):
    return match_tol if match_tol > 0.0 else 1e-9 * max(1.0, float(np.max(np.abs(energies))))


@FAMILIES
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_sector_map_equals_cluster_loop(family, data):
    energies, match_tol = data.draw(many_level_energies(family))
    try:
        want = sector_map_by_cluster_loop(energies, resolved_tol(energies, match_tol))
    except DegenerateSpectrum as exc:
        with pytest.raises(DegenerateSpectrum) as got:
            cc.Spectrum(energies, match_tol=match_tol)
        assert str(got.value) == str(exc)
        return
    spec = cc.Spectrum(energies, match_tol=match_tol)
    assert spec.sigmas.tobytes() == want[0].tobytes()
    assert len(spec.sector_pairs) == len(want[1])
    for got_pairs, want_pairs in zip(spec.sector_pairs, want[1]):
        assert got_pairs.dtype == want_pairs.dtype
        assert got_pairs.tobytes() == want_pairs.tobytes()


@PROPERTY
@given(width=st.floats(1.05, 1.95), far=st.floats(3.0, 20.0), mirror=st.booleans(),
       extra=st.lists(st.sampled_from(MANY_PRIMES), max_size=6), shift=st.floats(-10.0, 10.0))
def test_chained_repeated_level_raises_in_both_routes(width, far, mirror, extra, shift):
    # Levels 0, d, 1, far and far + 1 - d/2 with match_tol < d < 2 match_tol:
    # the differences 1 - d, 1 - d/2 and 1 step by d/2 into one sector holding
    # (1, 0) and (1, d), so output level 1 twice, and its mirror sector holds
    # an input level twice.  Mirrored energies swap which check finds the
    # lower sector, whose sigma the message names.
    d = width * MATCH_TOL
    energies = np.concatenate([[0.0, d, 1.0, far, far + 1.0 - d / 2.0],
                               far + 2.0 + np.cumsum(np.sqrt(extra))])
    if mirror:
        energies = -energies[::-1]
    energies = energies + shift
    with pytest.raises(DegenerateSpectrum) as exc:
        sector_map_by_cluster_loop(energies, MATCH_TOL)
    with pytest.raises(DegenerateSpectrum) as got:
        cc.Spectrum(energies, match_tol=MATCH_TOL)
    assert str(got.value) == str(exc.value)


# ---------------------------------------------------------------------------
# The work on stacks of equal-size sectors against the per-sector loops


@st.composite
def spectra_to_12_levels(draw, family):
    """Spectra of up to 12 levels: integer, sqrt(prime) and real gaps, and
    gaps 1 + a_j * match_tol whose sigma ~ 1 differences chain into one sector."""
    n = draw(st.integers(3 if family == "chained" else 1, 12))
    match_tol = 0.0
    if family == "integer":
        gaps = np.array(draw(st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1)), float)
    elif family == "sqrt_prime":
        gaps = np.sqrt(draw(st.permutations(MANY_PRIMES[:11]))[:n - 1])
    elif family == "real_gap":
        gaps = np.array(draw(st.lists(st.floats(0.05, 3.0), min_size=n - 1, max_size=n - 1)))
    else:
        steps = draw(st.lists(st.floats(0.3, 0.95), min_size=n - 1, max_size=n - 1))
        gaps = 1.0 + MATCH_TOL * np.array(draw(st.permutations(np.cumsum(steps).tolist())))
        match_tol = MATCH_TOL
    try:
        return cc.Spectrum(np.concatenate([[0.0], np.cumsum(gaps)]), match_tol=match_tol)
    except DegenerateSpectrum:
        assume(False)


STACK_FAMILIES = pytest.mark.parametrize("family", ["chained", "integer", "real_gap", "sqrt_prime"])


def draw_channel(data, spec, kind):
    """A covariant channel from K in [1, n^2] random Kraus operators: trace
    preserving, scaled below TP, or pushed off covariance within decompose's tol."""
    n = spec.dim
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ops = gen.random_covariant(spec, rng, data.draw(st.integers(1, n * n))).kraus
    if kind == "scaled":
        ops = [data.draw(st.floats(0.3, 0.95)) * k for k in ops]
    elif kind == "projected":
        ops = [k + 1e-12 * (rng.normal(size=k.shape) + 1j * rng.normal(size=k.shape))
               for k in ops]
    return cc.Channel(tuple(ops)), gen.random_state(n, rng)


@STACK_FAMILIES
@pytest.mark.parametrize("kind", ["projected", "scaled", "tp"])
@settings(derandomize=True, max_examples=8, deadline=None, database=None)
@given(data=st.data())
def test_stacked_sector_work_equals_per_sector_loops(family, kind, data):
    spec = data.draw(spectra_to_12_levels(family))
    chan, rho = draw_channel(data, spec, kind)
    want = decompose_per_sector(chan, spec)
    got = cov.decompose(chan, spec)
    assert sha256_of(got) == sha256_of(want)
    assert (sha256_of(cov.covariance_defect(chan, spec))
            == sha256_of(covariance_defect_per_sector(chan, spec)))
    # From decompose's own stacks, and from stacks grouped again from the sectors.
    for decomp in (got, dataclasses.replace(got)):
        assert sha256_of(cov.reconstruct(decomp)) == sha256_of(reconstruct_per_sector(want))
        assert (sha256_of(cov.shift_distribution(decomp, rho))
                == sha256_of(shift_distribution_per_sector(want, rho)))


@STACK_FAMILIES
@settings(derandomize=True, max_examples=8, deadline=None, database=None)
@given(data=st.data())
def test_not_cp_names_the_first_failing_sector(family, data):
    # Blocks of a few sectors pushed negative definite on their diagonal: both
    # routes name the lowest of them, whatever the sizes of their domains.
    spec = data.draw(spectra_to_12_levels(family))
    chan, _ = draw_channel(data, spec, "tp")
    broken = data.draw(st.lists(st.integers(0, len(spec.sector_pairs) - 1),
                                min_size=1, max_size=3, unique=True))
    n = spec.dim
    choi = mcore.choi_of(chan).matrix.copy()
    for i in broken:
        pairs = spec.sector_pairs[i]
        choi[pairs, pairs] -= 1.0 + 2.0 * np.abs(choi).max()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mcore, "choi_of", lambda channel: mcore.ChoiMatrix(n, n, choi))
        with pytest.raises(NotCP) as want:
            decompose_per_sector(chan, spec)
        with pytest.raises(NotCP) as got:
            cov.decompose(chan, spec)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"Choi sector {float(spec.sigmas[min(broken)])}:")


@pytest.mark.parametrize("dim", [5, 12])
def test_gaussian_sector_work_equals_per_sector_loops(dim):
    # Real blocks are diagonalised as real; one mask made complex must not
    # join the real stack of its size.
    decomp = fock.gaussian_decomposition(fock.FockParams(dim=dim, std_dev=0.5))
    shift, mask = decomp.sectors[0]
    complex_mask = cc.SectorMask(sigma=mask.sigma, domain_submatrix=mask.domain_submatrix + 0j,
                                 domain=mask.domain, dim=dim)
    mixed = cc.SectorDecomposition(spectrum=decomp.spectrum,
                                   sectors=((shift, complex_mask),) + decomp.sectors[1:])
    rho = gen.random_state(dim, np.random.default_rng(dim))
    for d in (decomp, mixed):
        assert sha256_of(cov.reconstruct(d)) == sha256_of(reconstruct_per_sector(d))
        assert (sha256_of(cov.shift_distribution(d, rho))
                == sha256_of(shift_distribution_per_sector(d, rho)))
