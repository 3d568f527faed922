"""Property tests of the sector decomposition on three families of spectra:
integer gaps, incommensurate sqrt(prime) gaps, and near-unit gaps whose
energy differences chain within match_tol into one sector."""
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import covchan as cc
from covchan import channels as mcore
from covchan import covariant as cov
from covchan import fock
from covchan import generate as gen
from covchan import serialize as ser
from covchan import timing as tim
from covchan.errors import (DegenerateSpectrum, DimensionMismatch, NotCovariant, NotCP,
                            UnknownSector)

import conftest
from conftest import (
    apply_sectors_per_sector,
    assert_reconstructs_as_per_sector,
    bochner_by_dense_applications,
    characteristic_by_dense_application,
    cluster_at_by_nearest_span,
    covariance_defect_per_sector,
    decompose_per_sector,
    diagonal_sums_per_sector,
    domain_extension_per_sector,
    hadamard_channel_by_diagonals,
    mask_failure_by_eigvalsh,
    on_the_choi_route,
    pair_clusters_by_loop,
    reconstruct_per_sector,
    sector_map_by_cluster_loop,
    sha256_of,
    shift_distribution_per_sector,
    shift_mixture_by_dense_shifts,
    thin_route_ratio,
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
    got = cov.apply_sectors(decomp, X)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def assert_store_readers_match_the_pair_loops(decomp, data):
    """At a drawn state, time and operator: domain_extension_check within
    1e-15 max(1, ||M_sigma * rho||_F) of the per-sector loop, and
    apply_sectors equal to the per-pair scatter bit for bit."""
    n = decomp.spectrum.dim
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rho = gen.random_state(n, rng)
    t = data.draw(st.floats(-20.0, 20.0), label="t")
    scale = max([1.0, *(float(np.linalg.norm(mask.domain_submatrix
                                             * rho.matrix[np.ix_(shift.domain, shift.domain)]))
                        for shift, mask in decomp.sectors)])
    got = cov.domain_extension_check(decomp, rho, t)
    assert abs(got - domain_extension_per_sector(decomp, rho, t)) <= 1e-15 * scale
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    assert np.array_equal(cov.apply_sectors(decomp, X), apply_sectors_per_sector(decomp.sectors, X))


@FAMILIES
@PROPERTY
@given(data=st.data())
def test_store_readers_match_the_pair_loops(family, data):
    _, _, decomp = draw_decomposition(data, family)
    assert_store_readers_match_the_pair_loops(decomp, data)


@PROPERTY
@given(dim=st.integers(2, 186), s=st.sampled_from([0.1, 0.3, 0.5, 1.0]), data=st.data())
def test_gaussian_store_readers_match_the_pair_loops(dim, s, data):
    top = data.draw(st.integers(1, dim - 1), label="sigma_max")
    decomp = fock.gaussian_decomposition(fock.FockParams(dim=dim, std_dev=s, sigma_max=top))
    assert_store_readers_match_the_pair_loops(decomp, data)


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
    if kind == "scaled":  # one factor for all: the Kraus operators need not be covariant one by one
        factor = data.draw(st.floats(0.3, 0.95))
        ops = [factor * k for k in ops]
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
    assert_stacks_equal_loops(*draw_channel(data, spec, kind), spec)


# A chained spectrum whose differences near 1 and near 2 chain into one cluster each:
# its sector-pure families are pure by cluster but not by exact difference.
CHAINED_4 = (0.0, 1.0, 2.0 + 0.9e-9, 3.0 + 2.7e-9)


def draw_label_family(data, family, kind):
    """A spectrum of up to 12 levels (4 for the chained one), a random state and a
    sector-pure family on it: a Hadamard channel, a mixture of 1-3 shifts, or the
    reconstruction of a random_covariant channel's decomposition; or random_covariant
    itself (mixed), or a mixture of 2-3 shifts whose last has weight 1e-30, so that its
    sector's block lies below decompose's drop floor."""
    n = 4 if family == "chained" else data.draw(st.integers(1, 12))
    if family == "integer":
        spec = cc.Spectrum(np.arange(float(n)))
    elif family == "sqrt_prime":
        spec = cc.Spectrum(np.r_[0.0, np.cumsum(np.sqrt(MANY_PRIMES[:n - 1]))])
    else:
        spec = cc.Spectrum(CHAINED_4)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if kind == "hadamard":
        chan = cc.hadamard_channel(gen.random_unit_diagonal_mask(n, rng))
    elif kind in ("shift_mixture", "dropped"):
        assume(kind == "shift_mixture" or spec.sigmas.size > 1)
        picked = data.draw(st.lists(st.sampled_from(spec.sigmas.tolist()),
                                    min_size=1 if kind == "shift_mixture" else 2,
                                    max_size=3, unique=True))
        probs = rng.random(len(picked)) + 0.1
        if kind == "dropped":
            probs[-1] = 0.0
        probs /= probs.sum()
        if kind == "dropped":  # its block, 1e-30 on the diagonal, is below the drop floor
            probs[-1] = 1e-30
        chan = tim.build_shift_mixture(spec, list(zip(picked, probs))).channel
    elif kind == "random_covariant":
        chan = gen.random_covariant(spec, rng)
    else:
        chan = cov.reconstruct(cov.decompose(gen.random_covariant(spec, rng), spec))
    return spec, chan, rng


@pytest.mark.parametrize("family", ["integer", "sqrt_prime", "chained"])
@pytest.mark.parametrize("kind", ["hadamard", "shift_mixture", "reconstruction"])
@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(data=st.data())
def test_label_route_equals_the_choi_route(family, kind, data):
    # A family whose operators each lie in one sector is labelled pure: its covariance
    # defect is the Choi route's 0.0 bit for bit, and its blocks and projection defect
    # come within c u ||C||_F of the Choi route's.  Measured over 3,000 draws of these
    # families at n <= 12: c = 2.6 for the blocks and 2.9 for the projection defect.
    spec, chan, _ = draw_label_family(data, family, kind)
    assert cov._label(chan, spec).pure
    choi = on_the_choi_route(chan, spec)
    assert sha256_of(cov.covariance_defect(chan, spec)) == sha256_of(0.0)
    assert sha256_of(cov.covariance_defect(choi, spec)) == sha256_of(0.0)
    got, want = cov.decompose(chan, spec), cov.decompose(choi, spec)
    assert got._layout.clusters.tolist() == want._layout.clusters.tolist()
    bound = 4.0 * np.finfo(float).eps / 2 * np.linalg.norm(mcore.choi_of(chan).matrix)
    assert np.abs(got._blocks - want._blocks).max(initial=0.0) <= bound
    assert abs(got.projection_defect - want.projection_defect) <= bound


@pytest.mark.parametrize("family", ["integer", "sqrt_prime"])
@pytest.mark.parametrize("kind", ["hadamard", "shift_mixture"])
@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(data=st.data())
def test_decompose_obeys_the_kraus_gauge_law(family, kind, data):
    # The operators sum_k U_mk A_k, U a random (K + 2) x K isometry, are the same
    # channel, so their decomposition is that of the A_k within c u ||C||_F.  A mixture
    # of two or more shifts mixes into a mixed family (the Choi route) against its own
    # label route; a Hadamard channel stays diagonal, so both sides take the label
    # route.  Measured over 3,000 draws of these families at n <= 12: c = 7.8 for the
    # blocks and 8.0 for the projection defect.
    spec, chan, rng = draw_label_family(data, family, kind)
    k = len(chan.kraus)
    u = np.linalg.qr(rng.normal(size=(k + 2, k)) + 1j * rng.normal(size=(k + 2, k)))[0]
    mixed = cc.Channel(tuple(np.tensordot(u, chan._ops, axes=1)))
    got, want = cov.decompose(mixed, spec), cov.decompose(chan, spec)
    assert got._layout.clusters.tolist() == want._layout.clusters.tolist()
    bound = 16.0 * np.finfo(float).eps / 2 * np.linalg.norm(mcore.choi_of(chan).matrix)
    assert np.abs(got._blocks - want._blocks).max(initial=0.0) <= bound
    assert abs(got.projection_defect - want.projection_defect) <= bound


@pytest.mark.parametrize("family", ["integer", "sqrt_prime"])
@pytest.mark.parametrize("kind", ["hadamard", "shift_mixture", "random_covariant"])
@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(data=st.data())
def test_decompose_obeys_the_diagonal_unitary_law(family, kind, data):
    # For D = diag(e^{i theta}) the channel D G(D^dag . D) D^dag, operators D A_k D^dag,
    # has the masks M_sigma o w w^H, w_j = e^{i(theta_{j + sigma} - theta_j)} on each
    # sector's domain.  Mixtures and Hadamard channels stay sector-pure (the label route),
    # random_covariant stays mixed (the Choi route).  Measured over 3,000 draws of these
    # families at n <= 12: c = 6.0 (Hadamard channels; mixtures 4.4, random_covariant 4.3).
    spec, chan, rng = draw_label_family(data, family, kind)
    n = spec.dim
    d = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n))
    turned = cc.Channel(tuple(d[:, None] * chan._ops * d.conj()))
    got, want = cov.decompose(turned, spec), cov.decompose(chan, spec)
    pure = cov._label(chan, spec).pure  # a label family's; random_covariant's at n = 1
    assert cov._label(turned, spec).pure == pure >= (kind != "random_covariant")
    assert got._layout.clusters.tolist() == want._layout.clusters.tolist()
    bound = 12.0 * np.finfo(float).eps / 2 * np.linalg.norm(mcore.choi_of(chan).matrix)
    for (_, pairs, blocks), (_, _, law) in zip(got._stacked, want._stacked):
        w = d[pairs // n] * d[pairs % n].conj()  # (m, d): w_j at each domain level j
        law = law * w[:, :, None] * w.conj()[:, None, :]
        assert np.abs(blocks - law).max(initial=0.0) <= bound


@pytest.mark.parametrize("family", ["integer", "sqrt_prime", "chained"])
@pytest.mark.parametrize("kind", ["hadamard", "shift_mixture", "reconstruction",
                                  "random_covariant", "dropped"])
@settings(derandomize=True, max_examples=8, deadline=None, database=None)
@given(data=st.data())
def test_warm_calls_equal_cold_ones(family, kind, data):
    # decompose, reconstruct and shift_distribution run twice on one channel, the
    # second time on the tables its label keeps from the first: every output is, to
    # the bit, that of a fresh copy of the channel, which keeps nothing.
    spec, chan, rng = draw_label_family(data, family, kind)
    rho = gen.random_state(spec.dim, rng)

    def outputs(channel):
        decomp = cov.decompose(channel, spec)
        return [sha256_of(out) for out in (decomp, cov.reconstruct(decomp),
                                           cov.shift_distribution(decomp, rho))]

    first, second = outputs(chan), outputs(chan)
    assert first == second == outputs(cc.Channel(tuple(chan.kraus)))
    for *_, stack in cov.decompose(chan, spec)._stacked:  # reconstruct takes them as Hermitian
        assert ((stack + stack.conj().swapaxes(1, 2)) / 2.0).tobytes() == stack.tobytes()
    if kind == "dropped":  # the last shift's sector is laid out but not stored
        held = set(spec._cluster[chan._support].tolist())
        stored = cov.decompose(chan, spec)._layout.clusters.tolist()
        assert len(held) == len(stored) + 1 and set(stored) < held
    defect = cov.covariance_defect(chan, spec)
    if defect > 0.0:  # the kept cross-sector defect refuses as a fresh channel's does
        with pytest.raises(NotCovariant) as warm:
            cov.decompose(chan, spec, tol=defect / 2)
        with pytest.raises(NotCovariant) as cold:
            cov.decompose(cc.Channel(tuple(chan.kraus)), spec, tol=defect / 2)
        assert str(warm.value) == str(cold.value)


def draw_sparse_channel(data, spec, kind):
    """A channel whose Kraus operators leave Choi pairs untouched, so that
    decompose reads the Choi matrix on part of the pairs: a mixture of K = 1-3
    partial shifts, a Hadamard channel, 1-3 operators S_sigma diag(d) with
    some d_j zero (-0.0 where the zero came from a product), random_covariant
    with some operators zeroed, or the zero channel."""
    n = spec.dim
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    sigmas = st.lists(st.sampled_from(spec.sigmas.tolist()), min_size=1, max_size=3)
    if kind == "shift_mixture":
        picked = data.draw(sigmas)
        probs = rng.random(len(picked)) + 0.1
        chan = tim.build_shift_mixture(spec, list(zip(picked, probs / probs.sum()))).channel
    elif kind == "hadamard":
        chan = cc.hadamard_channel(gen.random_unit_diagonal_mask(n, rng))
    elif kind == "shifted_diagonals":
        chan = cc.Channel(tuple(
            cc.partial_shift(spec, sigma).matrix
            * ((rng.normal(size=n) + 1j * rng.normal(size=n)) * (rng.random(n) < 0.6))
            for sigma in data.draw(sigmas)))
    elif kind == "zeroed":
        ops = list(gen.random_covariant(spec, rng, data.draw(st.integers(1, n * n))).kraus)
        for i in data.draw(st.lists(st.integers(0, len(ops) - 1), max_size=len(ops) - 1)):
            ops[i] = np.zeros((n, n), dtype=complex)
        chan = cc.Channel(tuple(ops))
    else:
        chan = cc.Channel((np.zeros((n, n), dtype=complex),))
    return chan, gen.random_state(n, rng)


@STACK_FAMILIES
@pytest.mark.parametrize("kind", ["hadamard", "shift_mixture", "shifted_diagonals", "zero",
                                  "zeroed"])
@settings(derandomize=True, max_examples=8, deadline=None, database=None)
@given(data=st.data())
def test_sparse_kraus_families_equal_per_sector_loops(family, kind, data):
    # The oracles build the full Choi matrix; decompose reads it on the pairs
    # some Kraus operator touches and leaves out the sectors with none.
    spec = data.draw(spectra_to_12_levels(family))
    chan, rho = draw_sparse_channel(data, spec, kind)
    defect = covariance_defect_per_sector(chan, spec)
    assert sha256_of(cov.covariance_defect(chan, spec)) == sha256_of(defect)
    if defect > 1e-10:  # random_covariant's operators may mix sectors of equal eigenvalue
        with pytest.raises(NotCovariant) as got:
            cov.decompose(chan, spec)
        assert got.value.defect == defect
        return
    support = chan._support.size
    if defect == 0.0 or support == spec.dim ** 2:
        assert_stacks_equal_loops(chan, rho, spec)
    else:
        # Cross-sector roundoff on part of the pairs: the projection defect
        # sums the same squares over fewer zeros, so BLAS groups them otherwise.
        got, want = cov.decompose(chan, spec), decompose_per_sector(chan, spec)
        assert sha256_of(got.sectors) == sha256_of(want.sectors)
        bound = support**2 * np.finfo(float).eps * want.projection_defect
        assert abs(got.projection_defect - want.projection_defect) <= bound
    if kind == "zero":
        assert defect == 0.0
        assert cov.decompose(chan, spec).sectors == ()


def assert_stacks_equal_loops(chan, rho, spec):
    want = decompose_per_sector(chan, spec)
    got = cov.decompose(chan, spec)
    assert sha256_of(got) == sha256_of(want)
    assert (sha256_of(cov.covariance_defect(chan, spec))
            == sha256_of(covariance_defect_per_sector(chan, spec)))
    # From decompose's own stacks, and from stacks grouped again from the sectors, which
    # carry no factor: they take the spectral route, bit for bit.
    assert_reconstructs_as_per_sector(got, want)
    rebuilt = dataclasses.replace(got)
    assert sha256_of(cov.reconstruct(rebuilt)) == sha256_of(reconstruct_per_sector(want))
    for decomp in (got, rebuilt):
        assert (sha256_of(cov.shift_distribution(decomp, rho))
                == sha256_of(shift_distribution_per_sector(want, rho)))
    assert sha256_of(got.diagonal_sums()) == sha256_of(diagonal_sums_per_sector(want))


def not_cp_messages(chan, spec, broken):
    """The NotCP messages of decompose and of the per-sector oracle on chan
    with the blocks of the sectors broken pushed negative definite on their
    diagonal, whatever the sizes of their domains."""
    n = spec.dim
    choi = mcore.choi_of(chan).matrix.copy()
    depth = {}
    for i in broken:
        pairs = spec.sector_pairs[i]
        depth[i] = 1.0 + 2.0 * np.abs(choi).max()
        choi[pairs, pairs] -= depth[i]
    # The oracle reads the broken Choi matrix and its partial trace; decompose
    # gets the same blocks broken after either route's builder and the same
    # trace-preservation defect in place of the Kraus operators' own.
    tp_defect = float(np.linalg.norm(np.trace(choi.reshape(n, n, n, n), axis1=0, axis2=2)
                                     - np.eye(n)))

    # The label keeps the blocks that its first builder call returns, so chan must
    # be fresh: a label made before the builders are broken would keep sound blocks.
    def breaking(builder, blocks_of=lambda built: built):  # a route's builder, blocks broken
        def build(*args):
            built = builder(*args)
            blocks, layout = blocks_of(built), cov._label(chan, spec).layout
            rows, cols, _ = layout.entries
            sector = np.repeat(layout.clusters, layout.sizes ** 2)  # of each entry of the buffer
            for i, d in depth.items():
                blocks[(sector == i) & (rows == cols)] -= d
            assert set(depth) <= set(layout.clusters.tolist())
            return built
        return build

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mcore, "choi_of", lambda channel: mcore.ChoiMatrix(n, n, choi))
        mp.setattr(conftest, "blocks_per_operator", lambda channel, spectrum: None)
        with pytest.raises(NotCP) as want:
            decompose_per_sector(chan, spec)
        mp.setattr(cov, "_sector_blocks", breaking(cov._sector_blocks))
        mp.setattr(cov, "_label_blocks", breaking(cov._label_blocks, lambda built: built[0]))
        mp.setattr(mcore, "_tp_defect", lambda ops: tp_defect)
        # The blocks are broken behind the Kraus operators' back, which the
        # Gram certificate cannot see, so it is made to fail too.
        mp.setattr(mcore, "_gram_certified", lambda factors, k, scale, squares: False)
        with pytest.raises(NotCP) as got:
            cov.decompose(chan, spec)
    return str(got.value), str(want.value)


@STACK_FAMILIES
@settings(derandomize=True, max_examples=8, deadline=None, database=None)
@given(data=st.data())
def test_not_cp_names_the_first_failing_sector(family, data):
    # Both routes name the lowest of the broken sectors.
    spec = data.draw(spectra_to_12_levels(family))
    chan, _ = draw_channel(data, spec, "tp")
    broken = data.draw(st.lists(st.integers(0, len(spec.sector_pairs) - 1),
                                min_size=1, max_size=3, unique=True))
    got, want = not_cp_messages(chan, spec, broken)
    assert got == want
    assert got.startswith(f"Choi sector {float(spec.sigmas[min(broken)])}:")


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
        assert sha256_of(d.diagonal_sums()) == sha256_of(diagonal_sums_per_sector(d))


@st.composite
def chained_grid_spectra(draw):
    """Levels j + k_j match_tol / 8 with integer k_j in [0, 40]: the differences
    lie on a grid of match_tol / 8, so a cluster often starts about match_tol
    above its neighbour's top, where a sigma lies within match_tol of two spans."""
    n = draw(st.integers(3, 8))
    k = np.array(draw(st.lists(st.integers(0, 40), min_size=n, max_size=n)))
    return cc.Spectrum(np.arange(n) + k * MATCH_TOL / 8, match_tol=MATCH_TOL)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(spec=chained_grid_spectra(), seed=st.integers(0, 2**32 - 1))
def test_every_sigma_names_its_own_cluster(spec, seed):
    assert [spec._cluster_at(s) for s in spec.sigmas] == list(range(len(spec.sigmas)))
    decomp = cov.decompose(gen.random_covariant(spec, np.random.default_rng(seed)), spec)
    back = ser.decomposition_from_json(ser.decomposition_to_json(decomp))
    assert sha256_of(back.sectors) == sha256_of(decomp.sectors)


@st.composite
def dyadic_grid_spectra(draw):
    """Levels j + k_j tol / 8, k_j in [0, 40], at match_tol tol = 2^-20: every
    difference, span end and midpoint between spans is exact, so a sigma halfway
    between two spans less than 2 tol apart is an exact tie."""
    n = draw(st.integers(3, 8))
    k = np.array(draw(st.lists(st.integers(0, 40), min_size=n, max_size=n)))
    return cc.Spectrum(np.arange(n) + k * 2.0**-23, match_tol=2.0**-20)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(spec=st.one_of(integer_spectra(), sqrt_prime_spectra(), chained_spectra(),
                      chained_grid_spectra(), dyadic_grid_spectra()))
@example(spec=cc.Spectrum(np.array([0.0, 1.0, 2.0 + 1.5 * 2.0**-10]), match_tol=2.0**-10))
def test_cluster_lookup_equals_the_nearest_span_oracle(spec):
    # sigma at every span's ends, match_tol and one ulp either side of that
    # from them, halfway between neighbouring spans (a tie wherever the gap is
    # below 2 match_tol), at each cluster's mean, and NaN and +-inf.
    lowest, highest = spec._spans
    ends = np.r_[lowest, highest]
    near = np.r_[ends - spec.match_tol, ends + spec.match_tol]
    halfway = (highest[:-1] + lowest[1:]) / 2.0
    sigmas = np.r_[ends, near, np.nextafter(near, -np.inf), np.nextafter(near, np.inf), halfway,
                   spec.sigmas, np.nan, np.inf, -np.inf]
    for sigma in sigmas.tolist():
        assert spec._cluster_at(sigma) == cluster_at_by_nearest_span(spec, sigma), sigma
    want = [cluster_at_by_nearest_span(spec, sigma) for sigma in sigmas.tolist()]
    assert spec._clusters_at(sigmas).tolist() == [-1 if c is None else c for c in want]
    below = halfway - highest[:-1]
    tied = (below == lowest[1:] - halfway) & (below <= spec.match_tol)  # the lower one wins
    assert [spec._cluster_at(s) for s in halfway[tied].tolist()] == np.flatnonzero(tied).tolist()


def outcome(fn, *args):
    """fn(*args), or the type and text of the error it raises."""
    try:
        return fn(*args)
    except (UnknownSector, DimensionMismatch) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("family", ["integer", "sqrt_prime", "chained"])
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_pair_check_names_the_loops_first_fault(family, data):
    # SectorDecomposition(...) checks all given pairs at once; the per-pair loop it
    # replaced names the first faulty pair in the given order by its first fault.
    spec = data.draw(spectra_to_12_levels(family))
    n = spec.dim
    clusters = data.draw(st.permutations(range(len(spec.sigmas))))
    clusters = clusters[:data.draw(st.integers(0, len(clusters)))]
    pairs = []
    for c in clusters:
        shift = cov.partial_shift(spec, float(spec.sigmas[c]))
        pairs.append((shift, cov.SectorMask(shift.sigma, np.eye(len(shift.domain)) / 2,
                                            shift.domain, n)))
    for fault in data.draw(st.lists(st.sampled_from(
            ["twice", "no sigma", "levels", "moved", "dim", "nan"]), max_size=3)):
        if not pairs:
            break
        j = data.draw(st.integers(0, len(pairs) - 1))
        shift, mask = pairs[j]
        d = len(shift.domain)
        if fault == "twice":
            pairs.insert(data.draw(st.integers(j + 1, len(pairs))), pairs[j])
        elif fault == "no sigma":
            empty = cov.PartialShift(float(spec.sigmas[-1]) + 1.0, (), (), n)
            pairs[j] = (empty, cov.SectorMask(empty.sigma, np.eye(1) / 2, (0,), n))
        elif fault == "levels":
            cut = cov.PartialShift(shift.sigma, shift.domain[::-1][:d - (d == 1)],
                                   shift.image[::-1][:d - (d == 1)], n)
            pairs[j] = (cut, mask)
        elif fault == "moved":
            other = pairs[data.draw(st.integers(0, len(pairs) - 1))][1]
            pairs[j] = (shift, other)
        elif fault == "dim":
            pairs[j] = (shift, cov.SectorMask(mask.sigma, mask.domain_submatrix, mask.domain,
                                              n + 1))
        else:
            pairs[j] = (shift, cov.SectorMask(np.nan, mask.domain_submatrix, mask.domain, n))
    want = outcome(pair_clusters_by_loop, spec, tuple(pairs))
    got = outcome(cov.SectorDecomposition, spec, tuple(pairs))
    if isinstance(want, tuple):
        assert got == want
    else:
        layout = got._layout
        assert layout.clusters[layout.order].tolist() == want


@st.composite
def boundary_stacks(draw):
    """(stack, sigmas): m exactly Hermitian d x d blocks, real or complex, with
    eigenvalues in [0, scale] except one of one block in [-2, +1] * EPS_PSD;
    one block may be made skew, its residue max |A - A^dag| just below or
    just above EPS_H."""
    m, d = draw(st.integers(1, 16)), draw(st.integers(1, 48))
    is_complex = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gauss = rng.standard_normal((m, d, d))
    if is_complex:
        gauss = gauss + 1j * rng.standard_normal((m, d, d))
    q = np.linalg.qr(gauss)[0]
    vals = rng.uniform(0.0, draw(st.sampled_from([1.0, 1.0, 1e3, 1e5])), (m, d))
    vals[draw(st.integers(0, m - 1)), rng.integers(d)] = rng.uniform(-2.0, 1.0) * mcore.EPS_PSD
    stack = (q * vals[:, None, :]) @ q.conj().swapaxes(1, 2)
    stack = (stack + stack.conj().swapaxes(1, 2)) / 2.0
    residue = draw(st.sampled_from([None, "below", "above"]))
    if residue is not None and (is_complex or d > 1):
        half = 0.5 * mcore.EPS_H * (rng.uniform(0.5, 0.99) if residue == "below"
                                    else rng.uniform(1.01, 2.0))
        i, j, k = draw(st.integers(0, m - 1)), rng.integers(d), rng.integers(d)
        if j == k and not is_complex:
            k = (j + 1) % d
        if j == k:  # A - A^dag = 2i * half on a complex diagonal
            stack[i, j, j] += 1j * half
        else:  # A - A^dag = 2 * half at (j, k)
            stack[i, j, k] += half
            stack[i, k, j] -= half
    sigmas = (np.arange(m) - m // 2).astype(float).tolist()
    return stack, sigmas


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(drawn=boundary_stacks())
def test_mask_check_matches_eigvalsh_at_the_boundary(drawn):
    # Every result, failing sector and message is the eigensolve's own.
    stack, sigmas = drawn
    assert cov._mask_failure(stack, sigmas) == mask_failure_by_eigvalsh(stack, sigmas)


@st.composite
def fourier_inputs(draw):
    """(channel, spectrum, K, rho, times): random_covariant channels on integer
    and sqrt(prime) spectra, and random_cptp channels with 1, n or n^2 Kraus
    operators; n <= 8 levels and m <= 6 times."""
    family = draw(st.sampled_from(["integer", "sqrt_prime", "cptp"]))
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "sqrt_prime":
        spec = cc.Spectrum(np.sqrt(np.array(MANY_PRIMES[:n], dtype=float)))
    else:
        spec = cc.Spectrum(np.arange(float(n)))
    if family == "cptp":
        chan = gen.random_cptp(n, rng, draw(st.sampled_from([1, n, n * n])))
    else:
        chan = gen.random_covariant(spec, rng)
    times = rng.uniform(-10.0, 10.0, size=draw(st.integers(1, 6)))
    return chan, spec, gen.random_psd(n, rng), gen.random_state(n, rng), times


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(case=fourier_inputs())
def test_one_weight_matrix_matches_dense_applications(case):
    # f(t) = phi^H W phi against one dense channel application per t, and the
    # Bochner Gram minimum against m^2 of them, for covariant and other channels.
    chan, spec, K, rho, times = case
    for t in times:
        want = characteristic_by_dense_application(chan, spec, K, rho, t)
        got = cov.characteristic_function(chan, spec, K, rho, t)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    want = bochner_by_dense_applications(chan, spec, K, rho, times)
    assert abs(cov.bochner_check(chan, spec, K, rho, times) - want) <= 1e-12 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# One pass over all sectors: decompose lays every sector out in one buffer,
# reconstruct orders and scatters the eigenvectors of all of them at once.


ONE_PASS_KINDS = ["random_covariant", "shift_mixture", "hadamard", "dropped", "no_sectors",
                  "not_covariant", "not_cp"]


@pytest.mark.parametrize("family", ["integer", "sqrt_prime"])
@pytest.mark.parametrize("kind", ONE_PASS_KINDS)
@settings(derandomize=True, max_examples=8, deadline=None, database=None)
@given(data=st.data())
def test_one_pass_sector_work_equals_per_sector_loops(family, kind, data):
    # Dense channels, sparse ones that leave whole size groups out, sectors the
    # floor drops, the zero channel and the two refusals, at n <= 12.
    spec = data.draw(spectra_to_12_levels(family))
    n = spec.dim
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if kind == "not_cp":
        chan = gen.random_covariant(spec, rng)
        broken = data.draw(st.lists(st.integers(0, len(spec.sector_pairs) - 1),
                                    min_size=1, max_size=3, unique=True))
        got, want = not_cp_messages(chan, spec, broken)
        assert got == want
        return
    if kind == "random_covariant":
        chan = gen.random_covariant(spec, rng, data.draw(st.integers(1, n * n)))
    elif kind == "shift_mixture":
        picked = data.draw(st.lists(st.sampled_from(spec.sigmas.tolist()), min_size=1,
                                    max_size=3, unique=True))
        probs = rng.random(len(picked)) + 0.1
        chan = tim.build_shift_mixture(spec, list(zip(picked, probs / probs.sum()))).channel
    elif kind == "hadamard":
        chan = cc.hadamard_channel(gen.random_unit_diagonal_mask(n, rng))
    elif kind == "dropped":
        # A dephasing channel with operators S_sigma diag(1e-8 d), sigma != 0,
        # whose Choi blocks, about 1e-16, lie below decompose's floor of 1e-13 max |C|.
        assume(n > 1)
        faint = data.draw(st.lists(st.sampled_from(spec.sigmas[spec.sigmas != 0.0].tolist()),
                                   min_size=1, max_size=3, unique=True))
        chan = cc.Channel(cc.hadamard_channel(gen.random_unit_diagonal_mask(n, rng)).kraus + tuple(
            1e-8 * cc.partial_shift(spec, sigma).matrix * rng.random(n) for sigma in faint))
    elif kind == "no_sectors":
        chan = cc.Channel((np.zeros((n, n), dtype=complex),))
    else:
        chan = gen.random_cptp(n, rng)
    try:
        want = decompose_per_sector(chan, spec)
    except NotCovariant as exc:
        with pytest.raises(NotCovariant) as got:
            cov.decompose(chan, spec)
        assert str(got.value) == str(exc)
        return
    assert kind != "not_covariant" or n == 1
    got = cov.decompose(chan, spec)
    assert sha256_of(got) == sha256_of(want)
    assert_reconstructs_as_per_sector(got, want)
    if kind == "dropped":
        touched = np.unique(spec._cluster[chan._support]).size  # sectors holding a pair
        assert len(got.sectors) < touched
    if kind == "no_sectors":
        assert got.sectors == ()


def thin_family(kind: str, n: int, rng: np.random.Generator):
    """A spectrum of n levels and a sector-pure family on it whose sigma = 0 group is thin
    (covariant._thin: at most min(n // 2, n - 6) operators on it).  three_shifts (n >= 7):
    sqrt(p_j) S_sigma_j for sigma = 0 and two other sigmas, random weights p_j.
    isometry_mixed (n >= 9): on sigma = 0, K <= min(n // 2, n - 6) - 2 operators, and on up
    to two other sectors K <= max(1, d - 3), each S_sigma diag(v) with random complex v,
    trace preserving as a family to within about 1e-11 (so that decompose's congruence
    moves the blocks) or not, then mixed by a random (K + 2) x K isometry Q into the K + 2
    operators sum_j Q_ij A_j, rank K; the other sectors take either route.  Their spectra
    have integer or sqrt(prime) gaps.  amplitude_damping (n >= 7): diag(sqrt(1 - gamma_j))
    and sum_j sqrt(gamma_j) |j - 1><j| on n equally spaced levels, trace preserving."""
    if kind == "amplitude_damping":
        gamma = np.r_[0.0, rng.random(n - 1)]
        return cc.Spectrum(np.arange(float(n))), cc.Channel(
            (np.diag(np.sqrt(1.0 - gamma)) + 0j, np.diag(np.sqrt(gamma[1:]), 1) + 0j))
    gaps = (rng.integers(1, 4, n - 1).astype(float) if rng.random() < 0.5
            else np.sqrt(rng.permutation(MANY_PRIMES[:11])[:n - 1]))
    spec = cc.Spectrum(np.r_[0.0, np.cumsum(gaps)])
    others = spec.sigmas[spec.sigmas != 0.0]
    if kind == "three_shifts":
        probs = rng.random(3) + 0.1
        sigmas = [0.0, *rng.choice(others, 2, replace=False).tolist()]
        return spec, tim.build_shift_mixture(spec, list(zip(sigmas, probs / probs.sum()))).channel
    sigmas = [0.0, *rng.choice(others, rng.integers(0, 3), replace=False).tolist()]
    shifts = [cc.partial_shift(spec, sigma) for sigma in sigmas]
    most = [min(n // 2, n - 6) - 2, *(max(1, len(shift.domain) - 3) for shift in shifts[1:])]
    ops = [[shift.matrix * (rng.normal(size=n) + 1j * rng.normal(size=n))
            for _ in range(rng.integers(1, k + 1))] for shift, k in zip(shifts, most)]
    if rng.random() < 0.5:  # sigma = 0 holds every level, so each column sum is positive
        norm = np.sqrt(sum((np.abs(a) ** 2).sum(axis=0) for sector in ops for a in sector))
        norm *= 1.0 + 1e-11 * rng.random(n)
        ops = [[a / norm for a in sector] for sector in ops]
    mixed = []
    for sector in ops:
        k = len(sector)
        q, _ = np.linalg.qr(rng.normal(size=(k + 2, k)) + 1j * rng.normal(size=(k + 2, k)))
        mixed += list(np.tensordot(q, np.stack(sector), axes=1))
    return spec, cc.Channel(tuple(mixed))


@pytest.mark.parametrize("kind", ["three_shifts", "amplitude_damping", "isometry_mixed"])
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_thin_route_reconstructs_as_the_spectral_route(kind, data):
    # A pure family's thin size groups (covariant._thin) take the Gram's eigh: as many
    # Kraus operators as the spectral route, and Choi blocks within THIN_ROUTE_C u
    # ||M_sigma||_F of its.  Rebuilt from its pairs, the same
    # decomposition keeps no factor and reconstructs as the spectral route, bit for bit.
    n = data.draw(st.integers(9 if kind == "isometry_mixed" else 7, 12))
    spec, chan = thin_family(kind, n, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    decomp, want = cov.decompose(chan, spec), decompose_per_sector(chan, spec)
    assert sha256_of(decomp) == sha256_of(want)
    factors, scale = decomp._factors  # the label's, shared by every store: read-only
    assert not any(f.flags.writeable for f in factors if f is not None)
    assert scale is None or not scale.flags.writeable
    assert thin_route_ratio(decomp, want) <= conftest.THIN_ROUTE_C
    rebuilt = cc.SectorDecomposition(spec, decomp.sectors, decomp.projection_defect)
    assert sha256_of(cov.reconstruct(rebuilt)) == sha256_of(reconstruct_per_sector(decomp))


@settings(derandomize=True, max_examples=16, deadline=None, database=None)
@given(dim=st.integers(2, 32), s=st.sampled_from([0.1, 0.3, 0.5, 1.0]), data=st.data())
def test_one_pass_reconstruct_of_built_decompositions_equals_per_sector_loop(dim, s, data):
    # A Gaussian decomposition (real blocks, the +-a of one array), the same
    # with some masks made complex, so that real and complex blocks of one size
    # meet, and the decomposition with no sectors.
    gauss = fock.gaussian_decomposition(fock.FockParams(dim=dim, std_dev=s))
    made_complex = set(data.draw(st.lists(st.integers(0, len(gauss.sectors) - 1), unique=True)))
    mixed = cc.SectorDecomposition(spectrum=gauss.spectrum, sectors=tuple(
        (shift, cc.SectorMask(mask.sigma, mask.domain_submatrix + 0j, mask.domain, dim)
         if i in made_complex else mask) for i, (shift, mask) in enumerate(gauss.sectors)))
    empty = cc.SectorDecomposition(spectrum=gauss.spectrum, sectors=())
    for decomp in (gauss, mixed, empty):
        assert sha256_of(cov.reconstruct(decomp)) == sha256_of(reconstruct_per_sector(decomp))


def assert_same_readers(rebuilt, decomp, data):
    """Every reader of rebuilt gives the bytes of decomp's."""
    n = decomp.spectrum.dim
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rho = gen.random_state(n, rng)
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    t = data.draw(st.floats(-20.0, 20.0), label="t")
    readers = {
        "reconstruct": cov.reconstruct,
        "shift_distribution": lambda d: cov.shift_distribution(d, rho),
        "diagonal_sums": lambda d: d.diagonal_sums(),
        "apply_sectors": lambda d: cov.apply_sectors(d, X),
        "domain_extension_check": lambda d: cov.domain_extension_check(d, rho, t),
        "sigmas": lambda d: d.sigmas(),
        "sectors": lambda d: d.sectors,
        "pairs": lambda d: tuple(d._pairs()),  # made from the store
    }
    for name, read in readers.items():
        assert sha256_of(read(rebuilt)) == sha256_of(read(decomp)), name


def assert_one_store_from_pairs(decomp, data):
    """SectorDecomposition(spectrum, sectors) lays the pairs of decomp out in
    the store decomp's producer built: every reader gives the same bytes."""
    assert_same_readers(cc.SectorDecomposition(decomp.spectrum, decomp.sectors), decomp, data)


def read_back(decomp):
    """decomp written as JSON text and read back."""
    return ser.decomposition_from_json(json.loads(ser.dumps(ser.decomposition_to_json(decomp))))


@pytest.mark.parametrize("family", ["integer", "sqrt_prime"])
@PROPERTY
@given(data=st.data())
def test_decompose_and_its_pairs_give_one_store(family, data):
    spec = data.draw(spectra_to_12_levels(family))
    chan, _ = draw_channel(data, spec, "tp")
    assert_one_store_from_pairs(cov.decompose(chan, spec), data)


@PROPERTY
@given(dim=st.integers(2, 32), s=st.sampled_from([0.1, 0.3, 0.5, 1.0]), data=st.data())
def test_gaussian_decomposition_and_its_pairs_give_one_store(dim, s, data):
    top = data.draw(st.integers(1, dim - 1), label="sigma_max")
    decomp = fock.gaussian_decomposition(fock.FockParams(dim=dim, std_dev=s, sigma_max=top))
    assert_one_store_from_pairs(decomp, data)


@FAMILIES
@PROPERTY
@given(data=st.data())
def test_decompose_outputs_read_back_from_json_bit_for_bit(family, data):
    spec = data.draw(spectra_to_12_levels(family))
    chan, _ = draw_channel(data, spec, "tp")
    decomp = cov.decompose(chan, spec)
    assert_same_readers(read_back(decomp), decomp, data)


@PROPERTY
@given(dim=st.integers(2, 32), s=st.sampled_from([0.1, 0.3, 0.5, 1.0]), data=st.data())
def test_gaussian_decompositions_read_back_from_json_bit_for_bit(dim, s, data):
    # The JSON text holds complex entries: the real blocks read back as the
    # same blocks made complex.
    top = data.draw(st.integers(1, dim - 1), label="sigma_max")
    gauss = fock.gaussian_decomposition(fock.FockParams(dim=dim, std_dev=s, sigma_max=top))
    made_complex = cc.SectorDecomposition(gauss.spectrum, tuple(
        (shift, cc.SectorMask(mask.sigma, mask.domain_submatrix + 0j, mask.domain, dim))
        for shift, mask in gauss.sectors))
    assert_same_readers(read_back(gauss), made_complex, data)


@pytest.mark.parametrize("family", ["integer", "sqrt_prime"])
@PROPERTY
@given(k=st.integers(-60, 60), data=st.data())
def test_energy_scale_keeps_the_sector_map_and_the_masks(family, k, data):
    # The default match_tol is relative: at 2^k E the clusters are E's and the
    # sigmas exactly 2^k times E's, so decompose reads the same blocks.
    spec = data.draw(spectra_to_12_levels(family))
    scaled = cc.Spectrum(2.0**k * spec.energies)
    assert np.array_equal(scaled.sigmas, 2.0**k * spec.sigmas)
    assert sha256_of(scaled.sector_pairs) == sha256_of(spec.sector_pairs)
    chan, _ = draw_channel(data, spec, "tp")
    masks = [[(shift.domain, shift.image, mask.domain_submatrix)
              for shift, mask in cov.decompose(chan, sp).sectors] for sp in (spec, scaled)]
    assert sha256_of(masks[0]) == sha256_of(masks[1])


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(n=st.integers(1, 12), data=st.data())
def test_covariant_builders_equal_their_operators_laid_out_one_by_one(n, data):
    # hadamard_channel and build_shift_mixture lay out their S_sigma diag(v)
    # operators through the one builder that reconstruct uses; each channel is
    # its operators made one at a time, bit for bit.  The shifts may repeat a
    # sigma, miss the spectrum or carry p = 0; the masks may have rank 1 or 2.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    for mask in (gen.random_unit_diagonal_mask(n, rng), np.ones((n, n)),
                 np.cos(theta[:, None] - theta[None, :])):
        want = hadamard_channel_by_diagonals(mask)
        assert sha256_of(cc.hadamard_channel(mask)) == sha256_of(want)
    spec = cc.Spectrum(np.arange(float(n)))
    sigmas = data.draw(st.lists(st.sampled_from(spec.sigmas.tolist() + [n + 0.5, -0.5]),
                                min_size=1, max_size=5))
    weights = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                                          min_size=len(sigmas), max_size=len(sigmas))))
    assume(weights.sum() > 0.0)
    shifts = list(zip(sigmas, (weights / weights.sum()).tolist()))
    assume(abs(sum(p for _, p in shifts) - 1.0) <= mcore.EPS_TR)
    mix = tim.build_shift_mixture(spec, shifts)
    assert sha256_of(mix.channel) == sha256_of(shift_mixture_by_dense_shifts(spec, shifts))
