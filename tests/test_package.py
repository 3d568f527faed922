"""The package as a whole: its public names and the demos that use them."""
import importlib
import json
import subprocess
import sys

import numpy as np
import pytest

import covchan
from covchan import fock

from conftest import ROOT, env_with_src

# Adding a name here is a deliberate change to the public surface.
PUBLIC_NAMES = [
    "CPTPReport", "Channel", "ChoiMatrix", "DensityMatrix", "EnergyShiftDistribution",
    "FockParams", "GaussianDecomposition", "MonteCarloResult", "PartialShift",
    "SectorDecomposition", "SectorMask", "ShiftMixture", "Spectrum", "TimingChannelReport",
    "apply", "apply_matrix", "bochner_check", "build_shift_mixture", "capacity", "channels",
    "characteristic_function", "choi_of", "circulant", "coherent_information",
    "compare_decomposition_to_mc", "covariance_defect", "covariant", "decompose",
    "displacement_matrix", "displacement_sector", "domain_extension_check", "errors", "fock",
    "gaussian_decomposition", "hadamard_bound", "hadamard_channel", "identity_channel",
    "is_cptp", "is_reliable_timing", "kraus_from_choi", "monte_carlo_channel",
    "partial_shift", "reconstruct", "shift_distribution", "timing", "timing_channel",
    "v_from_distribution", "verify_hqc", "von_neumann_entropy",
]

# Second routes and test-only helpers; the test oracles live in conftest.
REMOVED = [
    ("channels", "bipartite_apply"),
    ("covariant", "evolve_matrix"),
    ("covariant", "sector_channel"),
    ("fock", "gaussian_mask_matrix"),
    ("fock", "laguerre"),
    ("fock", "_block_at_nodes"),
    ("channels", "_certified_psd"),
    ("covariant", "_HERMITISE_BYTES"),
    ("covariant", "_group_sectors"),
    ("covariant", "_sectors"),
    ("covariant", "_diagonal_sums"),
    ("covariant", "sector_kraus"),
]


def test_public_surface_is_pinned():
    assert sorted(covchan.__all__) == PUBLIC_NAMES


# Run in a fresh interpreter, so that no submodule is loaded beforehand: the
# names dir() lists before any is resolved, every name in __all__ by getattr
# and by a star import, and the error raised for a name the package lacks.
NAMESPACE_PROBE = """\
import json
import covchan
listed = dir(covchan)
resolved = {name: getattr(covchan, name) for name in covchan.__all__}
star = {}
exec("from covchan import *", star)
try:
    covchan.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({
    "all": covchan.__all__,
    "unlisted": sorted(set(covchan.__all__) - set(listed)),
    "unresolved": sorted(name for name, value in resolved.items() if value is None),
    "star_differs": sorted(name for name, value in resolved.items() if star.get(name) is not value),
    "star_extra": sorted(set(star) - set(covchan.__all__) - {"__builtins__"}),
    "error_base": covchan.errors.CovchanError.__qualname__,
    "missing": missing,
}))
"""


def test_lazy_namespace_resolves_every_public_name():
    proc = subprocess.run([sys.executable, "-c", NAMESPACE_PROBE], capture_output=True,
                          text=True, env=env_with_src(), check=True, timeout=120)
    probe = json.loads(proc.stdout)
    assert sorted(probe.pop("all")) == PUBLIC_NAMES
    assert probe == {"unlisted": [], "unresolved": [], "star_differs": [], "star_extra": [],
                     "error_base": "CovchanError",
                     "missing": "module 'covchan' has no attribute 'no_such_name'"}


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_names_stay_gone(module, name):
    assert not hasattr(importlib.import_module(f"covchan.{module}"), name)


@pytest.mark.parametrize("call", [
    lambda: covchan.Channel((np.full((2, 2), np.nan),)),
    lambda: covchan.displacement_matrix(0.5, 1.0, 4),
    lambda: covchan.displacement_matrix(1.0, -0.1, 4),
    lambda: covchan.displacement_sector(1, np.nan, 4),
    lambda: covchan.Spectrum(np.array([0, 1 + 1j, 2])),
    lambda: covchan.Spectrum(["a"]),
    lambda: covchan.Spectrum([0.0, 1.0], match_tol="x"),
    lambda: covchan.Spectrum([0.0, 1.0], match_tol=1 + 1j),
], ids=["non-finite-matrix", "z-off-the-circle", "negative-r", "non-finite-r",
        "complex-energies", "text-energies", "text-match-tol", "complex-match-tol"])
def test_invalid_arguments_raise_the_package_error(call):
    # These raised a bare ValueError or TypeError, outside the CovchanError
    # hierarchy; complex energies were read as their real parts, with only a
    # ComplexWarning (an error under this suite's warning filters).
    with pytest.raises(covchan.errors.CovchanError):
        call()


def test_gaussian_decomposition_is_a_sector_decomposition():
    decomp = fock.gaussian_decomposition(fock.FockParams(dim=4, std_dev=0.5))
    assert isinstance(decomp, covchan.SectorDecomposition)
    assert not hasattr(decomp, "to_sector_decomposition")


def array_holders():
    """One instance of every public dataclass that holds an array, built afresh."""
    spec = covchan.Spectrum(np.arange(3.0))
    mix = covchan.build_shift_mixture(spec, [(0.0, 0.5), (1.0, 0.5)])
    sampled = covchan.MonteCarloResult(mean=np.eye(2), standard_error=np.zeros((2, 2)), samples=1)
    return [
        covchan.DensityMatrix(np.eye(2) / 2.0), mix.channel, covchan.choi_of(mix.channel),
        spec, covchan.SectorMask(sigma=0.0, domain_submatrix=np.eye(2), domain=(0, 1), dim=3),
        covchan.decompose(mix.channel, spec), sampled, mix,
        covchan.gaussian_decomposition(covchan.FockParams(dim=4, std_dev=0.5)),
        fock.ComparisonReport(max_entry_deviation=0.0, max_allowed=1.0, worst_ratio=0.0,
                              ok=True, sampled=sampled),
        covchan.timing_channel(mix.channel, spec, np.array([1.0, 0.0, 0.0]), 2.0 * np.pi, 1),
    ]


def test_array_holders_compare_by_identity():
    # The generated __eq__ compared the arrays with ==, which raised ValueError,
    # and hash() raised TypeError.
    for one, other in zip(array_holders(), array_holders()):
        assert one == one and one != other
        assert len({one, other}) == 2


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env_with_src(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
