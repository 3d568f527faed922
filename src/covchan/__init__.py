"""Time-covariant quantum channels: canonical dephasing / energy-shift
decomposition, quantum-capacity lower bounds, timing channels, and the
truncated single-mode Gaussian channel.

The package namespace is lazy: ``import covchan`` loads no submodule and no
numpy.  A public name is resolved on first access (PEP 562 ``__getattr__``)
from the submodule that defines it, so ``covchan.Channel`` loads
``covchan.channels`` and ``covchan.fock`` loads the Fock module.  Nothing is
cached here: each access reads the submodule's current binding.
"""
import sys as _sys

# Each public name and the submodule that defines it; a submodule maps to itself.
_HOME = {
    **{name: name for name in ("capacity", "channels", "covariant", "errors", "fock", "timing")},
    **dict.fromkeys(("Channel", "ChoiMatrix", "CPTPReport", "DensityMatrix", "apply",
                     "apply_matrix", "choi_of", "identity_channel", "is_cptp",
                     "kraus_from_choi", "von_neumann_entropy"), "channels"),
    **dict.fromkeys(("coherent_information", "hadamard_bound", "hadamard_channel",
                     "verify_hqc"), "capacity"),
    **dict.fromkeys(("EnergyShiftDistribution", "PartialShift", "SectorDecomposition",
                     "SectorMask", "Spectrum", "bochner_check", "characteristic_function",
                     "covariance_defect", "decompose", "domain_extension_check",
                     "partial_shift", "reconstruct", "shift_distribution"), "covariant"),
    **dict.fromkeys(("FockParams", "GaussianDecomposition", "MonteCarloResult",
                     "compare_decomposition_to_mc", "displacement_matrix",
                     "displacement_sector", "gaussian_decomposition",
                     "monte_carlo_channel"), "fock"),
    **dict.fromkeys(("ShiftMixture", "TimingChannelReport", "build_shift_mixture", "circulant",
                     "is_reliable_timing", "timing_channel", "v_from_distribution"), "timing"),
}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module, so that `python -X importtime`
    # reports the submodule's import.
    path = f"{__name__}.{_HOME[name]}"
    __import__(path)
    return _sys.modules[path] if _HOME[name] == name else getattr(_sys.modules[path], name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))
