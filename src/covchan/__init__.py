"""Time-covariant quantum channels: canonical dephasing / energy-shift
decomposition, quantum-capacity lower bounds, timing channels, and the
truncated single-mode Gaussian channel."""

from .channels import (
    Channel,
    ChoiMatrix,
    CPTPReport,
    DensityMatrix,
    apply,
    apply_matrix,
    bipartite_apply,
    choi_of,
    identity_channel,
    is_cptp,
    kraus_from_choi,
    von_neumann_entropy,
)
from .capacity import (
    coherent_information,
    hadamard_bound,
    hadamard_channel,
    verify_hqc,
)
from .covariant import (
    EnergyShiftDistribution,
    PartialShift,
    SectorDecomposition,
    SectorMask,
    Spectrum,
    bochner_check,
    characteristic_function,
    covariance_defect,
    decompose,
    domain_extension_check,
    partial_shift,
    reconstruct,
    sector_channel,
    shift_distribution,
)
from .fock import (
    FockParams,
    GaussianDecomposition,
    MonteCarloResult,
    compare_decomposition_to_mc,
    displacement_matrix,
    displacement_sector,
    gaussian_decomposition,
    laguerre,
    monte_carlo_channel,
)
from .timing import (
    ShiftMixture,
    TimingChannelReport,
    build_shift_mixture,
    circulant,
    is_reliable_timing,
    timing_channel,
    v_from_distribution,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
