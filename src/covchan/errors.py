"""Exception hierarchy shared by all covchan modules."""


class CovchanError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CovchanError):
    pass


class NotDensityMatrix(CovchanError):
    pass


class NotCP(CovchanError):
    """Choi matrix has an eigenvalue below the allowed negative tolerance."""


class NotCovariant(CovchanError):
    """Channel has cross-sector Choi mass above the requested tolerance."""

    def __init__(self, defect: float, tol: float):
        self.defect = defect
        self.tol = tol
        super().__init__(f"covariance defect {defect:.3e} exceeds tolerance {tol:.3e}")


class DegenerateSpectrum(CovchanError):
    pass


class MaskNotPSD(CovchanError):
    pass


class DiagonalNotUnit(CovchanError):
    pass


class UnknownSector(CovchanError):
    pass


class NotReliableTiming(CovchanError):
    def __init__(self, defect: float, tol: float):
        self.defect = defect
        self.tol = tol
        super().__init__(f"orthogonality defect {defect:.3e} exceeds tolerance {tol:.3e}")


class NotPeriodic(CovchanError):
    pass


class SectorOutOfRange(CovchanError):
    pass


class ParseError(CovchanError):
    pass


class InvalidParameter(CovchanError, ValueError):
    """A parameter lies outside its documented range."""
