"""Exception types shared across the package."""

__all__ = [
    "NonFiniteIntegrand",
    "InvalidScale",
    "MisalignedGrid",
    "GridMismatch",
    "RangeError",
]


class NonFiniteIntegrand(ValueError):
    """A box sum, its error bound or its mass is not a finite float."""


class InvalidScale(ValueError):
    """A box length or squeezing parameter is outside its valid range."""


class MisalignedGrid(ValueError):
    """Box or block boundaries do not land on grid cell boundaries."""


class GridMismatch(ValueError):
    """Two operators built on different grids were combined."""


class RangeError(ValueError):
    """A correlator magnitude exceeds 1 beyond numerical tolerance."""
