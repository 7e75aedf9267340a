"""Deterministic noise-shaping quantizer on dyadic grids.

Quantizes real signals of length 2**N to the integer lattice by rounding a
totals pyramid level by level under a parity constraint, which keeps every
orthonormal-step-basis coefficient error below 2**(-N+(k-1)/2) (2**(-N-1)
at DC) and therefore keeps the low-frequency spectral noise floor at
O(N * 2**-N * |xi|).  Verification decides the DC and level bounds
exactly on the residual f - g: in float64 where a rigorous error radius
settles the comparison, and in exact sums otherwise.  The uniform and
spectral bounds follow from these by the triangle inequality, so their
errors are reported as measurements.  Also file ingestion,
deterministic reporting and a CLI.
"""

# Each module's __all__ is its part of the package's API.
from . import haar, quantizer, report_io, spectral
from .haar import *
from .quantizer import *
from .report_io import *
from .spectral import *

__all__ = [*haar.__all__, *quantizer.__all__, *report_io.__all__, *spectral.__all__]

__version__ = "0.1.0"
