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

from .haar import (
    MAX_EXPONENT,
    HaarCoefficients,
    HaarIndex,
    Signal,
    TimeGrid,
    check_index,
    haar_analyze,
    haar_basis,
    haar_synthesize,
    inner_product,
    make_grid,
    totals_pyramid,
)
from .quantizer import (
    HaarErrorReport,
    QuantizedSignal,
    check_range,
    choose_parity_constrained,
    quantize_haar_optimal,
    quantize_simple,
    verify_haar_bounds,
)
from .report_io import (
    InputFormatError,
    InputSpec,
    dumps_canonical,
    format_float,
    read_signal,
    write_spectrum_csv,
    write_values,
)
from .spectral import (
    NoiseBoundTable,
    dft,
    haar_fourier_coefficient,
    spectrum_error,
)

__all__ = [
    "MAX_EXPONENT",
    "HaarIndex",
    "TimeGrid",
    "Signal",
    "HaarCoefficients",
    "QuantizedSignal",
    "HaarErrorReport",
    "NoiseBoundTable",
    "InputSpec",
    "InputFormatError",
    "make_grid",
    "check_index",
    "inner_product",
    "haar_basis",
    "totals_pyramid",
    "haar_analyze",
    "haar_synthesize",
    "choose_parity_constrained",
    "quantize_haar_optimal",
    "quantize_simple",
    "verify_haar_bounds",
    "check_range",
    "dft",
    "haar_fourier_coefficient",
    "spectrum_error",
    "read_signal",
    "write_values",
    "write_spectrum_csv",
    "format_float",
    "dumps_canonical",
]

__version__ = "0.1.0"
