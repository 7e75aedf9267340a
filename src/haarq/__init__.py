"""Deterministic noise-shaping quantizer on dyadic grids.

Quantizes real signals of length 2**N to the integer lattice by rounding a
totals pyramid level by level under a parity constraint, which keeps every
orthonormal-step-basis coefficient error below 2**(-N+(k-1)/2) (2**(-N-1)
at DC) and therefore keeps the low-frequency spectral noise floor at
O(N * 2**-N * |xi|).  Includes exact verification of all bounds, file
ingestion and deterministic reporting, and a CLI.
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
    BOUND_SLACK,
    HaarErrorReport,
    QuantizedSignal,
    QuantizerConfig,
    check_range,
    choose_parity_constrained,
    quantize_haar_optimal,
    quantize_simple,
    verify_haar_bounds,
)
from .report_io import (
    BlockedInput,
    BlockResult,
    InputFormatError,
    InputSpec,
    RunReport,
    dumps_canonical,
    format_float,
    read_signal,
    write_report,
    write_spectrum_csv,
    write_values,
)
from .spectral import (
    SPECTRUM_SLACK,
    FourierSpectrum,
    FrequencyGrid,
    NoiseBoundTable,
    dft,
    fourier_error_bound_exact,
    fourier_error_bound_linear,
    haar_fourier_coefficient,
    spectrum_error,
)

__all__ = [
    "MAX_EXPONENT",
    "BOUND_SLACK",
    "SPECTRUM_SLACK",
    "HaarIndex",
    "TimeGrid",
    "Signal",
    "HaarCoefficients",
    "QuantizerConfig",
    "QuantizedSignal",
    "HaarErrorReport",
    "FrequencyGrid",
    "FourierSpectrum",
    "NoiseBoundTable",
    "InputSpec",
    "BlockedInput",
    "BlockResult",
    "RunReport",
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
    "fourier_error_bound_exact",
    "fourier_error_bound_linear",
    "spectrum_error",
    "read_signal",
    "write_values",
    "write_report",
    "write_spectrum_csv",
    "format_float",
    "dumps_canonical",
]

__version__ = "0.1.0"
