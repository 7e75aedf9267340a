"""Discrete Fourier transform on the midpoint grid and noise envelopes.

The transform is normalized by 1/2**N and evaluated at the integer
frequencies xi = 0..2**(N-1), NumPy's rfft convention.  Because the grid
samples midpoints, a standard FFT needs a half-sample phase correction.
The tests check the corrected FFT against the defining direct sum.

Signals and residuals are real, so F(-xi) = conj(F(xi)), and both noise
envelopes are even in xi: every spectrum and noise table here is its
xi >= 0 half.  The spectrum CSV writer is the one place that writes out
the rows -xi.

For a signal quantized by the parity-constrained pyramid, the absolute
spectral error at frequency xi != 0 is bounded by the summed envelope

    sum_{k=1..N} 2**(-2N+2(k-1)) * (1 - cos(2 pi xi / 2**k)) / |sin(pi xi / 2**N)|

which is itself below the linear envelope N * pi**2 * |xi| / 2**(N+2);
the DC error is bounded by 2**(-N-1).  The summed envelope is the sum,
over every Haar function h of levels k >= 1, of h's coefficient bound
times |F h(xi)|, so it holds whenever the DC and level bounds do: the
tables here are measurements, and the verdict is the Haar bounds'.
"""

import cmath
import math
import operator
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .haar import IndexLike, Signal, _check_exponent, _readonly, check_index
from .quantizer import QuantizedSignal, _check_pair_budget, _haar_bounds, _residual

__all__ = [
    "FrequencyGrid",
    "NoiseBoundTable",
    "dft",
    "haar_fourier_coefficient",
    "spectrum_error",
]

# The flat spectral bound of per-sample rounding, whose error is at most
# 1/2 at every sample and so at every frequency.
_BASELINE_BOUND = 0.5


@lru_cache(maxsize=32)
def _frequencies(n: int) -> np.ndarray:
    """The ascending frequencies of size 2**n, one shared read-only array."""
    if n == 0:
        return _readonly(np.array([0], dtype=np.int64))
    half = 1 << (n - 1)
    return _readonly(np.arange(-half + 1, half + 1, dtype=np.int64))


@dataclass(frozen=True)
class FrequencyGrid:
    """Integer frequencies (-2**(N-1), 2**(N-1)] of the size-2**N transform."""

    n_exponent: int

    def __post_init__(self):
        object.__setattr__(self, "n_exponent", _check_exponent(self.n_exponent))

    @property
    def size(self) -> int:
        return 1 << self.n_exponent

    @property
    def frequencies(self) -> np.ndarray:
        return _frequencies(self.n_exponent)

    def contains(self, xi: int) -> bool:
        if self.n_exponent == 0:
            return xi == 0
        half = self.size // 2
        return -half < xi <= half

    def index_of(self, xi: int) -> int:
        if not self.contains(xi):
            raise ValueError(f"frequency {xi} outside the grid for N={self.n_exponent}")
        return int(xi - self.frequencies[0])


@dataclass(frozen=True, eq=False)
class NoiseBoundTable:
    """Measured spectral errors next to their envelopes at xi = 0..2**(N-1).

    Every column is even in xi, so the table holds only the rows xi >= 0,
    the *_half fields; the row -xi is the row xi.  Both bound columns hold
    2**(-N-1) in the DC row.  The flat 1/2 guaranteed by per-sample
    rounding is the same at every frequency, so it is not stored.  The
    table carries no verdict: measured stays within bound_exact, up to its
    float rounding, whenever the pair's DC and level bounds hold.
    """

    n_exponent: int
    measured_half: np.ndarray
    bound_exact_half: np.ndarray
    bound_linear_half: np.ndarray

    def __post_init__(self):
        shape = ((1 << _check_exponent(self.n_exponent)) // 2 + 1,)
        for f in fields(self):
            if f.name.endswith("_half") and np.shape(getattr(self, f.name)) != shape:
                raise ValueError(f"{f.name} must hold the {shape[0]} rows xi >= 0")


def _half_spectrum(values: np.ndarray) -> np.ndarray:
    """Transform every row of a real (rows, 2**N) array at xi = 0..2**(N-1)."""
    size = values.shape[-1]
    spectrum = np.fft.rfft(values, axis=-1)
    # Midpoint sampling: exp(i pi xi (1 - 1/2**N)) = (-1)**xi * exp(-i pi xi / 2**N),
    # built in one array once the transform's own buffers are freed.
    phase = np.arange(size // 2 + 1, dtype=np.complex128)
    phase *= -1j * np.pi
    phase /= size
    np.exp(phase, out=phase)
    phase[1::2] *= -1.0
    spectrum *= phase
    spectrum /= size
    return spectrum


def dft(f: Signal) -> np.ndarray:
    """Transform with the 1/2**N normalization and midpoint-grid phase.

    A read-only complex array of the values at xi = 0..2**(N-1), by a
    phase-corrected real-input FFT in O(N * 2**N); the value at -xi is
    the conjugate of the value at xi.  The DC value always equals the DC
    Haar coefficient.
    """
    return _readonly(_half_spectrum(f.values[None, :])[0])


def haar_fourier_coefficient(xi: int, index: IndexLike, n_exponent: int) -> complex:
    """Closed-form transform of the sampled Haar function (k, j) at xi.

    Matches dft(haar_basis(index, grid))[xi] for xi >= 0, and its
    conjugate at -xi.  The DC pairings are special: 1 at (0, (0,1)), and
    0 whenever exactly one of xi and the level is zero.
    """
    n = operator.index(n_exponent)
    fgrid = FrequencyGrid(n)
    xi = operator.index(xi)
    if not fgrid.contains(xi):
        raise ValueError(f"frequency {xi} outside the grid for N={n}")
    k, j = check_index(index, n)
    if xi == 0:
        return complex(1.0) if k == 0 else complex(0.0)
    if k == 0:
        return complex(0.0)
    center = -0.5 + (2.0 * j - 1.0) * 2.0**-k
    amplitude = 2.0 ** (0.5 * (k - 1) - n)
    # Dyadic arguments reduced mod 1 exactly, keeping large-N phases accurate.
    numerator = 1.0 - math.cos(2.0 * math.pi * math.fmod(xi * 2.0**-k, 1.0))
    denominator = math.sin(math.pi * xi * 2.0**-n)
    phase = cmath.exp(-2j * math.pi * math.fmod(center * xi, 1.0))
    return amplitude * (numerator / denominator) * phase * -1j


@lru_cache(maxsize=32)
def _noise_envelopes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(exact, linear) envelope at xi = 0..2**(N-1), the DC slot holding
    the DC bound.

    Level k's term depends on xi only through xi * 2**-k mod 1, which is
    exact, so the sum of levels 1..k at xi is the sum of levels 1..k-1 at
    xi mod 2**(k-1) plus level k's term.  Each level repeats the sums
    before it and adds its term at xi < 2**k, where xi * 2**-k is its own
    residue mod 1: the same additions, in the same order and with the same
    bits, as evaluating every level at every xi.
    """
    xi = np.arange((1 << n) // 2 + 1, dtype=np.float64)
    exact = np.zeros(1)
    for k in range(1, n + 1):
        term = 1.0 - np.cos(2.0 * np.pi * (xi[: 1 << k] * 2.0**-k))
        exact = np.resize(exact, term.size) + np.exp2(-2.0 * n + 2.0 * (k - 1.0)) * term
    exact[1:] /= np.abs(np.sin(np.pi * xi[1:] * 2.0**-n))
    linear = n * np.pi**2 * xi * 2.0 ** (-n - 2)
    exact[0] = linear[0] = _haar_bounds(n)[0]
    return _readonly(exact), _readonly(linear)


def _residual_tables(r: np.ndarray) -> list[NoiseBoundTable]:
    """One NoiseBoundTable per row of a (rows, 2**N) residual f - g."""
    n = r.shape[-1].bit_length() - 1
    measured = _readonly(np.abs(_half_spectrum(r)))
    exact, linear = _noise_envelopes(n)
    return [NoiseBoundTable(n, row, exact, linear) for row in measured]


def spectrum_error(f: Signal, g: QuantizedSignal) -> NoiseBoundTable:
    """Per-frequency |F(f - g)| at xi = 0..2**(N-1) next to the envelopes,
    which hold whenever verify_haar_bounds(f, g) passes.

    Raises OverflowError when either signal's dyadic totals exceed 2**60.
    """
    if f.grid != g.grid:
        raise ValueError("signal and quantized signal live on different grids")
    _check_pair_budget(f.values[None, :], g.values[None, :])
    return _residual_tables(_residual(f.values[None, :], g.values[None, :]))[0]
