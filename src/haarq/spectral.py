"""Discrete Fourier transform on the midpoint grid and noise envelopes.

The transform is normalized by 1/2**N and evaluated at the integer
frequencies (-2**(N-1), 2**(N-1)].  Because the grid samples midpoints,
a standard FFT needs a half-sample phase correction.  The tests check the
corrected FFT against the defining direct sum.

For a signal quantized by the parity-constrained pyramid, the absolute
spectral error at frequency xi != 0 is bounded by the summed envelope

    sum_{k=1..N} 2**(-2N+2(k-1)) * (1 - cos(2 pi xi / 2**k)) / |sin(pi xi / 2**N)|

which is itself below the linear envelope N * pi**2 * |xi| / 2**(N+2);
the DC error is bounded by 2**(-N-1).
"""

import cmath
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .haar import MAX_EXPONENT, IndexLike, Signal, _readonly, check_index
from .quantizer import QuantizedSignal

__all__ = [
    "SPECTRUM_SLACK",
    "FrequencyGrid",
    "FourierSpectrum",
    "NoiseBoundTable",
    "dft",
    "haar_fourier_coefficient",
    "fourier_error_bound_exact",
    "fourier_error_bound_linear",
    "spectrum_error",
]

# Additive slack for all envelope comparisons (absorbs transcendental rounding).
SPECTRUM_SLACK = 1e-10


@dataclass(frozen=True)
class FrequencyGrid:
    """Integer frequencies (-2**(N-1), 2**(N-1)] of the size-2**N transform."""

    n_exponent: int

    def __post_init__(self):
        n = operator.index(self.n_exponent)
        if not 0 <= n <= MAX_EXPONENT:
            raise ValueError(f"n_exponent must be in [0, {MAX_EXPONENT}], got {n}")
        object.__setattr__(self, "n_exponent", n)

    @property
    def size(self) -> int:
        return 1 << self.n_exponent

    @cached_property
    def frequencies(self) -> np.ndarray:
        if self.n_exponent == 0:
            return _readonly(np.array([0], dtype=np.int64))
        half = self.size // 2
        return _readonly(np.arange(-half + 1, half + 1, dtype=np.int64))

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
class FourierSpectrum:
    """Complex transform values ordered by ascending frequency."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.complex128, copy=True)
        if arr.shape != (self.grid.size,):
            raise ValueError(f"expected {self.grid.size} values, got {arr.shape}")
        object.__setattr__(self, "values", _readonly(arr))

    def value_at(self, xi: int) -> complex:
        return complex(self.values[self.grid.index_of(xi)])


@dataclass(frozen=True, eq=False)
class NoiseBoundTable:
    """Measured spectral errors next to their envelopes, one row per frequency.

    Both bound columns hold 2**(-N-1) in the DC row.  baseline_bound is the
    flat 1/2 guaranteed by per-sample rounding.  A row passes when
    measured <= bound_exact + slack.
    """

    n_exponent: int
    frequencies: np.ndarray
    measured: np.ndarray
    bound_exact: np.ndarray
    bound_linear: np.ndarray
    baseline_bound: np.ndarray
    passes: np.ndarray
    slack: float

    @property
    def all_pass(self) -> bool:
        return bool(np.all(self.passes))


def _dft_rows(values: np.ndarray) -> np.ndarray:
    """Transform every row of a (rows, 2**N) array; columns ascend in frequency."""
    size = values.shape[-1]
    freqs = FrequencyGrid(size.bit_length() - 1).frequencies
    # Midpoint sampling: exp(i pi xi (1 - 1/2**N)) = (-1)**xi * exp(-i pi xi / 2**N).
    sign = 1.0 - 2.0 * (freqs & 1)
    phase = sign * np.exp(-1j * np.pi * freqs / size)
    spectrum = np.fft.fft(values, axis=-1)[:, np.mod(freqs, size)]
    spectrum *= phase
    spectrum /= size
    return spectrum


def dft(f: Signal) -> FourierSpectrum:
    """Transform with the 1/2**N normalization and midpoint-grid phase.

    Evaluated by a phase-corrected radix-2 FFT in O(N * 2**N).  The DC
    value always equals the DC Haar coefficient.
    """
    return FourierSpectrum(FrequencyGrid(f.n_exponent), _dft_rows(f.values[None, :])[0])


def haar_fourier_coefficient(xi: int, index: IndexLike, n_exponent: int) -> complex:
    """Closed-form transform of the sampled Haar function (k, j) at xi.

    Matches dft(haar_basis(index, grid)).value_at(xi).  The DC pairings are
    special: 1 at (0, (0,1)), and 0 whenever exactly one of xi and the
    level is zero.
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


def fourier_error_bound_exact(xi: int, n_exponent: int) -> float:
    """Summed noise envelope at a nonzero frequency.

    The DC error has the separate bound 2**(-N-1); passing xi = 0 here is
    an error.
    """
    n = operator.index(n_exponent)
    if not FrequencyGrid(n).contains(xi):
        raise ValueError(f"frequency {xi} outside the grid for N={n}")
    if xi == 0:
        raise ValueError("the DC bound is 2**(-N-1); this envelope needs xi != 0")
    return float(_exact_envelope(np.array([xi], dtype=np.float64), n)[0])


def fourier_error_bound_linear(xi: int, n_exponent: int) -> float:
    """Linear envelope N * pi**2 * |xi| / 2**(N+2) for xi != 0."""
    n = operator.index(n_exponent)
    if not 0 <= n <= MAX_EXPONENT:
        raise ValueError(f"n_exponent must be in [0, {MAX_EXPONENT}], got {n}")
    if xi == 0:
        raise ValueError("the DC bound is 2**(-N-1); this envelope needs xi != 0")
    return n * math.pi**2 * abs(operator.index(xi)) * 2.0 ** (-n - 2)


def _exact_envelope(xi: np.ndarray, n: int) -> np.ndarray:
    """Summed envelope at the nonzero float frequencies xi, level by level."""
    acc = np.zeros(xi.shape)
    for k in range(1, n + 1):
        angles = 2.0 * np.pi * np.mod(xi * 2.0**-k, 1.0)
        acc += np.exp2(-2.0 * n + 2.0 * (k - 1.0)) * (1.0 - np.cos(angles))
    return acc / np.abs(np.sin(np.pi * xi * 2.0**-n))


@lru_cache(maxsize=32)
def _noise_envelopes(n_exponent: int) -> tuple[np.ndarray, np.ndarray]:
    """(exact, linear) envelope per frequency, DC slot set to 2**(-N-1)."""
    n = n_exponent
    freqs = FrequencyGrid(n).frequencies.astype(np.float64)
    dc_bound = 2.0 ** (-n - 1)
    exact = np.full(freqs.shape[0], dc_bound)
    linear = np.full(freqs.shape[0], dc_bound)
    nz = freqs != 0
    if np.any(nz):
        xi = freqs[nz]
        exact[nz] = _exact_envelope(xi, n)
        linear[nz] = n * np.pi**2 * np.abs(xi) * 2.0 ** (-n - 2)
    return _readonly(exact), _readonly(linear)


def _noise_tables(f: np.ndarray, g: np.ndarray) -> list[NoiseBoundTable]:
    """One NoiseBoundTable per row pair of (rows, 2**N) signal and code arrays."""
    n = f.shape[-1].bit_length() - 1
    frequencies = FrequencyGrid(n).frequencies
    measured = _readonly(np.abs(_dft_rows(f) - _dft_rows(g.astype(np.float64))))
    exact, linear = _noise_envelopes(n)
    baseline = _readonly(np.full(measured.shape[-1], 0.5))
    passes = _readonly(measured <= exact + SPECTRUM_SLACK)
    return [
        NoiseBoundTable(
            n_exponent=n,
            frequencies=frequencies,
            measured=row,
            bound_exact=exact,
            bound_linear=linear,
            baseline_bound=baseline,
            passes=row_passes,
            slack=SPECTRUM_SLACK,
        )
        for row, row_passes in zip(measured, passes)
    ]


def spectrum_error(f: Signal, g: QuantizedSignal) -> NoiseBoundTable:
    """Per-frequency |F(f) - F(g)| next to the envelopes, with pass flags."""
    if f.grid != g.grid:
        raise ValueError("signal and quantized signal live on different grids")
    return _noise_tables(f.values[None, :], g.values[None, :])[0]
