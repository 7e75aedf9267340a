"""Discrete Fourier transform on the midpoint grid and noise envelopes.

The transform is normalized by 1/2**N and evaluated at the integer
frequencies (-2**(N-1), 2**(N-1)].  Because the grid samples midpoints,
a standard FFT needs a half-sample phase correction.  The tests check the
corrected FFT against the defining direct sum.

Signals and residuals are real, so F(-xi) = conj(F(xi)), and both noise
envelopes are even in xi.  A real-input FFT computes xi = 0..2**(N-1),
and noise tables are computed and stored on that half alone; the full
grid is its mirror, made only when it is asked for, so every table is
bitwise even.

For a signal quantized by the parity-constrained pyramid, the absolute
spectral error at frequency xi != 0 is bounded by the summed envelope

    sum_{k=1..N} 2**(-2N+2(k-1)) * (1 - cos(2 pi xi / 2**k)) / |sin(pi xi / 2**N)|

which is itself below the linear envelope N * pi**2 * |xi| / 2**(N+2);
the DC error is bounded by 2**(-N-1).
"""

import cmath
import math
import operator
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .haar import MAX_EXPONENT, IndexLike, Signal, _readonly, check_index
from .quantizer import QuantizedSignal, _check_pair_budget, _residual

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
        n = operator.index(self.n_exponent)
        if not 0 <= n <= MAX_EXPONENT:
            raise ValueError(f"n_exponent must be in [0, {MAX_EXPONENT}], got {n}")
        object.__setattr__(self, "n_exponent", n)

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


def _mirror(nonneg: np.ndarray) -> np.ndarray:
    """Ascending full grid from the values at xi = 0..2**(N-1): F(-xi) = conj F(xi).

    Real values are mirrored unchanged, so an even column stays bitwise even.
    """
    negative = nonneg[..., -2:0:-1]
    if np.iscomplexobj(negative):
        negative = np.conj(negative)
    return np.concatenate([negative, nonneg], axis=-1)


@dataclass(frozen=True, eq=False)
class NoiseBoundTable:
    """Measured spectral errors next to their envelopes, one row per frequency.

    Every column is even in xi, so the table stores only the rows
    xi = 0..2**(N-1): the *_half fields.  The full-grid columns
    (frequencies, measured, bound_exact, bound_linear and passes,
    ascending in xi) are mirrored from them on each access, and are
    bitwise even by construction.  Both bound columns hold 2**(-N-1) in
    the DC row.  baseline_bound is the flat 1/2 guaranteed by per-sample
    rounding, the same at every frequency, so it is not stored: it reads
    as a full-grid array of 0.5.  A row passes when
    measured <= bound_exact + slack.
    """

    n_exponent: int
    measured_half: np.ndarray
    bound_exact_half: np.ndarray
    bound_linear_half: np.ndarray
    passes_half: np.ndarray
    slack: float

    def __post_init__(self):
        shape = ((1 << FrequencyGrid(self.n_exponent).n_exponent) // 2 + 1,)
        for f in fields(self):
            if f.name.endswith("_half") and np.shape(getattr(self, f.name)) != shape:
                raise ValueError(f"{f.name} must hold the {shape[0]} rows xi >= 0")

    frequencies = property(lambda self: _frequencies(self.n_exponent))
    measured = property(lambda self: _readonly(_mirror(self.measured_half)))
    bound_exact = property(lambda self: _readonly(_mirror(self.bound_exact_half)))
    bound_linear = property(lambda self: _readonly(_mirror(self.bound_linear_half)))
    baseline_bound = property(
        lambda self: _readonly(np.full(self.frequencies.shape, _BASELINE_BOUND))
    )
    passes = property(lambda self: _readonly(_mirror(self.passes_half)))

    @property
    def all_pass(self) -> bool:
        return bool(np.all(self.passes_half))


def _half_spectrum(values: np.ndarray) -> np.ndarray:
    """Transform every row of a real (rows, 2**N) array at xi = 0..2**(N-1)."""
    size = values.shape[-1]
    # Midpoint sampling: exp(i pi xi (1 - 1/2**N)) = (-1)**xi * exp(-i pi xi / 2**N),
    # built in one array.
    phase = np.arange(size // 2 + 1, dtype=np.complex128)
    phase *= -1j * np.pi
    phase /= size
    np.exp(phase, out=phase)
    phase[1::2] *= -1.0
    spectrum = np.fft.rfft(values, axis=-1)
    spectrum *= phase
    spectrum /= size
    return spectrum


def _dft_rows(values: np.ndarray) -> np.ndarray:
    """Transform every row of a real (rows, 2**N) array; columns ascend in frequency.

    The negative half is the conjugate of the mirrored positive half.
    """
    return _mirror(_half_spectrum(values))


def dft(f: Signal) -> FourierSpectrum:
    """Transform with the 1/2**N normalization and midpoint-grid phase.

    Evaluated by a phase-corrected real-input FFT in O(N * 2**N); the
    negative frequencies are conjugates, so value_at(-xi) equals
    value_at(xi).conjugate() exactly.  The DC value always equals the DC
    Haar coefficient.
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


def _nonzero_frequency(xi: int, n_exponent: int) -> tuple[np.ndarray, int]:
    """xi as a one-element float array, once it is a nonzero grid frequency."""
    n = operator.index(n_exponent)
    xi = operator.index(xi)
    if not FrequencyGrid(n).contains(xi):
        raise ValueError(f"frequency {xi} outside the grid for N={n}")
    if xi == 0:
        raise ValueError("the DC bound is 2**(-N-1); this envelope needs xi != 0")
    # |xi|: the table computes the even envelopes on xi > 0 and mirrors them.
    return np.array([abs(xi)], dtype=np.float64), n


def fourier_error_bound_exact(xi: int, n_exponent: int) -> float:
    """Summed noise envelope at a nonzero frequency.

    The DC error has the separate bound 2**(-N-1); passing xi = 0 here is
    an error.
    """
    return float(_exact_envelope(*_nonzero_frequency(xi, n_exponent))[0])


def fourier_error_bound_linear(xi: int, n_exponent: int) -> float:
    """Linear envelope N * pi**2 * |xi| / 2**(N+2) at a nonzero frequency."""
    return float(_linear_envelope(*_nonzero_frequency(xi, n_exponent))[0])


def _envelope_term(xi: np.ndarray, k: int, n: int) -> np.ndarray:
    """Level k's term of the summed envelope's numerator at the float
    frequencies xi."""
    angles = 2.0 * np.pi * np.mod(xi * 2.0**-k, 1.0)
    return np.exp2(-2.0 * n + 2.0 * (k - 1.0)) * (1.0 - np.cos(angles))


def _exact_envelope(xi: np.ndarray, n: int) -> np.ndarray:
    """Summed envelope at the nonzero integral float frequencies xi.

    Level k's term depends on xi only through xi * 2**-k mod 1, which is
    exact, so it equals the term at xi mod 2**k.  When xi has more entries
    than that, the term is looked up in a table of its 2**k values, with
    the same bits as evaluating it at each xi.
    """
    acc = np.zeros(xi.shape)
    residues = xi.astype(np.int64)
    for k in range(1, n + 1):
        if xi.size > 1 << k:
            table = _envelope_term(np.arange(1 << k, dtype=np.float64), k, n)
            acc += table[residues & ((1 << k) - 1)]
        else:
            acc += _envelope_term(xi, k, n)
    return acc / np.abs(np.sin(np.pi * xi * 2.0**-n))


def _linear_envelope(xi: np.ndarray, n: int) -> np.ndarray:
    """Linear envelope at the nonzero float frequencies xi."""
    return n * np.pi**2 * np.abs(xi) * 2.0 ** (-n - 2)


@lru_cache(maxsize=32)
def _noise_envelopes(n_exponent: int) -> tuple[np.ndarray, np.ndarray]:
    """(exact, linear) envelope at xi = 0..2**(N-1), DC slot set to 2**(-N-1)."""
    n = n_exponent
    positive = np.arange(1, (1 << n) // 2 + 1, dtype=np.float64)
    dc_bound = np.array([2.0 ** (-n - 1)])
    exact = np.concatenate([dc_bound, _exact_envelope(positive, n)])
    linear = np.concatenate([dc_bound, _linear_envelope(positive, n)])
    return _readonly(exact), _readonly(linear)


def _residual_tables(r: np.ndarray) -> list[NoiseBoundTable]:
    """One NoiseBoundTable per row of a (rows, 2**N) residual f - g."""
    n = r.shape[-1].bit_length() - 1
    measured = _readonly(np.abs(_half_spectrum(r)))
    exact, linear = _noise_envelopes(n)
    passes = _readonly(measured <= exact + SPECTRUM_SLACK)
    return [
        NoiseBoundTable(
            n_exponent=n,
            measured_half=row,
            bound_exact_half=exact,
            bound_linear_half=linear,
            passes_half=row_passes,
            slack=SPECTRUM_SLACK,
        )
        for row, row_passes in zip(measured, passes)
    ]


def _noise_tables(f: np.ndarray, g: np.ndarray) -> list[NoiseBoundTable]:
    """One NoiseBoundTable per row pair of (rows, 2**N) signal and code arrays."""
    return _residual_tables(_residual(f, g))


def spectrum_error(f: Signal, g: QuantizedSignal) -> NoiseBoundTable:
    """Per-frequency |F(f - g)| next to the envelopes, with pass flags.

    Raises OverflowError when either signal's dyadic totals exceed 2**60.
    """
    if f.grid != g.grid:
        raise ValueError("signal and quantized signal live on different grids")
    _check_pair_budget(f.values[None, :], g.values[None, :])
    return _noise_tables(f.values[None, :], g.values[None, :])[0]
