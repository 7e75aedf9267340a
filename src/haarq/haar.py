"""Dyadic midpoint grid, Haar step basis, and pairwise totals pyramids.

Signals live on the 2**N midpoints of [-1/2, 1/2].  Everything here runs
through the totals pyramid, the tuple of level arrays holding the sums of
the signal over the dyadic interval tree: each transform coefficient is a
scaled difference of two adjacent totals, which gives O(2**N) analysis
and synthesis and keeps all summation pairwise.  Values are immutable
after construction and safe to share across threads.
"""

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "MAX_EXPONENT",
    "HaarIndex",
    "TimeGrid",
    "Signal",
    "HaarCoefficients",
    "make_grid",
    "check_index",
    "inner_product",
    "haar_basis",
    "totals_pyramid",
    "haar_analyze",
    "haar_synthesize",
]

MAX_EXPONENT = 24


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class HaarIndex(NamedTuple):
    """Level/position pair (k, j); (0, 1) is the constant (DC) function."""

    level: int
    position: int


IndexLike = HaarIndex | tuple[int, int]


def check_index(index: IndexLike, n_exponent: int) -> HaarIndex:
    """Validate (k, j) against the index set for a size-2**n_exponent grid."""
    k, j = index
    k = operator.index(k)
    j = operator.index(j)
    if (k, j) == (0, 1):
        return HaarIndex(0, 1)
    if 1 <= k <= n_exponent and 1 <= j <= 1 << (k - 1):
        return HaarIndex(k, j)
    raise ValueError(f"invalid Haar index {(k, j)} for n_exponent={n_exponent}")


@dataclass(frozen=True)
class TimeGrid:
    """2**n_exponent equispaced midpoint samples of [-1/2, 1/2]."""

    n_exponent: int

    def __post_init__(self):
        n = operator.index(self.n_exponent)
        if not 0 <= n <= MAX_EXPONENT:
            raise ValueError(
                f"n_exponent must be in [0, {MAX_EXPONENT}], got {n}"
            )
        object.__setattr__(self, "n_exponent", n)

    @property
    def size(self) -> int:
        return 1 << self.n_exponent

    @cached_property
    def samples(self) -> np.ndarray:
        """Sample times -1/2 + (2n - 1)/2**(N+1), n = 1..2**N (exact dyadics)."""
        n = np.arange(1, self.size + 1, dtype=np.float64)
        return _readonly(-0.5 + (2.0 * n - 1.0) / (2.0 * self.size))


def make_grid(n_exponent: int) -> TimeGrid:
    """Build the dyadic time grid of size 2**n_exponent (0 <= N <= 24)."""
    return TimeGrid(n_exponent)


@dataclass(frozen=True, eq=False)
class Signal:
    """Real-valued samples on a TimeGrid; values are finite and read-only."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.shape[0] != self.grid.size:
            raise ValueError(
                f"expected {self.grid.size} samples, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("signal values must be finite")
        object.__setattr__(self, "values", _readonly(arr))

    @property
    def n_exponent(self) -> int:
        return self.grid.n_exponent


@dataclass(frozen=True, eq=False)
class HaarCoefficients:
    """Expansion coefficients: one DC value plus detail arrays per level.

    ``details[k - 1]`` holds the 2**(k-1) coefficients of level k.
    """

    n_exponent: int
    dc: float
    details: tuple[np.ndarray, ...]

    def __post_init__(self):
        n = operator.index(self.n_exponent)
        object.__setattr__(self, "n_exponent", n)
        object.__setattr__(self, "dc", float(self.dc))
        fixed = []
        if len(self.details) != n:
            raise ValueError(f"expected {n} detail levels, got {len(self.details)}")
        for k, level in enumerate(self.details, start=1):
            arr = np.array(level, dtype=np.float64, copy=True)
            if arr.shape != (1 << (k - 1),):
                raise ValueError(f"level {k} must hold {1 << (k - 1)} coefficients")
            fixed.append(_readonly(arr))
        object.__setattr__(self, "details", tuple(fixed))

    def __getitem__(self, index: IndexLike) -> float:
        k, j = check_index(index, self.n_exponent)
        if k == 0:
            return self.dc
        return float(self.details[k - 1][j - 1])

    def as_array(self) -> np.ndarray:
        """Flatten to a length-2**N vector: DC first, then by level, then position."""
        return np.concatenate([[self.dc], *self.details])


def _pairwise_levels(values: np.ndarray) -> list[np.ndarray]:
    """Bottom-up pairwise sums along the last axis.

    Returns levels[0..N] with levels[k] of shape (..., 2**k); a (rows, 2**N)
    array gives one pyramid per row.  A sum beyond the float range is inf
    or nan, without a warning: the quantizer's budget check rejects it.
    """
    levels = [values]
    with np.errstate(over="ignore", invalid="ignore"):
        while levels[-1].shape[-1] > 1:
            v = levels[-1]
            levels.append(v[..., 0::2] + v[..., 1::2])
    levels.reverse()
    return levels


def inner_product(f: Signal, g: Signal) -> float:
    """Normalized dot product (1/2**N) * sum(f * g)."""
    if f.grid != g.grid:
        raise ValueError("signals live on different grids")
    return float(f.values @ g.values) / f.grid.size


def haar_basis(index: IndexLike, grid: TimeGrid) -> Signal:
    """Sample the orthonormal Haar step function (k, j) on the grid.

    Level k >= 1 is supported on 2**(N-k+1) consecutive samples, taking the
    value -2**((k-1)/2) on the left half and +2**((k-1)/2) on the right;
    (0, 1) is the constant 1.
    """
    k, j = check_index(index, grid.n_exponent)
    if k == 0:
        return Signal(grid, np.ones(grid.size))
    out = np.zeros(grid.size)
    width = 1 << (grid.n_exponent - k + 1)
    start = (j - 1) * width
    amplitude = 2.0 ** (0.5 * (k - 1))
    out[start : start + width // 2] = -amplitude
    out[start + width // 2 : start + width] = amplitude
    return Signal(grid, out)


def totals_pyramid(x) -> tuple[np.ndarray, ...]:
    """Sum a Signal or QuantizedSignal over every dyadic interval, pairwise.

    Returns read-only levels[0..N]: levels[k] holds the 2**k totals of
    level k in the dtype of x.values, and each entry is the sum of its two
    children one level down.
    """
    return tuple(_readonly(level) for level in _pairwise_levels(x.values))


def haar_analyze(f: Signal) -> HaarCoefficients:
    """Haar transform via the totals pyramid in O(2**N).

    The DC coefficient is the grand total scaled by 2**-N; the level-k
    coefficient at position j is 2**(-N+(k-1)/2) times the difference of
    the right and left child totals.
    """
    n = f.n_exponent
    levels = _pairwise_levels(f.values)
    details = ((v[1::2] - v[0::2]) * np.exp2(-n + 0.5 * (k - 1))
               for k, v in enumerate(levels[1:], start=1))
    return HaarCoefficients(n, levels[0][0] * np.exp2(-n), tuple(details))


def haar_synthesize(coefficients: HaarCoefficients) -> Signal:
    """Invert haar_analyze by rebuilding the totals pyramid top-down."""
    n = coefficients.n_exponent
    total = np.array([coefficients.dc * np.exp2(n)])
    for k in range(1, n + 1):
        diff = coefficients.details[k - 1] * np.exp2(n - 0.5 * (k - 1))
        child = np.empty(1 << k)
        child[0::2] = (total - diff) / 2.0
        child[1::2] = (total + diff) / 2.0
        total = child
    return Signal(make_grid(n), total)
