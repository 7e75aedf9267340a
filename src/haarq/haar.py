"""Dyadic midpoint grid, Haar step basis, and pairwise totals pyramids.

Signals live on the 2**N midpoints of [-1/2, 1/2].  The totals pyramid is
the tuple of level arrays holding the sums of the signal over the dyadic
interval tree, summed pairwise: the orthonormal Haar DC coefficient is
the scaled grand total and each level's coefficient a scaled difference
of two adjacent totals, so the quantizer and its verifier work on totals
and never on a transform.  Values are immutable after construction and
safe to share across threads.
"""

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "MAX_EXPONENT",
    "TimeGrid",
    "Signal",
    "make_grid",
    "check_index",
    "haar_basis",
    "totals_pyramid",
]

MAX_EXPONENT = 24


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_exponent(n, name: str = "n_exponent") -> int:
    """n as an int, once it is a grid exponent in [0, MAX_EXPONENT]."""
    n = operator.index(n)
    if not 0 <= n <= MAX_EXPONENT:
        raise ValueError(f"{name} must be in [0, {MAX_EXPONENT}], got {n}")
    return n


IndexLike = tuple[int, int]


def check_index(index: IndexLike, n_exponent: int) -> IndexLike:
    """Validate the level/position pair (k, j) against the index set for a
    size-2**n_exponent grid; (0, 1) is the constant (DC) function."""
    k, j = index
    k = operator.index(k)
    j = operator.index(j)
    if (k, j) == (0, 1) or 1 <= k <= n_exponent and 1 <= j <= 1 << (k - 1):
        return k, j
    raise ValueError(f"invalid Haar index {(k, j)} for n_exponent={n_exponent}")


@dataclass(frozen=True)
class TimeGrid:
    """2**n_exponent equispaced midpoint samples of [-1/2, 1/2]."""

    n_exponent: int

    def __post_init__(self):
        object.__setattr__(self, "n_exponent", _check_exponent(self.n_exponent))

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
