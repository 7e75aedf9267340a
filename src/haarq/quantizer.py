"""Noise-shaping quantizer built on a parity-constrained integer pyramid.

The construction mirrors the signal's totals pyramid with integers, level
by level: the root is the rounded grand total, and every split picks an
integer child difference D that shares the parent's parity and lies within
1 of the real difference.  Parity is what keeps both children integral
while the running error halves on the way down, so the quantized signal g
satisfies, for a grid of size 2**N,

    |dc(f) - dc(g)|                <= 2**(-N-1)
    |detail_k(f) - detail_k(g)|    <= 2**(-N+(k-1)/2)   for every level k
    sup |f - g|                    <= 1 - 2**(-N-1)

where dc/detail_k are the orthonormal Haar coefficients.  Both pyramids
are tuples of level arrays.  The per-sample rounding baseline is provided
for contrast, together with a report type that re-measures all three
bound families for any (signal, quantized) pair.
"""

import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .haar import Signal, TimeGrid, _haar_rows, _pairwise_levels, _readonly

__all__ = [
    "TIE_BREAKS",
    "PARITIES",
    "BOUND_SLACK",
    "QuantizedSignal",
    "HaarErrorReport",
    "choose_parity_constrained",
    "quantize_haar_optimal",
    "quantize_simple",
    "verify_haar_bounds",
    "check_range",
]

TIE_BREAKS = ("toward_negative", "toward_positive")
PARITIES = ("even", "odd")

# Additive slack used when re-checking the proved inequalities in floats.
BOUND_SLACK = 1e-12

# Totals beyond this magnitude risk int64 trouble downstream; reject early.
_INT_BUDGET = float(2**60)

# Every stage works on chunks of about this many samples: (rows, 2**N)
# arrays of 512 KiB of float64, so each stage's temporaries stay in cache
# and memory does not grow with the input.  Blocks of 2**16 samples or
# more are one chunk each, and the quantizer descends them by subtrees of
# this size.
CHUNK_SAMPLES = 1 << 16


@dataclass(frozen=True, eq=False)
class QuantizedSignal:
    """Integer-valued samples on a TimeGrid."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.ndim != 1 or arr.shape[0] != self.grid.size:
            raise ValueError(
                f"expected {self.grid.size} samples, got shape {arr.shape}"
            )
        if not np.issubdtype(arr.dtype, np.integer):
            rounded = np.rint(arr)
            if not np.all(np.isfinite(arr)) or not np.all(arr == rounded):
                raise ValueError("quantized values must be integers")
            arr = rounded
        object.__setattr__(self, "values", _readonly(arr.astype(np.int64)))

    @property
    def n_exponent(self) -> int:
        return self.grid.n_exponent

    def to_signal(self) -> Signal:
        return Signal(self.grid, self.values.astype(np.float64))


@dataclass(frozen=True, eq=False)
class HaarErrorReport:
    """Measured coefficient errors versus the proved bounds for one pair.

    All three flags can be recomputed from the stored errors, bounds and
    slack; they are precomputed for convenience.
    """

    n_exponent: int
    dc_input: float
    dc_quantized: float
    dc_error: float
    dc_bound: float
    detail_errors: tuple[np.ndarray, ...]
    detail_bounds: np.ndarray
    sup_error: float
    sup_bound: float
    slack: float
    dc_ok: bool
    details_ok: bool
    sup_ok: bool

    @property
    def passed(self) -> bool:
        return self.dc_ok and self.details_ok and self.sup_ok


def _parity_round(target, parity, tie_break: str):
    """Nearest int64 to target whose parity (0 even, 1 odd) is that of the
    integer or int64 array parity.

    The candidate base is floor(target) toward_positive and
    ceil(target) - 1 toward_negative: the two differ only when target is
    an integer, where the candidates at distance 1 tie.  Then base itself
    when it has the parity, else base + 1.  Both roundings are exact and
    the - 1 is taken in int64, so no float operation rounds, and the
    choice is exact for every finite target in the int64 range.
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}")
    if tie_break == "toward_positive":
        base = np.floor(target).astype(np.int64)
    else:
        base = np.ceil(target).astype(np.int64)
        base -= 1
    step = np.bitwise_xor(base, parity)
    step &= 1
    step += base
    return step


def _round_nearest(x, tie_break: str):
    # m is nearest to x, ties per tie_break, iff 2m is the even integer nearest 2x.
    return _parity_round(2.0 * x, 0, tie_break) >> 1


def choose_parity_constrained(
    target: float, parent_parity: str, tie_break: str = "toward_negative"
) -> int:
    """Nearest integer to target with the given parity.

    Integers of one parity are spaced 2 apart, so the result D always
    satisfies |target - D| <= 1; an exact distance-1 tie on both sides is
    resolved by tie_break.
    """
    if not abs(target) <= _INT_BUDGET:
        raise ValueError("target must be finite with |target| <= 2**60")
    if parent_parity not in PARITIES:
        raise ValueError(f"parent_parity must be one of {PARITIES}")
    return int(_parity_round(target, PARITIES.index(parent_parity), tie_break))


def _check_budget(levels, what: str) -> None:
    for level in levels:
        if max(level.max(initial=0.0), -level.min(initial=0.0)) > _INT_BUDGET:
            raise OverflowError(f"{what} exceed the 64-bit integer budget")


def _check_pair_budget(f: np.ndarray, g: np.ndarray) -> None:
    """Reject (rows, 2**N) signal and code arrays with totals beyond the
    budget, so their residual and block sums stay exact in int64."""
    _check_budget(_pairwise_levels(f), "signal totals")
    _check_budget(_pairwise_levels(np.asarray(g, dtype=np.float64)), "quantized totals")


def _descend(parent: np.ndarray, totals, tie_break: str) -> np.ndarray:
    """Split the integer totals parent down through the float totals levels
    below it, one level at a time; returns the bottom level."""
    for v in totals:
        diff = _parity_round(v[:, 1::2] - v[:, 0::2], parent, tie_break)
        child = np.empty(v.shape, dtype=np.int64)
        # parent - diff is even by construction, so the shift halves it exactly.
        np.subtract(parent, diff, out=diff)
        diff >>= 1
        child[:, 0::2] = diff
        np.subtract(parent, diff, out=child[:, 1::2])
        parent = child
    return parent


def _quantize_rows(values: np.ndarray, tie_break: str) -> np.ndarray:
    """Parity-constrained pyramid rounding of every row of a (rows, 2**N) array.

    Returns the int64 codes, one row per block.  A block longer than
    CHUNK_SAMPLES is descended in two stages, so that each stage's levels
    stay in cache: the top levels, from the block's total down to the
    totals of its CHUNK_SAMPLES-sample subtrees, then each subtree from its
    own pyramid.  The subtrees' pyramids are the parts of the block's, sum
    for sum, so the codes are those of a whole-block descent.  Each
    subtree's pyramid is built twice, for its total and for its descent,
    so that only one is held at a time.
    """
    width = min(values.shape[-1], CHUNK_SAMPLES)
    if width == values.shape[-1]:
        totals = _pairwise_levels(values)
        _check_budget(totals, "signal totals")
        return _descend(_round_nearest(totals[0], tie_break), totals[1:], tie_break)
    subtrees = [values[:, a : a + width] for a in range(0, values.shape[-1], width)]
    roots = np.empty((values.shape[0], len(subtrees)))
    for s, sub in enumerate(subtrees):
        totals = _pairwise_levels(sub)
        _check_budget(totals, "signal totals")
        roots[:, s] = totals[0][:, 0]
    top = _pairwise_levels(roots)
    _check_budget(top, "signal totals")
    parents = _descend(_round_nearest(top[0], tie_break), top[1:], tie_break)
    codes = np.empty(values.shape, dtype=np.int64)
    for s, sub in enumerate(subtrees):
        levels = _pairwise_levels(sub)[1:]
        codes[:, s * width : (s + 1) * width] = _descend(parents[:, s : s + 1], levels, tie_break)
    return codes


def _round_rows(values: np.ndarray, tie_break: str) -> np.ndarray:
    """Per-sample rounding to the nearest integer, half-ties per tie_break."""
    _check_budget(_pairwise_levels(values), "signal totals")
    return _round_nearest(values, tie_break)


def quantize_haar_optimal(
    f: Signal, tie_break: str = "toward_negative"
) -> tuple[QuantizedSignal, tuple[np.ndarray, ...]]:
    """Quantize by rounding the totals pyramid level by level.

    Steps: (1) sum the input over the dyadic tree; (2) round the grand
    total to the nearest integer, ties per tie_break; (3) walking down,
    round each child difference to the nearest integer of the parent's
    parity and split the parent accordingly; (4) read the quantized
    samples off the bottom level.  O(2**N) total work.

    Returns the quantized signal and its integer pyramid: read-only int64
    levels[0..N], levels[k] with 2**k entries, equal to totals_pyramid(g).
    """
    codes = _quantize_rows(f.values[None, :], tie_break)[0]
    # Integer pairwise sums are exact, so these are the levels of the descent.
    levels = tuple(_readonly(v) for v in _pairwise_levels(codes))
    return QuantizedSignal(f.grid, levels[-1]), levels


def quantize_simple(f: Signal, tie_break: str = "toward_negative") -> QuantizedSignal:
    """Per-sample rounding to the nearest integer, half-ties per tie_break."""
    return QuantizedSignal(f.grid, _round_rows(f.values, tie_break))


def _residual(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """f - g for float samples and int64 codes within the budget, accurate
    to a few ulps of 1 + |f - g| however large f is: floor(f) - g is exact
    in int64 and f - floor(f) lies in [0, 1].  Only the fraction and the
    integer part are held."""
    r = np.floor(f)
    whole = r.astype(np.int64)
    np.subtract(f, r, out=r)
    whole -= g
    r += whole
    return r


class _HaarRows(NamedTuple):
    """The Haar measurements of a chunk's blocks, one entry per row: (rows,)
    columns, the (rows, N) maxima of every level's errors, and those errors
    themselves, one (rows, 2**(k-1)) array per level k."""

    dc_input: np.ndarray
    dc_quantized: np.ndarray
    dc_error: np.ndarray
    sup_error: np.ndarray
    dc_ok: np.ndarray
    details_ok: np.ndarray
    sup_ok: np.ndarray
    detail_max: np.ndarray
    detail_errors: tuple[np.ndarray, ...]

    @property
    def passed(self) -> np.ndarray:
        return self.dc_ok & self.details_ok & self.sup_ok


def _haar_bounds(n: int) -> tuple[float, np.ndarray, float]:
    """The DC bound, the bounds of levels 1..N and the uniform bound at 2**N."""
    dc_bound = 2.0 ** (-n - 1)
    detail_bounds = _readonly(np.exp2(-n + 0.5 * np.arange(n, dtype=np.float64)))
    return dc_bound, detail_bounds, 1.0 - dc_bound


def _haar_error_rows(f: np.ndarray, g: np.ndarray, r: np.ndarray | None = None) -> _HaarRows:
    """The Haar errors of every row pair of (rows, 2**N) signal and code
    arrays against the proved bounds, each measured on the residual
    r = f - g (formed here when not given), not on two large transforms."""
    n = f.shape[-1].bit_length() - 1
    if r is None:
        r = _residual(f, g)
    dc_r, details_r = _haar_rows(r)
    dc_bound, detail_bounds, sup_bound = _haar_bounds(n)
    detail_errors = tuple(_readonly(np.abs(d)) for d in details_r)
    detail_max = np.empty((f.shape[0], n))
    for k, err in enumerate(detail_errors):
        detail_max[:, k] = err.max(axis=1)
    dc_error = np.abs(dc_r)
    sup_error = np.abs(r).max(axis=1)
    return _HaarRows(
        dc_input=_pairwise_levels(f)[0][:, 0] * np.exp2(-n),
        dc_quantized=g.sum(axis=1) * np.exp2(-n),
        dc_error=dc_error,
        sup_error=sup_error,
        dc_ok=dc_error <= dc_bound + BOUND_SLACK,
        details_ok=np.all(detail_max <= detail_bounds + BOUND_SLACK, axis=1),
        sup_ok=sup_error <= sup_bound + BOUND_SLACK,
        detail_max=detail_max,
        detail_errors=detail_errors,
    )


def verify_haar_bounds(f: Signal, g: QuantizedSignal) -> HaarErrorReport:
    """Measure every coefficient error of (f, g) against the proved bounds.

    Checks the DC bound 2**(-N-1), the level-k bound 2**(-N+(k-1)/2) and
    the uniform bound 1 - 2**(-N-1), each with BOUND_SLACK of additive
    tolerance for float rounding.  Raises OverflowError when either
    signal's dyadic totals exceed 2**60.
    """
    if f.grid != g.grid:
        raise ValueError("signal and quantized signal live on different grids")
    _check_pair_budget(f.values[None, :], g.values[None, :])
    rows = _haar_error_rows(f.values[None, :], g.values[None, :])
    dc_bound, detail_bounds, sup_bound = _haar_bounds(f.n_exponent)
    columns = ("dc_input", "dc_quantized", "dc_error", "sup_error", "dc_ok", "details_ok", "sup_ok")
    return HaarErrorReport(
        n_exponent=f.n_exponent,
        dc_bound=dc_bound,
        detail_errors=tuple(err[0] for err in rows.detail_errors),
        detail_bounds=detail_bounds,
        sup_bound=sup_bound,
        slack=BOUND_SLACK,
        **{name: getattr(rows, name)[0].item() for name in columns},
    )


def check_range(f: Signal, lower: int, upper: int, g: QuantizedSignal) -> bool:
    """True iff f stays within [lower+1, upper-1] and g within [lower, upper].

    Whenever the input condition holds and g came from
    quantize_haar_optimal, the uniform error bound forces the output
    condition, so this returns True.
    """
    lo = operator.index(lower)
    hi = operator.index(upper)
    if lo + 2 >= hi:
        raise ValueError(f"need lower + 2 < upper, got ({lo}, {hi})")
    if f.grid != g.grid:
        raise ValueError("signal and quantized signal live on different grids")
    f_in = bool(np.all((f.values >= lo + 1) & (f.values <= hi - 1)))
    g_in = bool(np.all((g.values >= lo) & (g.values <= hi)))
    return f_in and g_in
