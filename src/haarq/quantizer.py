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
are tuples of level arrays.  A report type decides the DC and level
bounds exactly for any (signal, quantized) pair.  The uniform bound, and
the spectral envelopes, are sums of the coefficient bounds by the
triangle inequality, so they hold whenever these do, and the report
gives the uniform error as a measurement only.  The CLI's per-sample
rounding baseline, `--baseline`, is _round_rows.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .haar import Signal, TimeGrid, _pairwise_levels, _readonly

__all__ = [
    "QuantizedSignal",
    "HaarErrorReport",
    "quantize_haar_optimal",
    "verify_haar_bounds",
]

TIE_BREAKS = ("toward_negative", "toward_positive")

# Totals beyond this magnitude risk int64 trouble downstream; reject early.
_INT_BUDGET = float(2**60)


@dataclass(frozen=True, eq=False)
class QuantizedSignal:
    """Integer-valued samples on a TimeGrid, each in the int64 range."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.ndim != 1 or arr.shape[0] != self.grid.size:
            raise ValueError(
                f"expected {self.grid.size} samples, got shape {arr.shape}"
            )
        if not np.issubdtype(arr.dtype, np.integer):
            # In float64, where the int64 range's bounds below are exact.
            rounded = np.rint(arr, dtype=np.float64)
            if not np.all(np.isfinite(arr)) or not np.all(arr == rounded):
                raise ValueError("quantized values must be integers")
            arr = rounded
        # Floats and uint64 hold integers beyond int64, which astype would wrap.
        if not (arr.min() >= -(2**63) and arr.max() < 2**63):
            raise ValueError("quantized values must lie in the int64 range")
        object.__setattr__(self, "values", _readonly(arr.astype(np.int64)))

    @property
    def n_exponent(self) -> int:
        return self.grid.n_exponent

    def to_signal(self) -> Signal:
        return Signal(self.grid, self.values.astype(np.float64))


@dataclass(frozen=True, eq=False)
class HaarErrorReport:
    """Measured coefficient errors versus the proved bounds for one pair.

    dc_ok and details_ok are exact verdicts on the DC and level bounds,
    which the stored float errors only approximate.  sup_error is a
    measurement: the uniform bound sup_bound follows from the other two.
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
    dc_ok: bool
    details_ok: bool

    @property
    def passed(self) -> bool:
        return self.dc_ok and self.details_ok


def _rounds_up(tie_break: str) -> bool:
    """Whether tie_break sends an exact rounding tie toward positive infinity."""
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}")
    return tie_break == "toward_positive"


def _check_budget(levels, what: str) -> tuple[np.ndarray, float]:
    """Reject totals levels beyond the budget; the root level's totals, one
    per row, and the last level's largest magnitude."""
    for level in levels:
        largest = max(level.max(initial=0.0), -level.min(initial=0.0))
        if largest > _INT_BUDGET:
            raise OverflowError(f"{what} exceed the 64-bit integer budget")
    return levels[0][..., 0], largest


def _check_pair_budget(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Reject (rows, 2**N) signal and code arrays with totals beyond the
    budget, so their block sums and exact settlements stay exact in int64;
    return the signal's (rows,) pairwise totals."""
    total, _ = _check_budget(_pairwise_levels(f), "signal totals")
    _check_budget(_pairwise_levels(np.asarray(g, dtype=np.float64)), "quantized totals")
    return total


def _radius(d: int, sup):
    """A bound on the float error of a pairwise total over 2**d samples, or
    of the difference of two totals over 2**(d-1) samples each, when every
    sample is at most sup in magnitude and within 2u(sup + 1) of the value
    it stands for, u = 2**-53 (_residual).  A pairwise sum of 2**h samples
    is off by at most h * u / (1 - h * u) times their absolute sum (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 4): together less
    than (d + 1) * u * 2**d * (sup + 1).  Two more units cover the
    rounding of the radius and of the comparisons made with it."""
    return (d + 3) * 2.0 ** (d - 53) * (sup + 1.0)


def _on_grid(values: np.ndarray, bound: float) -> bool:
    """Whether float sums of the samples values, of magnitude at most bound,
    are exact: they are when every sample is a multiple of a power of two
    2**-1023 <= q <= 1 with bound < 2**53 * q, as quarter steps or
    integers are."""
    e = math.frexp(bound)[1] - 53
    if not -1023 <= e <= 0:
        return False
    # Scaling by 1/q is exact and stays below 2**53.
    scaled = values * math.ldexp(1.0, -e)
    return bool(np.all(scaled == np.trunc(scaled)))


def _exact_signs(f: np.ndarray, g, width: int, split: int, at, c) -> np.ndarray:
    """The exact signs of t - c for the entries at = (rows, runs) of f and
    their (entries, k) float thresholds c, t the signed total
    sum(x[split:]) - sum(x[:split]) of the run x = f - g of width samples,
    g integer codes or 0.  Each run is split once: into int64 whole parts
    trunc(f) - g, whose sums wrap around but are exact, as each total is
    within the budget and far below 2**63, so two floats hold it, and
    signed fractions f - trunc(f), which need no rounding.  math.fsum
    rounds the exact sum correctly (Shewchuk 1997), so keeps its sign."""
    run = f.reshape(len(f), -1, width)[at]
    whole = np.trunc(run)
    parts = np.subtract(run, whole, out=run)
    parts[:, :split] *= -1.0
    whole = whole.astype(np.int64)
    if np.ndim(g):
        whole -= g.reshape(len(g), -1, width)[at].astype(np.int64)
    total = whole[:, split:].sum(axis=1) - whole[:, :split].sum(axis=1)
    high = total.astype(np.float64)
    low = (total - high.astype(np.int64)).astype(np.float64)
    return np.sign([[math.fsum([*p, a, b, -x]) for x in cs]
                    for p, a, b, cs in zip(parts.tolist(), high.tolist(), low.tolist(), c.tolist())])


def _round_in_doubt(gap, rounded, radius, up: bool, exact, sign) -> None:
    """Make rounded = rint(x) the nearest integer to every x, ties toward
    +inf if up else -inf, where gap = x - rounded and each float x is
    within radius < 1/4 of its exact value, or exact if exact().

    Only an x within radius of a half-integer h is in doubt, and h, the
    one next to rounded on gap's side, is unique as radius < 1/4: the
    exact sign of x - h, the float's own if exact() and else sign(at, h),
    one call for all entries at in doubt with h an (entries, 1) array,
    picks h + 1/2 or h - 1/2, and a tie goes by the rule.
    """
    edge = 0.5 - radius
    if gap.max() < edge and gap.min() > -edge:
        return
    at = np.nonzero(np.abs(gap) >= edge)
    half = np.copysign(0.5, gap[at])
    h = rounded[at] + half
    s = np.sign(gap[at] - half) if exact() else sign(at, h[:, None])[:, 0]
    s[s == 0] = 1 if up else -1
    rounded[at] = h + 0.5 * s


def _split_signs(samples: np.ndarray, parent: np.ndarray, at, h) -> np.ndarray:
    """The exact signs of x - h for one level's splits in doubt (_descend):
    (P - 2h - t)/2 for the parents P and their runs' signed totals t."""
    run = samples.shape[-1] // parent.shape[-1]
    return -_exact_signs(samples, 0, run, run // 2, at, parent[at][:, None] - 2.0 * h)


def _descend(samples: np.ndarray, totals: list, sup: float, tie_break: str) -> np.ndarray:
    """The codes, as float64 integers, of the (rows, 2**N) samples, each at
    most sup in magnitude with 2**N * sup below _SAMPLES_BOUND, from their
    float totals pyramid (_pairwise_levels, root level first).

    The root is the total's nearest integer, ties per tie_break.  A parent
    P whose children total a and b splits into L and P - L, L the nearest
    integer to x = (P - (b - a))/2, ties mirrored: the parity-constrained
    split D = P - 2L (README).  Each level is formed in place in the
    level it splits, which then holds the next level's parents; the
    samples' level goes to a new array.  No integer here reaches 2**53,
    so each is exact.  No code is -0.0, which raw output would write as
    other bytes: left children are added to +0.0, and a right child
    P - L is -0.0 only when P is.
    """
    width = samples.shape[-1]
    up = _rounds_up(tie_break)
    # Whether the float totals are exact is asked only when a rounding is in doubt.
    exact = functools.cache(lambda: _on_grid(samples, width * (sup + 1.0)))
    total = totals.pop(0)
    parent = np.rint(total)
    _round_in_doubt(total - parent, parent, _radius(width.bit_length() - 1, sup), up, exact,
                    functools.partial(_exact_signs, samples, 0, width, 0))
    parent += 0.0
    while totals:
        v = totals.pop(0)
        out = v if totals else np.empty_like(v)
        run = width // parent.shape[-1]
        d = run.bit_length() - 1
        left, right = out[:, 0::2], out[:, 1::2]
        np.subtract(v[:, 1::2], v[:, 0::2], out=left)
        np.subtract(parent, left, out=left)
        left *= 0.5
        np.rint(left, out=right)
        np.subtract(left, right, out=left)
        # Forming P - (b - a) adds at most 2**(d-52) * (sup + 1) to its radius.
        radius = 0.5 * (_radius(d, sup) + 2.0 ** (d - 52) * (sup + 1.0))
        _round_in_doubt(left, right, radius, not up, exact,
                        functools.partial(_split_signs, samples, parent))
        np.add(right, 0.0, out=left)
        np.subtract(parent, right, out=right)
        parent = out
    return parent


# A bound on every total of a block: 2**N times its largest sample.  Below
# it the samples are descended as they are; at or above it, their
# fractions, whose radius is that of samples below 1, at the cost of a
# second pyramid (README).  A block of 2**20 samples just below it has
# about 0.15 roundings in doubt, each settled in Python, where the two
# paths take about as long; above it the samples' path soon costs more.
_SAMPLES_BOUND = 2.0**42


def _quantize_rows(values: np.ndarray, tie_break: str) -> tuple[np.ndarray, np.ndarray]:
    """Parity-constrained pyramid rounding of every row of a (rows, 2**N) array.

    Returns the codes as float64 integers, one row per block, and the
    rows' (rows,) pairwise totals.  Every rounding is decided exactly
    (_descend), although the totals it rounds are float sums.  A block
    with large samples is quantized as trunc(f) + g(f - trunc(f)): the
    construction commutes with adding integers, so the codes are the
    same, and both terms and their sum are exact.  f - floor(f) would
    not be: -1e-20 - floor(-1e-20) rounds to 1.
    """
    totals = _pairwise_levels(values)
    total, sup = _check_budget(totals, "signal totals")
    if values.shape[-1] * sup < _SAMPLES_BOUND:
        return _descend(values, totals, sup, tie_break), total
    del totals
    fractions = np.trunc(values)
    np.subtract(values, fractions, out=fractions)
    codes = _descend(fractions, _pairwise_levels(fractions), 1.0, tie_break)
    codes += np.subtract(values, fractions, out=fractions)
    return codes, total


def _round_rows(values: np.ndarray, tie_break: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample rounding to the nearest integer, half-ties per tie_break,
    as float64, and the pairwise totals of the last axis."""
    total, _ = _check_budget(_pairwise_levels(values), "signal totals")
    codes = np.rint(values)
    # values - rint(values) is exact, so only exact ties need the rule.
    _round_in_doubt(values - codes, codes, 0.0, _rounds_up(tie_break), lambda: True, None)
    codes += 0.0
    return codes, total


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
    codes = _quantize_rows(f.values[None, :], tie_break)[0][0].astype(np.int64)
    # Integer pairwise sums are exact, so these are the levels of the descent.
    levels = tuple(_readonly(v) for v in _pairwise_levels(codes))
    return QuantizedSignal(f.grid, levels[-1]), levels


def _residual(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """f - g for float samples and integer codes within the budget, float64
    or int64, accurate to a few ulps of 1 + |f - g| however large f is:
    f - floor(f) lies in [0, 1], and floor(f) - g, taken in the codes'
    dtype, is exact in int64, and in float64 wherever it is below 2**53.
    Only the fraction and the integer part are held."""
    r = np.floor(f)
    whole = np.subtract(r, g, dtype=g.dtype, casting="unsafe")
    np.subtract(f, r, out=r)
    r += whole
    return r


class _HaarRows(NamedTuple):
    """The Haar measurements of a chunk's blocks, one entry per row: (rows,)
    columns and the (rows, N) maxima of every level's errors.  dc_total
    sums the codes in int64; dc_ok and details_ok are exact verdicts.  The
    input's DC coefficient is its pairwise total (_quantize_rows) * 2**-N."""

    dc_total: np.ndarray
    dc_error: np.ndarray
    sup_error: np.ndarray
    dc_ok: np.ndarray
    details_ok: np.ndarray
    detail_max: np.ndarray

    @property
    def dc_quantized(self) -> np.ndarray:
        return self.dc_total * np.exp2(-self.detail_max.shape[1])

    @property
    def passed(self) -> np.ndarray:
        return self.dc_ok & self.details_ok


def _haar_bounds(n: int) -> tuple[float, np.ndarray, float]:
    """The DC bound, the bounds of levels 1..N and the uniform bound at 2**N."""
    dc_bound = 2.0 ** (-n - 1)
    detail_bounds = _readonly(np.exp2(-n + 0.5 * np.arange(n, dtype=np.float64)))
    return dc_bound, detail_bounds, 1.0 - dc_bound


def _certified(err, worst, bound: float, radius, f, g, split: bool, exact) -> np.ndarray:
    """Exact verdicts, one per row, that every entry of err meets bound.

    err holds the (rows, m) measured magnitudes of the residual's totals
    over m equal runs of its samples, the right half's less the left's
    when split, and worst their row maxima; they are exact if exact().
    An entry passes when err + radius <= bound, fails when
    err - radius > bound, and is settled otherwise by the exact signs of
    t - bound and t + bound, t its signed total: those of every entry in
    doubt, in the rows whose maxima leave them in doubt, come from one
    call to _exact_signs.
    """
    width = f.shape[-1] // err.shape[-1]
    ok = worst + radius <= bound
    undecided = np.flatnonzero(~ok & (worst - radius <= bound))
    if not undecided.size or exact():
        ok[undecided] = worst[undecided] <= bound
        return ok
    rows, runs = np.nonzero(err[undecided] + radius[undecided, None] > bound)
    rows = undecided[rows]
    above, below = _exact_signs(f, g, width, width // 2 if split else 0, (rows, runs),
                                np.broadcast_to((bound, -bound), (rows.size, 2))).T
    ok[undecided] = True
    ok[rows[(above > 0) | (below < 0)]] = False
    return ok


def _haar_error_rows(f: np.ndarray, g: np.ndarray, r: np.ndarray | None = None) -> _HaarRows:
    """The Haar errors of every row pair of (rows, 2**N) signal and code
    arrays, each measured on the residual r = f - g (formed here when not
    given), not on two large transforms, and the exact verdicts on them.

    The verdicts are stated on the residual's unscaled totals: |total| <=
    1/2 at DC, and |right - left| <= 1 for each level's pair of totals,
    where the scale 2**(-N+(k-1)/2) of level k cancels from error and
    bound alike.  The residual's totals pyramid is walked bottom-up, each
    level dropped once the next is formed, and only each level's maxima
    are kept.
    """
    n = f.shape[-1].bit_length() - 1
    v = _residual(f, g) if r is None else r
    sup_error = np.abs(v).max(axis=1)
    # Samples on a grid make exact residuals, whose totals below the bound are exact.
    exact = functools.cache(lambda: _on_grid(f, f.shape[-1] * (sup_error.max() + 1.0)))
    detail_max = np.empty((f.shape[0], n))
    scale = _haar_bounds(n)[1]  # level k's scale is its bound, the unscaled bound being 1
    details_ok = np.ones(f.shape[0], dtype=bool)
    for k in range(n, 0, -1):
        err = v[:, 1::2] - v[:, 0::2]
        np.abs(err, out=err)
        worst = err.max(axis=1)
        details_ok &= _certified(err, worst, 1.0, _radius(n - k + 1, sup_error), f, g, True,
                                 exact)
        del err
        v = v[:, 0::2] + v[:, 1::2]
        # Rounding keeps the order of the products by a positive scale, so
        # the scaled maximum is the maximum of the scaled errors, bit for bit.
        detail_max[:, k - 1] = worst * scale[k - 1]
    total = np.abs(v)
    dc_ok = _certified(total, total[:, 0], 0.5, _radius(n, sup_error), f, g, False, exact)
    return _HaarRows(
        dc_total=g.sum(axis=1, dtype=np.int64),
        dc_error=total[:, 0] * np.exp2(-n),
        sup_error=sup_error,
        dc_ok=dc_ok,
        details_ok=details_ok,
        detail_max=detail_max,
    )


def verify_haar_bounds(f: Signal, g: QuantizedSignal) -> HaarErrorReport:
    """Measure every coefficient error of (f, g) against the proved bounds.

    Decides the DC bound 2**(-N-1) and the level-k bound 2**(-N+(k-1)/2)
    exactly, and measures the uniform error, whose bound 1 - 2**(-N-1)
    they imply.  Raises OverflowError when either signal's dyadic totals
    exceed 2**60.
    """
    if f.grid != g.grid:
        raise ValueError("signal and quantized signal live on different grids")
    total = _check_pair_budget(f.values[None, :], g.values[None, :])
    rows = _haar_error_rows(f.values[None, :], g.values[None, :])
    dc_bound, detail_bounds, sup_bound = _haar_bounds(f.n_exponent)
    # Each level's errors, scaled as _haar_error_rows scales their maxima.
    levels = _pairwise_levels(_residual(f.values, g.values))[1:]
    detail_errors = tuple(_readonly(np.abs(v[1::2] - v[0::2]) * bound)
                          for v, bound in zip(levels, detail_bounds))
    columns = ("dc_quantized", "dc_error", "sup_error", "dc_ok", "details_ok")
    return HaarErrorReport(
        n_exponent=f.n_exponent,
        dc_input=total[0].item() * 2.0**-f.n_exponent,
        dc_bound=dc_bound,
        detail_errors=detail_errors,
        detail_bounds=detail_bounds,
        sup_bound=sup_bound,
        **{name: getattr(rows, name)[0].item() for name in columns},
    )
