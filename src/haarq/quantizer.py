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

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .haar import Signal, TimeGrid, _haar_rows, _pairwise_levels, _readonly

__all__ = [
    "TIE_BREAKS",
    "PARITIES",
    "BOUND_SLACK",
    "QuantizerConfig",
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


@dataclass(frozen=True)
class QuantizerConfig:
    """Tie rule plus optional input dither.

    dither_amplitude is the full width of the uniform perturbation added to
    the input before pyramid construction; with the default 0 the seed is
    never consulted and output depends on the input and tie rule alone.
    """

    tie_break: str = "toward_negative"
    dither_amplitude: float = 0.0
    dither_seed: int = 0

    def __post_init__(self):
        if self.tie_break not in TIE_BREAKS:
            raise ValueError(f"tie_break must be one of {TIE_BREAKS}")
        amp = float(self.dither_amplitude)
        if not (math.isfinite(amp) and amp >= 0.0):
            raise ValueError("dither_amplitude must be finite and >= 0")
        object.__setattr__(self, "dither_amplitude", amp)
        object.__setattr__(self, "dither_seed", operator.index(self.dither_seed))


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
    """Nearest int64 to target whose parity (0 even, 1 odd) is parity.

    With i = floor(target): i itself when it has the parity; otherwise
    i + 1 when target > i, and i - 1 or i + 1 per tie_break when
    target == i, both at distance 1.  No float arithmetic rounds, so the
    choice is exact for every finite target in the int64 range.
    """
    floor = np.floor(target)
    i = floor.astype(np.int64)
    step = (i - parity) & 1
    if tie_break == "toward_negative":
        step *= 2 * (target > floor) - 1
    return i + step


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
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}")
    return int(_parity_round(target, PARITIES.index(parent_parity), tie_break))


def _check_budget(levels, what: str) -> None:
    for level in levels:
        if float(np.abs(level).max()) > _INT_BUDGET:
            raise OverflowError(f"{what} exceed the 64-bit integer budget")


def _quantize_rows(values: np.ndarray, cfg: QuantizerConfig) -> list[np.ndarray]:
    """Parity-constrained pyramid rounding of every row of a (rows, 2**N) array.

    Returns the integer pyramid levels[0..N], levels[k] of shape
    (rows, 2**k); levels[N] holds the quantized samples.  With dither every
    row gets the same seeded sequence, so each row's result is the one it
    would get on its own.
    """
    n = values.shape[-1].bit_length() - 1
    if cfg.dither_amplitude > 0.0:
        if cfg.dither_amplitude >= 2.0 ** (-n - 1):
            warnings.warn(
                f"dither amplitude {cfg.dither_amplitude} is >= 2**-(N+1)="
                f"{2.0 ** (-n - 1)}; bound checks against the undithered "
                "input may fail",
                stacklevel=3,
            )
        rng = np.random.default_rng(cfg.dither_seed & 0xFFFF_FFFF_FFFF_FFFF)
        half = cfg.dither_amplitude / 2.0
        values = values + rng.uniform(-half, half, values.shape[-1])

    totals = _pairwise_levels(values)
    _check_budget(totals, "signal totals")

    parent = _round_nearest(totals[0], cfg.tie_break)
    glevels = [parent]
    for v in totals[1:]:
        diff = _parity_round(v[:, 1::2] - v[:, 0::2], parent & 1, cfg.tie_break)
        child = np.empty(v.shape, dtype=np.int64)
        # parent - diff is even by construction, so the shift halves it exactly.
        child[:, 0::2] = (parent - diff) >> 1
        child[:, 1::2] = parent - child[:, 0::2]
        glevels.append(child)
        parent = child
    return glevels


def _round_rows(values: np.ndarray, tie_break: str) -> np.ndarray:
    """Per-sample rounding to the nearest integer, half-ties per tie_break."""
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}")
    _check_budget([values], "signal values")
    return _round_nearest(values, tie_break)


def quantize_haar_optimal(
    f: Signal, config: QuantizerConfig | None = None
) -> tuple[QuantizedSignal, tuple[np.ndarray, ...]]:
    """Quantize by rounding the totals pyramid level by level.

    Steps: (1) sum the (optionally dithered) input over the dyadic tree;
    (2) round the grand total to the nearest integer, ties per config;
    (3) walking down, round each child difference to the nearest integer
    of the parent's parity and split the parent accordingly; (4) read the
    quantized samples off the bottom level.  O(2**N) total work.

    Returns the quantized signal and its integer pyramid: read-only int64
    levels[0..N], levels[k] with 2**k entries, equal to totals_pyramid(g).
    """
    cfg = config if config is not None else QuantizerConfig()
    levels = tuple(_readonly(v[0]) for v in _quantize_rows(f.values[None, :], cfg))
    return QuantizedSignal(f.grid, levels[-1]), levels


def quantize_simple(f: Signal, tie_break: str = "toward_negative") -> QuantizedSignal:
    """Per-sample rounding to the nearest integer, half-ties per tie_break."""
    return QuantizedSignal(f.grid, _round_rows(f.values, tie_break))


def _haar_error_rows(f: np.ndarray, g: np.ndarray) -> list[HaarErrorReport]:
    """One HaarErrorReport per row pair of (rows, 2**N) signal and code arrays."""
    n = f.shape[-1].bit_length() - 1
    gf = g.astype(np.float64)
    dc_f, details_f = _haar_rows(f)
    dc_g, details_g = _haar_rows(gf)

    dc_bound = 2.0 ** (-n - 1)
    dc_error = np.abs(dc_f - dc_g)
    detail_errors = [_readonly(np.abs(a - b)) for a, b in zip(details_f, details_g)]
    detail_bounds = _readonly(np.exp2(-n + 0.5 * np.arange(n, dtype=np.float64)))
    sup_error = np.abs(f - gf).max(axis=1)
    sup_bound = 1.0 - dc_bound

    details_ok = np.ones(f.shape[0], dtype=bool)
    for err, bound in zip(detail_errors, detail_bounds):
        details_ok &= err.max(axis=1) <= bound + BOUND_SLACK
    dc_ok = dc_error <= dc_bound + BOUND_SLACK
    sup_ok = sup_error <= sup_bound + BOUND_SLACK
    rows = zip(
        dc_f.tolist(), dc_g.tolist(), dc_error.tolist(), sup_error.tolist(),
        dc_ok.tolist(), details_ok.tolist(), sup_ok.tolist(),
    )
    return [
        HaarErrorReport(
            n_exponent=n,
            dc_input=dc_in,
            dc_quantized=dc_q,
            dc_error=dc_err,
            dc_bound=dc_bound,
            detail_errors=tuple(err[i] for err in detail_errors),
            detail_bounds=detail_bounds,
            sup_error=sup_err,
            sup_bound=sup_bound,
            slack=BOUND_SLACK,
            dc_ok=dc_pass,
            details_ok=details_pass,
            sup_ok=sup_pass,
        )
        for i, (dc_in, dc_q, dc_err, sup_err, dc_pass, details_pass, sup_pass)
        in enumerate(rows)
    ]


def verify_haar_bounds(f: Signal, g: QuantizedSignal) -> HaarErrorReport:
    """Measure every coefficient error of (f, g) against the proved bounds.

    Checks the DC bound 2**(-N-1), the level-k bound 2**(-N+(k-1)/2) and
    the uniform bound 1 - 2**(-N-1), each with BOUND_SLACK of additive
    tolerance for float rounding.
    """
    if f.grid != g.grid:
        raise ValueError("signal and quantized signal live on different grids")
    return _haar_error_rows(f.values[None, :], g.values[None, :])[0]


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
