"""Independent reference implementations used only as test oracles.

Everything here evaluates defining formulas directly (pointwise step
functions, naive O(4**N) dot products, brute-force enumeration) so the
fast pyramid code paths are checked against something that shares no code
with them.
"""

import hashlib
import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from haarq import (
    QuantizedSignal, Signal, dumps_canonical, make_grid, quantize_haar_optimal,
    verify_haar_bounds,
)


def frequencies(n: int) -> np.ndarray:
    """The integer frequencies (-2**(N-1), 2**(N-1)] of the size-2**N
    transform, ascending; [0] at N=0."""
    half = (1 << n) // 2
    return np.arange(half - (1 << n) + 1, half + 1)


def mother_step(u: float) -> float:
    """The unit step shape: +1 on (0, 1/2), -1 on (-1/2, 0), else 0."""
    if 0.0 < u < 0.5:
        return 1.0
    if -0.5 < u < 0.0:
        return -1.0
    return 0.0


def basis_by_formula(k: int, j: int, grid) -> np.ndarray:
    """Evaluate the scaled/translated step function pointwise at the samples."""
    if k == 0:
        return np.ones(grid.size)
    center = -0.5 + (2 * j - 1) / 2**k
    scale = 2.0 ** ((k - 1) / 2)
    return np.array(
        [scale * mother_step(2 ** (k - 1) * (t - center)) for t in grid.samples]
    )


def naive_coefficient(f: Signal, k: int, j: int) -> float:
    """O(2**N) dot product straight from the definition."""
    return float(basis_by_formula(k, j, f.grid) @ f.values) / f.grid.size


def all_indices(n: int):
    yield (0, 1)
    for k in range(1, n + 1):
        for j in range(1, 2 ** (k - 1) + 1):
            yield (k, j)


def spectrum_csv_reference(table) -> str:
    """A noise table's CSV text with every row formatted on its own, in
    ascending frequency, from the columns mirrored onto the full grid.
    The baseline column is per-sample rounding's flat bound 1/2."""
    def full(half):
        return np.concatenate([half[-2:0:-1], half]).tolist()

    columns = [full(np.asarray(c)) for c in (
        table.measured_half, table.bound_exact_half, table.bound_linear_half,
    )]
    lines = ["xi,measured,bound_exact,bound_linear,baseline_bound\n"]
    for xi, *values in zip(frequencies(table.n_exponent).tolist(), *columns):
        lines.append(",".join([str(xi)] + [repr(v) for v in [*values, 0.5]]) + "\n")
    return "".join(lines)


def dft_by_sum(f: Signal, xi: int) -> complex:
    """Single-frequency transform by direct summation."""
    t = f.grid.samples
    return complex(np.sum(np.exp(-2j * np.pi * t * xi) * f.values) / f.grid.size)


@lru_cache(maxsize=4)
def _dft_matrix(n: int) -> np.ndarray:
    freqs = frequencies(n)
    t = make_grid(n).samples
    return np.exp(-2j * np.pi * np.outer(freqs, t)) / (1 << n)


def dft_direct(f: Signal) -> np.ndarray:
    """Whole transform by the dense O(4**N) defining sum, ascending frequency."""
    return _dft_matrix(f.grid.n_exponent) @ f.values


def exact_envelope_by_level(xi: np.ndarray, n: int) -> np.ndarray:
    """Summed noise envelope at float frequencies xi, every level's term
    evaluated at every xi."""
    acc = np.zeros(xi.shape)
    for k in range(1, n + 1):
        angles = 2.0 * np.pi * np.mod(xi * 2.0**-k, 1.0)
        acc += np.exp2(-2.0 * n + 2.0 * (k - 1.0)) * (1.0 - np.cos(angles))
    return acc / np.abs(np.sin(np.pi * xi * 2.0**-n))


def _as_integers(values):
    """Floats as integers over one common denominator, a power of two:
    every float is such an integer ratio.  The integers are int64 when
    they fit with room to spare, else Python integers."""
    mantissa, exponent = np.frexp(np.asarray(values, dtype=np.float64))
    num = (mantissa * 2.0**53).astype(np.int64)  # exact
    exponent -= 53
    # Drop each numerator's trailing zero bits, so the denominator is small.
    low_bit = np.maximum(np.frexp((num & -num).astype(np.float64))[1] - 1, 0)
    num >>= low_bit
    exponent += low_bit
    base = min(0, int(exponent[num != 0].min(initial=0)))
    shift = np.where(num != 0, exponent - base, 0)
    if int((np.frexp(num.astype(np.float64))[1] + shift).max(initial=0)) < 60:
        num <<= shift
    else:
        num = num.astype(object) << shift.astype(object)
    return num, 1 << -base


def _nearest_of_parity(num: np.ndarray, den: int, parity, tie_break: str) -> np.ndarray:
    """Nearest integer of the given parity (0 or 1) to each exact num / den.

    With i = floor(num / den): i when it has the parity; otherwise i + 1,
    unless num / den is i exactly, where i - 1 and i + 1 tie.
    """
    i = num // den
    step = (i - parity) & 1
    if tie_break == "toward_negative":
        step = np.where(num % den == 0, -step, step)
    return i + step


def _exact_levels(num: np.ndarray, bound: int) -> list[np.ndarray]:
    """The totals pyramid along the last axis of integers num, root level
    first, exact: Python integers are exact and int64 is fast, so each
    level is int64 while a bound on its magnitudes fits, doubled per level
    up from bound."""
    levels = [num.astype(np.int64 if bound < 2**61 else object)]
    while levels[0].shape[-1] > 1:
        bound *= 2
        levels.insert(0, levels[0][..., 0::2] + levels[0][..., 1::2])
        levels[0] = levels[0].astype(np.int64 if bound < 2**61 else object)
    return levels


def round_rows_reference(values, tie_break="toward_negative") -> np.ndarray:
    """The nearest integer to each sample, ties per tie_break, in exact
    rationals: m is nearest to x iff 2m is the even integer nearest to 2x."""
    num, den = _as_integers(values)
    if den >= 2**62:
        num = num.astype(object)  # int64 cannot be divided by den
    return (_nearest_of_parity(2 * num, den, 0, tie_break) >> 1).astype(np.int64)


def quantize_rows_reference(values, tie_break="toward_negative") -> np.ndarray:
    """Codes of every row of a (rows, 2**N) array by the whole-block
    per-level descent in exact rationals: the full totals pyramid, then one
    level at a time from the rounded grand total down to the samples."""
    num, den = _as_integers(values)
    levels = _exact_levels(num, int(np.abs(num).max(initial=0)) + den)
    # m is nearest to x iff 2m is the even integer nearest to 2x.
    parent = _nearest_of_parity(2 * levels[0], den, 0, tie_break) >> 1
    for v in levels[1:]:
        # The totals of the codes are within the budget, so int64 holds them.
        parent = parent.astype(np.int64)
        diff = _nearest_of_parity(v[:, 1::2] - v[:, 0::2], den, parent & 1, tie_break)
        child = np.empty(v.shape, dtype=v.dtype)
        child[:, 0::2] = (parent - diff) >> 1
        child[:, 1::2] = parent - child[:, 0::2]
        parent = child
    return parent.astype(np.int64)


def quantize_per_block(values, n: int, tie_break="toward_negative") -> np.ndarray:
    """Zero-pad to whole blocks of 2**n and quantize each block on its own,
    by the reference descent."""
    size = 1 << n
    padded = np.concatenate([values, np.zeros(-len(values) % size)])
    return quantize_rows_reference(padded.reshape(-1, size), tie_break).reshape(-1)[: len(values)]


def codes_sha256(codes) -> str:
    """SHA-256 hex digest of integer codes stored as little-endian int64."""
    return hashlib.sha256(np.asarray(codes, dtype="<i8").tobytes()).hexdigest()


def dc_error_fraction(f_values, g_values) -> Fraction:
    """Exact |dc(f) - dc(g)| in rationals: the mean of the residual f - g."""
    residual = sum(Fraction(float(v)) - int(c) for v, c in zip(f_values, g_values))
    return abs(residual) / len(f_values)


def enumerate_integer_quantizations(f: Signal):
    """All integer-valued signals within sup distance < 1 of f."""
    per_sample = []
    for v in f.values:
        lo = math.floor(v - 1) + 1
        hi = math.ceil(v + 1) - 1
        per_sample.append([c for c in range(lo, hi + 1) if abs(c - v) < 1.0])
    yield from itertools.product(*per_sample)


def exact_haar_verdicts(f_values, g_values) -> tuple[bool, bool]:
    """The exact DC and level verdicts of integer codes g for samples f:
    whether |dc(f) - dc(g)| <= 2**(-N-1), and whether every level-k
    coefficient error is at most 2**(-N+(k-1)/2).

    Stated on the residual r = f - g, these are |sum(r)| <= 1/2 and
    |sum(right half) - sum(left half)| <= 1 over every dyadic interval,
    each total an exact Fraction of the common denominator of f.
    """
    num, den = _as_integers(f_values)
    r = num.astype(object) - np.asarray(g_values, dtype=np.int64).astype(object) * den
    levels = _exact_levels(r, int(np.abs(r).max(initial=0)) + den)
    dc_ok = abs(Fraction(int(levels[0][0]), den)) <= Fraction(1, 2)
    details_ok = all(bool(np.all(np.abs(v[1::2] - v[0::2]) <= den)) for v in levels[1:])
    return dc_ok, details_ok


def report_block(index: int, f: Signal, g: QuantizedSignal) -> dict:
    """A block's report entry as a dict: its codes' digest and total, and
    its HaarErrorReport with each level's errors reduced to their maximum."""
    r = verify_haar_bounds(f, g)
    haar = {
        "n_exponent": r.n_exponent,
        "dc_input": r.dc_input,
        "dc_quantized": r.dc_quantized,
        "dc_error": r.dc_error,
        "dc_bound": r.dc_bound,
        "detail_levels": [
            {"level": k, "max_error": float(err.max()), "bound": float(bound)}
            for k, (err, bound) in enumerate(zip(r.detail_errors, r.detail_bounds), start=1)
        ],
        "sup_error": r.sup_error,
        "sup_bound": r.sup_bound,
        "dc_ok": r.dc_ok,
        "details_ok": r.details_ok,
        "pass": r.passed,
    }
    return {
        "index": index,
        "quantized_sha256": codes_sha256(g.values),
        "dc_total": int(g.values.sum()),
        "haar": haar,
        "pass": r.passed,
    }


def report_reference(values, n: int, config: dict, codes=None) -> str:
    """The canonical JSON report of a CLI run, built one block at a time:
    each zero-padded block's report_block dict, then dumps_canonical over
    the whole run's dict.

    values are the scaled input samples and config the run's echoed
    configuration; codes are the run's codes, or None to quantize each
    block here with config's quantizer and tie rule.
    """
    size = 1 << n
    pad = -len(values) % size
    grid = make_grid(n)
    rows = np.concatenate([np.asarray(values, dtype=np.float64), np.zeros(pad)])
    if codes is not None:
        codes = np.concatenate([np.asarray(codes, dtype=np.int64), np.zeros(pad, dtype=np.int64)])
    blocks = []
    for i, row in enumerate(rows.reshape(-1, size)):
        f = Signal(grid, row)
        if codes is not None:
            g = QuantizedSignal(grid, codes[i * size : (i + 1) * size])
        elif config["baseline"]:
            g = QuantizedSignal(grid, round_rows_reference(row, config["tie_break"]))
        else:
            g, _ = quantize_haar_optimal(f, config["tie_break"])
        blocks.append(report_block(i, f, g))
    return dumps_canonical({
        "config": config,
        "original_length": len(values),
        "pad_count": pad,
        "block_count": len(blocks),
        "blocks": blocks,
        "pass": all(block["pass"] for block in blocks),
    })
