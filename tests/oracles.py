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
    BlockResult, FrequencyGrid, QuantizedSignal, RunReport, Signal, dumps_canonical, make_grid,
    quantize_haar_optimal, quantize_simple, spectrum_error, verify_haar_bounds,
)


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


def parity_choice_oracle(target: float, parity: str, tie_break: str) -> int:
    """Enumerate nearby integers of the right parity and pick the closest.

    Distances are exact rationals, so near-ties are never decided by float
    rounding.
    """
    p = 0 if parity == "even" else 1
    t = Fraction(target)
    lo = math.floor(t) - 2
    hi = math.ceil(t) + 2
    distance = {c: abs(c - t) for c in range(lo, hi + 1) if (c - p) % 2 == 0}
    candidates = [c for c, d in distance.items() if d <= 1]
    best = min(distance[c] for c in candidates)
    tied = [c for c in candidates if distance[c] == best]
    return min(tied) if tie_break == "toward_negative" else max(tied)


def spectrum_csv_reference(table) -> str:
    """A noise table's CSV text with every row formatted on its own, in
    ascending frequency, from the columns mirrored onto the full grid."""
    def full(half):
        return np.concatenate([half[-2:0:-1], half]).tolist()

    columns = [full(np.asarray(c)) for c in (
        table.measured_half, table.bound_exact_half, table.bound_linear_half,
    )] + [np.asarray(table.baseline_bound).tolist()]
    lines = ["xi,measured,bound_exact,bound_linear,baseline_bound\n"]
    for xi, *values in zip(FrequencyGrid(table.n_exponent).frequencies.tolist(), *columns):
        lines.append(",".join([str(xi)] + [repr(v) for v in values]) + "\n")
    return "".join(lines)


def dft_by_sum(f: Signal, xi: int) -> complex:
    """Single-frequency transform by direct summation."""
    t = f.grid.samples
    return complex(np.sum(np.exp(-2j * np.pi * t * xi) * f.values) / f.grid.size)


@lru_cache(maxsize=4)
def _dft_matrix(n: int) -> np.ndarray:
    freqs = FrequencyGrid(n).frequencies
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


def _nearest_of_parity(target: np.ndarray, parity: np.ndarray, tie_break: str) -> np.ndarray:
    """Nearest integer of the given parity (0 or 1) to each float target.

    With i = floor(target): i when it has the parity; otherwise i + 1,
    unless target is i exactly, where i - 1 and i + 1 tie at distance 1.
    """
    floor = np.floor(target)
    i = floor.astype(np.int64)
    tie = (target == floor) & (tie_break == "toward_negative")
    return np.where((i - parity) % 2 == 0, i, np.where(tie, i - 1, i + 1))


def quantize_rows_reference(values, tie_break="toward_negative") -> np.ndarray:
    """Codes of every row of a (rows, 2**N) array by the whole-block
    per-level descent: the full totals pyramid, then one level at a time
    from the rounded grand total down to the samples."""
    totals = [np.asarray(values, dtype=np.float64)]
    while totals[0].shape[-1] > 1:
        totals.insert(0, totals[0][:, 0::2] + totals[0][:, 1::2])
    floor = np.floor(totals[0])
    frac = totals[0] - floor  # exact
    up = (frac > 0.5) | ((frac == 0.5) & (tie_break == "toward_positive"))
    parent = floor.astype(np.int64) + up
    for v in totals[1:]:
        diff = _nearest_of_parity(v[:, 1::2] - v[:, 0::2], parent % 2, tie_break)
        child = np.empty(v.shape, dtype=np.int64)
        child[:, 0::2] = (parent - diff) // 2
        child[:, 1::2] = (parent + diff) // 2
        parent = child
    return parent


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


def satisfies_all_haar_bounds(f: Signal, g_values, slack: float = 1e-12) -> bool:
    """Check the DC, per-level and sup bounds using only naive dot products."""
    n = f.grid.n_exponent
    g = Signal(f.grid, np.array(g_values, dtype=float))
    if abs(naive_coefficient(f, 0, 1) - naive_coefficient(g, 0, 1)) > 2.0 ** (-n - 1) + slack:
        return False
    for k in range(1, n + 1):
        bound = 2.0 ** (-n + (k - 1) / 2)
        for j in range(1, 2 ** (k - 1) + 1):
            if abs(naive_coefficient(f, k, j) - naive_coefficient(g, k, j)) > bound + slack:
                return False
    sup = float(np.abs(f.values - g.values).max())
    return sup <= 1.0 - 2.0 ** (-n - 1) + slack


def report_reference(values, n: int, config: dict, codes=None, spectrum: bool = False) -> str:
    """The canonical JSON report of a CLI run, built one block at a time:
    each zero-padded block's HaarErrorReport, its BlockResult.to_dict(),
    and dumps_canonical over the whole RunReport.to_dict().

    values are the scaled input samples and config the run's echoed
    configuration; codes are the run's codes, or None to quantize each
    block here with config's quantizer and tie rule.  spectrum adds each
    block's spectrum pass flag, as verify does.
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
            g = quantize_simple(f, config["tie_break"])
        else:
            g, _ = quantize_haar_optimal(f, config["tie_break"])
        blocks.append(BlockResult(
            index=i,
            quantized=g.values,
            dc_total=int(g.values.sum()),
            haar=verify_haar_bounds(f, g),
            spectrum_pass=spectrum_error(f, g).all_pass if spectrum else None,
        ))
    return dumps_canonical(RunReport(config, len(values), pad, blocks).to_dict())
