"""Signal ingestion, dyadic blocking, and deterministic report emission.

Readers accept one-value-per-line CSV (with '#' comments) or headerless
little-endian float64 streams, scale by the quantization step, and cut the
stream into blocks of 2**N samples.  Writers render every float as its
shortest round-trip text (Python's repr), so files parse back to the same
float64 bits and identical runs produce byte-identical files.
"""

import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass, field, fields
from hashlib import sha256
from pathlib import Path

import numpy as np

from .haar import MAX_EXPONENT, _readonly
from .quantizer import HaarErrorReport
from .spectral import FrequencyGrid, NoiseBoundTable

__all__ = [
    "FORMATS",
    "PAD_POLICIES",
    "InputFormatError",
    "InputSpec",
    "BlockedInput",
    "BlockResult",
    "RunReport",
    "read_signal",
    "write_values",
    "write_report",
    "write_spectrum_csv",
    "format_float",
    "dumps_canonical",
]

FORMATS = ("csv", "raw_f64_le")
PAD_POLICIES = ("zero_pad_last", "reject_partial")


class InputFormatError(ValueError):
    """Raised when an input stream cannot be parsed as signal data."""


@dataclass(frozen=True)
class InputSpec:
    """Where and how to read a signal; path '-' means standard input."""

    path: str
    block_exponent: int
    format: str = "csv"
    scale_delta: float = 1.0
    pad_policy: str = "zero_pad_last"

    def __post_init__(self):
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")
        if self.pad_policy not in PAD_POLICIES:
            raise ValueError(f"pad_policy must be one of {PAD_POLICIES}")
        n = operator.index(self.block_exponent)
        if not 0 <= n <= MAX_EXPONENT:
            raise ValueError(
                f"block_exponent must be in [0, {MAX_EXPONENT}], got {n}"
            )
        object.__setattr__(self, "block_exponent", n)
        delta = float(self.scale_delta)
        if not (math.isfinite(delta) and delta > 0.0):
            raise ValueError("scale_delta must be finite and > 0")
        object.__setattr__(self, "scale_delta", delta)


@dataclass(frozen=True, eq=False)
class BlockedInput:
    """Scaled samples as a read-only (blocks, 2**N) array, one block per row,
    plus the blocking bookkeeping."""

    values: np.ndarray
    original_length: int
    pad_count: int


def _read_csv_values(lines, source: str) -> np.ndarray:
    values = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            value = float(text)
        except ValueError:
            raise InputFormatError(
                f"{source}:{lineno}: not a number: {text!r}"
            ) from None
        if not math.isfinite(value):
            raise InputFormatError(f"{source}:{lineno}: non-finite sample {text!r}")
        values.append(value)
    return np.array(values, dtype=np.float64)


def _read_raw_values(data: bytes, source: str) -> np.ndarray:
    if len(data) % 8:
        raise InputFormatError(
            f"{source}: raw stream length {len(data)} is not a multiple of 8"
        )
    values = np.frombuffer(data, dtype="<f8").astype(np.float64, copy=False)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InputFormatError(f"{source}: non-finite sample at index {bad[0]}")
    return values


def read_signal(spec: InputSpec) -> BlockedInput:
    """Read, scale by 1/delta, and split into blocks of 2**N samples.

    A trailing partial block is zero padded (padding applied after scaling,
    so pad samples are exactly 0) or rejected, per the pad policy.
    """
    source = "<stdin>" if spec.path == "-" else spec.path
    if spec.format == "csv":
        if spec.path == "-":
            raw = _read_csv_values(sys.stdin, source)
        else:
            with open(spec.path, "r", encoding="utf-8") as fh:
                raw = _read_csv_values(fh, source)
    else:
        if spec.path == "-":
            data = sys.stdin.buffer.read()
        else:
            data = Path(spec.path).read_bytes()
        raw = _read_raw_values(data, source)

    scaled = raw / spec.scale_delta
    size = 1 << spec.block_exponent
    original_length = scaled.shape[0]
    remainder = original_length % size
    pad_count = 0
    if remainder:
        if spec.pad_policy == "reject_partial":
            raise InputFormatError(
                f"{source}: length {original_length} is not a multiple of {size}"
            )
        pad_count = size - remainder
        scaled = np.concatenate([scaled, np.zeros(pad_count)])

    return BlockedInput(
        values=_readonly(scaled.reshape(-1, size)),
        original_length=original_length,
        pad_count=pad_count,
    )


def format_float(x: float) -> str:
    """Shortest round-trip text of a finite float; 1.0 keeps its '.0'."""
    return repr(_floats(x))


def dumps_canonical(obj) -> str:
    """Key-sorted JSON, 2-space indent, shortest round-trip floats; NaN raises."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


@dataclass
class BlockResult:
    """Verification outcome for one block."""

    index: int
    quantized: np.ndarray
    dc_total: int
    haar: HaarErrorReport
    spectrum_pass: bool | None = None

    @property
    def passed(self) -> bool:
        return self.haar.passed and self.spectrum_pass is not False

    def to_dict(self) -> dict:
        r = self.haar
        haar_summary = {
            f.name: getattr(r, f.name)
            for f in fields(r)
            if f.name not in ("detail_errors", "detail_bounds")
        }
        levels = zip(r.detail_errors, r.detail_bounds)
        haar_summary["detail_levels"] = [
            {"level": k, "max_error": float(err.max()), "bound": float(bound)}
            for k, (err, bound) in enumerate(levels, start=1)
        ]
        haar_summary["pass"] = r.passed
        return {
            "index": self.index,
            "quantized_sha256": sha256(self.quantized.astype("<i8")).hexdigest(),
            "dc_total": self.dc_total,
            "haar": haar_summary,
            "spectrum_pass": self.spectrum_pass,
            "pass": self.passed,
        }


@dataclass
class RunReport:
    """Whole-run verification summary; global pass is the AND over blocks."""

    config: dict
    original_length: int
    pad_count: int
    blocks: list[BlockResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(block.passed for block in self.blocks)

    def to_dict(self) -> dict:
        return {
            "config": dict(self.config),
            "original_length": self.original_length,
            "pad_count": self.pad_count,
            "block_count": len(self.blocks),
            "blocks": [block.to_dict() for block in self.blocks],
            "pass": self.passed,
        }


def _floats(column):
    """Finite values as Python floats, whose repr is the shortest round-trip text."""
    arr = np.asarray(column, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("cannot render non-finite value")
    return arr.tolist()


def _write_lines(path: str, lines) -> None:
    """Write an iterable of text lines to a file, or to stdout for '-'."""
    if path == "-":
        sys.stdout.writelines(lines)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def _write_bytes(path: str, data) -> None:
    if path == "-":
        sys.stdout.buffer.write(data)
        return
    Path(path).write_bytes(data)


def write_values(path: str, values: np.ndarray, format: str = "csv") -> None:
    """Write samples in the given format; integer arrays render as integers."""
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}")
    arr = np.asarray(values)
    if format == "raw_f64_le":
        _write_bytes(path, arr.astype("<f8"))
    elif np.issubdtype(arr.dtype, np.integer):
        _write_lines(path, (f"{v}\n" for v in arr.tolist()))
    else:
        _write_lines(path, (f"{v!r}\n" for v in _floats(arr)))


def write_report(report: RunReport, path: str) -> None:
    """Emit the run report as canonical JSON."""
    _write_lines(path, [dumps_canonical(report.to_dict())])


_SPECTRUM_HEADER = "xi,measured,bound_exact,bound_linear,baseline_bound\n"


def _nonneg_half(column, grid: FrequencyGrid) -> list:
    """A column's values at xi = 0..2**(N-1), once it is bitwise even in xi."""
    arr = np.asarray(column, dtype=np.float64)
    zero = grid.index_of(0)
    bits = arr.view(np.int64)
    mirrored = bits[2 * zero : zero : -1]
    if arr.shape != (grid.size,) or not np.array_equal(bits[:zero], mirrored):
        raise ValueError("spectrum table column is not even in xi, bit for bit")
    return _floats(arr[zero:])


def write_spectrum_csv(table: NoiseBoundTable, path: str) -> None:
    """One row per frequency, ascending, with measured error and envelopes.

    Every column of a spectrum table is even in xi, so each |xi| is
    formatted once and its text serves the rows xi and -xi.  A table whose
    frequencies are not its grid's, or with a column that is not bitwise
    even or not finite, raises ValueError before the file is opened.
    """
    grid = FrequencyGrid(table.n_exponent)
    if not np.array_equal(table.frequencies, grid.frequencies):
        raise ValueError("spectrum table frequencies are not its grid's")
    columns = (
        table.measured, table.bound_exact, table.bound_linear, table.baseline_bound
    )
    suffixes = [
        f",{m!r},{e!r},{lin!r},{b!r}\n"
        for m, e, lin, b in zip(*(_nonneg_half(c, grid) for c in columns))
    ]
    # The grid holds index_of(0) negative frequencies.
    rows = itertools.chain(
        (f"-{xi}{suffixes[xi]}" for xi in range(grid.index_of(0), 0, -1)),
        (f"{xi}{suffix}" for xi, suffix in enumerate(suffixes)),
    )
    _write_lines(path, itertools.chain([_SPECTRUM_HEADER], rows))
