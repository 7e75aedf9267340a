"""Signal ingestion, dyadic blocking, and deterministic report emission.

Readers accept one-value-per-line CSV (with '#' comments) or headerless
little-endian float64 streams, scale by the quantization step, and cut the
stream into blocks of 2**N samples.  Writers render every float with 17
significant digits so identical runs produce byte-identical files.
"""

import json
import math
import operator
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .haar import MAX_EXPONENT, _readonly
from .quantizer import HaarErrorReport
from .spectral import NoiseBoundTable

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
    """Render with 17 significant digits; round trips float64 exactly."""
    value = float(x)
    if not math.isfinite(value):
        raise ValueError("cannot render non-finite value")
    text = format(value, ".17g")
    if "." not in text and "e" not in text:
        text += ".0"
    return text


def _canon(obj, depth: int) -> str:
    pad = "  " * depth
    inner_pad = "  " * (depth + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ",\n".join(inner_pad + _canon(v, depth + 1) for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            parts.append(
                inner_pad + json.dumps(key) + ": " + _canon(obj[key], depth + 1)
            )
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def dumps_canonical(obj) -> str:
    """Key-sorted JSON with 17-significant-digit floats; byte deterministic."""
    return _canon(obj, 0) + "\n"


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
            "n_exponent": r.n_exponent,
            "dc_input": r.dc_input,
            "dc_quantized": r.dc_quantized,
            "dc_error": r.dc_error,
            "dc_bound": r.dc_bound,
            "detail_levels": [
                {"level": k, "max_error": float(err.max()), "bound": float(bound)}
                for k, (err, bound) in enumerate(
                    zip(r.detail_errors, r.detail_bounds), start=1
                )
            ],
            "sup_error": r.sup_error,
            "sup_bound": r.sup_bound,
            "slack": r.slack,
            "dc_ok": r.dc_ok,
            "details_ok": r.details_ok,
            "sup_ok": r.sup_ok,
            "pass": r.passed,
        }
        return {
            "index": self.index,
            "quantized": [int(v) for v in self.quantized],
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


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


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
    if format == "csv":
        if np.issubdtype(arr.dtype, np.integer):
            lines = [str(int(v)) for v in arr]
        else:
            lines = [format_float(v) for v in arr]
        _write_text(path, "".join(line + "\n" for line in lines))
    else:
        _write_bytes(path, arr.astype("<f8"))


def write_report(report: RunReport, path: str) -> None:
    """Emit the run report as canonical JSON."""
    _write_text(path, dumps_canonical(report.to_dict()))


def write_spectrum_csv(table: NoiseBoundTable, path: str) -> None:
    """One row per frequency, ascending, with measured error and envelopes."""
    lines = ["xi,measured,bound_exact,bound_linear,baseline_bound"]
    for i, xi in enumerate(table.frequencies):
        lines.append(
            ",".join(
                [
                    str(int(xi)),
                    format_float(table.measured[i]),
                    format_float(table.bound_exact[i]),
                    format_float(table.bound_linear[i]),
                    format_float(table.baseline_bound[i]),
                ]
            )
        )
    _write_text(path, "".join(line + "\n" for line in lines))
