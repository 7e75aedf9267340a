"""Signal ingestion, dyadic blocking, and deterministic report emission.

Readers accept one-value-per-line CSV (with '#' comments) or headerless
little-endian float64 streams, scale by the quantization step, and cut the
stream into blocks of 2**N samples, yielded one chunk of blocks at a time
so that memory does not grow with the input.  Writers render every float
as its shortest round-trip text (Python's repr), so files parse back to
the same float64 bits and identical runs produce byte-identical files.
They take a path, whose file is replaced only once it is written whole,
or an open stream to append one chunk to.
"""

import contextlib
import itertools
import json
import math
import operator
import os
import sys
from dataclasses import InitVar, dataclass, field, fields
from hashlib import sha256
from pathlib import Path

import numpy as np

from .haar import MAX_EXPONENT, _readonly
from .quantizer import CHUNK_SAMPLES, HaarErrorReport
from .spectral import FrequencyGrid, NoiseBoundTable

__all__ = [
    "FORMATS",
    "PAD_POLICIES",
    "InputFormatError",
    "InputSpec",
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


def _read_csv_values(lines, source: str, first_lineno: int) -> np.ndarray:
    """The line parser: skips blank and '#' lines, names the first bad one."""
    values = []
    for lineno, line in enumerate(lines, start=first_lineno):
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


def _csv_pieces(fh, source: str, count: int):
    """Samples of successive chunks of `count` lines.

    NumPy converts each line with float(), so a chunk of plain numbers
    parses in one call, to the same bits; a chunk that this rejects or
    that holds a non-finite value goes through the line parser instead.
    """
    first_lineno = 1
    while lines := list(itertools.islice(fh, count)):
        try:
            values = np.array(lines, dtype=np.float64)
        except ValueError:
            values = None
        if values is None or not np.all(np.isfinite(values)):
            values = _read_csv_values(lines, source, first_lineno)
        yield values
        first_lineno += len(lines)


def _raw_pieces(fh, source: str, count: int):
    """Samples of successive reads of `count` little-endian float64 values,
    each read into an array of its own."""
    done = 0
    while True:
        values = np.empty(count, dtype="<f8")
        got = fh.readinto(values)
        if not got:
            return
        if got % 8:
            raise InputFormatError(
                f"{source}: raw stream length {8 * done + got} is not a multiple of 8"
            )
        values = values[: got // 8]
        if not np.isfinite(values).all():
            bad = np.flatnonzero(~np.isfinite(values))[0]
            raise InputFormatError(f"{source}: non-finite sample at index {done + bad}")
        yield values
        done += values.size


def _exact_pieces(pieces, count: int):
    """Re-cut a stream of sample arrays into arrays of exactly `count`
    samples; only the last may be shorter, and none is empty."""
    rest = np.empty(0)
    for piece in pieces:
        buf = np.concatenate([rest, piece]) if rest.size else piece
        cut = buf.size - buf.size % count
        for a in range(0, cut, count):
            yield buf[a : a + count]
        rest = buf[cut:]
    if rest.size:
        yield rest


def _open_input(path: str, binary: bool):
    if path == "-":
        return contextlib.nullcontext(sys.stdin.buffer if binary else sys.stdin)
    if binary:
        return open(path, "rb")
    return open(path, "r", encoding="utf-8")


def read_signal(spec: InputSpec):
    """Yield the signal, scaled by 1/delta, one chunk at a time.

    Each item is (first_block, rows, valid): rows is a read-only
    (k, 2**N) array of k consecutive blocks starting at block first_block,
    and valid the number of input samples in it.  Every chunk holds
    max(1, CHUNK_SAMPLES >> N) blocks except the last, which alone may
    end in a partial block.  That block is zero padded (after scaling, so
    pad samples are exactly 0) or, per the pad policy, rejected once the
    input has ended.  An empty input yields nothing.  The input is opened
    when the first chunk is asked for, and a malformed sample raises
    InputFormatError when its chunk is read.
    """
    size = 1 << spec.block_exponent
    count = max(1, CHUNK_SAMPLES >> spec.block_exponent) * size
    source = "<stdin>" if spec.path == "-" else spec.path
    binary = spec.format == "raw_f64_le"
    with _open_input(spec.path, binary) as fh:
        pieces = (_raw_pieces if binary else _csv_pieces)(fh, source, count)
        first_block = length = 0
        for values in _exact_pieces(pieces, count):
            valid = values.size
            length += valid
            # Every piece is a new array or a part of one that no other
            # chunk shares, so it is scaled in place; x / 1.0 is x.
            if spec.scale_delta != 1.0:
                values /= spec.scale_delta
            if valid % size:
                if spec.pad_policy == "reject_partial":
                    raise InputFormatError(
                        f"{source}: length {length} is not a multiple of {size}"
                    )
                values = np.concatenate([values, np.zeros(-valid % size)])
            rows = _readonly(values.reshape(-1, size))
            yield first_block, rows, valid
            first_block += rows.shape[0]


def format_float(x: float) -> str:
    """Shortest round-trip text of a finite float; 1.0 keeps its '.0'."""
    return repr(_floats(x))


def dumps_canonical(obj) -> str:
    """Key-sorted JSON, 2-space indent, shortest round-trip floats; NaN raises."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _haar_summary(r: HaarErrorReport) -> dict:
    """A block's Haar report with each level's errors reduced to their maximum."""
    summary = {
        f.name: getattr(r, f.name)
        for f in fields(r)
        if f.name not in ("detail_errors", "detail_bounds")
    }
    levels = zip(r.detail_errors, r.detail_bounds)
    summary["detail_levels"] = [
        {"level": k, "max_error": float(err.max()), "bound": float(bound)}
        for k, (err, bound) in enumerate(levels, start=1)
    ]
    summary["pass"] = r.passed
    return summary


@dataclass
class BlockResult:
    """Verification outcome for one block.

    It keeps the SHA-256 of the block's codes (as little-endian int64) and
    a per-level summary of its Haar report, not the codes or the errors, so
    a run's results grow with its blocks and levels, not with its samples.
    """

    index: int
    quantized: InitVar[np.ndarray]
    dc_total: int
    haar: InitVar[HaarErrorReport]
    spectrum_pass: bool | None = None
    quantized_sha256: str = field(init=False)
    haar_summary: dict = field(init=False)

    def __post_init__(self, quantized, haar):
        codes = np.ascontiguousarray(quantized, dtype="<i8")
        self.quantized_sha256 = sha256(codes).hexdigest()
        self.haar_summary = _haar_summary(haar)

    @property
    def passed(self) -> bool:
        return self.haar_summary["pass"] and self.spectrum_pass is not False

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "quantized_sha256": self.quantized_sha256,
            "dc_total": self.dc_total,
            "haar": self.haar_summary,
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


class _Outputs:
    """The files one command writes, put in place together.

    open() gives the stream for one output.  A file output is written to a
    new temporary file beside its target, opened for reading too, so that
    a writer may read back what it wrote, as write_spectrum_csv does.
    When the `with` block ends without error, every temporary file is
    renamed onto its target; when it raises, they are all removed, so a
    failed run leaves no output file, and an output may replace the input
    it was made from.  Path '-' is standard output, written as the data is
    made.  A device or a pipe is written in place, and cannot be read.
    """

    def __init__(self):
        self._pending = []

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            while exc_type is None and self._pending:
                os.replace(*self._pending.pop())
        finally:
            for tmp, _ in self._pending:
                Path(tmp).unlink(missing_ok=True)

    @contextlib.contextmanager
    def open(self, path: str, binary: bool):
        if path == "-":
            yield sys.stdout.buffer if binary else sys.stdout
            return
        # A symbolic link keeps pointing at the file it names, and what is
        # not a regular file, such as a device or a pipe, is written in place.
        target = os.path.realpath(path)
        in_place = os.path.exists(target) and not os.path.isfile(target)
        head, name = os.path.split(target)
        tmp = target if in_place else os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
        mode = ("w" if in_place else "x+") + ("b" if binary else "")
        text = {} if binary else {"encoding": "utf-8", "newline": "\n"}
        with open(tmp, mode, **text) as fh:
            if not in_place:
                self._pending.append((tmp, target))
            yield fh


@contextlib.contextmanager
def _opened(out, binary: bool):
    """out itself when it is an open stream; else a stream to the file at
    path out, which replaces it only once it is written whole."""
    if isinstance(out, (str, os.PathLike)):
        with _Outputs() as outputs, outputs.open(os.fspath(out), binary) as fh:
            yield fh
    else:
        yield out


def _write_lines(out, lines) -> None:
    """Write an iterable of text lines to a path ('-' for stdout) or stream."""
    with _opened(out, binary=False) as fh:
        fh.writelines(lines)


def write_values(out, values: np.ndarray, format: str = "csv") -> None:
    """Write samples in the given format; integer arrays render as integers.

    out is a path ('-' for stdout), whose file is replaced only once
    written whole, or an open stream to append to (binary for raw, text
    for CSV), which takes a long output one chunk at a time.
    """
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}")
    arr = np.asarray(values)
    binary = format == "raw_f64_le"
    if binary:
        data = arr.astype("<f8", copy=False)
    elif np.issubdtype(arr.dtype, np.integer):
        data = ("%d\n" * arr.size) % tuple(arr.tolist())
    else:
        data = "".join([f"{v!r}\n" for v in _floats(arr)])
    with _opened(out, binary) as fh:
        fh.write(data)


def write_report(report: RunReport, path: str) -> None:
    """Emit the run report as canonical JSON."""
    _write_lines(path, [dumps_canonical(report.to_dict())])


_SPECTRUM_HEADER = "xi,measured,bound_exact,bound_linear,baseline_bound\n"


def _spill(fh):
    """The binary buffer under a text stream that can read back what is
    written to it, with ASCII text as its own bytes; else None."""
    buffer = getattr(fh, "buffer", None)
    if buffer is None or not (fh.seekable() and fh.readable()):
        return None
    return buffer if "-".encode(fh.encoding) == b"-" else None


def _append_unmirrored(buffer, ends) -> None:
    """Append the rows xi made from the rows -xi between successive ends,
    the last range first: each row's '-' stripped and the rows reversed."""
    for start, end in reversed(list(itertools.pairwise(ends))):
        pos = buffer.tell()
        buffer.seek(end - 1)
        newline = buffer.read(1)  # the last byte of the stream's line ending
        buffer.seek(start + 1)  # past the first row's '-'
        rows = buffer.read(end - start - 2).split(newline + b"-")
        rows.reverse()
        buffer.seek(pos)
        buffer.write(newline.join(rows))
        buffer.write(newline)


def write_spectrum_csv(table: NoiseBoundTable, out) -> None:
    """One row per frequency, ascending, with measured error and envelopes.

    out is a path ('-' for stdout), whose file is replaced only once
    written whole, or an open text stream to append to.  Every column of
    a spectrum table is even in xi, so each |xi| is formatted once: its
    row xi, prefixed with '-', is the row -xi.  The table is formatted
    in chunks of CHUNK_SAMPLES rows, from the highest |xi| down, and a
    chunk's rows -xi are written at once.  The rows xi follow.  A stream
    that can be read back (a file output, or a seekable and readable
    stream) is its own spill: they are made by reading its rows -xi back.
    Any other stream (stdout, a pipe, a device, a write-only stream) has
    their text kept in memory until the negative half is written.  A
    table with a non-finite value raises ValueError before the file is
    opened.
    """
    columns = [
        table.measured_half, table.bound_exact_half, table.bound_linear_half,
        table.baseline_bound_half,
    ]
    if not all(np.isfinite(c).all() for c in columns):
        raise ValueError("cannot render non-finite value")
    # The grid's negative frequencies are -1 .. -last_negative.
    last_negative = FrequencyGrid(table.n_exponent).index_of(0)
    size = columns[0].size
    step = CHUNK_SAMPLES // 2  # values of |xi| per chunk, two rows each
    with _opened(out, binary=False) as fh:
        fh.write(_SPECTRUM_HEADER)
        buffer = _spill(fh)
        if buffer is not None:
            fh.flush()
            ends = [buffer.tell()]  # where each chunk's rows -xi end
        kept = []  # unless spilled, each chunk's text of its rows xi with a twin
        for hi in range(size, 0, -step):
            lo = max(0, hi - step)
            rows = [
                f"{xi},{m!r},{e!r},{lin!r},{b!r}\n"
                for xi, m, e, lin, b in zip(
                    range(lo, hi), *(c[lo:hi].tolist() for c in columns)
                )
            ]
            # rows[a:b] have a twin -xi; xi = 0 and 2**(N-1) have none.
            a, b = max(lo, 1) - lo, last_negative + 1 - lo
            if hi == size:
                tail = "".join(rows[b:])
            if lo == 0:
                head = "".join(rows[:a])
            if rows[a:b]:
                # Rows end in a newline, so joining with '-' prefixes each one.
                fh.write("-")
                fh.write("-".join(reversed(rows[a:b])))
                if buffer is None:
                    kept.append("".join(rows[a:b]))
                else:
                    fh.flush()
                    ends.append(buffer.tell())
        fh.write(head)
        if buffer is None:
            fh.writelines(reversed(kept))
        else:
            fh.flush()
            _append_unmirrored(buffer, ends)
        fh.write(tail)
