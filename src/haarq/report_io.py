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

import collections
import contextlib
import itertools
import json
import math
import operator
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass, field, fields
from hashlib import sha256
from pathlib import Path

import numpy as np

from .haar import MAX_EXPONENT, _readonly
from .quantizer import CHUNK_SAMPLES, HaarErrorReport
from .spectral import _BASELINE_BOUND, FrequencyGrid, NoiseBoundTable

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


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_order(compute, chunks, pool=None):
    """Yield compute(*chunk) for every chunk, in input order.

    Chunks are read on the calling thread and computed on the executor
    pool, or on a pool of threads when none is given, with one worker per
    usable CPU: `workers` chunks, one per usable CPU, are submitted and
    one more is read ahead, so at most workers + 1 are in flight.  When the oldest is done, the
    next chunk is read and the one before it submitted before the result
    is handed out, so no worker waits for a result to be written, and
    with one worker no read runs beside a computation: peak memory does
    not depend on thread timing.  A lone chunk is computed on the calling
    thread; on a worker thread, the memory it frees would stay in that
    thread's malloc arena.  A chunk's error is raised after the results
    of every earlier chunk, and a read error after the results of every
    chunk read before it.
    """
    workers = _usable_cpus()
    chunks = iter(chunks)
    failure = None

    def read():
        """The next chunk; None at the end of the input or once reading failed."""
        nonlocal failure
        if failure is None:
            try:
                return next(chunks)
            except StopIteration:
                pass
            except Exception as exc:
                failure = exc
        return None

    executor = ThreadPoolExecutor(workers) if pool is None else contextlib.nullcontext(pool)
    with executor as pool:
        pending = collections.deque()  # futures of the submitted chunks, oldest first

        def submit(chunk):
            """Read the chunk after chunk, then submit chunk; return the one read."""
            following = read()
            pending.append(pool.submit(compute, *chunk))
            return following

        first, ahead = read(), read()
        if ahead is None:
            if first is not None:
                # As on a worker, the chunk is dropped once it is computed.
                result, first = compute(*first), None
                yield result
        else:
            pending.append(pool.submit(compute, *first))
        while pending:
            while ahead is not None and len(pending) < workers:
                ahead = submit(ahead)
            result = pending.popleft().result()
            if ahead is not None:
                ahead = submit(ahead)
            yield result
    if failure is not None:
        raise failure


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


def _codes_sha256(codes) -> str:
    """The SHA-256 of a block's codes as little-endian int64."""
    return sha256(np.ascontiguousarray(codes, dtype="<i8")).hexdigest()


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
        self.quantized_sha256 = _codes_sha256(quantized)
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


# How the text of a slot's value is made, by the slot's kind.
_CONVERSIONS = {"float": "%r", "int": "%d", "flag": "%s", "str": '"%s"'}
_FLAG_TEXT = {True: "true", False: "false", None: "null"}
_FLOAT_COLUMNS = ("dc_input", "dc_quantized", "dc_error", "sup_error")
_FLAG_COLUMNS = ("dc_ok", "details_ok", "sup_ok", "haar_pass", "spectrum_pass", "pass")
# The run's own slots, in the order _ReportLayout._run takes them.
_RUN_SLOTS = (("int", "original_length"), ("int", "pad_count"), ("int", "block_count"),
              ("flag", "run_pass"))


def _format(parts) -> tuple[str, list[str]]:
    """A %-format string and the names of its slots, in order, from parts
    of a layout split at its slots: text, kind, name, text, ..., text."""
    texts = [text.replace("%", "%%") for text in parts[0::3]]
    conversions = [_CONVERSIONS[kind] for kind in parts[1::3]]
    return texts[0] + "".join(c + t for c, t in zip(conversions, texts[1:])), parts[2::3]


class _ReportLayout:
    """The text of a run report whose blocks share one set of Haar
    constants, cut at the values that vary.

    dumps_canonical renders the report once, with two blocks and a slot
    for each varying value, so key order, indentation and every constant
    are its own.  Each block's entry is then a %-format string that turns
    the block's values into its text: floats by repr, as json does, ints,
    flags as true, false or null, and the quoted SHA-256.
    """

    def __init__(self, config: dict, n_exponent: int, dc_bound: float,
                 detail_bounds, sup_bound: float, slack: float):
        self.config = dict(config)
        self.levels = [f"max_error_{k}" for k in range(1, len(detail_bounds) + 1)]
        # A slot is the JSON string "<tag>kind:name", with a tag that no
        # text of the config holds, so nothing else in the report matches.
        tag = "$"
        while tag in json.dumps(self.config):
            tag += "$"

        def slot(kind, name):
            return f"{tag}{kind}:{name}"

        haar = {
            "n_exponent": n_exponent,
            "dc_bound": dc_bound,
            "sup_bound": sup_bound,
            "slack": slack,
            "detail_levels": [
                {"level": k, "max_error": slot("float", name), "bound": float(bound)}
                for k, (name, bound) in enumerate(zip(self.levels, detail_bounds), start=1)
            ],
            **{name: slot("float", name) for name in _FLOAT_COLUMNS},
            **{name: slot("flag", name) for name in ("dc_ok", "details_ok", "sup_ok")},
            "pass": slot("flag", "haar_pass"),
        }
        block = {
            "index": slot("int", "index"),
            "quantized_sha256": slot("str", "quantized_sha256"),
            "dc_total": slot("int", "dc_total"),
            "haar": haar,
            "spectrum_pass": slot("flag", "spectrum_pass"),
            "pass": slot("flag", "pass"),
        }
        text = dumps_canonical(self._run(
            [block, block], *(slot(kind, name) for kind, name in _RUN_SLOTS)
        ))
        parts = re.split(f'"{re.escape(tag)}(float|int|flag|str):(\\w+)"', text)
        # parts[3 * j + 2] names slot j.  The first block's m slots follow
        # one another from the first slot that is not the run's, and the
        # second block's follow them.
        names = parts[2::3]
        run_names = {name for _, name in _RUN_SLOTS}
        m = len(set(names) - run_names)
        i = 3 * next(j for j, name in enumerate(names) if name not in run_names)
        self.head, self.head_names = _format(parts[: i + 1])
        self.entry, self.entry_names = _format(["", *parts[i + 1 : i + 3 * m], ""])
        self.join = parts[i + 3 * m]
        self.tail, self.tail_names = _format(parts[i + 6 * m :])

    def _run(self, blocks, original_length, pad_count, block_count, passed) -> dict:
        return {
            "config": self.config,
            "original_length": original_length,
            "pad_count": pad_count,
            "block_count": block_count,
            "blocks": blocks,
            "pass": passed,
        }

    def entries(self, columns: dict, first: bool) -> str:
        """The text of consecutive blocks' entries, led by the separator
        from the entry before unless first is true.

        columns maps each of index, quantized_sha256, dc_total, the float
        and flag columns to one value per block, and detail_max to a
        (blocks, N) array; a non-finite float raises ValueError.
        """
        values = {
            name: columns[name] for name in ("index", "quantized_sha256", "dc_total")
        }
        values.update((name, _floats(columns[name])) for name in _FLOAT_COLUMNS)
        values.update(zip(self.levels, _floats(np.asarray(columns["detail_max"]).T)))
        for name in _FLAG_COLUMNS:
            flags = np.asarray(columns[name], dtype=object).tolist()
            values[name] = [_FLAG_TEXT[flag] for flag in flags]
        rows = zip(*(values[name] for name in self.entry_names))
        text = self.join.join([self.entry % row for row in rows])
        return text if first else self.join + text

    def write(self, fh, entries, original_length: int, pad_count: int,
              block_count: int, passed: bool) -> None:
        """Write the report of a run to the text stream fh, its blocks'
        entries being the texts in entries, in order."""
        if not block_count:
            fh.write(dumps_canonical(self._run([], original_length, pad_count, 0, passed)))
            return
        run = {
            "original_length": original_length,
            "pad_count": pad_count,
            "block_count": block_count,
            "run_pass": _FLAG_TEXT[passed],
        }
        fh.write(self.head % tuple(run[name] for name in self.head_names))
        fh.writelines(entries)
        fh.write(self.tail % tuple(run[name] for name in self.tail_names))


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


def _haar_constants(block: BlockResult) -> tuple:
    """The values of a block's Haar summary that a _ReportLayout holds."""
    s = block.haar_summary
    bounds = tuple(level["bound"] for level in s["detail_levels"])
    return s["n_exponent"], s["dc_bound"], bounds, s["sup_bound"], s["slack"]


def _block_columns(blocks: list[BlockResult]) -> dict:
    """The columns of _ReportLayout.entries for a list of blocks."""
    summaries = [block.haar_summary for block in blocks]
    haar = ("dc_ok", "details_ok", "sup_ok", *_FLOAT_COLUMNS)
    return {
        "index": [block.index for block in blocks],
        "quantized_sha256": [block.quantized_sha256 for block in blocks],
        "dc_total": [block.dc_total for block in blocks],
        **{name: [s[name] for s in summaries] for name in haar},
        "haar_pass": [s["pass"] for s in summaries],
        "detail_max": [[level["max_error"] for level in s["detail_levels"]] for s in summaries],
        "spectrum_pass": [block.spectrum_pass for block in blocks],
        "pass": [block.passed for block in blocks],
    }


def write_report(report: RunReport, path: str) -> None:
    """Emit the run report as canonical JSON: the bytes of
    dumps_canonical(report.to_dict()), each block rendered from the
    layout of its Haar constants."""
    if not report.blocks:
        _write_lines(path, [dumps_canonical(report.to_dict())])
        return
    layouts = {}
    runs = []  # (layout, blocks) for each run of blocks with one layout
    for key, blocks in itertools.groupby(report.blocks, key=_haar_constants):
        if key not in layouts:
            layouts[key] = _ReportLayout(report.config, *key)
        runs.append((layouts[key], list(blocks)))
    entries = (
        run_layout.entries(_block_columns(blocks), first=not i)
        for i, (run_layout, blocks) in enumerate(runs)
    )
    with _opened(path, binary=False) as fh:
        runs[0][0].write(fh, entries, report.original_length, report.pad_count,
                         len(report.blocks), report.passed)


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


def _format_spectrum_rows(lo, last_negative, keep, measured, exact, linear):
    """The text of the table rows |xi| = lo, lo + 1, ... for the values of
    the three half columns from lo on.

    Returns (zero, negative, positive, top): the row xi = 0 if lo is 0;
    the rows -xi of every xi here with a twin, highest |xi| first; the
    rows xi themselves, ascending, only when keep is true; and the row
    xi = 2**(N-1) if it is here.  Rows xi = 0 and 2**(N-1) have no twin.
    The baseline column is the same at every frequency, so its text is
    made once.
    """
    suffix = f",{_BASELINE_BOUND!r}\n"
    rows = [
        f"{xi},{m!r},{e!r},{lin!r}{suffix}"
        for xi, m, e, lin in zip(
            range(lo, lo + len(measured)), measured.tolist(), exact.tolist(),
            linear.tolist(),
        )
    ]
    # rows[a:b] have a twin -xi.
    a, b = max(lo, 1) - lo, last_negative + 1 - lo
    twinned = rows[a:b]
    # Rows end in a newline, so joining with '-' prefixes each one.
    negative = "-" + "-".join(reversed(twinned)) if twinned else ""
    positive = "".join(twinned) if keep else ""
    return "".join(rows[:a]), negative, positive, "".join(rows[b:])


def write_spectrum_csv(table: NoiseBoundTable, out, pool=None) -> None:
    """One row per frequency, ascending, with measured error and envelopes.

    out is a path ('-' for stdout), whose file is replaced only once
    written whole, or an open text stream to append to.  Every column of
    a spectrum table is even in xi, so each |xi| is formatted once: its
    row xi, prefixed with '-', is the row -xi.  The table is formatted
    in chunks of CHUNK_SAMPLES // 2 values of |xi|, from the highest |xi|
    down, and a chunk's rows -xi are written at once.  The rows xi
    follow.  A stream that can be read back (a file output, or a seekable
    and readable stream) is its own spill: they are made by reading its
    rows -xi back.  Any other stream (stdout, a pipe, a device, a
    write-only stream) has their text kept in memory until the negative
    half is written.  The chunks are formatted on the calling thread, or
    on pool, an executor, when one is given, and written in order (see
    _in_order); the bytes are the same either way.  A table with a
    non-finite value raises ValueError before the file is opened.
    """
    columns = [table.measured_half, table.bound_exact_half, table.bound_linear_half]
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
        chunks = (
            (lo, last_negative, buffer is None, *(c[lo:hi] for c in columns))
            for hi in range(size, 0, -step)
            for lo in [max(0, hi - step)]
        )
        if pool is None:
            formatted = (_format_spectrum_rows(*chunk) for chunk in chunks)
        else:
            formatted = _in_order(_format_spectrum_rows, chunks, pool)
        head = tail = ""
        kept = []  # unless spilled, each chunk's text of its rows xi with a twin
        with contextlib.closing(formatted):
            for zero, negative, positive, top in formatted:
                head += zero
                tail += top
                if negative:
                    fh.write(negative)
                    if buffer is None:
                        kept.append(positive)
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
