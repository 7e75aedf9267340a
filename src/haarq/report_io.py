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

import codecs
import collections
import contextlib
import functools
import itertools
import json
import math
import os
import re
import shutil
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from hashlib import sha256
from pathlib import Path

import numpy as np

from .haar import _check_exponent, _readonly
from .quantizer import _haar_bounds
from .spectral import _BASELINE_BOUND, NoiseBoundTable

__all__ = [
    "InputFormatError",
    "InputSpec",
    "read_signal",
    "write_values",
    "write_spectrum_csv",
    "format_float",
    "dumps_canonical",
]

FORMATS = ("csv", "raw_f64_le")
PAD_POLICIES = ("zero_pad_last", "reject_partial")

# Every stage works on chunks of about this many samples: (rows, 2**N)
# arrays of 512 KiB of float64, so each stage's temporaries stay in cache
# and memory does not grow with the input.  Blocks of 2**16 samples or
# more are one chunk each.
CHUNK_SAMPLES = 1 << 16


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
        n = _check_exponent(self.block_exponent, "block_exponent")
        object.__setattr__(self, "block_exponent", n)
        delta = float(self.scale_delta)
        if not (math.isfinite(delta) and delta > 0.0):
            raise ValueError("scale_delta must be finite and > 0")
        object.__setattr__(self, "scale_delta", delta)


def _read_csv_values(lines, source: str, linenos,
                     codes: bool) -> tuple[list[float], Exception | None]:
    """The line parser: the value of each line, NaN for a blank or '#'
    line, up to the first bad line, and the error that names it (or None).
    With codes, a line whose exact value float64 does not hold, or that is
    not an integer, is bad."""
    values = []
    for lineno, line in zip(linenos, lines):
        text = line.strip()
        if not text or text.startswith("#"):
            values.append(math.nan)
            continue
        try:
            value = float(text)
        except ValueError:
            return values, InputFormatError(f"{source}:{lineno}: not a number: {text!r}")
        if not math.isfinite(value):
            return values, InputFormatError(f"{source}:{lineno}: non-finite sample {text!r}")
        if codes:
            try:
                exact = Decimal(text) == Decimal(value)
            except InvalidOperation:  # an exponent beyond Decimal's range
                exact = False
            if not exact:
                return values, InputFormatError(
                    f"{source}:{lineno}: not exact in float64: {text!r}")
            if not value.is_integer():
                return values, InputFormatError(f"{source}:{lineno}: not an integer: {text!r}")
        values.append(value)
    return values, None


# Bulk CSV reading.  A plain line, [+-]?digits[.digits] with '5.' and '.5'
# allowed and at most 18 digits, is w / 10**frac for the integer w of its
# digits.  With both exact in a binary format of p >= 64 significant bits
# whose division is correctly rounded, their quotient is rounded once, to
# p bits (Clinger, "How to read floating point numbers accurately", PLDI
# 1990).  Rounding that to float64 gives float()'s bits unless it lands on
# a float64 midpoint: every midpoint has at most 54 significant bits, so
# no p-bit rounding carries a value across one.  Every other line takes
# the line path.

# Bytes of CSV read at a time.  The kernel's temporaries, about 7 times
# the read, then stay in the heap that glibc keeps between reads; from
# 2**18 on, glibc may give them back after a read, and the next read
# faults them in again.
_READ_BYTES = 1 << 17
# Whether np.longdouble is x87 extended (64-bit significand) or IEEE quad
# (113-bit): the formats whose division the argument above holds for.
# Elsewhere, such as IBM double-double, every line takes the line path.
_EXTENDED = np.finfo(np.longdouble).nmant in (63, 112)
# 10**0 .. 10**18, exact in either format.
_DECIMAL_POWERS = np.cumprod(np.r_[1, np.full(18, 10)].astype(np.longdouble))


def _plain_values(buf, codes: bool):
    """The lines of ASCII bytes ending in '\\n': where each starts and
    ends (at its '\\n'), and the float64 of each plain line it decides;
    NaN for every other line and, with codes, for a line whose value
    float64 may not hold or that is not an integer.  Every byte that is
    not a digit is special; a plain line's are its newline, its sign and
    its dot."""
    # uint8 wraps every byte below '0' above 9.
    special = np.flatnonzero(np.subtract(buf, 48, dtype=np.uint8) > 9)
    kinds = buf[special]
    nl = np.flatnonzero(kinds == 10)
    ends = special[nl]
    starts = np.empty_like(ends)
    starts[:1] = 0
    starts[1:] = ends[:-1] + 1
    # Of a plain line's specials, but its newline, a sign is first and a dot last.
    count = np.diff(nl, prepend=-1) - 1
    first = buf[starts]
    signed = (first == 43) | (first == 45)
    last = nl - 1
    dotted = (count > 0) & (kinds[last] == 46)
    digits = ends - starts - count
    # Up to 18 digits, w < 2**63 and fromstring does not saturate; a line
    # has no fewer digits than it has after its dot.
    plain = (count - dotted - signed == 0) & (digits > 0) & (digits <= 18)
    keep = buf != 46
    if not plain.all():
        keep &= np.repeat(plain, ends - starts + 1)
    w = np.fromstring(buf[keep].tobytes(), dtype=np.int64, sep="\n")
    np.abs(w, out=w)
    y = w.astype(np.longdouble)
    y /= _DECIMAL_POWERS[np.where(dotted, ends - special[last] - 1, 0)[plain]]
    z = y.astype(np.float64)
    # y - z is exact, and where y is a midpoint it is a power of two, which
    # float64 holds: then d is half the gap from z to its neighbour toward y
    # (a d that is only rounded to that leaves its line undecided too).
    y -= z
    d = y.astype(np.float64)
    near = np.flatnonzero((d.view(np.uint64) << 12 == 0) & (d != 0))
    gap = np.abs(np.nextafter(z[near], np.copysign(np.inf, d[near])) - z[near])
    z[near[2 * np.abs(d[near]) == gap]] = np.nan
    if codes:
        # Up to 18 digits, y == z for an integer z only where the line is z;
        # the line parser names every other line.
        z[(d != 0) | (z != np.rint(z))] = np.nan
    np.negative(z, out=z, where=(first == 45)[plain])
    values = np.full(ends.size, np.nan)
    values[plain] = z
    return starts, ends, values


def _csv_block(buf: bytes, source: str, first_lineno: int, codes: bool):
    """The samples of a block of whole CSV lines, those before its first
    bad line; its number of lines; and the InputFormatError that names
    that line, or None.  With codes, a line whose exact value float64
    does not hold, or that is not an integer, is bad.

    Lines end as in text mode: '\\r\\n' and a lone '\\r' are newlines.
    The lines the kernel does not decide are decoded once, as UTF-8 with
    every byte that is not UTF-8 a lone surrogate, which no number holds
    and a '#' line may.
    """
    if b"\r" in buf:
        buf = buf.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not buf.endswith(b"\n"):
        buf += b"\n"
    if _EXTENDED and buf.isascii():
        starts, ends, values = _plain_values(np.frombuffer(buf, np.uint8), codes)
        count = ends.size
        other = np.flatnonzero(np.isnan(values))
    else:
        count = buf.count(b"\n")
        values, other = np.empty(count), np.arange(count)
    # The line path.  NumPy converts each line with float(), to the same
    # bits; lines that this rejects or that hold a non-finite value, and
    # codes, go through the line parser instead.
    texts = []
    if other.size:
        text = buf.decode("utf-8", "surrogateescape")
        # Where the kernel ran the block is ASCII: a byte offset is a character's.
        texts = (text.split("\n")[:-1] if other.size == count else
                 [text[a:b] for a, b in zip(starts[other].tolist(), ends[other].tolist())])
    error = None
    try:
        parsed = np.array(texts, dtype=np.float64)
    except ValueError:
        parsed = None
    if codes or parsed is None or not np.isfinite(parsed).all():
        parsed, error = _read_csv_values(texts, source, (other + first_lineno).tolist(), codes)
    values[other[: len(parsed)]] = parsed
    if error is not None:
        values = values[: other[len(parsed)]]
    return values[~np.isnan(values)], count, error


def _csv_pieces(fh, source: str, codes: bool = False):
    """Samples of successive blocks of CSV lines read from the binary
    stream fh (_csv_block), after a UTF-8 byte-order mark that starts it.

    Each read of _READ_BYTES bytes ends at its last line end; the rest
    starts the next block.  A '\\r' that ends a read may begin a '\\r\\n',
    so it starts the next block too.  Every sample before a bad line is
    yielded before its error is raised.
    """
    first_lineno = 1
    pending = []  # bytes read since the last line end
    while True:
        data = fh.read(_READ_BYTES)
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
        if data and not cut:
            pending.append(data)
            continue
        block = b"".join([*pending, memoryview(data)[:cut]] if data else pending)
        pending = [data[cut:]]
        if first_lineno == 1:
            # No line ends in a byte-order mark, so a whole one is in the first block.
            block = block.removeprefix(codecs.BOM_UTF8)
        if not block:
            return
        values, lines, error = _csv_block(block, source, first_lineno, codes)
        yield values
        if error is not None:
            raise error
        first_lineno += lines


def _raw_pieces(fh, source: str, count: int, codes: bool = False):
    """Samples of successive reads of `count` little-endian float64 values,
    each read into an array of its own.  With codes, a value that is not
    an integer is bad."""
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
        if codes and not (values == np.rint(values)).all():
            bad = np.flatnonzero(values != np.rint(values))[0]
            raise InputFormatError(f"{source}: non-integer code at index {done + bad}")
        yield values
        done += values.size


def _exact_pieces(pieces, count: int):
    """Re-cut a stream of sample arrays into arrays of exactly `count`
    samples; only the last may be shorter, and none is empty."""
    held, size = [], 0  # the pieces not yet cut, and their samples
    for piece in pieces:
        held.append(piece)
        size += piece.size
        if size < count:
            continue
        buf = np.concatenate(held) if len(held) > 1 else piece
        cut = size - size % count
        for a in range(0, cut, count):
            yield buf[a : a + count]
        held, size = ([buf[cut:]] if cut < size else []), size - cut
    if size:
        yield np.concatenate(held)


def _open_input(path: str):
    if path == "-":
        return contextlib.nullcontext(sys.stdin.buffer)
    return open(path, "rb")


def read_signal(spec: InputSpec, _codes: bool = False):
    """Yield the signal, scaled by 1/delta, one chunk at a time.

    Each item is (first_block, rows, valid): rows is a read-only
    (k, 2**N) array of k consecutive blocks starting at block first_block,
    and valid the number of input samples in it.  Every chunk holds
    max(1, CHUNK_SAMPLES >> N) blocks except the last, which alone may
    end in a partial block.  That block is zero padded (after scaling, so
    pad samples are exactly 0) or, per the pad policy, rejected once the
    input has ended.  An empty input yields nothing.  The input is opened
    when the first chunk is asked for, and a malformed sample raises
    InputFormatError when its chunk is read.  With _codes, for the
    integer codes that verify reads, so does a code that is not an
    integer, and a CSV line whose exact value float64 does not hold:
    every integer code is exact in float64.
    """
    size = 1 << spec.block_exponent
    count = max(1, CHUNK_SAMPLES >> spec.block_exponent) * size
    source = "<stdin>" if spec.path == "-" else spec.path
    with _open_input(spec.path) as fh:
        pieces = (_raw_pieces(fh, source, count, _codes) if spec.format == "raw_f64_le"
                  else _csv_pieces(fh, source, _codes))
        first_block = length = 0
        for values in _exact_pieces(pieces, count):
            valid = values.size
            length += valid
            # Every piece is a new array or a part of one that no other
            # chunk shares, so it is scaled in place; x / 1.0 is x.  A
            # quotient beyond the float range is inf, which the budget rejects.
            if spec.scale_delta != 1.0:
                with np.errstate(over="ignore"):
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


def _in_order(compute, chunks, spare=0):
    """Yield compute(*chunk) for every chunk, in input order.

    Chunks are read on the calling thread and computed on a pool of
    threads, one per usable CPU: workers + spare chunks are submitted and
    one more is read ahead.  The oldest result is handed out before the
    next chunk is read and submitted: the caller that writes it takes a
    CPU of its own, so workers + spare - 1 chunks are computed beside the
    write, and a spare lets a worker go on while an earlier chunk is
    late.  With one worker and no spare, no read or write runs beside a
    computation: peak memory does not depend on thread timing.  A lone
    chunk is computed on the calling thread; on a worker thread, the
    memory it frees would stay in that thread's malloc arena.  An error
    is raised after the results of every chunk before it: a read error,
    of every chunk read before it.
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

    with ThreadPoolExecutor(workers) as pool:
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
            # Only the pool holds a submitted chunk, so it is freed once computed.
            del first
        while pending or ahead is not None:
            while ahead is not None and len(pending) < workers + spare:
                ahead = submit(ahead)
            # A result handed out is not held while the next one is awaited.
            yield pending.popleft().result()
    if failure is not None:
        raise failure


def format_float(x: float) -> str:
    """Shortest round-trip text of a finite float; 1.0 keeps its '.0'."""
    return repr(_floats(x))


def dumps_canonical(obj) -> str:
    """Key-sorted JSON, 2-space indent, shortest round-trip floats; NaN raises."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


# How the text of a slot's value is made, by the slot's kind.
_CONVERSIONS = {"float": "%r", "int": "%d", "flag": "%s", "str": '"%s"'}
_FLAG_TEXT = {True: "true", False: "false"}
_FLOAT_COLUMNS = ("dc_quantized", "dc_error", "sup_error")  # of _HaarRows
_HAAR_FLAGS = ("dc_ok", "details_ok")


class _ReportLayout:
    """The report of a run over blocks of 2**n samples, made as it goes.

    dumps_canonical renders one block with a slot for each varying value.
    Each block's entry is then a %-format string, indented to its place
    in the report, that turns the block's values into its text: floats by
    repr, as json does, ints, flags as true or false, and the quoted
    SHA-256.  add() appends entries to an unnamed temporary file, where
    they wait for the input to end, since the report's head gives the
    block count; write() renders the run itself with dumps_canonical, its
    blocks being one tag, and copies the entries in the tag's place.  So
    key order, indentation and every constant are dumps_canonical's.  The
    temporary file is open inside a `with` block.
    """

    def __init__(self, config: dict, n: int):
        self.config = dict(config)
        self.size = 1 << n
        self.levels = [f"max_error_{k}" for k in range(1, n + 1)]
        dc_bound, detail_bounds, sup_bound = _haar_bounds(n)
        # A tag that no text of the config holds, so nothing else in the
        # report matches it.  A slot is the JSON string "<tag>kind:name".
        tag = "$"
        while tag in json.dumps(self.config):
            tag += "$"
        self.tag = tag

        def slot(kind, name):
            return f"{tag}{kind}:{name}"

        haar = {
            "n_exponent": n,
            "dc_bound": dc_bound,
            "sup_bound": sup_bound,
            "detail_levels": [
                {"level": k, "max_error": slot("float", name), "bound": float(bound)}
                for k, (name, bound) in enumerate(zip(self.levels, detail_bounds), start=1)
            ],
            **{name: slot("float", name) for name in ("dc_input", *_FLOAT_COLUMNS)},
            **{name: slot("flag", name) for name in _HAAR_FLAGS},
            "pass": slot("flag", "haar_pass"),
        }
        block = {
            "index": slot("int", "index"),
            "quantized_sha256": slot("str", "quantized_sha256"),
            "dc_total": slot("int", "dc_total"),
            "haar": haar,
            "pass": slot("flag", "pass"),
        }
        # The text between two entries ends in the indent of an entry's lines.
        self.join = self._frame([tag, tag], 0, True).split(f'"{tag}"')[1]
        text = dumps_canonical(block).rstrip("\n").replace(
            "\n", self.join[self.join.rindex("\n"):])
        slots = f'"{re.escape(tag)}(float|int|flag|str):(\\w+)"'
        self.entry = re.sub(slots, lambda m: _CONVERSIONS[m[1]], text.replace("%", "%%"))
        self.entry_names = [name for _, name in re.findall(slots, text)]

    def __enter__(self):
        self._spill = _temporary_text()
        return self

    def __exit__(self, *exc):
        self._spill.close()

    def _frame(self, blocks: list, length: int, passed: bool) -> str:
        """The report of a run over length input samples, padded to whole
        blocks, with the given blocks."""
        return dumps_canonical({
            "config": self.config,
            "original_length": length,
            "pad_count": -length % self.size,
            "block_count": -(-length // self.size),
            "blocks": blocks,
            "pass": passed,
        })

    def entries(self, a: int, total: np.ndarray, g: np.ndarray, haar) -> str:
        """The text of the entries of the blocks a, a + 1, ..., led by the
        separator from the entry before unless a is 0.

        total holds the pairwise totals of the blocks' samples, as the
        quantizer sums them, g their integer codes, a row each, and haar is
        their _HaarRows, whose verdict is the block's.  The digest and the
        total of the codes are those of little-endian int64.  A non-finite
        float raises ValueError.
        """
        rows = g.shape[0]
        codes = np.ascontiguousarray(g, dtype="<i8")
        flags = {name: getattr(haar, name) for name in _HAAR_FLAGS}
        flags["haar_pass"] = flags["pass"] = haar.passed
        values = {
            "index": range(a, a + rows),
            "quantized_sha256": [sha256(row).hexdigest() for row in codes],
            "dc_total": codes.sum(axis=1).tolist(),
            "dc_input": _floats(total / g.shape[-1]),
            **{name: _floats(getattr(haar, name)) for name in _FLOAT_COLUMNS},
            **dict(zip(self.levels, _floats(haar.detail_max.T))),
            **{name: [_FLAG_TEXT[flag] for flag in column.tolist()]
               for name, column in flags.items()},
        }
        text = self.join.join([self.entry % row for row in zip(
            *(values[name] for name in self.entry_names))])
        return self.join + text if a else text

    def add(self, entries: str) -> None:
        """Keep the text of entries, in order, until the report is written."""
        self._spill.write(entries)

    def write(self, fh, length: int, passed: bool) -> None:
        """Write the report of a run over length input samples, whose
        blocks' entries were added, to the text stream fh."""
        if not length:
            fh.write(self._frame([], 0, passed))
            return
        head, tail = self._frame([self.tag], length, passed).split(f'"{self.tag}"')
        fh.write(head)
        self._spill.seek(0)
        shutil.copyfileobj(self._spill, fh)
        fh.write(tail)


def _floats(column):
    """Finite values as Python floats, whose repr is the shortest round-trip text."""
    arr = np.asarray(column, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("cannot render non-finite value")
    return arr.tolist()


# Bulk float text: the digits of Ryū's d2s (Adams, "Ryū: fast float-to-string
# conversion", PLDI 2018), which are repr's, computed for a whole array in
# uint64 NumPy, and laid out as repr lays them out.  The kernel takes zero
# and Ryū's general case; repr itself writes the few other floats.

_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_TEXT_WIDTH = 24  # len(repr(-2.2250738585072014e-308))
# Values rendered at once, a spectrum chunk's three columns: NumPy calls this
# long leave the interpreter lock free while other threads render theirs.
_TEXT_PIECE = 3 * CHUNK_SAMPLES // 8
# A source row of _float_texts: these symbols, then a 20-digit field, bytes
# 8 to 27, holding the digits right aligned, then |exponent| in 4 digits.
_SYMBOLS = np.frombuffer(b"\0-.0e\0\0\0", np.uint64)[0]
_DIGITS = 8
_MINUS, _DOT, _ZERO, _E = range(1, 5)  # their bytes in a source row


def _quad_texts(lead: bool) -> np.ndarray:
    """The text of 0000 to 9999, four ASCII digits in each uint32; with
    lead, the leading zeros as NULs, 0 being "\\0\\0\\00"."""
    i = np.arange(10000)[:, None]
    digits = i // [1000, 100, 10, 1] % 10 + ord("0")
    if lead:
        digits[i < [1000, 100, 10, 0]] = 0
    return digits.astype(np.uint8).view(np.uint32).reshape(-1)


_QUADS = _quad_texts(lead=False)
# The texts of a base-10**4 group of an integer: _QUADS below its highest
# group; then _quad_texts(lead=True) for its highest; then four NULs above it.
_INT_QUADS = np.concatenate([_QUADS, _quad_texts(lead=True), np.zeros(1, np.uint32)])


@functools.cache
def _ryu_tables():
    """Ryū's constants by biased exponent below 2**52's, where e2 <= -3:
    the 128-bit multiplier in four rows of 32-bit limbs, its shift less
    96 and the power of ten e10 of vr's last digit; and, by every biased
    exponent, a mask of mv's bits one of which is set where vr cannot be
    exact (all ones: always; zero from 2**52 up)."""
    be = np.arange(1075)
    e2 = np.maximum(be, 1) - 1077  # the value is m2 * 2**e2 / 4
    # Ryū's log10Pow5 and pow5bits, exact over this range.
    q = (-e2 * 732923 >> 20) - 1
    k = -e2 - q
    bits = (k * 1217359 >> 19) + 1  # of 5**k
    muls = [5**j << 125 >> b for j, b in zip(k.tolist(), bits.tolist())]
    limbs = np.array([[m >> 32 * t & 0xFFFFFFFF for m in muls] for t in range(4)],
                     dtype=np.uint64)
    exact = np.zeros(2047, np.uint64)
    exact[be] = np.where(q < 63, (1 << np.minimum(q, 63).astype(np.uint64)) - 1, 2**64 - 1)
    return limbs, (q - bits + 125 - 96).astype(np.uint64), q + e2, exact


def _products(mv, mm, be):
    """Ryū's vr, vp and vm: floor(x * mul / 2**(96 + r)) for x = mv, mv + 2
    and mv - 1 - mm, mul and r by biased exponent, summed in 32-bit columns
    from the lowest up, one carry per x, so one column is held at a time."""
    limbs, shifts = _ryu_tables()[:2]
    x0, x1 = mv & 0xFFFFFFFF, (mv >> 32).view(np.int64)
    steps = (0, 2, -1 - mm)  # x - mv
    carries = [0, 0, 0]  # into column k, one per x; at the end, column 3 itself
    high = 0  # the part of the last limb's products that falls in column k
    for k in range(4):
        m = np.take(limbs[k], be)
        p = x0 * m
        m = m.view(np.int64)
        column = (p & 0xFFFFFFFF).view(np.int64) + high
        high = (p >> 32).view(np.int64) + x1 * m
        for j, step in enumerate(steps):
            c = column + carries[j] + step * m
            carries[j] = c >> 32 if k < 3 else c
    r = np.take(shifts, be)
    return [(c & 0xFFFFFFFF).view(np.uint64) >> r | (high + (c >> 32)).view(np.uint64) << 32 - r
            for c in carries]


def _shortest(v):
    """Ryū's d2s for the finite float64s of its general case, those with
    1e-99 <= |v| < 2**52 whose vr cannot be exact: the shortest digits
    that read back as v, as an integer, and the power of ten of its last
    digit, with the digit count found directly; 0 digits for every other
    float.  There e2 <= -3 and q >= 2, so vm is not exact either, and vp
    needs no adjustment."""
    e10, exact = _ryu_tables()[2:]
    bits = v.view(np.uint64)
    be = (bits >> 52 & 0x7FF).astype(np.intp)
    mv = (bits & (1 << 52) - 1 | 1 << 52) << 2  # 4 * m2
    s = np.flatnonzero(((mv & np.take(exact, be)) != 0) & (np.abs(v) >= 1e-99))
    be = be[s]
    mm = ((bits[s] & (1 << 52) - 1) != 0).astype(np.int64)  # Ryū's mmShift
    vr, vp, vm = _products(mv[s], mm, be)
    # Remove the most digits k that leave vp above vm.  Any k with
    # 10**k <= vp - vm (which is at least 3) does; larger k are tried on
    # fewer and fewer.
    k = np.searchsorted(_POW10, vp - vm, side="right") - 1
    p10 = np.take(_POW10, k + 1)
    t = np.flatnonzero(vp // p10 > vm // p10)
    while t.size:
        k[t] += 1
        p10 = np.take(_POW10, k[t] + 1)
        t = t[vp[t] // p10 > vm[t] // p10]
    # The last removed digit rounds half up (vr is not exact), and vm is
    # not the result.
    head = vr // np.take(_POW10, np.maximum(k - 1, 0))
    out = np.where(k > 0, head // 10, vr)
    digits = np.zeros(v.shape, np.uint64)
    last = np.zeros(v.shape, np.int64)
    digits[s] = out + ((k > 0) & (head - out * 10 >= 5) | (out == vm // np.take(_POW10, k)))
    last[s] = np.take(e10, be) + k
    return digits, last


@functools.cache
def _templates():
    """For each (sign, digit count, layout), the byte of a source row that
    makes each byte of repr's text.  Layout e + 4 is fixed notation with
    a first digit worth 10**e, -4 <= e < 16; 20 is scientific with
    exponent -99..-5.  No digits is zero."""
    table = np.zeros((2, 18, 21, _TEXT_WIDTH), np.intp)
    for sign, nd, layout in itertools.product(range(2), range(18), range(21)):
        digits = [_DIGITS + 20 - nd + t for t in range(nd)]
        e = layout - 4
        text = [_MINUS] * sign
        if not nd:
            text += [_ZERO, _DOT, _ZERO]
        elif layout == 20:
            text += digits[:1] + [_DOT] * (nd > 1) + digits[1:]
            text += [_E, _MINUS, _DIGITS + 22, _DIGITS + 23]
        elif e < 0:
            text += [_ZERO, _DOT] + [_ZERO] * (-e - 1) + digits
        elif nd > e + 1:
            text += digits[: e + 1] + [_DOT] + digits[e + 1 :]
        else:
            text += digits + [_ZERO] * (e + 1 - nd) + [_DOT, _ZERO]
        table[sign, nd, layout, : len(text)] = text
    return table.reshape(-1, _TEXT_WIDTH)


def _repr_texts(values) -> np.ndarray:
    """repr's own text of each float64, as rows like _float_texts'."""
    texts = np.array(list(map(repr, values.tolist())), f"S{_TEXT_WIDTH}")
    return texts.view(np.uint8).reshape(-1, _TEXT_WIDTH)


def _float_texts(values) -> np.ndarray:
    """repr's text of each finite float64, as the rows of an (n, 24) uint8
    array padded with NULs: the kernel's for zero and the floats that
    _shortest takes, _repr_texts' for the others.  A non-finite value
    raises ValueError."""
    v = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    if not np.isfinite(v).all():
        raise ValueError("cannot render non-finite value")
    texts = np.empty((v.size, _TEXT_WIDTH), np.uint8)
    for a in range(0, v.size, _TEXT_PIECE):
        part = v[a : a + _TEXT_PIECE]
        digits, last = _shortest(part)
        nd = np.searchsorted(_POW10, digits, side="right")
        e = last + nd - 1  # the power of ten of the first digit
        layout = np.where(e < -4, 20, e + 4)
        sign = (part.view(np.uint64) >> 63).astype(np.intp)
        src = np.empty((part.size, 8), np.uint32)
        src.view(np.uint64)[:, 0] = _SYMBOLS
        src[:, 7] = np.take(_QUADS, np.abs(e))
        # The digits in five groups of four, d % 10**4 in column 6 up to
        # d // 10**16 in column 2.
        d = digits.astype(np.int64)
        for col in range(6, 2, -1):
            high = d // 10**4
            src[:, col] = np.take(_QUADS, d - high * 10**4)
            d = high
        src[:, 2] = np.take(_QUADS, d)
        template = (sign * 18 + nd) * 21 + layout
        # A third of each row's bytes at a time, so that the index is small.
        index = np.empty((part.size, 8), np.intp)
        for b in range(0, _TEXT_WIDTH, 8):
            np.take(_templates()[:, b : b + 8], template, axis=0, out=index, mode="clip")
            index += np.arange(0, 32 * part.size, 32)[:, None]
            texts[a : a + _TEXT_PIECE, b : b + 8] = np.take(
                src.view(np.uint8).reshape(-1), index, mode="clip")
        other = np.flatnonzero((nd == 0) & (part != 0))
        if other.size:
            texts[a + other] = _repr_texts(part[other])
    return texts


def _int_lines(values) -> np.ndarray:
    """The text "%d\\n" of each integer, as the rows of a uint8 matrix
    padded with NULs: a sign, as many base-10**4 groups of the magnitude
    as the largest needs, and the newline."""
    arr = np.asarray(values).reshape(-1)
    if arr.dtype.kind == "u":
        mag = arr.astype(np.uint64)
    else:
        # |-2**63| is -2**63 in int64, and 2**63 in uint64.
        mag = np.abs(arr.astype(np.int64, copy=False)).view(np.uint64)
    groups = -(-len(str(mag.max(initial=0))) // 4)
    quads = np.empty((arr.size, groups), np.uint32)
    for col in range(groups - 1, -1, -1):
        high = mag // 10**4
        index = (mag - high * 10**4).astype(np.intp)
        index += (high == 0) * 10000  # the highest group, or one above it
        if col < groups - 1:
            index += (mag == 0) * 10000  # above the highest: NULs
        np.take(_INT_QUADS, index, out=quads[:, col])
        mag = high
    rows = np.empty((arr.size, 4 * groups + 2), np.uint8)
    rows[:, 0] = (arr < 0) * ord("-")
    rows[:, 1:-1] = quads.view(np.uint8)
    rows[:, -1] = ord("\n")
    return rows


def _text(rows) -> str:
    """The text of a NUL-padded byte matrix, row after row, without its NULs."""
    return str(rows[rows != 0], "ascii")


class _Outputs:
    """The files one command writes, put in place together.

    open() gives the stream for one output.  A file output is written to a
    new temporary file beside its target.  When the `with` block ends
    without error, every temporary file is renamed onto its target; when
    it raises, they are all removed, so a failed run leaves no output
    file, and an output may replace the input it was made from.  Two
    outputs that resolve to one file are refused.  Path '-' is standard
    output, written as the data is made.  A device or a pipe is written
    in place.
    """

    def __init__(self):
        self._pending = {}  # the temporary file of each target, in the order opened

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            while exc_type is None and self._pending:
                target, tmp = self._pending.popitem()
                os.replace(tmp, target)
        finally:
            for tmp in self._pending.values():
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
        if not in_place and target in self._pending:
            raise ValueError(f"two outputs name one file: {path}")
        head, name = os.path.split(target)
        tmp = target if in_place else os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
        mode = ("w" if in_place else "x") + ("b" if binary else "")
        text = {} if binary else {"encoding": "utf-8", "newline": "\n"}
        with open(tmp, mode, **text) as fh:
            if not in_place:
                self._pending[target] = tmp
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


def _encoded(values, format: str):
    """values as write_values writes them: float64 for raw, else text."""
    arr = np.asarray(values)
    if format == "raw_f64_le":
        return arr.astype("<f8", copy=False)
    if np.issubdtype(arr.dtype, np.integer):
        return _text(_int_lines(arr))
    lines = np.empty((arr.size, _TEXT_WIDTH + 1), np.uint8)
    lines[:, :-1] = _float_texts(arr)
    lines[:, -1] = ord("\n")
    return _text(lines)


def write_values(out, values: np.ndarray, format: str = "csv") -> None:
    """Write samples in the given format; integer arrays render as integers.

    out is a path ('-' for stdout), whose file is replaced only once
    written whole, or an open stream to append to (binary for raw, text
    for CSV), which takes a long output one chunk at a time.
    """
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}")
    data = _encoded(values, format)
    with _opened(out, format == "raw_f64_le") as fh:
        fh.write(data)


_SPECTRUM_HEADER = "xi,measured,bound_exact,bound_linear,baseline_bound\n"


def _temporary_text():
    """An unnamed temporary file in the temp directory, for text that waits
    there while a stream is written: a report's entries, or a spectrum's
    rows xi.  It is removed when closed."""
    return tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n")


def _format_spectrum_rows(lo, measured, exact, linear):
    """The rows xi = lo, lo + 1, ... of a spectrum table, for the values of
    the three half columns from lo on, as one NUL-padded byte matrix, a
    row per xi: a sign column (NUL), xi's digits, the three float texts
    and the baseline's text, which is the same at every frequency.  A row
    xi with '-' in its sign column is the row -xi.
    """
    size = len(measured)
    # The floats first: the kernel's temporaries and the rows never coexist.
    texts = _float_texts(np.stack([measured, exact, linear], axis=1)).reshape(size, 3, -1)
    baseline = f",{_BASELINE_BOUND!r}\n".encode()
    xi = _int_lines(np.arange(lo, lo + size))[:, :-1]
    at = xi.shape[1]
    rows = np.empty((size, at + 3 * (1 + _TEXT_WIDTH) + len(baseline)), np.uint8)
    rows[:, :at] = xi
    for j in range(3):
        rows[:, at] = ord(",")
        rows[:, at + 1 : at + 1 + _TEXT_WIDTH] = texts[:, j]
        at += 1 + _TEXT_WIDTH
    rows[:, at:] = np.frombuffer(baseline, np.uint8)
    return rows


def write_spectrum_csv(table: NoiseBoundTable, out) -> None:
    """One row per frequency, ascending, with measured error and envelopes.

    out is a path ('-' for stdout), whose file is replaced only once
    written whole, or an open text stream to append to.  Every column of
    a spectrum table is even in xi, so each |xi| is formatted once: its
    row xi, prefixed with '-', is the row -xi.  The table is formatted
    in chunks of CHUNK_SAMPLES // 8 values of |xi|, from the highest |xi|
    down, on an _in_order pool of its own, each chunk into the text
    of its rows xi >= 1 and of its rows -xi, highest |xi| first; the row
    xi = 0 follows the last chunk's.  The calling thread appends each
    chunk's rows xi to an unnamed temporary file and writes its rows -xi,
    in order, and then copies the rows xi out of the temporary file a
    chunk at a time, the last chunk first.  Every kind of output, a file,
    stdout, a pipe, a device or a stream, takes this one path.  A table
    with a non-finite value raises ValueError before the file is opened.
    """
    columns = [table.measured_half, table.bound_exact_half, table.bound_linear_half]
    if not all(np.isfinite(c).all() for c in columns):
        raise ValueError("cannot render non-finite value")
    # The grid's negative frequencies are -1 .. -last_negative, 2**(N-1) - 1
    # of them, and none at N=0.
    last_negative = max(0, columns[0].size - 2)
    step = CHUNK_SAMPLES // 8  # values of |xi| per chunk, two rows each

    def chunk_texts(lo, hi):
        """The text of the rows xi = lo .. hi - 1 but 0, and of the rows
        -xi among them, highest |xi| first, with the row 0 last."""
        rows = _format_spectrum_rows(lo, *(c[lo:hi] for c in columns))
        a, b = int(lo == 0), last_negative + 1 - lo
        positive = _text(rows[a:])
        rows[a:b, 0] = ord("-")
        return positive, _text(rows[:b][::-1])

    bounds = ((max(0, hi - step), hi) for hi in range(columns[0].size, 0, -step))
    with (
        _opened(out, binary=False) as fh,
        _temporary_text() as spill,
        contextlib.closing(_in_order(chunk_texts, bounds, spare=1)) as chunks,
    ):
        fh.write(_SPECTRUM_HEADER)
        ends = [0]  # where each chunk's rows xi end in the spill, which is ASCII
        for positive, negative in chunks:
            spill.write(positive)
            ends.append(spill.tell())
            fh.write(negative)
        for start, end in reversed(list(itertools.pairwise(ends))):
            spill.seek(start)
            fh.write(spill.read(end - start))
