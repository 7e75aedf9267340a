"""Command-line front end: quantize, verify, spectrum, and basis dumps.

The quantizer is a pure function of the signal and the tie rule, and
blocks are independent, so every command is one streaming pass: each
chunk of blocks (CHUNK_SAMPLES samples, or one block when N >= 16) is
read, scaled, quantized, measured and written, then dropped.  Chunks
are read and written on the calling thread, in input order, and
computed on one thread per usable CPU, with at most workers + 1 in
flight; an input of one chunk is computed on the calling thread.  A
chunk's codes are float64 integers, written as they are for raw output
and encoded as CSV bytes, where they are computed, for CSV.  Each
spectrum table is written on the calling thread by write_spectrum_csv,
which formats it in chunks on a pool of its own, one thread per usable
CPU.  The output does not depend on the number of CPUs.  Memory
depends on the block size and the number of CPUs, not on the input
length: `--report` entries, encoded where they are computed, wait in an
unnamed temporary file until the input has ended and the report's head,
which gives the block count, can be written.
quantize and verify share one pass, _measure: verify without --quantized
is quantize --report with no codes written, and writes the same report.
verify --quantized reads its two inputs in step and refuses '-' for both,
and --baseline and --tie-break, which could not act on the codes it is
given, so its report's config names neither.  spectrum refuses several
tables for a pipe or device.
Every output is bytes, each file, the report too, written to a temporary
file beside it, all renamed into place once the run succeeds: a run that
fails leaves no output file, and two outputs naming one file are refused.
Output to '-', verify's verdict too, goes to stdout's buffer, whatever
Python's I/O encoding, as it is made: an input error found after some of
it was written still exits 3.

Exit codes: 0 success, 1 bound violation, 2 usage error, 3 I/O or
input-format error.  verify, spectrum and quantize --report decide each
block's DC and level bounds exactly, which imply its uniform and
spectral bounds; each writes every output first and then exits 1 if a
block failed.  quantize without --report decides nothing.
"""

import argparse
import contextlib
import itertools
import sys
from pathlib import Path

import numpy as np

from .haar import check_index, haar_basis, make_grid
from .quantizer import (
    _check_pair_budget,
    _haar_error_rows,
    _quantize_rows,
    _residual,
    _round_rows,
)
from .report_io import (
    PAD_POLICIES,
    InputFormatError,
    InputSpec,
    _Outputs,
    _ReportLayout,
    _SPECTRUM_HEADER,
    _in_order,
    _int_lines,
    _text,
    read_signal,
    write_spectrum_csv,
)
from .spectral import _residual_tables, haar_fourier_coefficient

_FORMAT_BY_FLAG = {"csv": "csv", "raw": "raw_f64_le"}
_TIE_BY_FLAG = {"down": "toward_negative", "up": "toward_positive"}


def _add_input_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--input", default="-", metavar="PATH",
                    help="input signal, or - for stdin (default -)")
    sp.add_argument("--format", choices=sorted(_FORMAT_BY_FLAG), default="csv",
                    help="csv: one value per line; raw: little-endian float64")
    sp.add_argument("--block-exp", type=int, default=10, metavar="N",
                    help="block size exponent, 2**N samples per block (default 10)")
    sp.add_argument("--delta", type=float, default=1.0, metavar="STEP",
                    help="quantization step; input is divided by it (default 1)")
    sp.add_argument("--pad-policy", choices=PAD_POLICIES, default="zero_pad_last",
                    help="how to treat a trailing partial block")


def _add_quantizer_args(sp: argparse.ArgumentParser) -> None:
    # None when not given, so that verify --quantized can refuse the flag.
    sp.add_argument("--tie-break", choices=sorted(_TIE_BY_FLAG),
                    help="direction for exact rounding ties (default down)")
    sp.add_argument("--baseline", action="store_true",
                    help="use plain per-sample rounding instead of the pyramid")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haarq",
        description="Deterministic noise-shaping quantizer with verified "
                    "dyadic and Fourier error bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quantize", help="quantize a signal to the integer lattice")
    _add_input_args(q)
    _add_quantizer_args(q)
    q.add_argument("--output", default="-", metavar="PATH",
                   help="quantized output, same format as input (default -)")
    q.add_argument("--report", metavar="PATH", help="write a JSON run report")
    q.set_defaults(func=cmd_quantize)

    v = sub.add_parser("verify", help="check all error bounds for a pair")
    _add_input_args(v)
    _add_quantizer_args(v)
    v.add_argument("--quantized", metavar="PATH",
                   help="previously quantized file; omitted: quantize internally")
    v.add_argument("--report", metavar="PATH", help="write a JSON run report")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("spectrum", help="write per-frequency noise bound tables")
    _add_input_args(s)
    _add_quantizer_args(s)
    s.add_argument("--output", default="-", metavar="PATH",
                   help="noise table CSV; block index is inserted for multi-block runs")
    s.set_defaults(func=cmd_spectrum)

    b = sub.add_parser("basis", help="dump one basis function for inspection")
    b.add_argument("--block-exp", type=int, default=10, metavar="N")
    b.add_argument("--level", type=int, required=True, metavar="K")
    b.add_argument("--position", type=int, required=True, metavar="J")
    b.add_argument("--fourier", action="store_true",
                   help="dump closed-form transform values instead of samples")
    b.add_argument("--output", default="-", metavar="PATH")
    b.set_defaults(func=cmd_basis)

    return parser


def _input_spec(args, path=None, delta=None) -> InputSpec:
    return InputSpec(
        path=path if path is not None else args.input,
        block_exponent=args.block_exp,
        format=_FORMAT_BY_FLAG[args.format],
        scale_delta=delta if delta is not None else args.delta,
        pad_policy=args.pad_policy,
    )


def _tie_break(args) -> str:
    return _TIE_BY_FLAG[args.tie_break or "down"]


def _config_echo(args) -> dict:
    config = {
        "block_exponent": args.block_exp,
        "format": _FORMAT_BY_FLAG[args.format],
        "pad_policy": args.pad_policy,
        "scale_delta": float(args.delta),
    }
    # Codes given to verify --quantized were made by settings it cannot know.
    if not getattr(args, "quantized", None):
        config.update(baseline=bool(args.baseline), tie_break=_tie_break(args))
    return config


def _quantize_chunk(f: np.ndarray, args) -> tuple[np.ndarray, np.ndarray]:
    """The chunk's codes, float64 integers, and the pairwise totals of its
    blocks' samples."""
    tie_break = _tie_break(args)
    if args.baseline:
        return _round_rows(f, tie_break)
    return _quantize_rows(f, tie_break)


def _measure(args, chunks, output=None) -> tuple[int, bool]:
    """One streaming pass: quantize each chunk, or take the codes that
    _with_codes pairs with it, write the codes to output when it is named,
    and decide the blocks when a report is asked for or no output is named;
    then write the report.  Returns the input length and the verdict, which
    is True when no block was decided."""
    layout = _ReportLayout(_config_echo(args), args.block_exp) if args.report else None
    decide = layout is not None or output is None

    def compute(a, f, valid, g=None):
        g, total = _quantize_chunk(f, args) if g is None else (g, _check_pair_budget(f, g))
        data, entries, passed = b"", b"", True
        if decide:
            haar = _haar_error_rows(f, g)
            passed = bool(haar.passed.all())
            if layout is not None:
                entries = layout.entries(a, total, g, haar)
        if output is not None:
            # Raw codes are written as they are; CSV ones are encoded here, off
            # the writing thread.
            codes = g.reshape(-1)[:valid]
            data = codes.astype("<f8", copy=False) if args.format == "raw" else _text(_int_lines(codes))
        return data, valid, entries, passed

    length, passed = 0, True
    with (
        layout or contextlib.nullcontext(),
        _Outputs() as outputs,
        # Opened before any input is read, so one file named twice is refused first.
        outputs.open(output) if output is not None else contextlib.nullcontext() as out,
        outputs.open(args.report) if layout else contextlib.nullcontext() as fh,
        contextlib.closing(_in_order(compute, chunks)) as measured,
    ):
        for data, valid, entries, chunk_passed in measured:
            if out is not None:
                out.write(data)
            if layout is not None:
                layout.add(entries)
            length += valid
            passed &= chunk_passed
            del data  # written: not held while the next chunk is awaited
        if layout is not None:
            layout.write(fh, length, passed)
    return length, passed


def cmd_quantize(args) -> int:
    # The spec checks N before the layout, whose size grows as 2**N, is made.
    _, passed = _measure(args, read_signal(_input_spec(args)), args.output)
    # Without --report no block was measured, and no block fails.
    return 0 if passed else 1


def _with_codes(chunks, args):
    """Each input chunk with the matching chunk of the --quantized codes.

    The two files are read in step.  When their lengths differ, both are
    read to the end, so the error gives both lengths.
    """
    codes = read_signal(_input_spec(args, path=args.quantized, delta=1.0), _codes=True)
    done = 0
    pairs = itertools.zip_longest(chunks, codes, fillvalue=(0, None, 0))
    for (a, f, valid), (_, q, q_valid) in pairs:
        if valid != q_valid:
            length = done + valid + sum(c[2] for c in chunks)
            q_length = done + q_valid + sum(c[2] for c in codes)
            raise InputFormatError(
                f"quantized length {q_length} does not match input length {length}"
            )
        yield a, f, valid, q
        done += valid


def cmd_verify(args) -> int:
    if args.quantized and (args.baseline or args.tie_break):
        raise ValueError("--baseline and --tie-break do not apply to --quantized codes")
    if args.quantized == "-" and args.input == "-":
        raise ValueError("--input and --quantized cannot both read stdin")
    chunks = read_signal(_input_spec(args))
    length, passed = _measure(args, _with_codes(chunks, args) if args.quantized else chunks)
    # The report's block_count: a partial last block is padded, or refused.
    count = -(-length // 2**args.block_exp)
    sys.stdout.buffer.write(f"verify: {'PASS' if passed else 'FAIL'} ({count} blocks)\n".encode())
    return 0 if passed else 1


def _block_path(base: str, index: int, single: bool) -> str:
    if single or base == "-":
        return base
    p = Path(base)
    return str(p.with_name(f"{p.stem}.block{index:04d}{p.suffix}"))


def cmd_spectrum(args) -> int:
    chunks = read_signal(_input_spec(args))
    # One chunk ahead: a lone block is named by the base path alone.
    ahead = list(itertools.islice(chunks, 2))
    single = len(ahead) == 1 and ahead[0][1].shape[0] == 1
    empty = not ahead
    # Several tables go to files named after the path: a pipe or device cannot take them.
    target = Path(args.output)
    if not (single or empty) and args.output != "-" and target.exists() and not target.is_file():
        raise ValueError(f"a table per block needs a regular file path, not {args.output}")
    # Only the iterator holds the chunks read ahead, so each is dropped once computed.
    chunks = itertools.chain(iter(ahead), chunks)
    del ahead

    def compute(a, f, valid):
        g, _ = _quantize_chunk(f, args)
        r = _residual(f, g)
        passed = bool(_haar_error_rows(f, g, r).passed.all())
        # The codes are dropped once the blocks are decided, before the FFT.
        del g
        return a, _residual_tables(r), passed

    passed = True
    with (
        _Outputs() as outputs,
        contextlib.closing(_in_order(compute, chunks)) as measured,
    ):
        if empty:
            # No block: the table is its header alone, as quantize writes empty codes.
            with outputs.open(args.output) as out:
                out.write(_SPECTRUM_HEADER)
        for a, tables, chunk_passed in measured:
            for i, table in enumerate(tables, start=a):
                path = _block_path(args.output, i, single)
                with outputs.open(path) as out:
                    write_spectrum_csv(table, out)
            passed &= chunk_passed
    return 0 if passed else 1


def cmd_basis(args) -> int:
    grid = make_grid(args.block_exp)
    n = grid.n_exponent
    index = check_index((args.level, args.position), n)
    if args.fourier:
        header = "xi,re,im,abs\n"
        freqs = range(grid.size // 2 - grid.size + 1, grid.size // 2 + 1)
        values = [haar_fourier_coefficient(xi, index, n) for xi in freqs]
        rows = (f"{xi},{v.real!r},{v.imag!r},{abs(v)!r}\n" for xi, v in zip(freqs, values))
    else:
        header = "n,t,value\n"
        samples = zip(grid.samples.tolist(), haar_basis(index, grid).values.tolist())
        rows = (f"{i},{t!r},{v!r}\n" for i, (t, v) in enumerate(samples, start=1))
    with _Outputs() as outputs, outputs.open(args.output) as out:
        out.writelines(line.encode() for line in itertools.chain([header], rows))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
