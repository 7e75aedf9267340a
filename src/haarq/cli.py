"""Command-line front end: quantize, verify, spectrum, and basis dumps.

The quantizer is a pure function of the signal and the tie rule, and
blocks are independent, so every command is one streaming pass: each
chunk of blocks (CHUNK_SAMPLES samples, or one block when N >= 16) is
read, scaled, quantized, measured and written, then dropped.  Chunks
are read and written on the calling thread, in input order, and
computed on one thread per usable CPU, with at most workers + 1 in
flight; an input of one chunk is computed on the calling thread.  The
output does not depend on the number of CPUs.  Memory depends on the
block size and the number of CPUs, not on the input length; `--report`
adds a small summary per block.  verify --quantized reads its two
inputs in step.  Each output file is written to a temporary file beside
it and renamed into place once the run succeeds, so a run that fails
leaves no output file; output to '-' (stdout) is written as it is made,
and an input error found after some of it was written still exits 3.

Exit codes: 0 success, 1 bound violation, 2 usage error, 3 I/O or
input-format error.  Bounds are measured by verify, spectrum and
quantize --report; each writes every output first and then exits 1 if
any measured bound failed.  quantize without --report measures nothing.
"""

import argparse
import collections
import contextlib
import itertools
import os
import sys
from concurrent.futures import ThreadPoolExecutor
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
    CHUNK_SAMPLES,
    PAD_POLICIES,
    BlockResult,
    InputFormatError,
    InputSpec,
    RunReport,
    _Outputs,
    _SPECTRUM_HEADER,
    _write_lines,
    format_float,
    read_signal,
    write_report,
    write_spectrum_csv,
    write_values,
)
from .spectral import FrequencyGrid, _residual_tables, haar_fourier_coefficient

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
    sp.add_argument("--tie-break", choices=sorted(_TIE_BY_FLAG), default="down",
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


def _config_echo(args) -> dict:
    return {
        "baseline": bool(args.baseline),
        "block_exponent": args.block_exp,
        "format": _FORMAT_BY_FLAG[args.format],
        "pad_policy": args.pad_policy,
        "scale_delta": float(args.delta),
        "tie_break": _TIE_BY_FLAG[args.tie_break],
    }


def _quantize_chunk(f: np.ndarray, args) -> np.ndarray:
    tie_break = _TIE_BY_FLAG[args.tie_break]
    if args.baseline:
        return _round_rows(f, tie_break)
    return _quantize_rows(f, tie_break)


def _in_order(compute, chunks):
    """Yield compute(*chunk) for every chunk, in input order.

    Chunks are read on the calling thread and computed on one thread per
    usable CPU: `workers` chunks are submitted and one more is read ahead,
    so at most workers + 1 are in flight.  When the oldest is done, the
    next chunk is read and the one before it submitted before the result
    is handed out, so no worker waits for a result to be written, and
    with one worker no read runs beside a computation: peak memory does
    not depend on thread timing.  A lone chunk is computed on the calling
    thread; on a worker, the memory it frees would stay in that thread's
    malloc arena.  A chunk's error is raised after the results of every
    earlier chunk, and a read error after the results of every chunk read
    before it.
    """
    if hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:
        workers = os.cpu_count() or 1
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
        while pending:
            while ahead is not None and len(pending) < workers:
                ahead = submit(ahead)
            result = pending.popleft().result()
            if ahead is not None:
                ahead = submit(ahead)
            yield result
    if failure is not None:
        raise failure


def _block_results(start: int, g: np.ndarray, haar, spectrum=None) -> list:
    if spectrum is None:
        passes = [None] * len(haar)
    else:
        passes = [table.all_pass for table in spectrum]
    return [
        BlockResult(
            index=start + i,
            quantized=row,
            dc_total=total,
            haar=report,
            spectrum_pass=spectrum_pass,
        )
        for i, (row, total, report, spectrum_pass) in enumerate(
            zip(g, g.sum(axis=1).tolist(), haar, passes)
        )
    ]


def _run_report(args, blocks: list, length: int) -> RunReport:
    """The report of a run over length input samples, padded to whole blocks."""
    return RunReport(_config_echo(args), length, -length % (1 << args.block_exp), blocks)


def cmd_quantize(args) -> int:
    fmt = _FORMAT_BY_FLAG[args.format]
    binary = fmt == "raw_f64_le"

    def compute(a, f, valid):
        g = _quantize_chunk(f, args)
        results = _block_results(a, g, _haar_error_rows(f, g)) if args.report else []
        codes = g.reshape(-1)[:valid]
        # Raw codes are written as float64, converted here, off the writing thread.
        return (codes.astype("<f8") if binary else codes), results

    blocks, length = [], 0
    with (
        _Outputs() as outputs,
        outputs.open(args.output, binary=binary) as out,
        contextlib.closing(_in_order(compute, read_signal(_input_spec(args)))) as chunks,
    ):
        for codes, results in chunks:
            write_values(out, codes, fmt)
            blocks += results
            length += codes.size
        if args.report:
            write_report(_run_report(args, blocks, length), args.report)
    # Without --report no block was measured, and no block fails.
    return 0 if all(block.passed for block in blocks) else 1


def _with_codes(chunks, args):
    """Each input chunk with the matching chunk of the --quantized codes.

    The two files are read in step.  When their lengths differ, both are
    read to the end, so the error gives both lengths.
    """
    codes = read_signal(_input_spec(args, path=args.quantized, delta=1.0))
    done = 0
    pairs = itertools.zip_longest(chunks, codes, fillvalue=(0, None, 0))
    for (a, f, valid), (_, q, q_valid) in pairs:
        if valid != q_valid:
            length = done + valid + sum(c[2] for c in chunks)
            q_length = done + q_valid + sum(c[2] for c in codes)
            raise InputFormatError(
                f"quantized length {q_length} does not match input length {length}"
            )
        if not np.all(q == np.rint(q)):
            raise InputFormatError(f"{args.quantized}: values are not integers")
        _check_pair_budget(f, q)
        yield a, f, valid, q.astype(np.int64)
        done += valid


def cmd_verify(args) -> int:
    chunks = read_signal(_input_spec(args))
    if args.quantized:
        chunks = _with_codes(chunks, args)

    def compute(a, f, valid, g=None):
        if g is None:
            g = _quantize_chunk(f, args)
        residual = _residual(f, g)
        haar, spectrum = _haar_error_rows(f, g, residual), _residual_tables(residual)
        passed = all(r.passed for r in haar) and all(t.all_pass for t in spectrum)
        # Per-block results are kept only for the report.
        results = _block_results(a, g, haar, spectrum) if args.report else []
        return valid, f.shape[0], passed, results

    blocks, length, count, passed = [], 0, 0, True
    with contextlib.closing(_in_order(compute, chunks)) as measured:
        for valid, rows, chunk_passed, results in measured:
            blocks += results
            length += valid
            count += rows
            passed &= chunk_passed
    if args.report:
        write_report(_run_report(args, blocks, length), args.report)
    print(f"verify: {'PASS' if passed else 'FAIL'} ({count} blocks)")
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
    # Only the iterator holds the chunks read ahead, so each is dropped once computed.
    chunks = itertools.chain(iter(ahead), chunks)
    del ahead

    def compute(a, f, valid):
        # The codes are dropped once the residual is formed, before the FFT.
        return a, _residual_tables(_residual(f, _quantize_chunk(f, args)))

    passed = True
    with (
        _Outputs() as outputs,
        contextlib.closing(_in_order(compute, chunks)) as measured,
    ):
        if empty:
            # No block: the table is its header alone, as quantize writes empty codes.
            with outputs.open(args.output, binary=False) as out:
                out.write(_SPECTRUM_HEADER)
        for a, tables in measured:
            for i, table in enumerate(tables, start=a):
                path = _block_path(args.output, i, single)
                with outputs.open(path, binary=False) as out:
                    write_spectrum_csv(table, out)
                passed &= table.all_pass
    return 0 if passed else 1


def cmd_basis(args) -> int:
    grid = make_grid(args.block_exp)
    n = grid.n_exponent
    index = check_index((args.level, args.position), n)
    if args.fourier:
        header = "xi,re,im,abs\n"
        freqs = FrequencyGrid(n).frequencies.tolist()
        values = [haar_fourier_coefficient(xi, index, n) for xi in freqs]
        rows = (
            f"{xi},{format_float(v.real)},{format_float(v.imag)},"
            f"{format_float(abs(v))}\n"
            for xi, v in zip(freqs, values)
        )
    else:
        header = "n,t,value\n"
        samples = zip(grid.samples.tolist(), haar_basis(index, grid).values.tolist())
        rows = (f"{i},{t!r},{v!r}\n" for i, (t, v) in enumerate(samples, start=1))
    _write_lines(args.output, itertools.chain([header], rows))
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
