"""Command-line front end: quantize, verify, spectrum, and basis dumps.

The quantizer is a pure function of the signal and the tie rule, and
blocks are independent, so every command is one streaming pass: each
chunk of blocks (CHUNK_SAMPLES samples, or one block when N >= 16) is
read, scaled, quantized, measured and written, then dropped.  Chunks
are read and written on the calling thread, in input order, and
computed on one thread per usable CPU, with at most workers + 1 in
flight; an input of one chunk is computed on the calling thread.  The
rows of a spectrum table of 2**20 or more rows are formatted the same
way, on one worker process per usable CPU.  The output does not depend
on the number of CPUs.  Memory depends on the block size and the
number of CPUs, not on the input length; `--report` adds the text of
each block's report entry, kept until the report is written at the
end.  verify --quantized reads its two inputs in step.  Each output
file, the report too, is written to a temporary file beside it, and
all are renamed into place once the run succeeds, so a run that fails
leaves no output file; output to '-' (stdout) is written as it is made,
and an input error found after some of it was written still exits 3.

Exit codes: 0 success, 1 bound violation, 2 usage error, 3 I/O or
input-format error, or a formatting worker process that died.  Bounds
are measured by verify, spectrum and quantize --report; each writes
every output first and then exits 1 if any measured bound failed.
quantize without --report measures nothing.
"""

import argparse
import contextlib
import itertools
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path

import numpy as np

from .haar import check_index, haar_basis, make_grid
from .quantizer import (
    BOUND_SLACK,
    _check_pair_budget,
    _haar_bounds,
    _haar_error_rows,
    _quantize_rows,
    _residual,
    _round_rows,
)
from .report_io import (
    CHUNK_SAMPLES,
    PAD_POLICIES,
    InputFormatError,
    InputSpec,
    _Outputs,
    _ReportLayout,
    _SPECTRUM_HEADER,
    _codes_sha256,
    _in_order,
    _usable_cpus,
    _write_lines,
    format_float,
    read_signal,
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


def _report_layout(args):
    """The layout of the run's report; None without --report."""
    if not args.report:
        return None
    n = args.block_exp
    return _ReportLayout(_config_echo(args), n, *_haar_bounds(n), BOUND_SLACK)


def _report_entries(layout, a: int, g: np.ndarray, haar, spectrum_pass, passed) -> str:
    """The report text of the blocks a, a + 1, ... with codes g, Haar
    measurements haar, and per-block spectrum and overall pass flags."""
    return layout.entries(
        {
            **haar._asdict(),
            "index": range(a, a + g.shape[0]),
            "quantized_sha256": [_codes_sha256(row) for row in g],
            "dc_total": g.sum(axis=1).tolist(),
            "haar_pass": haar.passed,
            "spectrum_pass": spectrum_pass,
            "pass": passed,
        },
        first=a == 0,
    )


def _write_report(outputs, args, layout, entries: list, length: int, passed: bool) -> None:
    """Write the report of a run over length input samples, padded to
    whole blocks, whose blocks' entries are the texts in entries."""
    size = 1 << args.block_exp
    with outputs.open(args.report, binary=False) as fh:
        layout.write(fh, entries, length, -length % size, -(-length // size), passed)


def cmd_quantize(args) -> int:
    fmt = _FORMAT_BY_FLAG[args.format]
    binary = fmt == "raw_f64_le"
    layout = _report_layout(args)

    def compute(a, f, valid):
        g = _quantize_chunk(f, args)
        entries, passed = "", True
        if layout is not None:
            haar = _haar_error_rows(f, g)
            spectrum_pass = [None] * g.shape[0]
            entries = _report_entries(layout, a, g, haar, spectrum_pass, haar.passed)
            passed = bool(haar.passed.all())
        codes = g.reshape(-1)[:valid]
        # Raw codes are written as float64, converted here, off the writing thread.
        return (codes.astype("<f8") if binary else codes), entries, passed

    entries, length, passed = [], 0, True
    with (
        _Outputs() as outputs,
        outputs.open(args.output, binary=binary) as out,
        contextlib.closing(_in_order(compute, read_signal(_input_spec(args)))) as chunks,
    ):
        for codes, chunk_entries, chunk_passed in chunks:
            write_values(out, codes, fmt)
            entries.append(chunk_entries)
            length += codes.size
            passed &= chunk_passed
        if layout is not None:
            _write_report(outputs, args, layout, entries, length, passed)
    # Without --report no block was measured, and no block fails.
    return 0 if passed else 1


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
    layout = _report_layout(args)

    def compute(a, f, valid, g=None):
        if g is None:
            g = _quantize_chunk(f, args)
        residual = _residual(f, g)
        haar = _haar_error_rows(f, g, residual)
        spectrum_pass = np.array([table.all_pass for table in _residual_tables(residual)])
        passed = haar.passed & spectrum_pass
        entries = ""
        if layout is not None:
            entries = _report_entries(layout, a, g, haar, spectrum_pass, passed)
        return valid, f.shape[0], bool(passed.all()), entries

    entries, length, count, passed = [], 0, 0, True
    with contextlib.closing(_in_order(compute, chunks)) as measured:
        for valid, rows, chunk_passed, chunk_entries in measured:
            entries.append(chunk_entries)
            length += valid
            count += rows
            passed &= chunk_passed
    if layout is not None:
        with _Outputs() as outputs:
            _write_report(outputs, args, layout, entries, length, passed)
    print(f"verify: {'PASS' if passed else 'FAIL'} ({count} blocks)")
    return 0 if passed else 1


def _block_path(base: str, index: int, single: bool) -> str:
    if single or base == "-":
        return base
    p = Path(base)
    return str(p.with_name(f"{p.stem}.block{index:04d}{p.suffix}"))


# The smallest block exponent whose spectrum tables are formatted on worker
# processes.  Each spawned worker imports NumPy and haarq before it formats
# a row: on two CPUs a single-block `spectrum` ran slower with the pool at
# N = 17 and 18, no faster at N = 19, and faster at N = 20.
_POOL_MIN_EXPONENT = 20


def _format_pool(n: int):
    """Worker processes to format the spectrum tables of blocks of 2**n
    samples on: one per usable CPU, and no more than a table has
    formatting chunks.  A null context when n < _POOL_MIN_EXPONENT, when
    one CPU is usable, or when this platform cannot make the pool; the
    tables are then formatted on the calling thread.  The executor starts
    a worker only when a task finds none idle, so a run that writes no
    table starts none."""
    if n < _POOL_MIN_EXPONENT:
        return contextlib.nullcontext()
    # A table has 2**(n-1) + 1 values of |xi|, formatted CHUNK_SAMPLES // 2 at a time.
    chunks = -(-((1 << n - 1) + 1) // (CHUNK_SAMPLES // 2))
    workers = min(_usable_cpus(), chunks)
    if workers < 2:
        return contextlib.nullcontext()
    # Imported here: the commands that open no pool do not pay for it.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    try:
        # Not "fork": this process may already run threads of its own and of the BLAS.
        return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
    except (ImportError, NotImplementedError, OSError):
        # No working semaphores (multiprocessing.synchronize cannot be used).
        return contextlib.nullcontext()


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
        _format_pool(args.block_exp) as pool,
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
                    write_spectrum_csv(table, out, pool)
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
    except (InputFormatError, OSError, BrokenExecutor) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
