"""Command-line front end: quantize, verify, spectrum, and basis dumps.

The quantizer is a pure function of the signal and the tie rule.  Exit
codes: 0 success, 1 bound violation, 2 usage error, 3 I/O or
input-format error.  Bounds are measured by verify, spectrum and
quantize --report; each writes every output first and then exits 1 if
any measured bound failed.  quantize without --report measures nothing.
"""

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

from .haar import check_index, haar_basis, make_grid
from .quantizer import _check_pair_budget, _haar_error_rows, _quantize_rows, _round_rows
from .report_io import (
    PAD_POLICIES,
    BlockResult,
    InputFormatError,
    InputSpec,
    RunReport,
    _SPECTRUM_HEADER,
    _write_lines,
    format_float,
    read_signal,
    write_report,
    write_spectrum_csv,
    write_values,
)
from .spectral import FrequencyGrid, _noise_tables, haar_fourier_coefficient

_FORMAT_BY_FLAG = {"csv": "csv", "raw": "raw_f64_le"}
_TIE_BY_FLAG = {"down": "toward_negative", "up": "toward_positive"}

# Blocks are processed as (rows, 2**N) arrays of about this many samples:
# 512 KiB of float64, so each stage's temporaries stay in cache.  Blocks of
# 2**16 samples or more run one per chunk.
CHUNK_SAMPLES = 1 << 16


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


def _chunks(values: np.ndarray):
    """Yield (index of the first block, rows) for consecutive row slices."""
    step = max(1, CHUNK_SAMPLES >> (values.shape[1].bit_length() - 1))
    for a in range(0, values.shape[0], step):
        yield a, values[a : a + step]


def _quantize_chunk(f: np.ndarray, args) -> np.ndarray:
    tie_break = _TIE_BY_FLAG[args.tie_break]
    if args.baseline:
        return _round_rows(f, tie_break)
    return _quantize_rows(f, tie_break)[-1]


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


def cmd_quantize(args) -> int:
    data = read_signal(_input_spec(args))
    report = RunReport(_config_echo(args), data.original_length, data.pad_count)
    codes = np.empty(data.values.shape, dtype=np.int64)
    for a, f in _chunks(data.values):
        g = codes[a : a + f.shape[0]]
        g[:] = _quantize_chunk(f, args)
        if args.report:
            report.blocks += _block_results(a, g, _haar_error_rows(f, g))
    write_values(args.output, codes.reshape(-1)[: data.original_length],
                 _FORMAT_BY_FLAG[args.format])
    if args.report:
        write_report(report, args.report)
    # Without --report no block was measured, and an empty report passes.
    return 0 if report.passed else 1


def _load_quantized(args, data) -> np.ndarray:
    spec = _input_spec(args, path=args.quantized, delta=1.0)
    qdata = read_signal(spec)
    if qdata.original_length != data.original_length:
        raise InputFormatError(
            f"quantized length {qdata.original_length} does not match "
            f"input length {data.original_length}"
        )
    if not np.all(qdata.values == np.rint(qdata.values)):
        raise InputFormatError(f"{args.quantized}: values are not integers")
    _check_pair_budget(data.values, qdata.values)
    return qdata.values.astype(np.int64)


def cmd_verify(args) -> int:
    data = read_signal(_input_spec(args))
    codes = _load_quantized(args, data) if args.quantized else None

    report = RunReport(_config_echo(args), data.original_length, data.pad_count)
    for a, f in _chunks(data.values):
        if codes is None:
            g = _quantize_chunk(f, args)
        else:
            g = codes[a : a + f.shape[0]]
        report.blocks += _block_results(
            a, g, _haar_error_rows(f, g), _noise_tables(f, g)
        )
    if args.report:
        write_report(report, args.report)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"verify: {verdict} ({len(report.blocks)} blocks)")
    return 0 if report.passed else 1


def _block_path(base: str, index: int, count: int) -> str:
    if count == 1 or base == "-":
        return base
    p = Path(base)
    return str(p.with_name(f"{p.stem}.block{index:04d}{p.suffix}"))


def cmd_spectrum(args) -> int:
    data = read_signal(_input_spec(args))
    count = data.values.shape[0]
    if count == 0:
        # No block: the table is its header alone, as quantize writes empty codes.
        _write_lines(args.output, [_SPECTRUM_HEADER])
    passed = True
    for a, f in _chunks(data.values):
        tables = _noise_tables(f, _quantize_chunk(f, args))
        for i, table in enumerate(tables, start=a):
            write_spectrum_csv(table, _block_path(args.output, i, count))
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
