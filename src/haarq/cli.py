"""Command-line front end: quantize, verify, spectrum, and basis dumps.

Exit codes: 0 success (all bounds pass), 1 bound violation, 2 usage error,
3 I/O or input-format error.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from .haar import check_index, haar_basis, make_grid
from .quantizer import QuantizerConfig, _haar_error_rows, _quantize_rows, _round_rows
from .report_io import (
    PAD_POLICIES,
    BlockResult,
    InputFormatError,
    InputSpec,
    RunReport,
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
    sp.add_argument("--dither", type=float, default=0.0, metavar="EPS",
                    help="uniform dither width added before quantizing (default 0)")
    sp.add_argument("--seed", type=int, default=0, help="dither seed (default 0)")
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


def _config(args) -> QuantizerConfig:
    return QuantizerConfig(
        tie_break=_TIE_BY_FLAG[args.tie_break],
        dither_amplitude=args.dither,
        dither_seed=args.seed,
    )


def _config_echo(args) -> dict:
    return {
        "baseline": bool(args.baseline),
        "block_exponent": args.block_exp,
        "dither_amplitude": float(args.dither),
        "dither_seed": int(args.seed),
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
    cfg = _config(args)
    if args.baseline:
        return _round_rows(f, cfg.tie_break)
    return _quantize_rows(f, cfg)[-1]


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
    return 0


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
    for a, f in _chunks(data.values):
        tables = _noise_tables(f, _quantize_chunk(f, args))
        for i, table in enumerate(tables, start=a):
            write_spectrum_csv(table, _block_path(args.output, i, count))
    return 0


def cmd_basis(args) -> int:
    grid = make_grid(args.block_exp)
    index = check_index((args.level, args.position), grid.n_exponent)
    lines = []
    if args.fourier:
        lines.append("xi,re,im,abs")
        for xi in FrequencyGrid(grid.n_exponent).frequencies:
            value = haar_fourier_coefficient(int(xi), index, grid.n_exponent)
            lines.append(
                f"{int(xi)},{format_float(value.real)},"
                f"{format_float(value.imag)},{format_float(abs(value))}"
            )
    else:
        basis = haar_basis(index, grid)
        lines.append("n,t,value")
        for i, (t, v) in enumerate(zip(grid.samples, basis.values), start=1):
            lines.append(f"{i},{format_float(t)},{format_float(v)}")
    text = "".join(line + "\n" for line in lines)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")
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
