"""Output checks, written with plain numpy rather than haarq's own verifier.

Every check returns a list of problems; an empty list means the output is
correct.  The checks re-derive the guarantees the paper proves:

- quantized codes: per sample |f - g| <= 1 - 2**-(N+1), and per block
  |fsum(f) - sum(g)| <= 1/2 (the DC bound 2**-(N+1) times 2**N);
- spectrum tables: one row per frequency in ascending order, with
  measured <= bound_exact + SPECTRUM_SLACK.
"""

import json
import math
from pathlib import Path

import numpy as np

SPECTRUM_SLACK = 1e-10
SPECTRUM_HEADER = "xi,measured,bound_exact,bound_linear,baseline_bound"


def read_input(path: Path, input_format: str) -> np.ndarray:
    if input_format == "csv":
        return np.loadtxt(path, dtype=np.float64, ndmin=1)
    return np.fromfile(path, dtype="<f8")


def read_codes(path: Path, input_format: str) -> np.ndarray:
    """Codes as int64; raises ValueError when a value is not an integer."""
    if input_format == "csv":
        return np.loadtxt(path, dtype=np.int64, ndmin=1)
    values = np.fromfile(path, dtype="<f8")
    if not np.all(values == np.rint(values)):
        raise ValueError(f"{path.name}: codes are not integers")
    return values.astype(np.int64)


def _padded(values: np.ndarray, size: int) -> np.ndarray:
    pad = -values.shape[0] % size
    return np.concatenate([values, np.zeros(pad, dtype=values.dtype)]) if pad else values


def check_codes(f: np.ndarray, g: np.ndarray, block_exp: int) -> list[str]:
    """Check codes g against the scaled input f, block by block.

    The CLI writes codes only for the original samples.  Pad samples are
    0 in f, and the per-sample bound (< 1) forces their codes to 0, so g
    is padded with zeros like f.
    """
    if f.shape != g.shape:
        return [f"{g.shape[0]} codes for {f.shape[0]} input samples"]
    size = 1 << block_exp
    fp = _padded(f, size)
    gp = _padded(g, size)
    problems = []
    err = np.abs(fp - gp.astype(np.float64))
    sup_bound = 1.0 - 2.0 ** -(block_exp + 1)
    bad = np.flatnonzero(err > sup_bound)
    if bad.size:
        problems.append(
            f"{bad.size} samples break |f-g| <= {sup_bound!r}; first at {bad[0]} "
            f"(error {err[bad[0]]!r})"
        )
    for b, start in enumerate(range(0, fp.shape[0], size)):
        exact = math.fsum(fp[start:start + size].tolist())
        total = int(gp[start:start + size].sum())
        if abs(exact - total) > 0.5:
            problems.append(
                f"block {b}: |fsum(f) - sum(g)| = {abs(exact - total)!r} > 0.5"
            )
            break
    return problems


def check_report(path: Path, block_count: int) -> list[str]:
    report = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    if report.get("pass") is not True:
        problems.append(f"report pass is {report.get('pass')!r}")
    if report.get("block_count") != block_count:
        problems.append(f"report block_count is {report.get('block_count')!r}, "
                        f"want {block_count}")
    return problems


def check_verify_stdout(stdout: bytes, block_count: int) -> list[str]:
    want = f"verify: PASS ({block_count} blocks)\n".encode()
    return [] if stdout == want else [f"verify printed {stdout[:200]!r}, want {want!r}"]


def check_spectrum_csv(path: Path, block_exp: int) -> list[str]:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        if header != SPECTRUM_HEADER:
            return [f"spectrum header is {header!r}"]
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    rows = 1 << block_exp
    if table.shape != (rows, 5):
        return [f"spectrum table has shape {table.shape}, want ({rows}, 5)"]
    half = rows // 2
    want_xi = np.arange(-half + 1, half + 1) if block_exp else np.array([0])
    problems = []
    if not np.array_equal(table[:, 0], want_xi):
        problems.append("frequencies are not -2**(N-1)+1 .. 2**(N-1) in ascending order")
    over = np.flatnonzero(table[:, 1] > table[:, 2] + SPECTRUM_SLACK)
    if over.size:
        problems.append(f"{over.size} rows have measured > bound_exact + slack; "
                        f"first xi={table[over[0], 0]!r}")
    return problems
