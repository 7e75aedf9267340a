"""The four benchmark workloads and the seeded input generator.

Each workload is one `haarq` CLI command line run on files generated from
the seed.  The CLI sees only those files; nothing about the seed or the
workload reaches it.
"""

import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Signal recipe: two sinusoids plus white Gaussian noise.  Frequencies are
# fixed (cycles per sample); phases and noise come from the seed.
AMPLITUDES = (900.0, 300.0)
FREQUENCIES = (0.00123, 0.0371)
NOISE_SIGMA = 5.0
RECIPE = (
    "x[i] = 900*sin(2*pi*0.00123*i + p1) + 300*sin(2*pi*0.0371*i + p2) "
    "+ normal(0, 5); p1, p2 uniform in [0, 2*pi); all draws from "
    "numpy.random.default_rng(seed); CSV written with %.17g, raw as "
    "little-endian float64"
)

# How many times a run repeats its set-up; setup_s is their median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple[str, ...]
    samples: int
    block_exp: int
    input_format: str  # "csv" or "raw"
    outputs: tuple[str, ...]  # files the command writes, relative to the work dir
    needs_codes: bool = False  # verify: a reference codes file made in set-up

    @property
    def input_name(self) -> str:
        return "signal." + self.input_format


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="csv_quantize_report_n10",
            why="Only workload that parses CSV, writes CSV codes and canonical "
                "JSON, and pays per-block quantize plus Haar-verify overhead; "
                "bypasses spectral.",
            argv=("quantize", "--block-exp", "10", "--input", "signal.csv",
                  "--output", "codes.csv", "--report", "report.json"),
            samples=1_048_000,  # 1024 blocks, the last one zero-padded
            block_exp=10,
            input_format="csv",
            outputs=("codes.csv", "report.json"),
        ),
        Workload(
            name="raw_verify_n10",
            why="Verify at N=10 over 1024 blocks: the direct O(4**N) DFT "
                "dominates, I/O is negligible and the input is read twice.",
            argv=("verify", "--format", "raw", "--block-exp", "10",
                  "--input", "signal.raw", "--quantized", "codes.raw"),
            samples=1 << 20,
            block_exp=10,
            input_format="raw",
            outputs=(),
            needs_codes=True,
        ),
        Workload(
            name="raw_spectrum_n20",
            why="One N=20 block on the FFT path: cold envelope loop and a "
                "2**20-row spectrum CSV; no per-block overhead, no direct DFT.",
            argv=("spectrum", "--format", "raw", "--block-exp", "20",
                  "--input", "signal.raw", "--output", "spectrum.csv"),
            samples=1 << 20,
            block_exp=20,
            input_format="raw",
            outputs=("spectrum.csv",),
        ),
        Workload(
            name="raw_quantize_n20_large",
            why="2**24 raw samples in 16 N=20 blocks: the vectorized quantizer "
                "kernel and peak memory dominate, not per-block Python overhead.",
            argv=("quantize", "--format", "raw", "--block-exp", "20",
                  "--input", "signal.raw", "--output", "codes.raw"),
            samples=1 << 24,
            block_exp=20,
            input_format="raw",
            outputs=("codes.raw",),
        ),
    )
}


def make_signal(samples: int, seed: int) -> np.ndarray:
    """The seeded test signal; the same seed always gives the same samples."""
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * math.pi, len(AMPLITUDES))
    i = np.arange(samples, dtype=np.float64)
    x = rng.normal(0.0, NOISE_SIGMA, samples)
    for amp, freq, phase in zip(AMPLITUDES, FREQUENCIES, phases):
        x += amp * np.sin(2.0 * math.pi * freq * i + phase)
    return x


def write_signal(path: Path, values: np.ndarray, input_format: str) -> None:
    if input_format == "csv":
        text = ("%.17g\n" * values.shape[0]) % tuple(values.tolist())
        path.write_text(text, encoding="ascii")
    else:
        values.astype("<f8").tofile(path)


def haarq_command(argv) -> list[str]:
    return [sys.executable, "-m", "haarq.cli", *argv]


def haarq_env(src_dir: Path) -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src_dir) + (os.pathsep + old if old else "")
    return env


def set_up(workload: Workload, seed: int, work_dir: Path, env: dict) -> float:
    """Write the workload's inputs into work_dir; return the seconds it took.

    For verify this includes making the reference codes file with the
    program's own `quantize`, which the timed `verify` then checks.
    """
    t0 = time.perf_counter()
    signal = make_signal(workload.samples, seed)
    write_signal(work_dir / workload.input_name, signal, workload.input_format)
    del signal
    if workload.needs_codes:
        argv = ("quantize", "--format", "raw", "--block-exp", str(workload.block_exp),
                "--input", workload.input_name, "--output", "codes.raw")
        done = subprocess.run(haarq_command(argv), cwd=work_dir, env=env,
                              stdin=subprocess.DEVNULL, capture_output=True)
        if done.returncode != 0:
            raise RuntimeError(
                f"reference quantize exited {done.returncode}: "
                f"{done.stderr.decode(errors='replace').strip()}"
            )
    return time.perf_counter() - t0
