"""haarq CLI benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then runs the real CLI as a
fresh `python -m haarq.cli` process per invocation, one at a time, for S
seconds of invocations (at least MIN_INVOCATIONS).  A fresh process per
invocation keeps the costs every real run pays: interpreter start, imports
and the cold `lru_cache`s in `spectral`.  Every invocation's output is
checked outside the timed region.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
invocations with traced ones (traced_cli.py) and reports per-layer metrics.
The last line of stdout is the JSON result; the line before it describes
the environment and the workload.  An earlier line lists each invocation's
wall time, CPU time and peak RSS (untraced) or the layer table (traced).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

import checks
import layers
import spans
from workloads import (RECIPE, SETUP_REPEATS, WORKLOADS, Workload, haarq_command,
                       haarq_env, set_up)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"
# Even the 8 s N=20 spectrum run gets a median of five invocations.
MIN_INVOCATIONS = 5
# A child still running after this long is killed and counted as failed, so
# that a run ends within its time limit.
CHILD_TIMEOUT_S = 120.0


@dataclass
class Invocation:
    wall_s: float
    exit_code: int
    maxrss_kb: int
    cpu_s: float
    stdout: bytes
    stderr: bytes


def invoke(cmd: list[str], work_dir: Path, env: dict, outputs) -> Invocation:
    """Run cmd to completion; wall time spans process start to reaping."""
    for name in outputs:
        (work_dir / name).unlink(missing_ok=True)
    out_path, err_path = work_dir / ".stdout", work_dir / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=work_dir, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall, proc.returncode, usage.ru_maxrss,
                      usage.ru_utime + usage.ru_stime,
                      out_path.read_bytes(), err_path.read_bytes())


def output_digest(inv: Invocation, work_dir: Path, outputs) -> str:
    h = hashlib.sha256()
    h.update(b"stdout\0%d\0" % len(inv.stdout))
    h.update(inv.stdout)
    for name in outputs:
        path = work_dir / name
        if not path.is_file():
            h.update(b"missing\0" + name.encode())
            continue
        h.update(b"%s\0%d\0" % (name.encode(), path.stat().st_size))
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 22):
                h.update(chunk)
    return h.hexdigest()


def check_outputs(w: Workload, work_dir: Path, stdout: bytes) -> list[str]:
    blocks = -(-w.samples // (1 << w.block_exp))
    try:
        if w.argv[0] == "verify":
            return checks.check_verify_stdout(stdout, blocks)
        if w.argv[0] == "spectrum":
            return checks.check_spectrum_csv(work_dir / "spectrum.csv", w.block_exp)
        f = checks.read_input(work_dir / w.input_name, w.input_format)
        g = checks.read_codes(work_dir / w.outputs[0], w.input_format)
        problems = checks.check_codes(f, g, w.block_exp)
        if "report.json" in w.outputs:
            problems += checks.check_report(work_dir / "report.json", blocks)
        return problems
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]


class Judge:
    """Decides whether each invocation succeeded.

    It fails on a non-zero exit code, on a failed output check, or when its
    output bytes differ from the run's first invocation.  Outputs are
    identified by SHA-256; identical bytes get the verdict already reached.
    """

    def __init__(self, workload: Workload, work_dir: Path):
        self.w = workload
        self.work_dir = work_dir
        self.first: str | None = None
        self.verdicts: dict[str, list[str]] = {}

    def problems(self, inv: Invocation) -> list[str]:
        if inv.exit_code != 0:
            tail = inv.stderr.decode(errors="replace").strip()[-300:]
            return [f"exit code {inv.exit_code}: {tail}"]
        digest = output_digest(inv, self.work_dir, self.w.outputs)
        if digest not in self.verdicts:
            self.verdicts[digest] = check_outputs(self.w, self.work_dir, inv.stdout)
        problems = list(self.verdicts[digest])
        if self.first is None:
            self.first = digest
        elif digest != self.first:
            problems.append("output bytes differ from the run's first invocation")
        return problems


def end_to_end_metrics(walls, maxrss_kb, setup_times, samples: int) -> dict:
    wall = median(walls)
    values = {
        "wall_s": (wall, "s"),
        "samples_per_s": (samples / wall, "1/s"),
        "peak_rss_mb": (median(maxrss_kb) / 1024.0, "MB"),
        "setup_s": (median(setup_times), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def environment(w: Workload, work_dir: Path) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        l3 = (Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
              .read_text().strip())
    except OSError:
        l3 = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k, "unset (OpenBLAS default: one per core)")
                         for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "l3_cache": l3,
        "memory_bandwidth": "not measured; no bandwidth metric is claimed",
        "workload": {
            "name": w.name,
            "argv": ["haarq", *w.argv],
            "samples": w.samples,
            "input_bytes": (work_dir / w.input_name).stat().st_size,
            "recipe": RECIPE,
            "why": w.why,
        },
    }


def run(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    work_dir = WORK_ROOT / w.name
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    env = haarq_env(ROOT / "src")
    try:
        setup_times = [set_up(w, seed, work_dir, env) for _ in range(SETUP_REPEATS)]
        env_note = environment(w, work_dir)
        problems: list[str] = []
        if w.needs_codes:
            f = checks.read_input(work_dir / w.input_name, w.input_format)
            g = checks.read_codes(work_dir / "codes.raw", "raw")
            problems += [f"reference codes: {p}" for p in checks.check_codes(f, g, w.block_exp)]
            del f, g
        # Untimed: compiles haarq's bytecode on a fresh checkout and warms the
        # file cache for numpy's libraries.
        subprocess.run([sys.executable, "-c", "import haarq.cli"], env=env,
                       cwd=work_dir, check=True)
        judge = Judge(w, work_dir)
        if trace:
            result = run_traced(w, work_dir, env, judge, seconds, problems, env_note)
        else:
            result = run_timed(w, work_dir, env, judge, seconds, setup_times, problems)
        for p in problems:
            print(f"{w.name}: {p}", file=sys.stderr)
        return env_note, result
    finally:
        for path in work_dir.iterdir():
            if path.is_file() and not path.name.endswith(".spans.json"):
                path.unlink()


def _result(attempted: int, failed: int, problems, metrics) -> dict:
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_timed(w, work_dir, env, judge, seconds, setup_times, problems) -> dict:
    cmd = haarq_command(w.argv)
    invs, failed = [], 0
    while len(invs) < MIN_INVOCATIONS or sum(i.wall_s for i in invs) < seconds:
        inv = invoke(cmd, work_dir, env, w.outputs)
        invs.append(inv)
        bad = judge.problems(inv)
        if bad:
            failed += 1
            problems += [f"invocation {len(invs)}: {p}" for p in bad]
    print(json.dumps({"invocations": [
        {"wall_s": i.wall_s, "cpu_s": i.cpu_s, "maxrss_kb": i.maxrss_kb} for i in invs],
        "setup_s": setup_times}))
    metrics = end_to_end_metrics([i.wall_s for i in invs], [i.maxrss_kb for i in invs],
                                 setup_times, w.samples)
    return _result(len(invs), failed, problems, metrics)


def run_traced(w, work_dir, env, judge, seconds, problems, env_note) -> dict:
    plain_cmd = haarq_command(w.argv)
    tracer_script = str(BENCH_DIR / "traced_cli.py")
    plain, traced, tables, import_s, invocations = [], [], [], [], []
    failed = 0
    while not traced or sum(i.wall_s for i in plain + traced) < seconds:
        spans_path = work_dir / f"trace{len(traced)}.json"
        for cmd, into in ((plain_cmd, plain),
                          ([sys.executable, tracer_script, str(spans_path), "--", *w.argv],
                           traced)):
            inv = invoke(cmd, work_dir, env, w.outputs)
            into.append(inv)
            bad = judge.problems(inv)
            if bad:
                failed += 1
                problems += [f"invocation {len(plain) + len(traced)}: {p}" for p in bad]
        if not spans_path.is_file():
            problems.append("traced invocation wrote no spans")
            continue
        record = json.loads(spans_path.read_text(encoding="utf-8"))
        spans_path.unlink()
        totals = spans.totals_by_name([spans.Span(**s) for s in record["spans"]])
        if record["missing"] and not tables:
            # A renamed or removed function reads 0; that is not an error.
            print(f"{w.name}: layers not found: {record['missing']}", file=sys.stderr)
        if layers.MAIN not in totals:
            problems.append("traced run recorded no cli.main span")
            continue
        gap = layers.accounting_gap(totals)
        if abs(gap) > 1e-6:
            problems.append(f"layer self times miss cli.main by {gap!r} s")
        tables.append(layers.layer_table(totals, w.samples))
        import_s.append(record["import_s"])
        invocations.append(record)

    spans_file = work_dir / f"{w.name}.spans.json"
    spans_file.write_text(json.dumps({"environment": env_note,
                                      "invocations": invocations}), encoding="utf-8")
    attempted = len(plain) + len(traced)
    if not tables:
        return _result(attempted, failed, problems or ["no spans"], {})
    print(json.dumps({"spans_file": str(spans_file.relative_to(ROOT)),
                      "layers": tables[-1]}))
    metrics = layers.per_layer_metrics(
        tables, import_s, [i.cpu_s for i in plain],
        [i.wall_s for i in plain], [i.wall_s for i in traced])
    return _result(attempted, failed, problems, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "haarq" / "cli.py").is_file():
        print(f"error: no haarq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env_note, result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace))
    print(json.dumps({"environment": env_note}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
