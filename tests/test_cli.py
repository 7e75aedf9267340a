import functools
import json
import math
import multiprocessing
import os
import stat
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from haarq import (
    Signal, cli, make_grid, quantize_haar_optimal, report_io, spectral, spectrum_error,
)
from haarq.cli import main
from haarq.report_io import CHUNK_SAMPLES

from oracles import (
    codes_sha256, dc_error_fraction, quantize_per_block, report_reference,
    spectrum_csv_reference,
)

WORKED = [0.3, -0.2, 0.4, 0.1]
UNIFORM = np.random.default_rng(1).uniform(-0.5, 0.5, 1 << 10)


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    before = threading.active_count()
    yield
    assert threading.active_count() <= before, "a thread outlived the test"


@pytest.fixture(autouse=True)
def no_process_outlives_the_test():
    yield
    assert not multiprocessing.active_children(), "a child process outlived the test"


def use_cpus(monkeypatch, count):
    """Make the CLI see `count` CPUs it may run on, for its thread pool."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def write_csv(path, values):
    # repr is the shortest round-trip text, which the CLI's writers use too.
    path.write_text("".join(f"{v!r}\n" for v in np.asarray(values, dtype=np.float64).tolist()))


def read_int_csv(path):
    return [int(line) for line in path.read_text().splitlines()]


class TestQuantize:
    def test_worked_example(self, tmp_path):
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_csv(src, WORKED)
        code = main([
            "quantize", "--input", str(src), "--output", str(out),
            "--block-exp", "2",
        ])
        assert code == 0
        assert read_int_csv(out) == [0, 0, 1, 0]

    def test_report_contents(self, tmp_path):
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        rep = tmp_path / "report.json"
        write_csv(src, WORKED)
        code = main([
            "quantize", "--input", str(src), "--output", str(out),
            "--block-exp", "2", "--report", str(rep),
        ])
        assert code == 0
        parsed = json.loads(rep.read_text())
        assert parsed["pass"] is True
        assert parsed["blocks"][0]["quantized_sha256"] == codes_sha256([0, 0, 1, 0])
        assert parsed["blocks"][0]["dc_total"] == 1
        assert parsed["blocks"][0]["haar"]["dc_input"] == 0.15
        assert parsed["config"]["tie_break"] == "toward_negative"

    def test_report_bound_violation_exits_one(self, tmp_path):
        # Per-sample rounding breaks the DC bound on uniform samples.
        src, out, rep = tmp_path / "in.csv", tmp_path / "out.csv", tmp_path / "r.json"
        write_csv(src, UNIFORM)
        code = main(["quantize", "--input", str(src), "--output", str(out),
                     "--baseline", "--report", str(rep)])
        assert code == 1
        assert len(read_int_csv(out)) == len(UNIFORM)
        assert json.loads(rep.read_text())["pass"] is False

    def test_without_report_nothing_is_measured(self, tmp_path):
        src, out = tmp_path / "in.csv", tmp_path / "out.csv"
        write_csv(src, UNIFORM)
        code = main(["quantize", "--input", str(src), "--output", str(out),
                     "--baseline"])
        assert code == 0
        assert len(read_int_csv(out)) == len(UNIFORM)

    def test_output_trimmed_to_input_length(self, tmp_path):
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_csv(src, [0.4] * 10)
        code = main([
            "quantize", "--input", str(src), "--output", str(out),
            "--block-exp", "3",
        ])
        assert code == 0
        assert len(read_int_csv(out)) == 10

    def test_raw_format_round_trip(self, tmp_path):
        src = tmp_path / "in.bin"
        out = tmp_path / "out.bin"
        rng = np.random.default_rng(47)
        values = rng.uniform(-0.5, 0.5, 16)
        src.write_bytes(values.astype("<f8").tobytes())
        code = main([
            "quantize", "--input", str(src), "--output", str(out),
            "--format", "raw", "--block-exp", "4",
        ])
        assert code == 0
        decoded = np.frombuffer(out.read_bytes(), dtype="<f8")
        assert decoded.shape == (16,)
        assert np.all(decoded == np.rint(decoded))

    def test_stdout_output(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        write_csv(src, WORKED)
        code = main(["quantize", "--input", str(src), "--block-exp", "2"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["0", "0", "1", "0"]

    def test_plain_decimal_csv_never_reaches_the_line_parser(self, tmp_path, monkeypatch):
        def refuse(lines, source, linenos, codes):
            raise AssertionError("a plain line reached the line parser")

        monkeypatch.setattr(report_io, "_read_csv_values", refuse)
        values = np.random.default_rng(59).normal(0.0, 300.0, 3000).tolist()
        # repr and %.17g lines, signs, '-0', '5.', '.5', leading zeros, and
        # lines whose value is in doubt: a float64 midpoint and 19 or more digits.
        lines = [repr(v) for v in values[:1000]] + ["%.17g" % v for v in values[1000:]]
        lines += ["-0", "+3", "5.", ".5", "-.25", "007.5", "4503599627370496.5",
                  "0.1234567890123456789", "-0000000000000000000012.5"]
        src, out = tmp_path / "in.csv", tmp_path / "out.csv"
        src.write_text("".join(f"{line}\n" for line in lines))
        assert main(["quantize", "--input", str(src), "--output", str(out)]) == 0
        samples = np.array([float(line) for line in lines])
        assert read_int_csv(out) == quantize_per_block(samples, 10).tolist()

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"0.3\n-0.2\n0.4\n0.1\n")))
        code = main(["quantize", "--block-exp", "2"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["0", "0", "1", "0"]


class TestVerify:
    def test_self_quantized_passes(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        write_csv(src, np.random.default_rng(53).uniform(-0.5, 0.5, 32))
        code = main(["verify", "--input", str(src), "--block-exp", "4"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_quantize_then_verify_pair(self, tmp_path, capsys):
        rng = np.random.default_rng(59)
        src = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        write_csv(src, rng.uniform(-0.5, 0.5, 40))
        assert main([
            "quantize", "--input", str(src), "--output", str(out),
            "--block-exp", "4",
        ]) == 0
        code = main([
            "verify", "--input", str(src), "--quantized", str(out),
            "--block-exp", "4",
        ])
        assert code == 0

    def test_baseline_violation_exits_one(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        write_csv(src, [-0.49] * 4 + [0.49] * 4)
        code = main([
            "verify", "--input", str(src), "--block-exp", "3", "--baseline",
        ])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_report_written(self, tmp_path):
        src = tmp_path / "in.csv"
        rep = tmp_path / "rep.json"
        write_csv(src, WORKED)
        code = main([
            "verify", "--input", str(src), "--block-exp", "2",
            "--report", str(rep),
        ])
        assert code == 0
        parsed = json.loads(rep.read_text())
        assert parsed["blocks"][0]["pass"] is True

    @pytest.mark.parametrize("quantized", [False, True])
    def test_verify_computes_no_spectrum(self, tmp_path, monkeypatch, capsys, quantized):
        def refuse(values):
            raise AssertionError("verify reached the FFT")

        monkeypatch.setattr(spectral, "_half_spectrum", refuse)
        src, q = tmp_path / "in.csv", tmp_path / "q.csv"
        write_csv(src, UNIFORM)
        args = ["verify", "--input", str(src), "--report", str(tmp_path / "rep.json")]
        if quantized:
            assert main(["quantize", "--input", str(src), "--output", str(q)]) == 0
            args += ["--quantized", str(q)]
        assert main(args) == 0
        assert capsys.readouterr().out == "verify: PASS (1 blocks)\n"

    @pytest.mark.parametrize("quantized", [False, True])
    def test_empty_input_passes_with_no_blocks(self, tmp_path, capsys, quantized):
        src = tmp_path / "in.csv"
        src.write_text("")
        args = ["verify", "--input", str(src)]
        if quantized:
            args += ["--quantized", str(src)]
        assert main(args) == 0
        assert capsys.readouterr().out == "verify: PASS (0 blocks)\n"

    def test_length_mismatch_is_io_error(self, tmp_path):
        src = tmp_path / "in.csv"
        q = tmp_path / "q.csv"
        write_csv(src, WORKED)
        write_csv(q, [0.0, 0.0])
        code = main([
            "verify", "--input", str(src), "--quantized", str(q),
            "--block-exp", "2",
        ])
        assert code == 3

    # A bad code first among the codes (in CSV, after a comment line) and in
    # a later chunk (in CSV, also a later read): the error names its line
    # or index.
    @pytest.mark.parametrize("at", [0, CHUNK_SAMPLES + 2])
    @pytest.mark.parametrize("fmt, code", [("csv", 3.5), ("raw", 0.5)])
    def test_non_integer_quantized_rejected(self, tmp_path, monkeypatch, capsys, fmt, code,
                                            at):
        monkeypatch.setattr(report_io, "_READ_BYTES", 1000)
        src, q = tmp_path / f"in.{fmt}", tmp_path / f"q.{fmt}"
        values = np.zeros(CHUNK_SAMPLES + 4)
        codes = values.copy()
        codes[at] = code
        if fmt == "csv":
            write_csv(src, values)
            q.write_text("# codes\n" + "".join(f"{c!r}\n" for c in codes.tolist()))
            message = f"{q}:{at + 2}: not an integer: '3.5'"
        else:
            write_raw(src, values)
            write_raw(q, codes)
            message = f"{q}: non-integer code at index {at}"
        assert main(["verify", "--format", fmt, "--input", str(src), "--quantized", str(q),
                     "--block-exp", "2"]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    # 2**55 + 3 reads as 2**55 in float64: its exact DC error is 3, far
    # beyond 1/2.  Every genuine code is exact in float64: |f - g| < 1, and
    # every float64 of magnitude 2**52 or more is an integer.
    @pytest.mark.parametrize("text", [
        "36028797018963971", "36028797018963971.000", "3.6028797018963971e16",
        "36028797018963968.5", "0.1", "1e300", "1e-99999999999999999999",
    ])
    def test_a_code_float64_does_not_hold_is_refused(self, tmp_path, capsys, text):
        src, q = tmp_path / "in.csv", tmp_path / "q.csv"
        src.write_text("36028797018963968\n")
        q.write_text(f"# codes\n{text}\n")
        assert main(["verify", "--block-exp", "0", "--input", str(src),
                     "--quantized", str(q)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {q}:2: not exact in float64: {text!r}\n"

    @pytest.mark.parametrize("text", ["36028797018963976", "3.6028797018963976e16",
                                      "36028797018963976.000"])
    def test_a_large_code_float64_holds_passes(self, tmp_path, capsys, text):
        src, q = tmp_path / "in.csv", tmp_path / "q.csv"
        src.write_text("36028797018963976\n")  # 2**55 + 8
        q.write_text(f"{text}\n")
        assert main(["verify", "--block-exp", "0", "--input", str(src),
                     "--quantized", str(q)]) == 0
        assert capsys.readouterr().out == "verify: PASS (1 blocks)\n"


class TestBaselineTieBreak:
    @pytest.mark.parametrize("tie, expected", [("down", 0), ("up", 1)])
    def test_quantize(self, tmp_path, capsys, tie, expected):
        src = tmp_path / "in.csv"
        write_csv(src, [0.5])
        code = main(["quantize", "--input", str(src), "--block-exp", "0",
                     "--baseline", "--tie-break", tie])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [str(expected)]

    @pytest.mark.parametrize("tie, expected", [("down", 0), ("up", 1)])
    def test_verify(self, tmp_path, capsys, tie, expected):
        src = tmp_path / "in.csv"
        rep = tmp_path / "rep.json"
        write_csv(src, [0.5])
        code = main(["verify", "--input", str(src), "--block-exp", "0",
                     "--baseline", "--tie-break", tie, "--report", str(rep)])
        assert code == 0
        block = json.loads(rep.read_text())["blocks"][0]
        assert block["quantized_sha256"] == codes_sha256([expected])


def write_raw(path, values):
    path.write_bytes(np.asarray(values, dtype="<f8").tobytes())


def read_codes(path, fmt):
    if fmt == "raw":
        return np.frombuffer(path.read_bytes(), dtype="<f8").astype(np.int64)
    return np.array(read_int_csv(path), dtype=np.int64)


class TestZeroCodes:
    """Codes that reach 0 from negative targets, as rint(-0.4) does, are
    +0.0: raw output would write -0.0 as other bytes."""

    SIGNAL = [-0.3, -0.2, -0.1, 0.4]

    def run(self, tmp_path, fmt, flags):
        src, out, rep = tmp_path / f"in.{fmt}", tmp_path / f"out.{fmt}", tmp_path / "rep.json"
        (write_raw if fmt == "raw" else write_csv)(src, self.SIGNAL)
        code = main(["quantize", "--format", fmt, "--block-exp", "2", *flags,
                     "--input", str(src), "--output", str(out), "--report", str(rep)])
        assert code == 0
        return out, json.loads(rep.read_text())["blocks"][0]

    @pytest.mark.parametrize("flags", [[], ["--baseline"]], ids=["pyramid", "baseline"])
    def test_raw_codes_are_the_bytes_of_the_integers(self, tmp_path, flags):
        expected = [0, 0, 0, 0]
        if not flags:
            assert quantize_per_block(np.array(self.SIGNAL), 2).tolist() == expected
        out, block = self.run(tmp_path, "raw", flags)
        assert out.read_bytes() == np.array(expected, "<f8").tobytes()
        assert block["quantized_sha256"] == codes_sha256(expected)
        assert block["dc_total"] == 0

    @pytest.mark.parametrize("flags", [[], ["--baseline"]], ids=["pyramid", "baseline"])
    def test_csv_prints_zero_never_minus_zero(self, tmp_path, flags):
        out, block = self.run(tmp_path, "csv", flags)
        assert out.read_text() == "0\n0\n0\n0\n"
        assert block["quantized_sha256"] == codes_sha256([0, 0, 0, 0])


class TestChunkBoundaries:
    """Inputs of one chunk plus a partial block must match per-block quantizing."""

    # (flags, tie rule the per-block oracle uses)
    CASES = {
        "down": ((), "toward_negative"),
        "up": (("--tie-break", "up"), "toward_positive"),
    }

    @pytest.fixture(scope="class", params=[0, 3, 10])
    def signal(self, request):
        n = request.param
        size = 1 << n
        rows = max(1, CHUNK_SAMPLES >> n)
        # One block more than a chunk holds, the last one partial when N > 0.
        length = rows * size + max(1, size - 3)
        rng = np.random.default_rng(1500 + n)
        # Quarter steps make exact rounding ties common.
        values = np.round(rng.uniform(-40.0, 40.0, length) * 4.0) / 4.0
        expected = {
            name: quantize_per_block(values, n, tie_break)
            for name, (_, tie_break) in self.CASES.items()
        }
        return n, values, expected

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("fmt", ["raw", "csv"])
    def test_quantize_matches_per_block_oracle(self, tmp_path, signal, fmt, case):
        n, values, expected = signal
        src = tmp_path / f"in.{fmt}"
        out = tmp_path / f"out.{fmt}"
        if fmt == "raw":
            write_raw(src, values)
        else:
            write_csv(src, values)
        code = main(["quantize", "--format", fmt, "--block-exp", str(n),
                     "--input", str(src), "--output", str(out),
                     *self.CASES[case][0]])
        assert code == 0
        assert np.array_equal(read_codes(out, fmt), expected[case])

    def test_tie_rules_differ_on_this_input(self, signal):
        _, _, expected = signal
        assert not np.array_equal(expected["down"], expected["up"])

    def test_corrupt_block_in_second_chunk_fails_alone(self, tmp_path, capsys):
        n = 10
        size = 1 << n
        rows = CHUNK_SAMPLES >> n
        values = np.random.default_rng(1600).uniform(-50.0, 50.0, (rows + 1) * size)
        src, q, rep = tmp_path / "in.raw", tmp_path / "q.raw", tmp_path / "rep.json"
        write_raw(src, values)
        assert main(["quantize", "--format", "raw", "--block-exp", str(n),
                     "--input", str(src), "--output", str(q)]) == 0
        codes = read_codes(q, "raw")
        codes[rows * size + 5] += 2
        write_raw(q, codes)
        capsys.readouterr()
        code = main(["verify", "--format", "raw", "--block-exp", str(n),
                     "--input", str(src), "--quantized", str(q),
                     "--report", str(rep)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
        blocks = json.loads(rep.read_text())["blocks"]
        assert [b["index"] for b in blocks if not b["pass"]] == [rows]


class TestLargeMagnitudes:
    # Totals near 2**56: the float totals have no fractional bits left, so
    # float roundings of them would break the DC bound 21 times over.  The
    # roundings are decided exactly, and the report gives the exact error.
    VALUES = 2.0**46 + np.random.default_rng(3).uniform(-0.5, 0.5, 1 << 10)

    def test_report_measures_the_residual(self, tmp_path):
        src, out, rep = tmp_path / "in.raw", tmp_path / "q.raw", tmp_path / "r.json"
        write_raw(src, self.VALUES)
        code = main(["quantize", "--format", "raw", "--input", str(src),
                     "--output", str(out), "--report", str(rep)])
        assert code == 0
        block = json.loads(rep.read_text())["blocks"][0]
        exact = dc_error_fraction(self.VALUES, read_codes(out, "raw"))
        assert block["haar"]["dc_error"] == float(exact)
        assert exact <= block["haar"]["dc_bound"]
        assert block["haar"]["dc_ok"] is True
        assert block["pass"] is True

    @pytest.mark.parametrize("which", ["input", "quantized"])
    def test_verify_rejects_values_beyond_budget(self, tmp_path, capsys, which):
        files = {"input": tmp_path / "in.csv", "quantized": tmp_path / "q.csv"}
        # 2**61, beyond the budget, and exact in float64 as every code must be.
        for name, path in files.items():
            path.write_text(f"{2**61}\n0\n" if name == which else "0\n0\n")
        code = main(["verify", "--block-exp", "1", "--input", str(files["input"]),
                     "--quantized", str(files["quantized"])])
        assert code == 2
        assert "64-bit integer budget" in capsys.readouterr().err

    # Totals or scaled samples beyond the float range are refused in one
    # line; a NumPy overflow warning before it would escape main here.
    @pytest.mark.parametrize("samples, flags", [
        ("1e10\n2\n", ["--delta", "1e-300"]),
        ("1e308\n1e308\n", []),
        ("1e308\n1e308\n", ["--baseline"]),
    ], ids=["scaled", "summed", "baseline"])
    def test_quantize_beyond_the_float_range_is_one_error_line(
        self, tmp_path, monkeypatch, capsys, samples, flags
    ):
        import io

        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(samples.encode())))
        code = main(["quantize", "--block-exp", "1", "--output", str(tmp_path / "q.csv"),
                     *flags])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: signal totals exceed the 64-bit integer budget\n")
        assert not list(tmp_path.iterdir())

    def test_verify_codes_beyond_the_float_range_are_one_error_line(self, tmp_path,
                                                                     capsys):
        src, q = tmp_path / "in.csv", tmp_path / "q.csv"
        src.write_text("1\n2\n")
        q.write_text(f"{2**1023}\n{2**1023}\n")  # exact in float64, as codes must be
        code = main(["verify", "--block-exp", "1", "--input", str(src),
                     "--quantized", str(q)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: quantized totals exceed the 64-bit integer budget\n")


class TestUnsoundVerdicts:
    """Cases that float arithmetic decides wrongly: DC errors beyond their
    bound by less than a fixed slack of 1e-12 would forgive, codes
    rounded from float totals near 2**56, which have no fractional bits,
    and, still open, totals of quotients by a --delta that is not a power
    of two."""

    def verify_zero_codes(self, tmp_path, values, n):
        src, q = tmp_path / "in.raw", tmp_path / "q.raw"
        write_raw(src, values)
        write_raw(q, np.zeros(len(values)))
        return main(["verify", "--format", "raw", "--block-exp", str(n),
                     "--input", str(src), "--quantized", str(q)])

    def test_dc_error_just_beyond_its_bound_fails_at_n3(self, tmp_path, capsys):
        # The exact DC error is 2**-4 + 5e-13.
        assert self.verify_zero_codes(tmp_path, [0.500000000004] + [0.0] * 7, 3) == 1
        assert capsys.readouterr().out == "verify: FAIL (1 blocks)\n"

    def test_dc_error_just_beyond_its_bound_fails_at_n20(self, tmp_path, capsys):
        # A block total of 0.5000001: 1e-7 beyond, which is 1e-13 on the DC error.
        values = np.zeros(1 << 20)
        values[0] = 0.5000001
        assert self.verify_zero_codes(tmp_path, values, 20) == 1
        assert capsys.readouterr().out == "verify: FAIL (1 blocks)\n"

    @pytest.mark.xfail(strict=True, reason="with a --delta that is not a power of two, "
                       "codes are decided and verified on the rounded quotients fl(f/delta)")
    def test_delta_total_just_beyond_its_bound_fails(self, tmp_path, capsys):
        # The float quotients f / 0.1 total exactly 1/2, a tie that the codes
        # 0, 0 meet; the exact total of f / 0.1 is 1/2 + 1.7e-17, so the
        # exact DC error is beyond its bound 2**-2 by 8.7e-18.
        src, q = tmp_path / "in.csv", tmp_path / "q.csv"
        src.write_text("0.010172762033807481\n0.03982723796619252\n")
        q.write_text("0\n0\n")
        assert main(["verify", "--block-exp", "1", "--delta", "0.1", "--input", str(src),
                     "--quantized", str(q)]) == 1

    def test_codes_of_large_totals_verify(self, tmp_path, capsys):
        src, out = tmp_path / "in.raw", tmp_path / "q.raw"
        write_raw(src, TestLargeMagnitudes.VALUES)
        assert main(["quantize", "--format", "raw", "--input", str(src),
                     "--output", str(out)]) == 0
        assert main(["verify", "--format", "raw", "--input", str(src),
                     "--quantized", str(out)]) == 0


class TestSpectrum:
    def test_single_block_table(self, tmp_path):
        src = tmp_path / "in.csv"
        out = tmp_path / "table.csv"
        write_csv(src, np.random.default_rng(61).uniform(-0.5, 0.5, 64))
        code = main([
            "spectrum", "--input", str(src), "--output", str(out),
            "--block-exp", "6",
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "xi,measured,bound_exact,bound_linear,baseline_bound"
        assert len(lines) == 65

    def test_stdout_matches_file_bytes(self, tmp_path, capsysbinary):
        src = tmp_path / "in.csv"
        out = tmp_path / "table.csv"
        write_csv(src, np.random.default_rng(71).uniform(-0.5, 0.5, 16))
        args = ["spectrum", "--input", str(src), "--block-exp", "4", "--output"]
        assert main([*args, str(out)]) == 0
        capsysbinary.readouterr()
        assert main([*args, "-"]) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    def test_bound_violation_exits_one_after_writing(self, tmp_path):
        src = tmp_path / "in.csv"
        out = tmp_path / "table.csv"
        write_csv(src, UNIFORM)
        code = main(["spectrum", "--input", str(src), "--output", str(out),
                     "--baseline"])
        assert code == 1
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == len(UNIFORM)
        assert any(float(r[1]) > float(r[2]) + 1e-10 for r in rows)

    def test_multi_block_suffixes(self, tmp_path):
        src = tmp_path / "in.csv"
        out = tmp_path / "table.csv"
        write_csv(src, np.random.default_rng(67).uniform(-0.5, 0.5, 8))
        code = main([
            "spectrum", "--input", str(src), "--output", str(out),
            "--block-exp", "2",
        ])
        assert code == 0
        assert (tmp_path / "table.block0000.csv").exists()
        assert (tmp_path / "table.block0001.csv").exists()

    def test_empty_input_writes_the_header_alone(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        out = tmp_path / "table.csv"
        src.write_text("")
        header = "xi,measured,bound_exact,bound_linear,baseline_bound\n"
        args = ["spectrum", "--input", str(src), "--output"]
        assert main([*args, str(out)]) == 0
        assert out.read_text() == header
        assert main([*args, "-"]) == 0
        assert capsys.readouterr().out == header


class TestBasis:
    def test_time_domain_dump(self, capsys):
        code = main(["basis", "--block-exp", "2", "--level", "2", "--position", "2"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,t,value"
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert values == pytest.approx([0, 0, -(2**0.5), 2**0.5])

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_fourier_dump(self, capsys, n):
        code = main(["basis", "--block-exp", str(n), "--level", "0", "--position", "1",
                     "--fourier"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "xi,re,im,abs"
        # The grid (-2**(N-1), 2**(N-1)], ascending; [0] at N=0.
        expected = list(range(1 - 2 ** (n - 1), 2 ** (n - 1) + 1)) if n else [0]
        assert [int(line.split(",")[0]) for line in lines[1:]] == expected

    def test_invalid_index_is_usage_error(self, capsys):
        code = main(["basis", "--block-exp", "2", "--level", "3", "--position", "1"])
        assert code == 2


class TestExitCodes:
    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["quantize", "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [["--dither", "1e-7"], ["--seed", "5"]])
    @pytest.mark.parametrize("command", ["quantize", "verify", "spectrum"])
    def test_removed_quantizer_flags_are_usage_errors(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, *flag])
        assert exc.value.code == 2

    def test_bad_block_exp_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        write_csv(src, WORKED)
        assert main(["quantize", "--input", str(src), "--block-exp", "99"]) == 2

    @pytest.mark.parametrize("command", ["quantize", "verify"])
    def test_block_exp_is_checked_before_the_report_layout_is_made(
            self, tmp_path, monkeypatch, capsys, command):
        # The layout grows as 2**N; a bad N must be refused without one.
        def no_layout(*args):
            raise AssertionError("report layout made before N was checked")

        monkeypatch.setattr(cli, "_ReportLayout", no_layout)
        src = tmp_path / "in.csv"
        write_csv(src, WORKED)
        assert main([command, "--input", str(src), "--block-exp", "25",
                     "--report", str(tmp_path / "r.json")]) == 2

    def test_the_largest_block_runs_end_to_end(self, tmp_path, capsys):
        # N = 24 is the largest block: 1,000 samples make one block, padded
        # with 16,776,216 zeros.  N = 25 is refused.
        src, out, rep = tmp_path / "in.raw", tmp_path / "q.raw", tmp_path / "rep.json"
        write_raw(src, np.random.default_rng(2400).normal(0.0, 300.0, 1000))
        flags = ["--format", "raw", "--input", str(src)]
        assert main(["quantize", *flags, "--block-exp", "24", "--output", str(out),
                     "--report", str(rep)]) == 0
        report = json.loads(rep.read_text(encoding="utf-8"))
        assert (report["block_count"], report["pad_count"], report["pass"]) == (
            1, 16_776_216, True)
        assert main(["verify", *flags, "--block-exp", "24", "--quantized", str(out)]) == 0
        assert capsys.readouterr().out == "verify: PASS (1 blocks)\n"
        assert main(["quantize", *flags, "--block-exp", "25", "--output", str(out)]) == 2

    @pytest.mark.parametrize("link", [False, True])
    def test_a_report_over_the_codes_is_refused(self, tmp_path, capsys, link):
        # Through a link, the file named twice exists and must keep its bytes.
        src, out, report = tmp_path / "in.csv", tmp_path / "out.txt", tmp_path / "out.txt"
        write_csv(src, WORKED)
        if link:
            out.write_text("old\n")
            report = tmp_path / "link.txt"
            report.symlink_to(out)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert main(["quantize", "--input", str(src), "--block-exp", "2",
                     "--output", str(out), "--report", str(report)]) == 2
        assert str(report) in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_codes_and_report_may_share_stdout(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        write_csv(src, WORKED)
        assert main(["quantize", "--input", str(src), "--block-exp", "2",
                     "--output", "-", "--report", "-"]) == 0
        *codes, report = capsys.readouterr().out.split("\n", 4)
        assert codes == ["0", "0", "1", "0"]
        assert json.loads(report)["blocks"][0]["quantized_sha256"] == codes_sha256([0, 0, 1, 0])

    def test_both_inputs_on_stdin_are_refused(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"1\n2\n")))
        assert main(["verify", "--block-exp", "1", "--quantized", "-"]) == 2
        err = capsys.readouterr().err
        assert "--input" in err and "--quantized" in err
        assert sys.stdin.buffer.tell() == 0

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        assert main(["quantize", "--input", str(tmp_path / "none.csv")]) == 3

    def test_bad_csv_is_io_error(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("0.5\noops\n")
        assert main(["quantize", "--input", str(src), "--block-exp", "1"]) == 3


class TestCsvDecoding:
    """CSV input, a file or stdin, is UTF-8 text after an optional
    byte-order mark; a byte that is not UTF-8 is bad only on a value line.
    '\\r\\n' and a lone '\\r' end a line, as '\\n' does."""

    LINES = [b"0.3\n", b"-0.2\n", b"0.4\n", b"0.1\n"]

    def run(self, tmp_path, src_bytes, codes_bytes=None):
        src, q = tmp_path / "in.csv", tmp_path / "q.csv"
        src.write_bytes(src_bytes)
        args = ["--input", str(src), "--block-exp", "2"]
        if codes_bytes is None:
            return main(["quantize", *args, "--output", str(q)]), q
        q.write_bytes(codes_bytes)
        return main(["verify", *args, "--quantized", str(q)]), q

    def test_a_byte_order_mark_is_dropped(self, tmp_path, capsys):
        code, out = self.run(tmp_path, b"\xef\xbb\xbf" + b"".join(self.LINES))
        assert code == 0
        assert read_int_csv(out) == [0, 0, 1, 0]
        code, _ = self.run(tmp_path, b"".join(self.LINES), b"\xef\xbb\xbf0\n0\n1\n0\n")
        assert code == 0
        assert capsys.readouterr().out == "verify: PASS (1 blocks)\n"

    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path, capsys):
        code, _ = self.run(tmp_path, b"0.3\n-0.2\xe9\n0.4\n0.1\n")
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'in.csv'}:2: not a number: '-0.2\\udce9'\n")

    def test_a_code_byte_that_is_not_utf8_names_its_line(self, tmp_path, capsys):
        code, q = self.run(tmp_path, b"".join(self.LINES), b"0\n0\xe9\n1\n0\n")
        assert code == 3
        assert capsys.readouterr().err == f"error: {q}:2: not a number: '0\\udce9'\n"

    def test_a_byte_that_is_not_utf8_in_a_comment_is_ignored(self, tmp_path):
        code, out = self.run(tmp_path, b"# caf\xe9\n" + b"".join(self.LINES))
        assert code == 0
        assert read_int_csv(out) == [0, 0, 1, 0]

    def run_stdin(self, monkeypatch, data):
        import io

        # However Python decodes stdin, its bytes are read.
        monkeypatch.setattr("sys.stdin",
                            io.TextIOWrapper(io.BytesIO(data), "utf-8", errors="strict"))
        return main(["quantize", "--block-exp", "2"])

    def test_strictly_decoded_stdin_is_an_input_error(self, monkeypatch, capsys):
        assert self.run_stdin(monkeypatch, b"0.3\n-0.2\xe9\n0.4\n0.1\n") == 3
        assert capsys.readouterr().err == "error: <stdin>:2: not a number: '-0.2\\udce9'\n"

    def test_a_byte_order_mark_on_stdin_is_dropped(self, monkeypatch, capsys):
        assert self.run_stdin(monkeypatch, b"\xef\xbb\xbf" + b"".join(self.LINES)) == 0
        assert capsys.readouterr().out == "0\n0\n1\n0\n"

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_carriage_returns_end_lines(self, tmp_path, monkeypatch, capsys, newline):
        lines = [line.replace(b"\n", newline) for line in self.LINES]
        code, out = self.run(tmp_path, b"".join(lines))
        assert code == 0
        assert read_int_csv(out) == [0, 0, 1, 0]
        assert self.run_stdin(monkeypatch, b"".join(lines)) == 0
        assert capsys.readouterr().out == "0\n0\n1\n0\n"
        # The line a bad value is on, and its text without the line end.
        lines[2] = b"0.4x" + newline
        code, _ = self.run(tmp_path, b"# c" + newline + b"".join(lines))
        assert code == 3
        assert capsys.readouterr().err == f"error: {tmp_path / 'in.csv'}:4: not a number: '0.4x'\n"


class TestVerifyPipeline:
    @pytest.mark.parametrize("command", ["quantize", "verify"])
    def test_the_report_is_opened_before_the_input_is_read(self, tmp_path, monkeypatch,
                                                           capsys, command):
        import io

        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"1\n2\n")))
        report = tmp_path / "missing" / "report.json"
        assert main([command, "--block-exp", "1", "--report", str(report)]) == 3
        assert "report.json" in capsys.readouterr().err
        assert sys.stdin.buffer.tell() == 0

    def test_quantized_codes_are_checked_on_the_compute_threads(self, tmp_path, monkeypatch,
                                                                capsys):
        src, q = tmp_path / "in.raw", tmp_path / "q.raw"
        write_raw(src, np.random.default_rng(3).uniform(-8, 8, 3 * CHUNK_SAMPLES))
        flags = ["--format", "raw", "--input", str(src)]
        assert main(["quantize", *flags, "--output", str(q)]) == 0
        threads = []

        def check(f, g):
            threads.append(threading.current_thread())
            return check_pair_budget(f, g)

        check_pair_budget = cli._check_pair_budget
        monkeypatch.setattr(cli, "_check_pair_budget", check)
        use_cpus(monkeypatch, 2)
        assert main(["verify", *flags, "--quantized", str(q)]) == 0
        assert capsys.readouterr().out == "verify: PASS (192 blocks)\n"
        assert len(threads) == 3 and threading.main_thread() not in threads


class TestEveryFlagActs:
    """Each quantizer and input flag changes the output bytes or the exit code."""

    # Quarter steps make rounding ties common; 13 samples end in a partial block.
    VALUES = [0.5, -0.25, 1.75, 0.5, 2.5, -1.5, 0.25, 0.75,
              -0.5, 1.25, 3.5, -2.25, 0.5]
    # (flags of the run to compare with, the same flags plus the one under test)
    CASES = {
        "tie-break": ((), ("--tie-break", "up")),
        "baseline": ((), ("--baseline",)),
        "baseline-tie-break": (("--baseline",), ("--baseline", "--tie-break", "up")),
        "delta": ((), ("--delta", "0.5")),
        "pad-policy": ((), ("--pad-policy", "reject_partial")),
    }

    def run(self, tmp_path, flags):
        src, out = tmp_path / "in.csv", tmp_path / "out.csv"
        write_csv(src, self.VALUES)
        out.unlink(missing_ok=True)
        code = main(["quantize", "--block-exp", "3", "--input", str(src),
                     "--output", str(out), *flags])
        return code, out.read_bytes() if out.exists() else None

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_flag_changes_output_or_exit_code(self, tmp_path, capsys, case):
        reference, flagged = self.CASES[case]
        assert self.run(tmp_path, flagged) != self.run(tmp_path, reference)

    @pytest.mark.parametrize("flag", [("--baseline",), ("--tie-break", "up"),
                                      ("--tie-break", "down")])
    def test_quantizer_flags_are_refused_with_quantized_codes(self, tmp_path, capsys, flag):
        # Given codes, the quantizer's flags could not act: verify refuses
        # them with exit 2 before it reads any input (a missing one would
        # exit 3), and runs as before without them.
        src, q = tmp_path / "in.csv", tmp_path / "q.csv"
        assert self.run(tmp_path, ())[0] == 0
        (tmp_path / "out.csv").rename(q)
        argv = ["verify", "--block-exp", "3", "--input", str(src), "--quantized", str(q)]
        assert main(argv) == 0
        q.unlink()
        src.unlink()
        assert main([*argv, *flag]) == 2
        assert "--quantized" in capsys.readouterr().err


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(71)
        src = tmp_path / "in.csv"
        write_csv(src, rng.uniform(-0.5, 0.5, 48))
        outs = []
        reps = []
        for tag in ("a", "b"):
            out = tmp_path / f"out_{tag}.csv"
            rep = tmp_path / f"rep_{tag}.json"
            assert main([
                "quantize", "--input", str(src), "--output", str(out),
                "--block-exp", "4", "--report", str(rep),
            ]) == 0
            outs.append(out.read_bytes())
            reps.append(rep.read_bytes())
        assert outs[0] == outs[1]
        assert reps[0] == reps[1]


class TestReportContents:
    def run(self, tmp_path, values, n):
        src, rep = tmp_path / "in.csv", tmp_path / "rep.json"
        write_csv(src, values)
        assert main(["quantize", "--block-exp", str(n), "--input", str(src),
                     "--output", str(tmp_path / "out.csv"), "--report", str(rep)]) == 0
        return json.loads(rep.read_text(encoding="utf-8"))

    def test_worked_example(self, tmp_path):
        report = self.run(tmp_path, WORKED, 2)
        block = report["blocks"][0]
        assert block["quantized_sha256"] == codes_sha256([0, 0, 1, 0])
        assert block["dc_total"] == 1
        assert block["haar"]["dc_input"] == 0.15
        assert block["pass"] is True
        assert report["pass"] is True

    def test_schema_stable_keys(self, tmp_path):
        report = self.run(tmp_path, [0.1] * 8, 3)
        assert set(report) == {
            "config", "original_length", "pad_count", "block_count", "blocks", "pass",
        }
        block = report["blocks"][0]
        assert set(block) == {
            "index", "quantized_sha256", "dc_total", "haar", "pass",
        }
        assert set(block["haar"]) == {
            "n_exponent", "dc_input", "dc_quantized", "dc_error", "dc_bound",
            "detail_levels", "sup_error", "sup_bound", "dc_ok", "details_ok", "pass",
        }
        assert [set(level) for level in block["haar"]["detail_levels"]] == [
            {"level", "max_error", "bound"}] * 3


class TestReportBytes:
    """A CLI report is the bytes of the reference, which builds every block's
    entry as a dict from its HaarErrorReport and renders the whole run
    through dumps_canonical."""

    TIES = {"down": "toward_negative", "up": "toward_positive"}

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def values(n):
        # Three whole blocks and a partial one; at N = 10, 66 blocks over
        # two chunks, and at N = 16, one block per chunk.
        size = 1 << n
        length = {10: CHUNK_SAMPLES + 1500, 16: CHUNK_SAMPLES + size // 2}.get(
            n, 3 * size + max(1, size // 2))
        values = np.random.default_rng(1900 + n).normal(0.0, 40.0, length)
        values.setflags(write=False)  # shared by every test that asks for n
        return values

    def config(self, n, fmt="csv", tie="down", baseline=False):
        return {
            "baseline": baseline,
            "block_exponent": n,
            "format": {"csv": "csv", "raw": "raw_f64_le"}[fmt],
            "pad_policy": "zero_pad_last",
            "scale_delta": 1.0,
            "tie_break": self.TIES[tie],
        }

    def run(self, tmp_path, values, command, n, *flags, fmt="csv"):
        src, rep = tmp_path / f"in.{fmt}", tmp_path / "rep.json"
        (write_raw if fmt == "raw" else write_csv)(src, values)
        argv = [command, "--format", fmt, "--block-exp", str(n), "--input", str(src),
                "--report", str(rep), *flags]
        if command == "quantize":
            argv += ["--output", str(tmp_path / f"out.{fmt}")]
        return main(argv), rep.read_text(encoding="utf-8")

    @pytest.mark.parametrize("tie", sorted(TIES))
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 16])
    def test_quantize(self, tmp_path, n, tie):
        values = self.values(n)
        code, text = self.run(tmp_path, values, "quantize", n, "--tie-break", tie)
        assert code == 0
        assert text == report_reference(values, n, self.config(n, tie=tie))

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 16])
    def test_verify(self, tmp_path, capsys, n):
        values = self.values(n)
        code, text = self.run(tmp_path, values, "verify", n, fmt="raw")
        assert code == 0
        assert text == report_reference(values, n, self.config(n, "raw"))

    @pytest.mark.parametrize("n", [0, 2, 10, 16])
    def test_verify_quantized(self, tmp_path, capsys, n):
        # The codes of the first block are off by 2 in one sample: it fails.
        values = self.values(n)
        codes = quantize_per_block(values, n)
        codes[0] += 2
        q = tmp_path / "q.csv"
        q.write_text("".join(f"{c}\n" for c in codes.tolist()))
        code, text = self.run(tmp_path, values, "verify", n, "--quantized", str(q))
        assert code == 1
        expected = report_reference(values, n, self.config(n), codes=codes)
        assert text == expected
        assert [b["pass"] for b in json.loads(text)["blocks"]].count(False) == 1

    @pytest.mark.parametrize("command", ["quantize", "verify"])
    @pytest.mark.parametrize("tie", sorted(TIES))
    def test_failing_baseline(self, tmp_path, capsys, command, tie):
        n = 5
        values = self.values(n)
        code, text = self.run(tmp_path, values, command, n, "--baseline", "--tie-break", tie)
        assert code == 1
        config = self.config(n, tie=tie, baseline=True)
        assert text == report_reference(values, n, config)
        assert not all(b["pass"] for b in json.loads(text)["blocks"])

    @pytest.mark.parametrize("command", ["quantize", "verify"])
    def test_empty_input(self, tmp_path, capsys, command):
        code, text = self.run(tmp_path, [], command, 3)
        assert code == 0
        assert text == report_reference([], 3, self.config(3))
        assert json.loads(text)["blocks"] == []

    def test_a_non_finite_value_is_not_rendered(self, tmp_path, monkeypatch, capsys):
        # A non-finite measurement raises ValueError, which exits 2, and the
        # run leaves neither its codes nor its report.
        real = cli._haar_error_rows
        src = tmp_path / "in.csv"
        write_csv(src, WORKED)
        for column, bad in (("dc_error", math.inf), ("detail_max", math.nan)):
            def spoiled(f, g, r=None):
                rows = real(f, g, r)
                return rows._replace(**{column: np.full_like(getattr(rows, column), bad)})

            monkeypatch.setattr(cli, "_haar_error_rows", spoiled)
            assert main(["quantize", "--block-exp", "2", "--input", str(src),
                         "--output", str(tmp_path / "out.csv"),
                         "--report", str(tmp_path / "rep.json")]) == 2
            assert "non-finite" in capsys.readouterr().err
            assert [p.name for p in tmp_path.iterdir()] == ["in.csv"]

    @pytest.mark.parametrize("command", ["quantize", "verify"])
    def test_one_layout_per_run_whatever_its_blocks(self, tmp_path, monkeypatch, capsys,
                                                    command):
        calls = []
        real = report_io.dumps_canonical

        def counted(obj):
            calls.append(obj)
            return real(obj)

        monkeypatch.setattr(report_io, "dumps_canonical", counted)
        counts = []
        for blocks in (1, 64):
            values = np.random.default_rng(1950).normal(0.0, 40.0, 16 * blocks)
            calls.clear()
            code, text = self.run(tmp_path, values, command, 4)
            assert code == 0
            assert json.loads(text)["block_count"] == blocks
            counts.append(len(calls))
        assert counts[0] == counts[1]


class TestStreaming:
    """Every command reads, measures and writes one chunk at a time."""

    N = 10

    def signal(self, length, seed=1700):
        return np.random.default_rng(seed).uniform(-50.0, 50.0, length)

    def quantize(self, src, *flags):
        return main(["quantize", "--format", "raw", "--block-exp", str(self.N),
                     "--input", str(src), *flags])

    @pytest.mark.parametrize("command", ["quantize", "spectrum"])
    def test_raw_nan_in_the_last_chunk_leaves_no_file(self, tmp_path, capsys, command):
        values = self.signal(2 * CHUNK_SAMPLES + 100)
        values[-7] = np.nan
        src = tmp_path / "in.raw"
        write_raw(src, values)
        flags = ["--output", str(tmp_path / "out.csv")]
        if command == "quantize":
            flags += ["--report", str(tmp_path / "rep.json")]
        code = main([command, "--format", "raw", "--block-exp", str(self.N),
                     "--input", str(src), *flags])
        assert code == 3
        assert f"index {len(values) - 7}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["in.raw"]

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_raw_non_finite_in_a_middle_chunk_names_its_index(self, tmp_path, capsys, bad):
        values = self.signal(5 * CHUNK_SAMPLES)
        index = 2 * CHUNK_SAMPLES + 11  # the third chunk of five
        values[index] = bad
        src = tmp_path / "in.raw"
        write_raw(src, values)
        assert self.quantize(src, "--output", str(tmp_path / "out.raw")) == 3
        assert f"non-finite sample at index {index}\n" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["in.raw"]

    @pytest.mark.parametrize("fmt", ["raw", "csv"])
    def test_unit_delta_leaves_the_codes_unchanged(self, tmp_path, fmt):
        values = self.signal(2 * CHUNK_SAMPLES + 300)
        src = tmp_path / f"in.{fmt}"
        (write_raw if fmt == "raw" else write_csv)(src, values)
        outputs = []
        for flags in ([], ["--delta", "1"], ["--delta", "1.0"]):
            out = tmp_path / f"out{len(outputs)}.{fmt}"
            assert main(["quantize", "--format", fmt, "--block-exp", str(self.N),
                         "--input", str(src), "--output", str(out), *flags]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert read_codes(tmp_path / f"out0.{fmt}", fmt).tolist() == (
            quantize_per_block(values, self.N).tolist())

    def test_bad_csv_line_after_the_first_chunk_leaves_no_file(self, tmp_path, capsys):
        lines = [f"{v}\n" for v in self.signal(CHUNK_SAMPLES + 50).tolist()]
        lines[CHUNK_SAMPLES + 20] = "oops\n"
        src, out = tmp_path / "in.csv", tmp_path / "out.csv"
        src.write_text("".join(lines))
        code = main(["quantize", "--block-exp", str(self.N), "--input", str(src),
                     "--output", str(out)])
        assert code == 3
        assert f":{CHUNK_SAMPLES + 21}: not a number" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["in.csv"]

    def test_reject_partial_on_a_multi_chunk_input_leaves_no_file(self, tmp_path, capsys):
        src, out = tmp_path / "in.raw", tmp_path / "out.raw"
        write_raw(src, self.signal(3 * CHUNK_SAMPLES + 5))
        code = self.quantize(src, "--output", str(out),
                             "--pad-policy", "reject_partial")
        assert code == 3
        assert "is not a multiple of 1024" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["in.raw"]

    def test_stdout_streams_what_was_made_before_a_late_error(self, tmp_path,
                                                              capsysbinary):
        values = self.signal(2 * CHUNK_SAMPLES)
        src = tmp_path / "in.raw"
        write_raw(src, values[:CHUNK_SAMPLES])
        assert self.quantize(src, "--output", "-") == 0
        first_chunk = capsysbinary.readouterr().out
        values[-1] = np.inf
        write_raw(src, values)
        assert self.quantize(src, "--output", "-") == 3
        assert capsysbinary.readouterr().out == first_chunk

    @pytest.mark.parametrize("input_length, codes_length", [
        (CHUNK_SAMPLES, CHUNK_SAMPLES + 1),
        (CHUNK_SAMPLES + 1, CHUNK_SAMPLES),
        (2 * CHUNK_SAMPLES, 2 * CHUNK_SAMPLES - 1),
    ])
    def test_verify_length_mismatch_across_a_chunk_boundary(
        self, tmp_path, capsys, input_length, codes_length
    ):
        values = self.signal(max(input_length, codes_length))
        src, q = tmp_path / "in.raw", tmp_path / "q.raw"
        write_raw(src, values)
        assert self.quantize(src, "--output", str(q)) == 0
        write_raw(q, read_codes(q, "raw")[:codes_length])
        write_raw(src, values[:input_length])
        code = main(["verify", "--format", "raw", "--block-exp", str(self.N),
                     "--input", str(src), "--quantized", str(q)])
        assert code == 3
        assert (f"quantized length {codes_length} does not match input length "
                f"{input_length}") in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["raw", "csv"])
    def test_output_may_replace_its_input(self, tmp_path, fmt):
        values = self.signal(CHUNK_SAMPLES + 3)
        src, out = tmp_path / f"in.{fmt}", tmp_path / f"out.{fmt}"
        (write_raw if fmt == "raw" else write_csv)(src, values)
        args = ["quantize", "--format", fmt, "--block-exp", str(self.N), "--input", str(src)]
        assert main([*args, "--output", str(out)]) == 0
        assert main([*args, "--output", str(src)]) == 0
        assert src.read_bytes() == out.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"in.{fmt}", f"out.{fmt}"]

    def test_raw_stdin_to_stdout_matches_the_file_run(self, tmp_path, capsysbinary,
                                                       monkeypatch):
        import io

        src, out = tmp_path / "in.raw", tmp_path / "out.raw"
        write_raw(src, self.signal(2 * CHUNK_SAMPLES + 3))
        assert self.quantize(src, "--output", str(out)) == 0
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(src.read_bytes())))
        assert self.quantize("-", "--output", "-") == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    @pytest.mark.parametrize("length, names", [
        (1 << 16, ["t.csv"]),
        ((1 << 16) + 5, ["t.block0000.csv", "t.block0001.csv"]),
    ])
    @pytest.mark.parametrize("stdin", [False, True])
    def test_spectrum_names_blocks_alike_from_stdin(self, tmp_path, monkeypatch,
                                                    length, names, stdin):
        import io

        # At N = 16 a chunk is one block, so only the next chunk tells
        # whether the first block is the only one.
        src = tmp_path / "in" / "in.raw"
        src.parent.mkdir()
        write_raw(src, self.signal(length))
        if stdin:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(src.read_bytes())))
        code = main(["spectrum", "--format", "raw", "--block-exp", "16",
                     "--input", "-" if stdin else str(src),
                     "--output", str(tmp_path / "t.csv")])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_file()) == names

    def test_a_link_or_a_device_as_output_is_written_through(self, tmp_path):
        src, real = tmp_path / "in.raw", tmp_path / "real" / "out.raw"
        real.parent.mkdir()
        real.write_bytes(b"old")
        link = tmp_path / "link.raw"
        link.symlink_to(real)
        write_raw(src, self.signal(100))
        assert self.quantize(src, "--output", str(link)) == 0
        assert link.is_symlink()
        assert len(real.read_bytes()) == 800
        assert self.quantize(src, "--output", os.devnull) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


class TestThreadPool:
    """Chunks are computed on one thread per usable CPU and written in input
    order: the outputs do not depend on the number of CPUs."""

    N = 10
    # 1, 2 and 7 chunks, each ending in a partial block.
    LENGTHS = [CHUNK_SAMPLES - 3, CHUNK_SAMPLES + 1000, 6 * CHUNK_SAMPLES + 5]
    CASES = {
        "quantize-raw-report": ("raw", ["quantize", "--output", "out.raw",
                                        "--report", "rep.json"]),
        "quantize-csv-report": ("csv", ["quantize", "--output", "out.csv",
                                        "--report", "rep.json"]),
        "quantize-raw-baseline": ("raw", ["quantize", "--output", "out.raw", "--baseline"]),
        "quantize-csv-baseline": ("csv", ["quantize", "--output", "out.csv", "--baseline"]),
        "verify-quantized-report": ("raw", ["verify", "--quantized", "q.raw",
                                            "--report", "rep.json"]),
        "spectrum-n11": ("raw", ["spectrum", "--block-exp", "11", "--output", "t.csv"]),
    }

    def run(self, work, monkeypatch, capsysbinary, cpus, fmt, argv):
        """Exit code, stdout and every file the command wrote, by name."""
        use_cpus(monkeypatch, cpus)
        inputs = set(os.listdir(work))
        monkeypatch.chdir(work)
        code = main([argv[0], "--format", fmt, "--block-exp", str(self.N),
                     "--input", f"in.{fmt}", *argv[1:]])
        written = {p: (work / p).read_bytes() for p in os.listdir(work) if p not in inputs}
        for p in written:
            (work / p).unlink()
        return code, capsysbinary.readouterr().out, written

    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_and_four_cpus_write_the_same_bytes(self, tmp_path, monkeypatch,
                                                    capsysbinary, case, length):
        fmt, argv = self.CASES[case]
        values = np.random.default_rng(1900).uniform(-50.0, 50.0, length)
        (write_raw if fmt == "raw" else write_csv)(tmp_path / f"in.{fmt}", values)
        if "--quantized" in argv:
            write_raw(tmp_path / "q.raw", quantize_per_block(values, self.N))
        code, out, files = self.run(tmp_path, monkeypatch, capsysbinary, 1, fmt, argv)
        assert (code, out, files) == self.run(tmp_path, monkeypatch, capsysbinary,
                                              4, fmt, argv)
        assert code == 0 and files
        if argv[0] == "quantize" and "--baseline" not in argv:
            codes = tmp_path / argv[argv.index("--output") + 1]
            codes.write_bytes(files[codes.name])
            assert np.array_equal(read_codes(codes, fmt), quantize_per_block(values, self.N))

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_an_earlier_chunks_error_wins_over_a_later_read_error(
        self, tmp_path, monkeypatch, capsys, cpus
    ):
        use_cpus(monkeypatch, cpus)
        values = np.random.default_rng(2000).uniform(-50.0, 50.0, 5 * CHUNK_SAMPLES)
        lines = [f"{v}\n" for v in values.tolist()]
        lines[CHUNK_SAMPLES + 7] = "1e300\n"  # chunk 1: totals beyond the budget
        lines[3 * CHUNK_SAMPLES + 7] = "oops\n"  # chunk 3: not a number
        src = tmp_path / "in.csv"
        src.write_text("".join(lines))
        code = main(["quantize", "--block-exp", str(self.N), "--input", str(src),
                     "--output", str(tmp_path / "out.csv")])
        assert code == 2
        assert "64-bit integer budget" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["in.csv"]

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_a_late_read_error_leaves_the_earlier_chunks_on_stdout(
        self, tmp_path, monkeypatch, capsys, cpus
    ):
        use_cpus(monkeypatch, cpus)
        values = np.random.default_rng(2100).uniform(-50.0, 50.0, 5 * CHUNK_SAMPLES)
        lines = [f"{v}\n" for v in values.tolist()]
        lines[3 * CHUNK_SAMPLES + 7] = "oops\n"  # chunk 3
        src = tmp_path / "in.csv"
        src.write_text("".join(lines))
        code = main(["quantize", "--block-exp", str(self.N), "--input", str(src),
                     "--output", "-"])
        assert code == 3
        captured = capsys.readouterr()
        assert f":{3 * CHUNK_SAMPLES + 8}: not a number" in captured.err
        expected = quantize_per_block(values[: 3 * CHUNK_SAMPLES], self.N)
        assert captured.out == "".join(f"{c}\n" for c in expected.tolist())


    @pytest.mark.parametrize("case", ["verify-quantized-report", "spectrum-n11",
                                      "quantize-csv-report"])
    def test_cold_caches_under_frequent_thread_switches(self, tmp_path, monkeypatch,
                                                        capsysbinary, case):
        # The threads share only the noise envelopes and the float
        # formatter's tables, cached on first use, filled here by several
        # threads at once while threads switch every 10 us.
        fmt, argv = self.CASES[case]
        values = np.random.default_rng(2300).uniform(-50.0, 50.0, 6 * CHUNK_SAMPLES + 5)
        if fmt == "csv":
            write_csv(tmp_path / "in.csv", values)
        else:
            write_raw(tmp_path / "in.raw", values)
        if "--quantized" in argv:
            write_raw(tmp_path / "q.raw", quantize_per_block(values, self.N))
        for cache in (spectral._noise_envelopes, report_io._ryu_tables, report_io._templates):
            cache.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            switched = self.run(tmp_path, monkeypatch, capsysbinary, 4, fmt, argv)
        finally:
            sys.setswitchinterval(interval)
        assert switched == self.run(tmp_path, monkeypatch, capsysbinary, 1, fmt, argv)
        assert switched[0] == 0

    def test_a_failed_write_stops_the_pool(self, tmp_path, monkeypatch, capsys):
        import io

        class FullAfterOneChunk(io.BytesIO):
            def write(self, data):
                if self.tell():
                    raise OSError(28, "No space left on device")
                return super().write(data)

        use_cpus(monkeypatch, 4)
        src = tmp_path / "in.raw"
        write_raw(src, np.random.default_rng(2200).uniform(-50.0, 50.0, 7 * CHUNK_SAMPLES))
        monkeypatch.setattr("sys.stdout", io.TextIOWrapper(FullAfterOneChunk()))
        code = main(["quantize", "--format", "raw", "--block-exp", str(self.N),
                     "--input", str(src), "--output", "-", "--report",
                     str(tmp_path / "rep.json")])
        assert code == 3
        assert "No space left on device" in capsys.readouterr().err
        # The autouse fixture checks that no worker thread is left.

    @pytest.mark.parametrize("spare", [0, 1])
    def test_a_spare_chunk_lets_a_worker_pass_a_late_one(self, monkeypatch, spare):
        # Chunk 0 is late until chunk 2 starts.  Without a spare, chunk 2 is
        # submitted only once chunk 0's result is taken, so chunk 0 gives up
        # waiting; with one, the worker done with chunk 1 starts it at once.
        use_cpus(monkeypatch, 2)
        third = threading.Event()

        def compute(i):
            if i == 0:
                return third.wait(30 if spare else 0.2)
            if i == 2:
                third.set()
            return i

        chunks = ((i,) for i in range(4))
        assert list(report_io._in_order(compute, chunks, spare)) == [bool(spare), 1, 2, 3]


class TestBoundedMemory:
    """Peak memory does not grow with the input: tracemalloc follows NumPy's
    buffers, and 16 chunks must peak within one chunk's bytes of 4 chunks."""

    def peak(self, tmp_path, chunks, n, argv):
        """Traced peak of main(argv) on a raw input of `chunks` chunks."""
        src = tmp_path / f"in{chunks}.raw"
        write_raw(src, np.random.default_rng(1800).normal(0.0, 300.0, chunks * CHUNK_SAMPLES))
        tracemalloc.start()
        try:
            code = main([*argv, "--format", "raw", "--block-exp", str(n),
                         "--input", str(src)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak

    def quantize(self, tmp_path, *flags):
        return ["quantize", "--output", str(tmp_path / "out.raw"), *flags]

    # --report entries wait in a temporary file, not in memory, so the
    # 768 more blocks at N = 10 add nothing.
    # One worker: with two, whether their temporaries (about four chunks'
    # bytes each) coincide varies by several chunks from run to run.
    @pytest.mark.parametrize("n, report", [(10, False), (16, True), (10, True)])
    def test_sixteen_chunks_peak_like_four(self, tmp_path, monkeypatch, n, report):
        use_cpus(monkeypatch, 1)
        rep = tmp_path / "rep.json"
        flags = ["--report", str(rep)] if report else []
        argv = self.quantize(tmp_path, *flags)
        self.peak(tmp_path, 1, n, argv)  # imports and caches
        small = self.peak(tmp_path, 4, n, argv)
        large = self.peak(tmp_path, 16, n, argv)
        assert large - small <= CHUNK_SAMPLES * 8

    def test_two_workers_peak_within_five_chunks_of_a_lone_run(self, tmp_path, monkeypatch):
        # Each worker holds at most one chunk's compute, and the calling
        # thread one chunk's read and one result's write: together within
        # five chunks' bytes of a lone chunk's run, which reads, computes
        # and writes one chunk.  Two more chunks in flight would exceed it.
        use_cpus(monkeypatch, 2)
        argv = self.quantize(tmp_path)
        self.peak(tmp_path, 1, 10, argv)  # imports and caches
        lone = self.peak(tmp_path, 1, 10, argv)
        assert self.peak(tmp_path, 32, 10, argv) - lone <= 5 * CHUNK_SAMPLES * 8

    def test_a_large_block_peaks_below_four_times_its_bytes(self, tmp_path):
        # The descent frees each float level once it is split: keeping them
        # all to the end took 4.27 times the block's bytes, and holding the
        # whole block's float and int64 pyramids 6.4 times.
        n = 18
        argv = self.quantize(tmp_path)
        self.peak(tmp_path, 1, n, argv)  # imports and caches
        assert self.peak(tmp_path, (1 << n) // CHUNK_SAMPLES, n, argv) <= 4 * (8 << n)

    # /dev/null is a device: it is written in place and cannot be read back.
    # Two CPUs format two chunks on workers, with a spare one queued, while
    # the calling thread writes a fourth.
    @pytest.mark.parametrize("target", ["file", "devnull"])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_large_spectrum_holds_no_table_text_or_full_grid(self, tmp_path, monkeypatch,
                                                                cpus, target):
        # Full-grid columns and the text of the rows xi >= 0, held until the
        # rows xi < 0 were written, took 10.5 times the block's bytes.
        use_cpus(monkeypatch, cpus)
        n = 18
        output = str(tmp_path / "spec.csv") if target == "file" else os.devnull
        argv = ["spectrum", "--output", output]
        self.peak(tmp_path, 1, n, argv)  # imports and caches
        assert self.peak(tmp_path, (1 << n) // CHUNK_SAMPLES, n, argv) <= 8 * (8 << n)


@functools.lru_cache(maxsize=4)
def spectrum_case(n):
    """Raw input bytes of a one-block signal of 2**n samples, and the
    reference CSV of its noise table."""
    values = np.random.default_rng(4500 + n).normal(0.0, 300.0, 1 << n)
    f = Signal(make_grid(n), values)
    table = spectrum_error(f, quantize_haar_optimal(f)[0])
    return values.astype("<f8").tobytes(), spectrum_csv_reference(table)


class TestLargeSpectrum:
    """Large tables, formatted by the bulk float-text kernel on the compute
    threads, match a reference that formats every row with repr, whatever
    the number of threads.  A chunk holds 2**13 values of |xi|: at N = 13
    the table is one chunk, and at N = 14, 16, 17 and 18 the last chunk
    holds only xi = 0."""

    def run(self, tmp_path, data, n, output):
        src = tmp_path / "in.raw"
        src.write_bytes(data)
        return main(["spectrum", "--format", "raw", "--block-exp", str(n),
                     "--input", str(src), "--output", output])

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("n", [16, 17, 18])
    @pytest.mark.parametrize("target", ["file", "stdout", "fifo"])
    def test_bytes_match_the_reference(self, tmp_path, monkeypatch, capsysbinary,
                                       target, n, cpus):
        use_cpus(monkeypatch, cpus)
        data, expected = spectrum_case(n)
        out = tmp_path / "spec.csv"
        if target == "fifo":
            # A pipe is written in place, as its reader drains it.
            os.mkfifo(out)
            drained = []
            reader = threading.Thread(target=lambda: drained.append(out.read_bytes()),
                                      daemon=True)
            reader.start()
        code = self.run(tmp_path, data, n, "-" if target == "stdout" else str(out))
        if target == "fifo":
            reader.join(timeout=60)
            assert not reader.is_alive()
            written = drained[0]
        elif target == "stdout":
            written = capsysbinary.readouterr().out
        else:
            written = out.read_bytes()
        assert code == 0
        assert written == expected.encode()

    def test_every_block_of_a_run_matches_the_reference(self, tmp_path, monkeypatch):
        use_cpus(monkeypatch, 2)
        data, expected = spectrum_case(17)
        code = self.run(tmp_path, 3 * data, 17, str(tmp_path / "spec.csv"))
        assert code == 0
        for i in range(3):
            assert (tmp_path / f"spec.block{i:04d}.csv").read_text() == expected

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("n, inline", [(13, True), (14, False)])
    def test_chunk_edges_match_the_reference(self, tmp_path, monkeypatch, n, inline, cpus):
        use_cpus(monkeypatch, cpus)
        threads = []
        format_rows = report_io._format_spectrum_rows

        def recording(*args):
            threads.append(threading.current_thread())
            return format_rows(*args)

        monkeypatch.setattr(report_io, "_format_spectrum_rows", recording)
        data, expected = spectrum_case(n)
        out = tmp_path / "spec.csv"
        assert self.run(tmp_path, data, n, str(out)) == 0
        assert out.read_bytes() == expected.encode()
        # A lone chunk is formatted on the calling thread, two on workers.
        assert len(threads) == (1 if inline else 2)
        assert (set(threads) == {threading.main_thread()}) == inline

    def test_a_failing_chunk_leaves_no_file_and_no_thread(self, tmp_path, monkeypatch,
                                                          capsys):
        use_cpus(monkeypatch, 2)
        format_rows = report_io._format_spectrum_rows

        def failing(lo, *columns):
            # Chunks run from the highest |xi| down; the third of five fails.
            if lo < 2 * CHUNK_SAMPLES // 8:
                raise ValueError("cannot render the third chunk")
            return format_rows(lo, *columns)

        monkeypatch.setattr(report_io, "_format_spectrum_rows", failing)
        data, _ = spectrum_case(16)
        before = threading.active_count()
        code = self.run(tmp_path, data, 16, str(tmp_path / "spec.csv"))
        assert code == 2
        assert capsys.readouterr().err == "error: cannot render the third chunk\n"
        assert [p.name for p in tmp_path.iterdir()] == ["in.raw"]
        assert threading.active_count() == before

    def test_a_reader_that_leaves_after_one_line_ends_the_run(self, tmp_path, monkeypatch,
                                                              capsys):
        use_cpus(monkeypatch, 2)
        data, expected = spectrum_case(16)
        fifo = tmp_path / "spec.csv"
        os.mkfifo(fifo)
        lines = []

        def read_one_line():
            with open(fifo, "rb") as fh:
                lines.append(fh.readline())

        reader = threading.Thread(target=read_one_line, daemon=True)
        reader.start()
        codes = []
        runner = threading.Thread(
            target=lambda: codes.append(self.run(tmp_path, data, 16, str(fifo))), daemon=True)
        runner.start()
        runner.join(timeout=60)
        reader.join(timeout=60)
        assert not runner.is_alive() and not reader.is_alive()
        assert codes == [3]
        assert lines == [expected.encode().splitlines(keepends=True)[0]]
        assert "Broken pipe" in capsys.readouterr().err
