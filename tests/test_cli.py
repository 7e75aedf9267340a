import json

import numpy as np
import pytest

from haarq import QuantizerConfig, format_float
from haarq.cli import CHUNK_SAMPLES, main

from oracles import quantize_per_block

WORKED = [0.3, -0.2, 0.4, 0.1]


def write_csv(path, values):
    path.write_text("".join(format_float(v) + "\n" for v in values))


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
        assert parsed["blocks"][0]["quantized"] == [0, 0, 1, 0]
        assert parsed["blocks"][0]["dc_total"] == 1
        assert parsed["blocks"][0]["haar"]["dc_input"] == 0.15
        assert parsed["config"]["tie_break"] == "toward_negative"

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

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("0.3\n-0.2\n0.4\n0.1\n"))
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
        assert parsed["blocks"][0]["spectrum_pass"] is True

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

    def test_non_integer_quantized_rejected(self, tmp_path):
        src = tmp_path / "in.csv"
        q = tmp_path / "q.csv"
        write_csv(src, WORKED)
        write_csv(q, [0.5, 0.0, 1.0, 0.0])
        code = main([
            "verify", "--input", str(src), "--quantized", str(q),
            "--block-exp", "2",
        ])
        assert code == 3


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
        assert json.loads(rep.read_text())["blocks"][0]["quantized"] == [expected]


def write_raw(path, values):
    path.write_bytes(np.asarray(values, dtype="<f8").tobytes())


def read_codes(path, fmt):
    if fmt == "raw":
        return np.frombuffer(path.read_bytes(), dtype="<f8").astype(np.int64)
    return np.array(read_int_csv(path), dtype=np.int64)


class TestChunkBoundaries:
    """Inputs of one chunk plus a partial block must match per-block quantizing."""

    # (flags, config the per-block oracle uses)
    CASES = {
        "down": ((), QuantizerConfig()),
        "up": (("--tie-break", "up"), QuantizerConfig(tie_break="toward_positive")),
        "dither": (("--dither", "1e-7", "--seed", "5"),
                   QuantizerConfig(dither_amplitude=1e-7, dither_seed=5)),
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
            name: quantize_per_block(values, n, cfg)
            for name, (_, cfg) in self.CASES.items()
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


class TestBasis:
    def test_time_domain_dump(self, capsys):
        code = main(["basis", "--block-exp", "2", "--level", "2", "--position", "2"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,t,value"
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert values == pytest.approx([0, 0, -(2**0.5), 2**0.5])

    def test_fourier_dump(self, capsys):
        code = main([
            "basis", "--block-exp", "3", "--level", "1", "--position", "1",
            "--fourier",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "xi,re,im,abs"
        assert len(lines) == 9

    def test_invalid_index_is_usage_error(self, capsys):
        code = main(["basis", "--block-exp", "2", "--level", "3", "--position", "1"])
        assert code == 2


class TestExitCodes:
    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["quantize", "--frobnicate"])
        assert exc.value.code == 2

    def test_bad_block_exp_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        write_csv(src, WORKED)
        assert main(["quantize", "--input", str(src), "--block-exp", "99"]) == 2

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        assert main(["quantize", "--input", str(tmp_path / "none.csv")]) == 3

    def test_bad_csv_is_io_error(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("0.5\noops\n")
        assert main(["quantize", "--input", str(src), "--block-exp", "1"]) == 3


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

    def test_seed_irrelevant_without_dither(self, tmp_path):
        rng = np.random.default_rng(73)
        src = tmp_path / "in.csv"
        write_csv(src, rng.uniform(-0.5, 0.5, 32))
        results = []
        for seed in ("0", "12345"):
            out = tmp_path / f"out_{seed}.csv"
            assert main([
                "quantize", "--input", str(src), "--output", str(out),
                "--block-exp", "5", "--seed", seed,
            ]) == 0
            results.append(out.read_bytes())
        assert results[0] == results[1]
