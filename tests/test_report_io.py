import json

import numpy as np
import pytest

from haarq import (
    InputFormatError,
    InputSpec,
    RunReport,
    Signal,
    dumps_canonical,
    format_float,
    make_grid,
    quantize_haar_optimal,
    read_signal,
    spectrum_error,
    verify_haar_bounds,
    write_report,
    write_spectrum_csv,
    write_values,
)
from haarq.report_io import BlockResult


def write_csv(path, values):
    path.write_text("".join(format_float(v) + "\n" for v in values))


class TestReadCsv:
    def test_two_blocks_with_padding(self, tmp_path):
        p = tmp_path / "in.csv"
        write_csv(p, np.arange(10) / 10.0)
        data = read_signal(InputSpec(str(p), block_exponent=3))
        assert len(data.values) == 2
        assert data.original_length == 10
        assert data.pad_count == 6
        assert np.all(data.values[1][2:] == 0.0)

    def test_exact_multiple_no_padding(self, tmp_path):
        p = tmp_path / "in.csv"
        write_csv(p, np.arange(8) / 8.0)
        data = read_signal(InputSpec(str(p), block_exponent=3))
        assert len(data.values) == 1
        assert data.pad_count == 0

    def test_reject_partial(self, tmp_path):
        p = tmp_path / "in.csv"
        write_csv(p, np.arange(10) / 10.0)
        with pytest.raises(InputFormatError):
            read_signal(InputSpec(str(p), 3, pad_policy="reject_partial"))

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("# header\n\n0.25\n  # indented comment\n0.75\n")
        data = read_signal(InputSpec(str(p), block_exponent=1))
        assert data.values[0].tolist() == [0.25, 0.75]

    def test_bad_line_reports_line_number(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("0.5\nbogus\n")
        with pytest.raises(InputFormatError, match=r":2:"):
            read_signal(InputSpec(str(p), block_exponent=0))

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("inf\n")
        with pytest.raises(InputFormatError):
            read_signal(InputSpec(str(p), block_exponent=0))

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_signal(InputSpec(str(tmp_path / "nope.csv"), 3))

    def test_scaling_divides_by_delta(self, tmp_path):
        p = tmp_path / "in.csv"
        write_csv(p, [1.5, -3.0])
        data = read_signal(InputSpec(str(p), 1, scale_delta=0.5))
        assert data.values[0].tolist() == [3.0, -6.0]

    def test_empty_input_gives_no_blocks(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("# nothing\n")
        data = read_signal(InputSpec(str(p), 3))
        assert data.values.shape == (0, 8)
        assert data.original_length == 0


class TestReadRaw:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "in.bin"
        values = np.array([0.1, -0.25, 2.0**-40, 1e17])
        write_values(str(p), values, "raw_f64_le")
        data = read_signal(InputSpec(str(p), 2, format="raw_f64_le"))
        assert np.array_equal(data.values[0], values)

    def test_truncated_stream_rejected(self, tmp_path):
        p = tmp_path / "in.bin"
        p.write_bytes(b"\x00" * 12)
        with pytest.raises(InputFormatError):
            read_signal(InputSpec(str(p), 0, format="raw_f64_le"))

    def test_non_finite_sample_rejected(self, tmp_path):
        p = tmp_path / "in.bin"
        p.write_bytes(np.array([0.0, np.inf]).astype("<f8").tobytes())
        with pytest.raises(InputFormatError, match="index 1"):
            read_signal(InputSpec(str(p), 1, format="raw_f64_le"))


class TestInputSpecValidation:
    def test_bad_block_exponent(self):
        with pytest.raises(ValueError):
            InputSpec("x.csv", 25)

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            InputSpec("x.csv", 3, scale_delta=0.0)

    def test_bad_format(self):
        with pytest.raises(ValueError):
            InputSpec("x.csv", 3, format="wav")


class TestFloatRendering:
    @pytest.mark.parametrize(
        "value",
        [0.1, -0.1, 1.0, 0.0, -0.0, 2.0**-52, 1e300, 123456789.123456789, 0.15],
    )
    def test_seventeen_digit_round_trip(self, value):
        assert float(format_float(value)) == value

    def test_integral_floats_stay_floats_in_json(self):
        assert isinstance(json.loads(format_float(1.0)), float)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            format_float(float("nan"))

    def test_csv_write_read_cycle_is_exact(self, tmp_path):
        rng = np.random.default_rng(37)
        values = rng.uniform(-1, 1, 64)
        p = tmp_path / "cycle.csv"
        write_values(str(p), values, "csv")
        data = read_signal(InputSpec(str(p), 6))
        assert np.array_equal(data.values[0], values)


def make_report(tmp_path, values, n):
    f = Signal(make_grid(n), values)
    g, _ = quantize_haar_optimal(f)
    report = RunReport(
        config={"tie_break": "toward_negative", "scale_delta": 1.0},
        original_length=len(values),
        pad_count=0,
    )
    report.blocks.append(
        BlockResult(
            index=0,
            quantized=g.values,
            dc_total=int(g.values.sum()),
            haar=verify_haar_bounds(f, g),
        )
    )
    return report


class TestRunReport:
    def test_deterministic_bytes(self, tmp_path):
        report = make_report(tmp_path, [0.3, -0.2, 0.4, 0.1], 2)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report(report, str(p1))
        write_report(report, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_report_passes_vacuously(self, tmp_path):
        report = RunReport(config={}, original_length=0, pad_count=0)
        assert report.passed
        p = tmp_path / "empty.json"
        write_report(report, str(p))
        parsed = json.loads(p.read_text())
        assert parsed["pass"] is True
        assert parsed["blocks"] == []

    def test_worked_example_contents(self, tmp_path):
        report = make_report(tmp_path, [0.3, -0.2, 0.4, 0.1], 2)
        p = tmp_path / "r.json"
        write_report(report, str(p))
        parsed = json.loads(p.read_text())
        block = parsed["blocks"][0]
        assert block["quantized"] == [0, 0, 1, 0]
        assert block["dc_total"] == 1
        assert block["haar"]["dc_input"] == 0.15
        assert block["pass"] is True
        assert parsed["pass"] is True

    def test_schema_stable_keys(self, tmp_path):
        report = make_report(tmp_path, [0.1] * 8, 3)
        parsed = json.loads(dumps_canonical(report.to_dict()))
        assert set(parsed) == {
            "config",
            "original_length",
            "pad_count",
            "block_count",
            "blocks",
            "pass",
        }
        block = parsed["blocks"][0]
        assert set(block) == {
            "index",
            "quantized",
            "dc_total",
            "haar",
            "spectrum_pass",
            "pass",
        }
        assert {"dc_input", "dc_error", "dc_bound", "detail_levels", "sup_error"} <= set(
            block["haar"]
        )

    def test_canonical_json_sorts_keys(self):
        text = dumps_canonical({"b": 1, "a": [True, None], "c": {"z": 0.5, "y": 2}})
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert json.loads(text) == {"b": 1, "a": [True, None], "c": {"z": 0.5, "y": 2}}


class TestSpectrumCsv:
    def test_small_table_rows(self, tmp_path):
        f = Signal(make_grid(1), [0.3, 0.4])
        g, _ = quantize_haar_optimal(f)
        p = tmp_path / "spec.csv"
        write_spectrum_csv(spectrum_error(f, g), str(p))
        lines = p.read_text().splitlines()
        assert lines[0] == "xi,measured,bound_exact,bound_linear,baseline_bound"
        assert len(lines) == 3
        assert [row.split(",")[0] for row in lines[1:]] == ["0", "1"]

    def test_integer_signal_measures_zero(self, tmp_path):
        vals = np.array([1.0, 2.0, -1.0, 0.0])
        f = Signal(make_grid(2), vals)
        from haarq import QuantizedSignal

        table = spectrum_error(f, QuantizedSignal(make_grid(2), vals))
        p = tmp_path / "spec.csv"
        write_spectrum_csv(table, str(p))
        for row in p.read_text().splitlines()[1:]:
            assert float(row.split(",")[1]) <= 1e-14

    def test_dc_row_bound_columns(self, tmp_path):
        rng = np.random.default_rng(41)
        f = Signal(make_grid(6), rng.uniform(-0.5, 0.5, 64))
        g, _ = quantize_haar_optimal(f)
        p = tmp_path / "spec.csv"
        write_spectrum_csv(spectrum_error(f, g), str(p))
        rows = {int(r.split(",")[0]): r.split(",") for r in p.read_text().splitlines()[1:]}
        assert float(rows[0][2]) == 2.0**-7
        assert float(rows[0][3]) == 2.0**-7
        for xi, row in rows.items():
            assert float(row[1]) <= float(row[2]) + 1e-10

    def test_block_concatenation_reproduces_input(self, tmp_path):
        rng = np.random.default_rng(43)
        values = rng.uniform(-1, 1, 21)
        p = tmp_path / "in.csv"
        write_csv(p, values)
        data = read_signal(InputSpec(str(p), 3, scale_delta=0.25))
        merged = data.values.reshape(-1) * 0.25
        assert merged[: data.original_length] == pytest.approx(values, abs=0)
        assert np.all(merged[data.original_length :] == 0.0)
