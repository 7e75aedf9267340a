import functools
import json
import os
import threading
from dataclasses import replace

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
from haarq.cli import main
from haarq.report_io import CHUNK_SAMPLES, BlockResult

from oracles import codes_sha256, spectrum_csv_reference


def write_csv(path, values):
    path.write_text("".join(format_float(v) + "\n" for v in values))


def read_blocks(spec):
    """read_signal's chunks stacked: the (blocks, 2**N) values and the
    number of input samples among them."""
    chunks = list(read_signal(spec))
    size = 1 << spec.block_exponent
    values = np.concatenate([rows for _, rows, _ in chunks] or [np.empty((0, size))])
    return values, sum(valid for _, _, valid in chunks)


class TestReadCsv:
    def test_two_blocks_with_padding(self, tmp_path):
        p = tmp_path / "in.csv"
        write_csv(p, np.arange(10) / 10.0)
        values, length = read_blocks(InputSpec(str(p), block_exponent=3))
        assert len(values) == 2
        assert length == 10
        assert values.size - length == 6
        assert np.all(values[1][2:] == 0.0)

    def test_exact_multiple_no_padding(self, tmp_path):
        p = tmp_path / "in.csv"
        write_csv(p, np.arange(8) / 8.0)
        values, length = read_blocks(InputSpec(str(p), block_exponent=3))
        assert len(values) == 1
        assert values.size - length == 0

    def test_reject_partial(self, tmp_path):
        p = tmp_path / "in.csv"
        write_csv(p, np.arange(10) / 10.0)
        with pytest.raises(InputFormatError):
            read_blocks(InputSpec(str(p), 3, pad_policy="reject_partial"))

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("# header\n\n0.25\n  # indented comment\n0.75\n")
        values, _ = read_blocks(InputSpec(str(p), block_exponent=1))
        assert values[0].tolist() == [0.25, 0.75]

    def test_bad_line_reports_line_number(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("0.5\nbogus\n")
        with pytest.raises(InputFormatError, match=r":2:"):
            read_blocks(InputSpec(str(p), block_exponent=0))

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("inf\n")
        with pytest.raises(InputFormatError):
            read_blocks(InputSpec(str(p), block_exponent=0))

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_blocks(InputSpec(str(tmp_path / "nope.csv"), 3))

    def test_scaling_divides_by_delta(self, tmp_path):
        p = tmp_path / "in.csv"
        write_csv(p, [1.5, -3.0])
        values, _ = read_blocks(InputSpec(str(p), 1, scale_delta=0.5))
        assert values[0].tolist() == [3.0, -6.0]

    def test_empty_input_gives_no_blocks(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("# nothing\n")
        values, length = read_blocks(InputSpec(str(p), 3))
        assert values.shape == (0, 8)
        assert length == 0


class TestCsvChunks:
    """Chunks of plain numbers parse in bulk; others go through the line parser."""

    # Full-precision values and forms float() accepts: whitespace, '_', 'E'.
    VALUES = [repr(v) for v in np.random.default_rng(83).normal(0.0, 300.0, 40).tolist()]
    VALUES += ["  1_0 ", "\t-2.5E-3", "+.5", "1e-320"]

    def test_bulk_and_line_parser_give_the_same_bits(self, tmp_path):
        plain, commented = tmp_path / "plain.csv", tmp_path / "commented.csv"
        plain.write_text("".join(f"{v}\n" for v in self.VALUES))
        # A comment and a blank line send the whole chunk to the line parser.
        commented.write_text("# header\n\n" + "".join(f"{v}\n" for v in self.VALUES))
        bulk, n_bulk = read_blocks(InputSpec(str(plain), 2))
        lines, n_lines = read_blocks(InputSpec(str(commented), 2))
        expected = [float(v) for v in self.VALUES]
        assert n_bulk == n_lines == len(expected)
        assert np.array_equal(bulk.view(np.int64), lines.view(np.int64))
        assert bulk.reshape(-1)[: len(expected)].tolist() == expected

    @pytest.mark.parametrize("bad, message", [("oops", "not a number"),
                                              ("inf", "non-finite sample"),
                                              ("0x10", "not a number")])
    def test_error_names_its_line_in_a_later_chunk(self, tmp_path, bad, message):
        lineno = CHUNK_SAMPLES + 3
        lines = ["0.25\n"] * (CHUNK_SAMPLES + 10)
        lines[lineno - 1] = bad + "\n"
        p = tmp_path / "in.csv"
        p.write_text("".join(lines))
        with pytest.raises(InputFormatError, match=f":{lineno}: {message}"):
            read_blocks(InputSpec(str(p), 4))

    def test_comment_lines_shift_the_chunks(self, tmp_path):
        # Comments make chunks of lines hold fewer samples; the chunks of
        # samples that read_signal yields are full all the same.
        values = np.arange(CHUNK_SAMPLES + 5, dtype=np.float64)
        p = tmp_path / "in.csv"
        p.write_text("# a\n" * 7 + "".join(f"{v}\n" for v in values.tolist()))
        chunks = list(read_signal(InputSpec(str(p), 0)))
        assert [(a, rows.shape[0], valid) for a, rows, valid in chunks] == [
            (0, CHUNK_SAMPLES, CHUNK_SAMPLES), (CHUNK_SAMPLES, 5, 5)
        ]
        assert np.array_equal(np.concatenate([rows for _, rows, _ in chunks])[:, 0], values)


class TestReadRaw:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "in.bin"
        values = np.array([0.1, -0.25, 2.0**-40, 1e17])
        write_values(str(p), values, "raw_f64_le")
        blocks, _ = read_blocks(InputSpec(str(p), 2, format="raw_f64_le"))
        assert np.array_equal(blocks[0], values)

    def test_truncated_stream_rejected(self, tmp_path):
        p = tmp_path / "in.bin"
        p.write_bytes(b"\x00" * 12)
        with pytest.raises(InputFormatError):
            read_blocks(InputSpec(str(p), 0, format="raw_f64_le"))

    def test_non_finite_sample_rejected(self, tmp_path):
        p = tmp_path / "in.bin"
        p.write_bytes(np.array([0.0, np.inf]).astype("<f8").tobytes())
        with pytest.raises(InputFormatError, match="index 1"):
            read_blocks(InputSpec(str(p), 1, format="raw_f64_le"))


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
        [0.1, -0.1, 1.0, 0.0, -0.0, 2.0**-52, 1e300, 123456789.123456789, 0.15,
         5e-324, 1e16, 2.0**53 + 2],
    )
    def test_seventeen_digit_round_trip(self, value):
        assert float(format_float(value)) == value

    def test_integral_floats_stay_floats_in_json(self):
        assert isinstance(json.loads(format_float(1.0)), float)
        assert isinstance(json.loads(format_float(1e16)), float)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            format_float(float("nan"))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_csv_non_finite_rejected(self, tmp_path, bad):
        p = tmp_path / "bad.csv"
        with pytest.raises(ValueError):
            write_values(str(p), np.array([0.5, bad]), "csv")
        assert not p.exists()

    def test_csv_write_read_cycle_is_exact(self, tmp_path):
        rng = np.random.default_rng(37)
        values = rng.uniform(-1, 1, 64)
        p = tmp_path / "cycle.csv"
        write_values(str(p), values, "csv")
        blocks, _ = read_blocks(InputSpec(str(p), 6))
        assert np.array_equal(blocks[0], values)


class TestIntegerCsv:
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_golden_bytes(self, tmp_path, dtype):
        p = tmp_path / "codes.csv"
        write_values(str(p), np.array([0, 1, -1, 42, 2**31 - 1], dtype=dtype), "csv")
        assert p.read_bytes() == b"0\n1\n-1\n42\n2147483647\n"

    def test_int64_extremes(self, tmp_path):
        p = tmp_path / "codes.csv"
        extremes = np.array([-(2**63), 2**63 - 1, 2**53 + 1], dtype=np.int64)
        write_values(str(p), extremes, "csv")
        assert p.read_bytes() == b"-9223372036854775808\n9223372036854775807\n9007199254740993\n"

    def test_chunks_append_and_the_empty_chunk_writes_nothing(self, tmp_path):
        p = tmp_path / "codes.csv"
        with open(p, "w", encoding="utf-8", newline="\n") as fh:
            write_values(fh, np.array([3, -4], dtype=np.int64), "csv")
            write_values(fh, np.array([], dtype=np.int64), "csv")
            write_values(fh, np.array([5], dtype=np.int64), "csv")
        assert p.read_bytes() == b"3\n-4\n5\n"
        write_values(str(p), np.array([], dtype=np.int64), "csv")
        assert p.read_bytes() == b""


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
        assert block["quantized_sha256"] == codes_sha256([0, 0, 1, 0])
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
            "quantized_sha256",
            "dc_total",
            "haar",
            "spectrum_pass",
            "pass",
        }
        assert {"dc_input", "dc_error", "dc_bound", "detail_levels", "sup_error"} <= set(
            block["haar"]
        )

    def test_bytes_are_those_of_the_whole_dict(self, tmp_path):
        # Blocks of three sizes, spectrum flags of every kind, a failing
        # block, and a config with a '%' and text like the layout's slots.
        config = {"note": "100% {x}", "slot": "$int:index", "slots": "$$float:dc_error"}
        report = RunReport(config=config, original_length=11, pad_count=3)
        rng = np.random.default_rng(77)
        for i, n in enumerate([2, 2, 0, 3, 2]):
            f = Signal(make_grid(n), rng.uniform(-9.0, 9.0, 1 << n))
            g, _ = quantize_haar_optimal(f)
            if i == 1:
                g = replace(g, values=g.values + 1)
            report.blocks.append(BlockResult(
                index=i, quantized=g.values, dc_total=int(g.values.sum()),
                haar=verify_haar_bounds(f, g), spectrum_pass=[None, True, False][i % 3],
            ))
        p = tmp_path / "r.json"
        write_report(report, str(p))
        assert p.read_text(encoding="utf-8") == dumps_canonical(report.to_dict())
        assert not report.passed

    def test_a_non_finite_value_raises(self, tmp_path):
        report = make_report(tmp_path, [0.3, -0.2, 0.4, 0.1], 2)
        report.blocks[0].haar_summary["dc_error"] = float("nan")
        with pytest.raises(ValueError):
            write_report(report, str(tmp_path / "r.json"))
        assert not (tmp_path / "r.json").exists()

    def test_canonical_json_golden_bytes(self):
        obj = {
            "z": [0.1, 1.0, 1e-12],
            "a": {"empty_list": [], "empty_dict": {}, "flag": True, "none": None},
        }
        assert dumps_canonical(obj) == (
            '{\n'
            '  "a": {\n'
            '    "empty_dict": {},\n'
            '    "empty_list": [],\n'
            '    "flag": true,\n'
            '    "none": null\n'
            '  },\n'
            '  "z": [\n'
            '    0.1,\n'
            '    1.0,\n'
            '    1e-12\n'
            '  ]\n'
            '}\n'
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

    def test_spectrum_csv_golden_bytes(self, tmp_path):
        f = Signal(make_grid(3), [0.3, -0.2, 0.4, 0.1, 0.75, -0.45, 0.05, 0.5])
        g, _ = quantize_haar_optimal(f)
        p = tmp_path / "spec.csv"
        write_spectrum_csv(spectrum_error(f, g), str(p))
        assert p.read_text() == (
            "xi,measured,bound_exact,bound_linear,baseline_bound\n"
            "-3,0.1965244809053144,0.5634140350330553,2.775826237806382,0.5\n"
            "-2,0.10625,0.5303300858899107,1.8505508252042546,0.5\n"
            "-1,0.05905508788323583,0.4363222720968654,0.9252754126021273,0.5\n"
            "0,0.05625000000000001,0.0625,0.0625,0.5\n"
            "1,0.05905508788323583,0.4363222720968654,0.9252754126021273,0.5\n"
            "2,0.10625,0.5303300858899107,1.8505508252042546,0.5\n"
            "3,0.1965244809053144,0.5634140350330553,2.775826237806382,0.5\n"
            "4,0.06874999999999999,0.5,3.7011016504085092,0.5\n"
        )

    @pytest.mark.parametrize(
        "field, index",
        [("measured_half", 0), ("bound_exact_half", 2), ("bound_linear_half", 4)],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_half_column_rejected_before_writing(self, tmp_path, field,
                                                            index, bad):
        f = Signal(make_grid(3), np.random.default_rng(47).uniform(-0.5, 0.5, 8))
        g, _ = quantize_haar_optimal(f)
        table = spectrum_error(f, g)
        column = np.array(getattr(table, field))
        column[index] = bad
        p = tmp_path / "spec.csv"
        with pytest.raises(ValueError, match="non-finite"):
            write_spectrum_csv(replace(table, **{field: column}), str(p))
        assert list(tmp_path.iterdir()) == []

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
        blocks, length = read_blocks(InputSpec(str(p), 3, scale_delta=0.25))
        merged = blocks.reshape(-1) * 0.25
        assert merged[:length] == pytest.approx(values, abs=0)
        assert np.all(merged[length:] == 0.0)


@functools.lru_cache(maxsize=8)
def spectrum_case(n):
    """A quantized benchmark-like block of 2**n samples: its raw input
    bytes, its noise table and the table's reference CSV text."""
    values = np.random.default_rng(4400 + n).normal(0.0, 300.0, 1 << n)
    f = Signal(make_grid(n), values)
    table = spectrum_error(f, quantize_haar_optimal(f)[0])
    return values.astype("<f8").tobytes(), table, spectrum_csv_reference(table)


class TestSpectrumCsvAgainstReference:
    """write_spectrum_csv formats each |xi| once and, where it can, reads its
    rows -xi back to make the rows xi; the reference formats every row.
    From N = 16 on, the 2**(N-1) + 1 values of |xi| leave a last chunk
    that holds only xi = 0."""

    NS = [0, 1, 2, 3, 16, 17, 18]

    @pytest.mark.parametrize("n", NS)
    def test_path(self, tmp_path, n):
        _, table, expected = spectrum_case(n)
        p = tmp_path / "spec.csv"
        write_spectrum_csv(table, str(p))
        assert p.read_bytes() == expected.encode()

    @pytest.mark.parametrize("n", NS)
    def test_stdout_through_main(self, tmp_path, capsys, n):
        data, _, expected = spectrum_case(n)
        src = tmp_path / "in.raw"
        src.write_bytes(data)
        code = main(["spectrum", "--format", "raw", "--block-exp", str(n),
                     "--input", str(src), "--output", "-"])
        assert code == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("n", NS)
    def test_fifo(self, tmp_path, n):
        _, table, expected = spectrum_case(n)
        fifo = tmp_path / "spec.fifo"
        os.mkfifo(fifo)
        drained = []
        reader = threading.Thread(target=lambda: drained.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        write_spectrum_csv(table, str(fifo))
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert drained == [expected.encode()]

    @pytest.mark.parametrize("n", NS)
    def test_readable_stream_holding_text(self, tmp_path, n):
        _, table, expected = spectrum_case(n)
        p = tmp_path / "spec.csv"
        with open(p, "w+", encoding="utf-8") as fh:
            fh.write("# before\n")
            write_spectrum_csv(table, fh)
            fh.write("# after\n")
            assert fh.tell() == len(expected) + 17
        assert p.read_text() == "# before\n" + expected + "# after\n"

    @pytest.mark.parametrize("n", NS)
    def test_write_only_stream(self, tmp_path, n):
        _, table, expected = spectrum_case(n)
        p = tmp_path / "spec.csv"
        with open(p, "w", encoding="utf-8") as fh:
            write_spectrum_csv(table, fh)
        assert p.read_text() == expected

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_translated_line_endings_read_back(self, tmp_path, newline):
        _, table, expected = spectrum_case(16)
        p = tmp_path / "spec.csv"
        with open(p, "w+", encoding="utf-8", newline=newline) as fh:
            write_spectrum_csv(table, fh)
        assert p.read_bytes() == expected.replace("\n", newline).encode()

    def test_readable_stream_in_a_wide_encoding(self, tmp_path):
        # Its bytes are not the ASCII text, so it is not read back.
        _, table, expected = spectrum_case(16)
        p = tmp_path / "spec.csv"
        with open(p, "w+", encoding="utf-16") as fh:
            write_spectrum_csv(table, fh)
        assert p.read_text(encoding="utf-16") == expected
