import functools
import io
import json
import math
import os
import threading
from dataclasses import replace
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from haarq import (
    InputFormatError,
    InputSpec,
    Signal,
    dumps_canonical,
    format_float,
    make_grid,
    quantize_haar_optimal,
    read_signal,
    report_io,
    spectrum_error,
    write_spectrum_csv,
    write_values,
)
from haarq.cli import main
from haarq.quantizer import _check_pair_budget, _haar_error_rows
from haarq.report_io import CHUNK_SAMPLES, _ReportLayout, _float_texts

from oracles import quantize_per_block, report_reference, spectrum_csv_reference


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


def _float_line(x, form, decimals):
    """x as one of the texts CSV writers make: repr, %.17g, %.Nf, %d or %.18e."""
    if form == "repr":
        return repr(x)
    if form == "%.Nf":
        return "%.*f" % (decimals, x)
    return form % x


# Lines of the bulk reader's grammar, and beside it: signs, '-0', '5.', '.5',
# leading zeros, 19 to 20 digit strings and too many digits after the dot.
CSV_LINES = st.one_of(
    st.builds(_float_line, st.floats(-1e20, 1e20, allow_nan=False),
              st.sampled_from(["repr", "%.17g", "%.Nf", "%d", "%.18e"]), st.integers(0, 30)),
    st.from_regex(r"\A[+-]?[0-9]{0,21}\.?[0-9]{0,32}\Z").filter(
        lambda s: any(c.isdigit() for c in s)),
    st.sampled_from(["-0", "+0", "-0.0", "5.", ".5", "-.5", "+5.", "007", "-00.25"]),
)


class TestBulkCsvReader:
    """The bulk reader gives float()'s bits for every line, with or without
    its long double kernel, whatever the reads' boundaries."""

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(CSV_LINES, min_size=1, max_size=60),
           read_bytes=st.integers(1, 200))
    # Float64 midpoints, exact, and lines whose 64-bit quotient is one while
    # they are not: rounding that again to float64 would get them wrong.
    @example(lines=["9007199254740993", "4503599627370496.5", "9992.5850355856428",
                    "-0.14118613576402427", "9007199254740993.0001"], read_bytes=200)
    # Digit strings above 2**53, where float64 division would be inexact, 18
    # digits all after the dot, and digit strings beyond int64.
    @example(lines=["14637558675684.521", "-16404167252770.369", ".123456789012345678"],
             read_bytes=200)
    @example(lines=["9999999999999999999", "-9999999999999999999", "9223372036854775808",
                    "-9223372036854775809", "92233720368547758080",
                    "-92233720368547758080", "18446744073709551616.5"], read_bytes=200)
    @pytest.mark.parametrize("extended", [True, False])
    @pytest.mark.parametrize("codes", [False, True])
    def test_values_are_those_of_float(self, extended, codes, lines, read_bytes):
        # As codes, the lines up to the first whose value float64 does not
        # hold or that is not an integer, each refused as such.
        refusals = [
            "not exact in float64" if Decimal(line) != Decimal(float(line)) else
            "not an integer" if not float(line).is_integer() else None
            for line in lines
        ] if codes else [None] * len(lines)
        stop = next((i for i, refusal in enumerate(refusals) if refusal), len(lines))
        text = "".join(f"{line}\n" for line in lines)
        got = []
        with (mock.patch.object(report_io, "_EXTENDED", extended),
              mock.patch.object(report_io, "_READ_BYTES", read_bytes)):
            try:
                for piece in report_io._csv_pieces(io.BytesIO(text.encode()), "src", codes):
                    got += piece.tolist()
            except InputFormatError as exc:
                assert str(exc) == f"src:{stop + 1}: {refusals[stop]}: {lines[stop]!r}"
            else:
                assert stop == len(lines)
        expected = np.array([float(line) for line in lines[:stop]])
        assert np.array_equal(np.array(got).view(np.int64), expected.view(np.int64))

    def test_without_the_long_double_kernel_every_line_takes_the_line_path(self):
        def refuse(buf, codes):
            raise AssertionError("the bulk kernel ran without its long double")

        text = "1.5\n-0\n9007199254740993\n.5\n"
        with (mock.patch.object(report_io, "_EXTENDED", False),
              mock.patch.object(report_io, "_plain_values", refuse)):
            got = np.concatenate(list(report_io._csv_pieces(io.BytesIO(text.encode()), "src")))
        assert got.view(np.int64).tolist() == \
            np.array([1.5, -0.0, 9007199254740992.0, 0.5]).view(np.int64).tolist()

    def test_the_last_line_may_lack_its_newline(self):
        pieces = report_io._csv_pieces(io.BytesIO(b"1.5\n-2\n0.25"), "src")
        assert np.concatenate(list(pieces)).tolist() == [1.5, -2.0, 0.25]

    def test_a_block_that_is_not_ascii_goes_to_the_line_parser(self):
        # float() reads other scripts' digits; so does the line parser.
        pieces = report_io._csv_pieces(io.BytesIO("# café\n1.5\n١٢\n-3\n".encode()), "src")
        assert np.concatenate(list(pieces)).tolist() == [1.5, 12.0, -3.0]

    def test_every_sample_before_a_bad_line_is_yielded(self):
        # The bad line is in the same read as the samples before it.
        pieces = report_io._csv_pieces(io.BytesIO(b"1\n# c\n2.5\n3x\n4\n"), "src")
        assert next(pieces).tolist() == [1.0, 2.5]
        with pytest.raises(InputFormatError, match=":4: not a number: '3x'"):
            next(pieces)

    # A line outside the grammar and a line of too many digits, the first
    # of them either way, in one read or in reads of a few characters.
    @pytest.mark.parametrize("lines, bad, message", [
        (["0.5", "3x", "1.5", "9" * 400, "2.5", "3x"], 1, ":2: not a number: '3x'"),
        (["0.5", "1.5", "9" * 400, "2.5", "3x", "-7"], 2, ":3: non-finite sample '999"),
    ])
    @pytest.mark.parametrize("read_bytes", [7, 1 << 17])
    def test_the_first_bad_line_is_named_after_every_sample_before_it(
        self, lines, bad, message, read_bytes
    ):
        text = "".join(f"{line}\n" for line in lines)
        got = []
        with (mock.patch.object(report_io, "_READ_BYTES", read_bytes),
              pytest.raises(InputFormatError, match=message)):
            for piece in report_io._csv_pieces(io.BytesIO(text.encode()), "src"):
                got += piece.tolist()
        assert got == [float(line) for line in lines[:bad]]

    # '\r\n' cut by a read, in every place: one line end, so every line
    # keeps its number.
    @pytest.mark.parametrize("read_bytes", range(1, 12))
    def test_a_line_end_split_by_a_read_is_one_line_end(self, read_bytes):
        data = b"# c\r\n1\r\n\r\n2\r3\n4x\r\n5\r\n"
        got = []
        with (mock.patch.object(report_io, "_READ_BYTES", read_bytes),
              pytest.raises(InputFormatError, match="^src:6: not a number: '4x'$")):
            for piece in report_io._csv_pieces(io.BytesIO(data), "src"):
                got += piece.tolist()
        assert got == [1.0, 2.0, 3.0]

    def test_a_line_longer_than_a_read(self):
        data = b"1\n" + b"0" * report_io._READ_BYTES + b"1.5\n2\n"
        assert np.concatenate(list(report_io._csv_pieces(io.BytesIO(data), "src"))).tolist() \
            == [1.0, 1.5, 2.0]

    @pytest.mark.parametrize("read_bytes", [1, 2, 1 << 17])
    def test_a_byte_order_mark_starts_the_stream_only(self, read_bytes):
        bom = b"\xef\xbb\xbf"
        with mock.patch.object(report_io, "_READ_BYTES", read_bytes):
            pieces = report_io._csv_pieces(io.BytesIO(bom + b"1\n2\n"), "src")
            assert np.concatenate(list(pieces)).tolist() == [1.0, 2.0]
            with pytest.raises(InputFormatError, match=r"^src:2: not a number: '\\ufeff2'$"):
                list(report_io._csv_pieces(io.BytesIO(b"1\n" + bom + b"2\n"), "src"))

    def test_a_block_that_is_not_ascii_leaves_the_others_to_the_kernel(self):
        kernel = []

        def plain_values(buf, codes):
            kernel.append(buf.tobytes())
            return real(buf, codes)

        real = report_io._plain_values
        data = b"1.5\n-2\n# caf\xe9\n0.25\n3\n"
        with (mock.patch.object(report_io, "_READ_BYTES", 8),
              mock.patch.object(report_io, "_plain_values", plain_values)):
            got = np.concatenate(list(report_io._csv_pieces(io.BytesIO(data), "src")))
        assert got.tolist() == [1.5, -2.0, 0.25, 3.0]
        assert kernel == [b"1.5\n-2\n", b"0.25\n3\n"]

    def test_an_overflowing_digit_string_is_named(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("0.5\n" + "9" * 400 + "\n")
        with pytest.raises(InputFormatError, match=":2: non-finite sample '999"):
            read_blocks(InputSpec(str(p), 0))


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

    def test_bad_pad_policy(self):
        with pytest.raises(ValueError, match="pad_policy"):
            InputSpec("x.csv", 3, pad_policy="truncate")


def test_write_values_refuses_an_unknown_format_before_writing(tmp_path):
    with pytest.raises(ValueError, match="format"):
        write_values(tmp_path / "x.wav", np.zeros(2), "wav")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cpu_count, expected", [(3, 3), (None, 1)])
def test_usable_cpus_without_an_affinity_call(monkeypatch, cpu_count, expected):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert report_io._usable_cpus() == expected


# Floats whose text is at an edge of repr's rules or of the digit search:
# the zeros, the smallest subnormal and normal, the largest, both sides of
# the fixed/scientific switches, 1e23 (whose nearest double is below it),
# both sides of the kernel's domain edges 1e-99 and 2**52, and three floats
# whose digits may be exact, which repr writes: 2**-21 and 2**-11, the DC
# bounds of N=20 and N=10 spectra, and 0.5, the Nyquist row's exact envelope.
EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 1e22, 1e23,
               0.1, 0.3, 1e-99, math.nextafter(1e-99, 0), 2.0**52,
               math.nextafter(2.0**52, 0), 2.0**-21, 0.5, 2.0**-11]


def repr_texts(values):
    """repr of each value, NUL padded to the kernel's row width."""
    return [repr(v).encode().ljust(24, b"\0") for v in values]


def finite_from_bits(bits):
    return float(np.uint64(bits).view(np.float64))


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

    def test_csv_floats_are_the_repr_join(self, tmp_path):
        rng = np.random.default_rng(53)
        bits = rng.integers(0, 2**64, 4000, dtype=np.uint64).view(np.float64)
        values = np.concatenate([
            rng.normal(0.0, 1e3, 4000), rng.uniform(-1.0, 1.0, 4000),
            bits[np.isfinite(bits)], EDGE_FLOATS, [-x for x in EDGE_FLOATS],
        ])
        p = tmp_path / "floats.csv"
        write_values(str(p), values, "csv")
        assert p.read_text() == "".join(f"{v!r}\n" for v in values.tolist())

    def test_csv_write_read_cycle_is_exact(self, tmp_path):
        rng = np.random.default_rng(37)
        values = rng.uniform(-1, 1, 64)
        p = tmp_path / "cycle.csv"
        write_values(str(p), values, "csv")
        blocks, _ = read_blocks(InputSpec(str(p), 6))
        assert np.array_equal(blocks[0], values)


class TestFloatTexts:
    """The bulk float-text kernel gives repr's bytes, whatever mix of
    floats shares an array."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    @example([0.0])
    @example([-0.0])
    @example([5e-324])
    @example([2.2250738585072014e-308])
    @example([1.7976931348623157e308])
    @example([1e16])
    @example([9999999999999998.0])
    @example([1e-4])
    @example([9.999999999999999e-05])
    @example([1e22])
    @example([1e23])
    @example([0.1])
    @example([0.3])
    @example([1e-99])
    @example([math.nextafter(1e-99, 0)])
    @example([2.0**52])
    @example([math.nextafter(2.0**52, 0)])
    @example([2.0**-21])
    @example([0.5])
    @example([2.0**-11])
    @example(EDGE_FLOATS + [-x for x in EDGE_FLOATS])
    def test_floats_match_repr(self, values):
        rows = _float_texts(np.array(values, dtype=np.float64))
        assert [row.tobytes() for row in rows] == repr_texts(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1).map(finite_from_bits).filter(math.isfinite),
                    min_size=1, max_size=40))
    def test_raw_bit_patterns_match_repr(self, values):
        rows = _float_texts(np.array(values))
        assert [row.tobytes() for row in rows] == repr_texts(values)

    def test_every_power_of_two_and_ten_and_their_neighbours(self):
        powers = np.concatenate([2.0 ** np.arange(-1074, 1024),
                                 [float(f"1e{k}") for k in range(-323, 309)]])
        values = np.concatenate([powers, np.nextafter(powers, 0),
                                 np.nextafter(powers, np.inf)])
        values = np.concatenate([values, -values])
        values = values[np.isfinite(values)]
        expected = np.array(repr_texts(values.tolist()), dtype="S24")
        assert np.array_equal(_float_texts(values).view("S24").ravel(), expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            _float_texts([1.0, bad])

    @pytest.fixture
    def reprs(self, monkeypatch):
        """Every value that the kernel leaves to repr, in order."""
        seen = []
        fallback = report_io._repr_texts

        def recording(values):
            seen.extend(values.tolist())
            return fallback(values)

        monkeypatch.setattr(report_io, "_repr_texts", recording)
        return seen

    def test_a_spectrum_table_leaves_three_values_to_repr(self, reprs):
        # The DC row's two bounds, 2**-(N+1), and the exact envelope at
        # xi = 2**(N-1), 1/2.  repr is about twice as slow as the kernel,
        # so a table must not reach it row by row.
        n = 12
        f = Signal(make_grid(n), np.random.default_rng(4512).normal(0.0, 300.0, 1 << n))
        table = spectrum_error(f, quantize_haar_optimal(f)[0])
        write_spectrum_csv(table, io.StringIO())
        assert reprs == [2.0 ** -(n + 1), 2.0 ** -(n + 1), 0.5]
        assert table.bound_exact_half[1 << (n - 1)] == 0.5

    @pytest.mark.parametrize("law, params", [("normal", (0.0, 1e3)), ("uniform", (-1.0, 1.0))])
    def test_ordinary_floats_never_reach_repr(self, reprs, law, params):
        _float_texts(getattr(np.random.default_rng(3700), law)(*params, 1 << 16))
        assert reprs == []


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

    # Each side of every width of base-10**4 groups, and zero among them.
    EDGES = [0] + [s * (10**(4 * k) - d) for k in range(1, 5) for d in (1, 0) for s in (1, -1)]

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8,
                                       np.uint32, np.uint64])
    def test_every_group_width_edge_is_printf(self, tmp_path, dtype):
        info = np.iinfo(dtype)
        values = [v for v in self.EDGES if info.min <= v <= info.max] + [info.min, info.max]
        p = tmp_path / "codes.csv"
        # All at once, where the largest sets the groups of all, and one by one.
        write_values(str(p), np.array(values, dtype=dtype), "csv")
        assert p.read_text() == ("%d\n" * len(values)) % tuple(values)
        for v in values:
            write_values(str(p), np.array([v], dtype=dtype), "csv")
            assert p.read_text() == "%d\n" % v

    def test_chunks_append_and_the_empty_chunk_writes_nothing(self, tmp_path):
        p = tmp_path / "codes.csv"
        with open(p, "w", encoding="utf-8", newline="\n") as fh:
            write_values(fh, np.array([3, -4], dtype=np.int64), "csv")
            write_values(fh, np.array([], dtype=np.int64), "csv")
            write_values(fh, np.array([5], dtype=np.int64), "csv")
        assert p.read_bytes() == b"3\n-4\n5\n"
        write_values(str(p), np.array([], dtype=np.int64), "csv")
        assert p.read_bytes() == b""


class TestReportLayout:
    def test_bytes_are_those_of_the_reference(self):
        # A config with a '%' and text like the layout's slots, and a failing
        # block, in two chunks.
        config = {"note": "100% {x}", "slot": "$int:index", "slots": "$$float:dc_error"}
        n = 2
        values = np.random.default_rng(77).uniform(-9.0, 9.0, 17)
        codes = quantize_per_block(values, n)
        codes[5] += 1  # block 1
        f = np.concatenate([values, np.zeros(3)]).reshape(-1, 4)
        g = np.concatenate([codes, np.zeros(3, dtype=np.int64)]).reshape(-1, 4)
        total = _check_pair_budget(f, g)
        out = io.StringIO()
        with _ReportLayout(config, n) as layout:
            layout.add(layout.entries(0, total[:2], g[:2], _haar_error_rows(f[:2], g[:2])))
            layout.add(layout.entries(2, total[2:], g[2:], _haar_error_rows(f[2:], g[2:])))
            layout.write(out, 17, False)
        assert out.getvalue() == report_reference(values, n, config, codes)
        assert [b["pass"] for b in json.loads(out.getvalue())["blocks"]] == [
            True, False, True, True, True]


class TestDumpsCanonical:
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
    """write_spectrum_csv formats each |xi| once, and its row -xi is its
    row xi with a '-' in front; the reference formats every row.  From
    N = 14 on, the 2**(N-1) + 1 values of |xi| leave a last chunk that
    holds only xi = 0."""

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
        # Its bytes are not the ASCII text of the rows.
        _, table, expected = spectrum_case(16)
        p = tmp_path / "spec.csv"
        with open(p, "w+", encoding="utf-16") as fh:
            write_spectrum_csv(table, fh)
        assert p.read_text(encoding="utf-16") == expected


class TestOutputs:
    def test_a_target_named_again_after_many_outputs_is_refused(self, tmp_path):
        # The repeat names the first of 300 targets by another spelling;
        # the refusal removes every temporary file, so no output is left.
        paths = [str(tmp_path / f"out{i}.csv") for i in range(300)]
        with pytest.raises(ValueError, match="two outputs name one file: .*out0.csv"):
            with report_io._Outputs() as outputs:
                for path in [*paths, f"{tmp_path}/./out0.csv"]:
                    with outputs.open(path, binary=False) as fh:
                        fh.write("1\n")
        assert list(tmp_path.iterdir()) == []
