import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from haarq import (
    QuantizedSignal,
    Signal,
    check_range,
    choose_parity_constrained,
    haar_analyze,
    make_grid,
    quantize_haar_optimal,
    quantize_simple,
    totals_pyramid,
    verify_haar_bounds,
)

from haarq import quantizer
from haarq.cli import main as cli_main
from haarq.quantizer import (
    _check_pair_budget,
    _haar_error_rows,
    _quantize_rows,
    _residual,
)
from haarq.report_io import CHUNK_SAMPLES
from haarq.spectral import _residual_tables

from oracles import (
    all_indices,
    dc_error_fraction,
    exact_haar_verdicts,
    naive_coefficient,
    parity_choice_oracle,
    quantize_rows_reference,
)

WORKED = [0.3, -0.2, 0.4, 0.1]


def random_signal(n, rng, lo=-0.5, hi=0.5):
    return Signal(make_grid(n), rng.uniform(lo, hi, 1 << n))


class TestParityChoice:
    def test_examples(self):
        # candidates for 0.4/odd are -1 (dist 1.4) and 1 (dist 0.6)
        assert choose_parity_constrained(0.4, "odd") == 1
        assert choose_parity_constrained(0.0, "even") == 0
        assert choose_parity_constrained(0.0, "odd", "toward_negative") == -1
        assert choose_parity_constrained(0.0, "odd", "toward_positive") == 1

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            choose_parity_constrained(float("inf"), "even")
        with pytest.raises(ValueError):
            choose_parity_constrained(float("nan"), "odd")

    def test_target_beyond_int_budget_rejected(self):
        assert choose_parity_constrained(2.0**60, "odd") == 2**60 - 1
        with pytest.raises(ValueError):
            choose_parity_constrained(1e300, "even")

    def test_bad_enums_rejected(self):
        with pytest.raises(ValueError):
            choose_parity_constrained(0.0, "mixed")
        with pytest.raises(ValueError):
            choose_parity_constrained(0.0, "even", "sideways")

    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.sampled_from(["even", "odd"]),
        st.sampled_from(["toward_negative", "toward_positive"]),
    )
    @settings(max_examples=400, deadline=None)
    @example(8.9e-17, "odd", "toward_negative")
    @example(4e-17, "odd", "toward_negative")
    @example(-4e-17, "odd", "toward_positive")
    def test_matches_enumeration_oracle(self, target, parity, tie):
        got = choose_parity_constrained(target, parity, tie)
        assert got == parity_choice_oracle(target, parity, tie)
        assert abs(got - target) <= 1.0
        assert (got - (0 if parity == "even" else 1)) % 2 == 0

    @pytest.mark.parametrize("scale", [1.0, 3.0, 17.5])
    def test_half_integer_grid_sweep(self, scale):
        targets = np.arange(-8, 8.5, 0.5) * scale
        for t in targets:
            for parity in ("even", "odd"):
                for tie in ("toward_negative", "toward_positive"):
                    got = choose_parity_constrained(float(t), parity, tie)
                    assert got == parity_choice_oracle(float(t), parity, tie)


    @pytest.mark.parametrize("tie", ["toward_negative", "toward_positive"])
    def test_parity_choice_near_large_targets(self, tie):
        # Below 2**52 the neighbours step by 1/2, above 2**60 by 256, so the
        # targets hold integers, half-integers and ties of both parities.
        targets = []
        for base in (2.0**52, 2.0**60):
            for direction in (-np.inf, np.inf):
                t = base
                for _ in range(5):
                    targets.append(t)
                    t = float(np.nextafter(t, direction))
        targets = sorted(set(targets + [-t for t in targets]))
        for target in targets:
            if abs(target) > 2.0**60:
                continue
            for parity in ("even", "odd"):
                got = choose_parity_constrained(target, parity, tie)
                assert got == parity_choice_oracle(target, parity, tie)


class TestQuantizeOptimal:
    def test_worked_example(self):
        f = Signal(make_grid(2), WORKED)
        g, pyramid = quantize_haar_optimal(f)
        assert g.values.tolist() == [0, 0, 1, 0]
        assert pyramid[0].tolist() == [1]
        assert pyramid[1].tolist() == [0, 1]
        assert pyramid[2].tolist() == [0, 0, 1, 0]

    @pytest.mark.parametrize("n", [0, 1, 3, 5])
    @pytest.mark.parametrize("c", [-3, 0, 7])
    def test_integer_constant_is_fixed_point(self, n, c):
        f = Signal(make_grid(n), np.full(1 << n, float(c)))
        g, _ = quantize_haar_optimal(f)
        assert np.all(g.values == c)
        report = verify_haar_bounds(f, g)
        assert report.dc_error == 0.0
        assert report.sup_error == 0.0

    def test_tie_goes_down_by_default(self):
        f = Signal(make_grid(1), [0.5, 0.5])
        g, pyramid = quantize_haar_optimal(f)
        assert pyramid[0][0] == 1
        assert g.values.tolist() == [1, 0]

    def test_tie_direction_configurable(self):
        f = Signal(make_grid(1), [0.5, 0.5])
        g, _ = quantize_haar_optimal(f, tie_break="toward_positive")
        assert g.values.tolist() == [0, 1]

    @pytest.mark.parametrize("n", range(0, 10))
    def test_bounds_hold_on_random_signals(self, n):
        rng = np.random.default_rng(500 + n)
        for _ in range(40):
            f = random_signal(n, rng)
            g, pyramid = quantize_haar_optimal(f)
            report = verify_haar_bounds(f, g)
            assert report.passed, (n, f.values)
            # integer pyramid really is the totals pyramid of g
            rebuilt = totals_pyramid(g)
            assert len(rebuilt) == len(pyramid) == n + 1
            for a, b in zip(rebuilt, pyramid):
                assert a.dtype == b.dtype == np.int64
                assert not a.flags.writeable and not b.flags.writeable
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", range(0, 8))
    def test_parity_feasibility(self, n):
        rng = np.random.default_rng(600 + n)
        f = random_signal(n, rng, lo=-4.0, hi=4.0)
        totals = totals_pyramid(f)
        _, pyramid = quantize_haar_optimal(f)
        for k in range(1, n + 1):
            v = totals[k]
            gk = pyramid[k]
            target = v[1::2] - v[0::2]
            diff = gk[1::2] - gk[0::2]
            assert np.all(np.abs(target - diff) <= 1.0 + 1e-12)
            assert np.all((diff - pyramid[k - 1]) % 2 == 0)

    def test_overflow_guard(self):
        f = Signal(make_grid(1), [2.0**61, 2.0**61])
        with pytest.raises(OverflowError):
            quantize_haar_optimal(f)

    def test_config_validation(self):
        # One check, in the rounding helper, serves every public entry point.
        f = Signal(make_grid(2), WORKED)
        message = r"tie_break must be one of \('toward_negative', 'toward_positive'\)"
        for call in (
            lambda: quantize_haar_optimal(f, tie_break="closest"),
            lambda: quantize_simple(f, tie_break="closest"),
            lambda: choose_parity_constrained(0.0, "even", "closest"),
        ):
            with pytest.raises(ValueError, match=message):
                call()


class TestLargeBlockDescent:
    """Blocks up to and beyond a chunk's CHUNK_SAMPLES (N = 15 to 18 here)
    are descended in one pass; the codes must be those of the reference
    per-level descent."""

    @staticmethod
    def rows(kind, n):
        rng = np.random.default_rng(800 + n)
        shape = (2, 1 << n)
        if kind == "uniform":
            return rng.uniform(-0.5, 0.5, shape)
        if kind == "quarter_steps":
            # Quarter steps make exact rounding ties common at every level.
            return np.round(rng.uniform(-40.0, 40.0, shape) * 4.0) / 4.0
        return 2.0**40 + rng.uniform(-0.5, 0.5, shape)

    @pytest.mark.parametrize("tie", ["toward_negative", "toward_positive"])
    @pytest.mark.parametrize("kind", ["uniform", "quarter_steps", "magnitude_2_40"])
    @pytest.mark.parametrize("n", [15, 16, 17, 18])
    def test_codes_match_the_whole_block_descent(self, n, kind, tie):
        values = self.rows(kind, n)
        codes, _ = _quantize_rows(values, tie)
        assert codes.dtype == np.float64
        assert np.array_equal(codes, quantize_rows_reference(values, tie))

    @pytest.mark.parametrize("n", [12, 15, 16, 17, 18])
    def test_levels_are_the_totals_pyramid_of_the_codes(self, n):
        f = Signal(make_grid(n), self.rows("quarter_steps", n)[0])
        g, pyramid = quantize_haar_optimal(f)
        rebuilt = totals_pyramid(g)
        assert len(pyramid) == n + 1
        for a, b in zip(rebuilt, pyramid):
            assert a.dtype == b.dtype == np.int64
            assert not b.flags.writeable
            assert np.array_equal(a, b)

    def test_overflow_late_in_the_block_is_caught(self):
        values = np.zeros((1, 4 * CHUNK_SAMPLES))
        values[0, -1] = 2.0**61
        with pytest.raises(OverflowError):
            _quantize_rows(values, "toward_negative")

    def test_overflow_of_the_block_total_alone_is_caught(self):
        # Each quarter totals 2**59, inside the budget; the block, 2**61.
        values = np.full((1, 4 * CHUNK_SAMPLES), 2.0**59 / CHUNK_SAMPLES)
        with pytest.raises(OverflowError):
            _quantize_rows(values, "toward_negative")


class TestQuantizeSimple:
    def test_rounds_to_nearest(self):
        f = Signal(make_grid(2), WORKED)
        assert quantize_simple(f).values.tolist() == [0, 0, 0, 0]

    def test_nearest_integers(self):
        f = Signal(make_grid(1), [0.6, -0.7])
        assert quantize_simple(f).values.tolist() == [1, -1]

    def test_half_tie_goes_down(self):
        f = Signal(make_grid(0), [0.5])
        assert quantize_simple(f).values.tolist() == [0]

    @pytest.mark.parametrize("n", range(0, 8))
    def test_per_sample_and_coefficient_bounds(self, n):
        rng = np.random.default_rng(700 + n)
        f = random_signal(n, rng, lo=-3.0, hi=3.0)
        g = quantize_simple(f)
        assert np.abs(f.values - g.values).max() <= 0.5
        cf = haar_analyze(f)
        cg = haar_analyze(g.to_signal())
        assert abs(cf.dc - cg.dc) <= 0.5 + 1e-12
        for k in range(1, n + 1):
            err = np.abs(cf.details[k - 1] - cg.details[k - 1]).max()
            assert err <= 0.5 * 2.0 ** (-(k - 1) / 2) + 1e-12

    def test_overflow_guard(self):
        f = Signal(make_grid(0), [2.0**61])
        with pytest.raises(OverflowError):
            quantize_simple(f)

    def test_block_total_overflow_guard(self):
        # Each sample is inside the budget, their int64 block sum is not.
        f = Signal(make_grid(1), [2.0**60, 2.0**60])
        with pytest.raises(OverflowError):
            quantize_simple(f)


@pytest.mark.parametrize(
    "value, tie, expected",
    [
        # Next to +-1/2, x +- 0.5 is not representable and rounds to an integer.
        (0.49999999999999994, "toward_positive", 0),
        (-0.49999999999999994, "toward_negative", 0),
        # Above 2**52 x is an integer, and x +- 0.5 rounds to a neighbour of it.
        (2.0**52 + 1, "toward_negative", 2**52 + 1),
        (2.0**52 + 1, "toward_positive", 2**52 + 1),
        (-(2.0**52) - 1, "toward_positive", -(2**52) - 1),
    ],
)
def test_nearest_integer_rounding_is_exact(value, tie, expected):
    f = Signal(make_grid(0), [value])
    assert quantize_simple(f, tie).values.tolist() == [expected]
    g, _ = quantize_haar_optimal(f, tie_break=tie)
    assert g.values.tolist() == [expected]


class TestQuantizedSignal:
    @pytest.mark.parametrize("values", [
        np.array([2.0**63, 0.0]),
        np.array([1e19, 0.0]),
        np.array([-1e19, 0.0]),
        np.array([2**63, 1], dtype=np.uint64),
    ], ids=["2.0**63", "1e19", "-1e19", "uint64 2**63"])
    def test_values_outside_int64_rejected(self, values):
        # Before, these wrapped around to other integers.
        with pytest.raises(ValueError, match="int64 range"):
            QuantizedSignal(make_grid(1), values)

    def test_int64_extremes_accepted(self):
        extremes = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max])
        g = QuantizedSignal(make_grid(1), extremes)
        assert g.values.tolist() == extremes.tolist()
        floats = QuantizedSignal(make_grid(1), np.array([-(2.0**63), 2.0**63 - 1024]))
        assert floats.values.tolist() == [-(2**63), 2**63 - 1024]
        # Narrow floats are checked in float64, with no overflow warning.
        narrow = QuantizedSignal(make_grid(1), np.array([-3.0, 65504.0], dtype=np.float16))
        assert narrow.values.tolist() == [-3, 65504]

    def test_non_integers_rejected(self):
        for values in ([0.5, 0.0], [np.nan, 0.0], [np.inf, 0.0]):
            with pytest.raises(ValueError, match="must be integers"):
                QuantizedSignal(make_grid(1), np.array(values))


class TestVerify:
    def test_worked_example_report(self):
        f = Signal(make_grid(2), WORKED)
        g, _ = quantize_haar_optimal(f)
        report = verify_haar_bounds(f, g)
        assert report.dc_input == pytest.approx(0.15, abs=1e-15)
        assert report.dc_quantized == pytest.approx(0.25, abs=1e-15)
        assert report.dc_error == pytest.approx(0.1, abs=1e-15)
        assert report.dc_bound == 0.125
        assert report.passed

    def test_integer_signal_has_zero_errors(self):
        vals = [1.0, -2.0, 0.0, 5.0]
        f = Signal(make_grid(2), vals)
        g = QuantizedSignal(make_grid(2), np.array(vals))
        report = verify_haar_bounds(f, g)
        assert report.dc_error == 0.0
        assert report.sup_error == 0.0
        assert all(np.all(err == 0) for err in report.detail_errors)

    def test_flags_are_the_exact_verdicts(self):
        rng = np.random.default_rng(17)
        f = random_signal(5, rng)
        g, _ = quantize_haar_optimal(f)
        for codes in (g.values, g.values + np.eye(1, 32, 7, dtype=np.int64)[0]):
            r = verify_haar_bounds(f, QuantizedSignal(f.grid, codes))
            assert (r.dc_ok, r.details_ok) == exact_haar_verdicts(f.values, codes)
            assert r.passed == (r.dc_ok and r.details_ok)

    def test_coarse_square_wave_breaks_baseline_level_one(self):
        # Half-period square wave: per-sample rounding kills the level-1
        # coefficient entirely while the pyramid quantizer tracks it.
        f = Signal(make_grid(3), [-0.49] * 4 + [0.49] * 4)
        baseline = quantize_simple(f)
        report = verify_haar_bounds(f, baseline)
        assert np.all(baseline.values == 0)
        err_11 = report.detail_errors[0][0]
        assert err_11 == pytest.approx(abs(naive_coefficient(f, 1, 1)), abs=1e-15)
        assert err_11 == pytest.approx(0.49, abs=1e-12)
        assert err_11 > report.detail_bounds[0]
        assert not report.details_ok and not report.passed
        assert report.sup_error <= 0.5
        optimal, _ = quantize_haar_optimal(f)
        assert verify_haar_bounds(f, optimal).passed

    def test_grid_mismatch(self):
        f = Signal(make_grid(1), [0.0, 0.0])
        g = QuantizedSignal(make_grid(2), np.zeros(4))
        with pytest.raises(ValueError):
            verify_haar_bounds(f, g)

    def test_large_magnitude_error_is_measured_exactly(self):
        # Totals near 2**56 keep no fractional bits in float64, so the
        # difference of two transforms would read 0 here.
        values = 2.0**46 + np.random.default_rng(3).uniform(-0.5, 0.5, 1 << 10)
        f = Signal(make_grid(10), values)
        g, _ = quantize_haar_optimal(f)
        report = verify_haar_bounds(f, g)
        assert report.dc_error == float(dc_error_fraction(values, g.values))
        assert 0 < report.dc_error <= report.dc_bound and report.passed

    def test_totals_beyond_budget_rejected(self):
        f = Signal(make_grid(1), [1e300, 0.0])
        with pytest.raises(OverflowError):
            verify_haar_bounds(f, QuantizedSignal(make_grid(1), np.zeros(2)))

    @pytest.mark.parametrize("n", [0, 3, 7])
    def test_row_reports_match_one_signal_calls(self, n):
        rng = np.random.default_rng(1700 + n)
        f = rng.uniform(-3.0, 3.0, (6, 1 << n))
        grid = make_grid(n)
        g = np.array([quantize_haar_optimal(Signal(grid, row))[0].values for row in f])
        g[4, -1] += 2  # one failing row among passing ones
        rows = _haar_error_rows(f, g)
        dc_input = _check_pair_budget(f, g) * 2.0**-n
        assert rows.passed.tolist() == [True] * 4 + [False, True]
        assert rows.detail_max.shape == (6, n)
        for i, (fr, gr) in enumerate(zip(f, g)):
            one = verify_haar_bounds(Signal(grid, fr), QuantizedSignal(grid, gr))
            assert dc_input[i] == one.dc_input
            for name in ("dc_quantized", "dc_error", "sup_error", "dc_ok", "details_ok"):
                assert getattr(rows, name)[i] == getattr(one, name)
            for k, (a, b) in enumerate(zip(rows.detail_errors, one.detail_errors)):
                assert np.array_equal(a[i], b)
                assert rows.detail_max[i, k] == b.max()


class TestCheckRange:
    def test_small_amplitude_fits_unit_band(self):
        rng = np.random.default_rng(23)
        f = Signal(make_grid(4), rng.uniform(-0.4, 0.4, 16))
        g, _ = quantize_haar_optimal(f)
        # [-0.4, 0.4] lies inside [lower+1, upper-1] = [-1, 1]
        assert check_range(f, -2, 2, g)
        # with (-1, 2) the input condition f >= 0 already fails
        assert not check_range(f, -1, 2, g)

    def test_shifted_band(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(0, 11))
            f = Signal(make_grid(n), rng.uniform(1.0, 3.0, 1 << n))
            g, _ = quantize_haar_optimal(f)
            assert check_range(f, 0, 4, g)

    def test_out_of_band_input_returns_false(self):
        f = Signal(make_grid(1), [3.5, 1.0])
        g, _ = quantize_haar_optimal(f)
        assert not check_range(f, 0, 4, g)

    def test_interval_must_have_width(self):
        f = Signal(make_grid(1), [0.0, 0.0])
        g, _ = quantize_haar_optimal(f)
        with pytest.raises(ValueError):
            check_range(f, 0, 2, g)


@st.composite
def bounded_signals(draw, max_exponent=6):
    n = draw(st.integers(min_value=0, max_value=max_exponent))
    values = draw(
        st.lists(
            st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
            min_size=1 << n,
            max_size=1 << n,
        )
    )
    return Signal(make_grid(n), values)


@given(bounded_signals())
@settings(max_examples=120, deadline=None)
def test_bounds_hold_property(f):
    g, pyramid = quantize_haar_optimal(f)
    assert verify_haar_bounds(f, g).passed
    rebuilt = totals_pyramid(g)
    for a, b in zip(rebuilt, pyramid):
        assert np.array_equal(a, b)


@given(bounded_signals())
@settings(max_examples=60, deadline=None)
def test_naive_oracle_agrees_on_bounds(f):
    g, _ = quantize_haar_optimal(f)
    n = f.grid.n_exponent
    for k, j in all_indices(n):
        err = abs(naive_coefficient(f, k, j) - naive_coefficient(g.to_signal(), k, j))
        bound = 2.0 ** (-n - 1) if k == 0 else 2.0 ** (-n + (k - 1) / 2)
        assert err <= bound + 1e-12


U = 2.0**-53  # the unit roundoff of float64


def nudged(x: float, ulps: int) -> float:
    """x moved by |ulps| float64 steps, up for ulps > 0 and down for ulps < 0."""
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, np.inf if ulps > 0 else -np.inf))
    return x


@st.composite
def pairs_near_the_bounds(draw, max_exponent=6):
    """(N, samples, codes): samples that are often on a 1/8 grid, where
    totals tie and the quantizer meets its bounds with equality; its codes,
    or those off by one in a sample; then one sample moved by a few ulps,
    so that a bound met with equality is just met or just broken."""
    n = draw(st.integers(min_value=0, max_value=max_exponent))
    sample = st.one_of(st.integers(-32, 32).map(lambda i: i / 8),
                       st.floats(-4.0, 4.0, allow_nan=False))
    f = np.array(draw(st.lists(sample, min_size=1 << n, max_size=1 << n)))
    g = _quantize_rows(f[None, :], draw(st.sampled_from(["toward_negative",
                                                         "toward_positive"])))[0][0]
    g[draw(st.integers(0, (1 << n) - 1))] += draw(st.sampled_from([0, 0, 0, 1, -1]))
    k = draw(st.integers(0, (1 << n) - 1))
    f[k] = nudged(f[k], draw(st.integers(-2, 2)))
    return n, f, g


def pinned(n, head):
    """A block of 2**n samples led by head, the rest 0, with all-zero codes."""
    f = np.zeros(1 << n)
    f[: len(head)] = head
    return n, f, np.zeros(1 << n, dtype=np.int64)


def cli_verdicts(n, f, g):
    """verify --quantized on one block: its exit code and its report's flags."""
    with tempfile.TemporaryDirectory() as tmp:
        src, q, rep = (Path(tmp) / name for name in ("in.raw", "q.raw", "rep.json"))
        f.astype("<f8").tofile(src)
        g.astype("<f8").tofile(q)
        code = cli_main(["verify", "--format", "raw", "--block-exp", str(n), "--input",
                         str(src), "--quantized", str(q), "--report", str(rep)])
        haar = json.loads(rep.read_text())["blocks"][0]["haar"]
    return code, haar["dc_ok"], haar["details_ok"]


HALF_UP, HALF_DOWN = nudged(0.5, 1), nudged(0.5, -1)


@given(pairs_near_the_bounds())
@settings(max_examples=150, deadline=None)
# A block total of 1/2 meets the DC bound with equality, one ulp less is
# inside and one ulp more breaks it, on both sides of 0, at N = 0 and 3.
@example(pinned(0, [0.5]))
@example(pinned(0, [HALF_UP]))
@example(pinned(0, [-HALF_UP]))
@example(pinned(3, [0.5]))
@example(pinned(3, [HALF_DOWN]))
@example(pinned(3, [HALF_UP]))
@example(pinned(3, [-HALF_UP]))
@example(pinned(3, [0.500000000004]))
# A level difference of exactly 1 meets its bound, one ulp beyond breaks it.
@example(pinned(1, [-0.5, 0.5]))
@example(pinned(1, [-0.5, HALF_DOWN]))
@example(pinned(1, [-0.5, HALF_UP]))
@example(pinned(1, [-HALF_UP, 0.5]))
@example(pinned(2, [0.0, 0.0, -0.5, 0.5]))
# Float sums read 0.5 here, but the exact total exceeds it by 2.8e-17.
@example(pinned(2, [0.1, 0.2, 0.2, 0.0]))
# One 2**20 block: equality, and a total 1e-7 beyond.
@example(pinned(20, [0.5]))
@example(pinned(20, [0.5000001]))
def test_verdicts_are_the_exact_oracles(case):
    n, f, g = case
    want = exact_haar_verdicts(f, g)
    grid = make_grid(n)
    report = verify_haar_bounds(Signal(grid, f), QuantizedSignal(grid, g))
    assert (report.dc_ok, report.details_ok) == want
    assert cli_verdicts(n, f, g) == (0 if all(want) else 1, *want)


@given(pairs_near_the_bounds(max_exponent=8))
@settings(max_examples=80, deadline=None)
@example(pinned(3, [0.5]))
@example(pinned(2, [0.0, 0.0, -0.5, 0.5]))
def test_the_exact_verdicts_imply_the_sup_and_spectral_bounds(case):
    # The uniform bound and the exact envelope are sums of the DC and level
    # bounds, so they hold whenever those do; the measurements may exceed
    # them by their own rounding only.
    n, f, g = case
    assume(all(exact_haar_verdicts(f, g)))
    grid = make_grid(n)
    report = verify_haar_bounds(Signal(grid, f), QuantizedSignal(grid, g))
    assert report.sup_error <= report.sup_bound * (1 + 2 * U)
    table = _residual_tables(_residual(f[None, :], g[None, :]))[0]
    assert np.all(table.measured_half <= table.bound_exact_half * (1 + 8 * n * U))


TIES = ["toward_negative", "toward_positive"]
SWAPPED = dict(zip(TIES, reversed(TIES)))


def block_codes(values, tie):
    """The codes of one block, as _quantize_rows gives them."""
    return _quantize_rows(np.asarray(values, dtype=np.float64)[None, :], tie)[0][0]


def switch_block(n, ulps, parts, sign):
    """A block of 2**n samples, sign * (top - parts), whose first sample is
    sign * top: top is _SAMPLES_BOUND / 2**n moved by ulps, so 2**n times
    the largest sample is below the bound for ulps < 0, the bound itself
    for 0, and above it for ulps > 0."""
    top = nudged(quantizer._SAMPLES_BOUND / (1 << n), ulps)
    values = sign * (top - np.asarray(parts, dtype=np.float64))
    values[0] = sign * top
    return values


# Small samples of either sign, whose fractions f - floor(f) would round.
SMALL = [-1e-300, -1e-20, -0.1, -0.5, -0.75, 1e-20, 0.1, 0.5]


@st.composite
def blocks_at_the_switch(draw):
    """A switch_block with some of its samples after the first replaced
    by small ones."""
    n = draw(st.integers(0, 6))
    part = (st.integers(0, 32).map(lambda i: i / 4) if draw(st.booleans())
            else st.floats(0.0, 8.0, allow_nan=False))
    parts = draw(st.lists(part, min_size=1 << n, max_size=1 << n))
    values = switch_block(n, draw(st.integers(-2, 2)), parts, draw(st.sampled_from([1.0, -1.0])))
    for i in draw(st.lists(st.integers(1, max(1, len(values) - 1)), max_size=len(values) - 1)):
        values[i] = draw(st.sampled_from(SMALL))
    return values, draw(st.sampled_from(TIES))


QUARTERS = [0.0, 0.25, 0.5, 0.75, 1.5, 2.25, 0.5, 0.5]
FRACTIONS = [0.0, 0.1, 3.3, 5.9, 0.7, 7.1, 2.2, 4.4]


class TestSamplesBound:
    """Blocks are descended as they are while 2**N times their largest
    sample is below _SAMPLES_BOUND, and as integers plus fractions from it
    on; the codes must be the reference's on both sides."""

    @given(blocks_at_the_switch())
    @settings(max_examples=120, deadline=None)
    @example((switch_block(0, -1, [0.0], 1.0), "toward_negative"))
    @example((switch_block(0, 0, [0.0], -1.0), "toward_positive"))
    @example((switch_block(3, -1, QUARTERS, 1.0), "toward_negative"))
    @example((switch_block(3, 0, QUARTERS, 1.0), "toward_positive"))
    @example((switch_block(3, 1, QUARTERS, -1.0), "toward_negative"))
    @example((switch_block(3, -2, FRACTIONS, -1.0), "toward_positive"))
    @example((switch_block(3, 0, FRACTIONS, 1.0), "toward_negative"))
    @example((switch_block(3, 2, FRACTIONS, 1.0), "toward_positive"))
    # A small negative sample in a block on the fractions' path.
    @example((np.array([2.0**45 + 0.5, -1e-20]), "toward_negative"))
    @example((np.array([2.0**45 + 0.5, -1e-20]), "toward_positive"))
    @example((np.array([2.0**45 + 0.5, -0.1]), "toward_positive"))
    def test_codes_on_both_sides_of_the_bound(self, case):
        values, tie = case
        assert np.array_equal(block_codes(values, tie),
                              quantize_rows_reference(values[None, :], tie)[0])

    @pytest.mark.parametrize("ulps, fractions", [(-1, False), (0, True), (1, True)])
    def test_the_bound_picks_the_path(self, monkeypatch, ulps, fractions):
        sups = []
        descend = quantizer._descend
        monkeypatch.setattr(quantizer, "_descend",
                            lambda samples, totals, sup, tie: sups.append(sup)
                            or descend(samples, totals, sup, tie))
        block_codes(switch_block(3, ulps, QUARTERS, 1.0), "toward_negative")
        assert (sups == [1.0]) == fractions

    def test_large_samples_are_settled_a_handful_of_times(self, monkeypatch):
        # The fractions' radius is that of samples below 1, so a block of
        # 2**39 + uniform(-1/2, 1/2) has almost no rounding in doubt; the
        # samples' radius, about 2**18 times larger, put its top levels in doubt.
        values = 2.0**39 + np.random.default_rng(39).uniform(-0.5, 0.5, (1, 1 << 16))
        calls = []
        exact_choice = quantizer._exact_choice
        monkeypatch.setattr(quantizer, "_exact_choice",
                            lambda *args: calls.append(args[1:]) or exact_choice(*args))
        codes = _quantize_rows(values, "toward_negative")[0]
        assert len(calls) <= 4
        assert np.array_equal(codes, quantize_rows_reference(values, "toward_negative"))


@st.composite
def signals_and_integers(draw):
    """(f, m): a block of at most 2**10 samples, on a quarter grid or a
    2**-10 grid with |f| <= 8, and integers m with |m| <= 2**e, e <= 40, so
    that f + m, at most 51 bits, is exact."""
    n = draw(st.integers(0, 10))
    scale = 4.0 if draw(st.booleans()) else 2.0**10
    f = draw(arrays(np.int64, 1 << n, elements=st.integers(-(2**13), 2**13))) / scale
    bound = 2 ** draw(st.integers(0, 40))
    m = draw(arrays(np.int64, 1 << n, elements=st.integers(-bound, bound)))
    return f, m.astype(np.float64)


class TestDescentIdentities:
    """The relations the integers-plus-fractions path rests on."""

    @given(signals_and_integers(), st.sampled_from(TIES))
    @settings(max_examples=80, deadline=None)
    def test_adding_integers_adds_them_to_the_codes(self, case, tie):
        f, m = case
        assert np.array_equal(block_codes(f + m, tie), block_codes(f, tie) + m)

    @given(signals_and_integers(), st.sampled_from(TIES))
    @settings(max_examples=80, deadline=None)
    def test_negating_the_signal_negates_the_codes_under_the_other_rule(self, case, tie):
        f, m = case
        assert np.array_equal(block_codes(-(f + m), SWAPPED[tie]), -block_codes(f + m, tie))
