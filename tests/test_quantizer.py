import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

from haarq.quantizer import CHUNK_SAMPLES, _haar_error_rows, _parity_round, _quantize_rows

from oracles import (
    all_indices,
    dc_error_fraction,
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
    def test_int64_parity_array_near_large_targets(self, tie):
        # The descent passes each parent total itself as the parity of its
        # children's difference, negative parents included.  Below 2**52
        # the neighbours step by 1/2, above 2**60 by 256, so the targets
        # hold integers, half-integers and ties of both parities.
        targets = []
        for base in (2.0**52, 2.0**60):
            for direction in (-np.inf, np.inf):
                t = base
                for _ in range(5):
                    targets.append(t)
                    t = float(np.nextafter(t, direction))
        targets = sorted(set(targets + [-t for t in targets]))
        parents = [-(2**61) - 1, -(2**61), -3, -2, 2, 3, 2**61, 2**61 + 1]
        t = np.repeat(np.array(targets), len(parents)).reshape(len(targets), -1)
        p = np.tile(np.array(parents, dtype=np.int64), (len(targets), 1))
        got = _parity_round(t, p, tie)
        assert got.dtype == np.int64 and got.shape == t.shape
        expected = [
            [parity_choice_oracle(target, "odd" if parent & 1 else "even", tie)
             for parent in parents]
            for target in targets
        ]
        assert got.tolist() == expected


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


class TestSubtreeDescent:
    """Blocks longer than CHUNK_SAMPLES (N = 17, 18 here) are descended by
    subtrees; the codes must be those of the whole-block per-level descent."""

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
        codes = _quantize_rows(values, tie)
        assert codes.dtype == np.int64
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

    def test_overflow_in_a_later_subtree_is_caught(self):
        values = np.zeros((1, 4 * CHUNK_SAMPLES))
        values[0, -1] = 2.0**61
        with pytest.raises(OverflowError):
            _quantize_rows(values, "toward_negative")

    def test_overflow_of_the_block_total_alone_is_caught(self):
        # Each subtree totals 2**59, inside the budget; the block, 2**61.
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

    def test_flags_recomputable_from_stored_errors(self):
        rng = np.random.default_rng(17)
        f = random_signal(5, rng)
        g, _ = quantize_haar_optimal(f)
        r = verify_haar_bounds(f, g)
        assert r.dc_ok == (r.dc_error <= r.dc_bound + r.slack)
        assert r.details_ok == all(
            e.max() <= b + r.slack for e, b in zip(r.detail_errors, r.detail_bounds)
        )
        assert r.sup_ok == (r.sup_error <= r.sup_bound + r.slack)

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
        assert report.sup_error <= 0.5 and report.sup_ok
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
        assert not report.dc_ok and not report.passed

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
        assert rows.passed.tolist() == [True] * 4 + [False, True]
        assert rows.detail_max.shape == (6, n)
        for i, (fr, gr) in enumerate(zip(f, g)):
            one = verify_haar_bounds(Signal(grid, fr), QuantizedSignal(grid, gr))
            for name in ("dc_input", "dc_quantized", "dc_error", "sup_error",
                         "dc_ok", "details_ok", "sup_ok"):
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
