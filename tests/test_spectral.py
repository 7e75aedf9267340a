import math
from dataclasses import replace

import numpy as np
import pytest

from haarq import (
    MAX_EXPONENT,
    FrequencyGrid,
    InputSpec,
    Signal,
    dft,
    fourier_error_bound_exact,
    fourier_error_bound_linear,
    haar_analyze,
    haar_basis,
    haar_fourier_coefficient,
    make_grid,
    quantize_haar_optimal,
    quantize_simple,
    spectrum_error,
)
from haarq.quantizer import QuantizedSignal, _residual
from haarq.spectral import _dft_rows, _exact_envelope, _noise_envelopes, _residual_tables

from oracles import (
    all_indices,
    dc_error_fraction,
    dft_by_sum,
    dft_direct,
    exact_envelope_by_level,
)


def random_signal(n, rng):
    return Signal(make_grid(n), rng.uniform(-0.5, 0.5, 1 << n))


class TestFrequencyGrid:
    def test_n0_is_dc_only(self):
        assert FrequencyGrid(0).frequencies.tolist() == [0]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_shape_and_membership(self, n):
        grid = FrequencyGrid(n)
        freqs = grid.frequencies
        assert freqs.shape == (1 << n,)
        assert 0 in freqs
        assert freqs[0] == -(1 << (n - 1)) + 1
        assert freqs[-1] == 1 << (n - 1)
        assert grid.contains(int(freqs[0])) and grid.contains(int(freqs[-1]))
        assert not grid.contains(int(freqs[0]) - 1)
        assert not grid.contains(int(freqs[-1]) + 1)


@pytest.mark.parametrize(
    "make",
    [
        lambda n: InputSpec("x.csv", n),
        FrequencyGrid,
        lambda n: fourier_error_bound_linear(1, n),
    ],
    ids=["InputSpec", "FrequencyGrid", "fourier_error_bound_linear"],
)
def test_exponent_above_max_rejected(make):
    make(MAX_EXPONENT)
    with pytest.raises(ValueError, match=r"\[0, 24\]"):
        make(MAX_EXPONENT + 1)


class TestDft:
    def test_constant_signal(self):
        f = Signal(make_grid(3), np.full(8, 2.5))
        spec = dft(f)
        assert spec.value_at(0) == pytest.approx(2.5, abs=1e-14)
        for xi in spec.grid.frequencies:
            if xi:
                assert abs(spec.value_at(int(xi))) <= 1e-14

    @pytest.mark.parametrize("n", range(0, 9))
    def test_dc_equals_haar_dc(self, n):
        rng = np.random.default_rng(800 + n)
        f = random_signal(n, rng)
        assert dft(f).value_at(0) == pytest.approx(haar_analyze(f).dc, abs=1e-12)

    def test_step_basis_modulus_at_xi_one(self):
        f = haar_basis((1, 1), make_grid(3))
        got = dft(f).value_at(1)
        assert abs(got) == pytest.approx(0.25 / math.sin(math.pi / 8), rel=1e-12)

    @pytest.mark.parametrize("n", range(0, 8))
    def test_matches_single_frequency_sums(self, n):
        rng = np.random.default_rng(900 + n)
        f = random_signal(n, rng)
        spec = dft(f)
        for xi in spec.grid.frequencies[:: max(1, (1 << n) // 8)]:
            assert spec.value_at(int(xi)) == pytest.approx(
                dft_by_sum(f, int(xi)), abs=1e-12
            )

    @pytest.mark.parametrize("n", range(0, 11))
    def test_fft_path_reproduces_direct(self, n):
        rng = np.random.default_rng(1000 + n)
        f = random_signal(n, rng)
        direct = dft_direct(f)
        fast = dft(f).values
        assert np.abs(direct - fast).max() <= 1e-10

    @pytest.mark.parametrize("n", [0, 3, 10, 13, 14, 16])
    def test_rows_match_one_row_expression(self, n):
        # Bit for bit: a row's transform must not depend on the rows beside it.
        rng = np.random.default_rng(1050 + n)
        size = 1 << n
        rows = rng.uniform(-0.5, 0.5, (3, size))
        xi = np.arange(size // 2 + 1)
        phase = (1.0 - 2.0 * (xi & 1)) * np.exp(-1j * np.pi * xi / size)
        batched = _dft_rows(rows)
        for row, got in zip(rows, batched):
            positive = np.fft.rfft(row) * phase / size
            negative = np.conj(positive[1 : size - size // 2][::-1])
            expected = np.concatenate([negative, positive])
            assert np.array_equal(got, expected)
            assert np.array_equal(dft(Signal(make_grid(n), row)).values, expected)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_conjugate_symmetry(self, n):
        rng = np.random.default_rng(1100 + n)
        spec = dft(random_signal(n, rng))
        for xi in range(1, (1 << (n - 1))):
            assert spec.value_at(-xi) == spec.value_at(xi).conjugate()


class TestClosedForm:
    def test_dc_specials(self):
        assert haar_fourier_coefficient(0, (0, 1), 3) == 1.0
        assert haar_fourier_coefficient(0, (3, 2), 3) == 0.0
        assert haar_fourier_coefficient(5, (0, 1), 4) == 0.0

    def test_modulus_example(self):
        got = haar_fourier_coefficient(1, (1, 1), 3)
        assert abs(got) == pytest.approx(0.25 / math.sin(math.pi / 8), rel=1e-12)

    def test_nyquist_level_one_vanishes_for_n4(self):
        # at xi = 2**(N-1) every level except the finest contributes 0
        assert abs(haar_fourier_coefficient(8, (1, 1), 4)) <= 1e-14
        direct = dft_by_sum(haar_basis((1, 1), make_grid(4)), 8)
        assert abs(direct) <= 1e-14

    def test_out_of_grid_frequency_rejected(self):
        with pytest.raises(ValueError):
            haar_fourier_coefficient(9, (1, 1), 4)

    @pytest.mark.parametrize("n", range(0, 7))
    def test_matches_direct_transform_of_basis(self, n):
        g = make_grid(n)
        freqs = FrequencyGrid(n).frequencies
        for k, j in all_indices(n):
            direct = dft_direct(haar_basis((k, j), g))
            for xi, value in zip(freqs, direct):
                closed = haar_fourier_coefficient(int(xi), (k, j), n)
                assert closed == pytest.approx(value, abs=1e-10)


class TestEnvelopes:
    def test_single_term_sum(self):
        assert fourier_error_bound_exact(1, 1) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_nyquist_value_is_half(self, n):
        assert fourier_error_bound_exact(1 << (n - 1), n) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_exact_below_linear_at_low_frequency(self):
        exact = fourier_error_bound_exact(1, 10)
        linear = fourier_error_bound_linear(1, 10)
        assert linear == pytest.approx(10 * math.pi**2 / 4096, rel=1e-15)
        assert exact <= linear + 1e-10

    def test_linear_examples(self):
        assert fourier_error_bound_linear(-4, 10) == pytest.approx(
            4 * 10 * math.pi**2 / 4096, rel=1e-15
        )
        # exceeds the trivial bound 1 at N=1: only useful when |xi| << 2**N
        assert fourier_error_bound_linear(1, 1) == pytest.approx(
            math.pi**2 / 8, rel=1e-15
        )

    def test_dc_rejected(self):
        with pytest.raises(ValueError):
            fourier_error_bound_exact(0, 4)
        with pytest.raises(ValueError):
            fourier_error_bound_linear(0, 4)

    @pytest.mark.parametrize("bound", ["exact", "linear"])
    def test_off_grid_rejected(self, bound):
        scalar = {"exact": fourier_error_bound_exact,
                  "linear": fourier_error_bound_linear}[bound]
        assert scalar(-1, 3) > 0.0
        for xi in (-4, 5, 10**6):
            with pytest.raises(ValueError, match="outside the grid"):
                scalar(xi, 3)

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 20])
    def test_table_lookup_matches_every_level_evaluated(self, n):
        positive = np.arange(1, (1 << n) // 2 + 1, dtype=np.float64)
        looked_up = _exact_envelope(positive, n)
        direct = exact_envelope_by_level(positive, n)
        assert np.array_equal(looked_up.view(np.int64), direct.view(np.int64))

    @pytest.mark.parametrize("n", [1, 8, 12])
    def test_scalar_matches_table_bit_for_bit(self, n):
        # The tables hold xi = 0..2**(N-1); the row -xi is the row xi.
        exact, linear = _noise_envelopes(n)
        assert exact.shape == linear.shape == ((1 << n) // 2 + 1,)
        for xi in FrequencyGrid(n).frequencies.tolist():
            if xi != 0:
                assert fourier_error_bound_exact(xi, n) == exact[abs(xi)]
                assert fourier_error_bound_linear(xi, n) == linear[abs(xi)]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_scalars_are_even_bit_for_bit(self, n):
        for xi in range(1, 1 << (n - 1)):
            for scalar in (fourier_error_bound_exact, fourier_error_bound_linear):
                assert scalar(-xi, n) == scalar(xi, n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_term_chain_inequality(self, n):
        # (1 - cos(2 pi xi / 2**k)) / |sin(pi xi / 2**N)| <= 2**(N-2k) pi^2 |xi|
        for xi in FrequencyGrid(n).frequencies:
            if xi == 0:
                continue
            denom = abs(math.sin(math.pi * xi / 2.0**n))
            for k in range(1, n + 1):
                lhs = (1.0 - math.cos(2.0 * math.pi * xi / 2.0**k)) / denom
                rhs = 2.0 ** (n - 2 * k) * math.pi**2 * abs(xi)
                assert lhs <= rhs + 1e-10
            assert fourier_error_bound_exact(int(xi), n) <= fourier_error_bound_linear(
                int(xi), n
            ) + 1e-10


class TestSpectrumError:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_optimal_quantizer_meets_every_envelope(self, n):
        rng = np.random.default_rng(1200 + n)
        for _ in range(10):
            f = random_signal(n, rng)
            g, _ = quantize_haar_optimal(f)
            table = spectrum_error(f, g)
            # The measurement may exceed the envelope by its own rounding only.
            assert np.all(table.measured_half <= table.bound_exact_half * (1 + 8 * n * 2.0**-53))
            dc = table.measured[list(table.frequencies).index(0)]
            assert dc <= 2.0 ** (-n - 1) + 1e-10

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("step", [None, 0.25], ids=["uniform", "quarter_steps"])
    def test_every_column_is_bitwise_even(self, n, step):
        # Quarter-step samples put many totals on rounding ties.
        rng = np.random.default_rng(1250 + n)
        values = rng.uniform(-2.0, 2.0, 1 << n)
        if step is not None:
            values = np.round(values / step) * step
        f = Signal(make_grid(n), values)
        table = spectrum_error(f, quantize_haar_optimal(f)[0])
        half = 1 << (n - 1)
        for column in (table.measured, table.bound_exact, table.bound_linear,
                       table.baseline_bound):
            bits = column.view(np.int64)
            # Index half - 1 holds xi = 0: xi and -xi sit half - 1 +- xi.
            assert np.array_equal(bits[: half - 1], bits[2 * half - 2 : half - 1 : -1])

    def test_integer_signal_zero_error(self):
        vals = np.array([1.0, -3.0, 0.0, 2.0])
        f = Signal(make_grid(2), vals)
        g = QuantizedSignal(make_grid(2), vals)
        table = spectrum_error(f, g)
        assert np.all(table.measured <= 1e-14)

    def test_dc_row_uses_dc_bound(self):
        rng = np.random.default_rng(31)
        f = random_signal(4, rng)
        g, _ = quantize_haar_optimal(f)
        table = spectrum_error(f, g)
        i0 = list(table.frequencies).index(0)
        assert table.bound_exact[i0] == 2.0**-5
        assert table.bound_linear[i0] == 2.0**-5
        assert np.all(table.baseline_bound == 0.5)

    @pytest.mark.parametrize("n", range(0, 8))
    def test_apriori_unit_bound(self, n):
        rng = np.random.default_rng(1300 + n)
        f = random_signal(n, rng)
        for g in [quantize_haar_optimal(f)[0], quantize_simple(f)]:
            assert np.abs(f.values - g.values).max() <= 1.0
            table = spectrum_error(f, g)
            assert np.all(table.measured <= 1.0 + 1e-12)

    @pytest.mark.parametrize("n", [0, 4, 11])
    def test_row_tables_match_one_signal_calls(self, n):
        rng = np.random.default_rng(1400 + n)
        f = rng.uniform(-3.0, 3.0, (5, 1 << n))
        g = np.rint(f).astype(np.int64)
        grid = make_grid(n)
        for fr, gr, table in zip(f, g, _residual_tables(_residual(f, g))):
            one = spectrum_error(Signal(grid, fr), QuantizedSignal(grid, gr))
            assert np.array_equal(table.measured, one.measured)

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_half_columns_of_the_wrong_length_rejected(self, n):
        f = Signal(make_grid(n), np.random.default_rng(1450 + n).uniform(-2, 2, 1 << n))
        table = spectrum_error(f, quantize_haar_optimal(f)[0])
        assert table.measured_half.shape == ((1 << n) // 2 + 1,)
        with pytest.raises(ValueError, match="measured_half"):
            replace(table, measured_half=np.append(table.measured_half, 0.0))
        with pytest.raises(ValueError, match="bound_linear_half"):
            replace(table, bound_linear_half=table.bound_linear_half[:-1])

    def test_grid_mismatch(self):
        f = Signal(make_grid(1), [0.0, 0.0])
        g = QuantizedSignal(make_grid(2), np.zeros(4))
        with pytest.raises(ValueError):
            spectrum_error(f, g)

    def test_large_magnitude_dc_error_is_measured_exactly(self):
        # Totals near 2**56: the DC row is the mean of the residual f - g,
        # exact here, not the difference of two large transforms.
        values = 2.0**46 + np.random.default_rng(3).uniform(-0.5, 0.5, 1 << 10)
        f = Signal(make_grid(10), values)
        g, _ = quantize_haar_optimal(f)
        table = spectrum_error(f, g)
        dc = table.measured[list(table.frequencies).index(0)]
        assert dc == float(dc_error_fraction(values, g.values))
        assert 0 < dc <= table.bound_exact_half[0]

    def test_totals_beyond_budget_rejected(self):
        f = Signal(make_grid(1), [1e300, 0.0])
        with pytest.raises(OverflowError):
            spectrum_error(f, QuantizedSignal(make_grid(1), np.zeros(2)))
