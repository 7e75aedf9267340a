import math
from dataclasses import replace

import numpy as np
import pytest

from haarq import (
    MAX_EXPONENT,
    InputSpec,
    Signal,
    TimeGrid,
    dft,
    haar_analyze,
    haar_basis,
    haar_fourier_coefficient,
    make_grid,
    quantize_haar_optimal,
    quantize_simple,
    spectrum_error,
    write_spectrum_csv,
)
from haarq.quantizer import QuantizedSignal, _haar_bounds, _residual
from haarq.spectral import _half_spectrum, _noise_envelopes, _residual_tables

from oracles import (
    all_indices,
    dc_error_fraction,
    dft_by_sum,
    dft_direct,
    exact_envelope_by_level,
    frequencies,
)


def random_signal(n, rng):
    return Signal(make_grid(n), rng.uniform(-0.5, 0.5, 1 << n))


@pytest.mark.parametrize(
    "make",
    [
        lambda n: InputSpec("x.csv", n),
        TimeGrid,
    ],
    ids=["InputSpec", "TimeGrid"],
)
def test_exponent_above_max_rejected(make):
    make(MAX_EXPONENT)
    with pytest.raises(ValueError, match=r"\[0, 24\]"):
        make(MAX_EXPONENT + 1)


class TestDft:
    def test_constant_signal(self):
        f = Signal(make_grid(3), np.full(8, 2.5))
        spec = dft(f)
        assert spec.shape == (5,)
        assert spec[0] == pytest.approx(2.5, abs=1e-14)
        assert np.abs(spec[1:]).max() <= 1e-14

    @pytest.mark.parametrize("n", range(0, 9))
    def test_dc_equals_haar_dc(self, n):
        rng = np.random.default_rng(800 + n)
        f = random_signal(n, rng)
        assert dft(f)[0] == pytest.approx(haar_analyze(f).dc, abs=1e-12)

    def test_step_basis_modulus_at_xi_one(self):
        f = haar_basis((1, 1), make_grid(3))
        got = dft(f)[1]
        assert abs(got) == pytest.approx(0.25 / math.sin(math.pi / 8), rel=1e-12)

    @pytest.mark.parametrize("n", range(0, 8))
    def test_matches_single_frequency_sums(self, n):
        rng = np.random.default_rng(900 + n)
        f = random_signal(n, rng)
        spec = dft(f)
        for xi in range(0, spec.size, max(1, (1 << n) // 16)):
            assert spec[xi] == pytest.approx(dft_by_sum(f, xi), abs=1e-12)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_fft_path_reproduces_direct(self, n):
        rng = np.random.default_rng(1000 + n)
        f = random_signal(n, rng)
        # The oracle ascends over the full grid; its rows xi >= 0 end it.
        direct = dft_direct(f)[frequencies(n) >= 0]
        fast = dft(f)
        assert not fast.flags.writeable
        assert np.abs(direct - fast).max() <= 1e-10

    @pytest.mark.parametrize("n", [0, 3, 10, 13, 14, 16])
    def test_rows_match_one_row_expression(self, n):
        # Bit for bit: a row's transform must not depend on the rows beside it.
        rng = np.random.default_rng(1050 + n)
        size = 1 << n
        rows = rng.uniform(-0.5, 0.5, (3, size))
        xi = np.arange(size // 2 + 1)
        phase = (1.0 - 2.0 * (xi & 1)) * np.exp(-1j * np.pi * xi / size)
        batched = _half_spectrum(rows)
        for row, got in zip(rows, batched):
            expected = np.fft.rfft(row) * phase / size
            assert np.array_equal(got, expected)
            assert np.array_equal(dft(Signal(make_grid(n), row)), expected)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_conjugate_symmetry(self, n):
        # A real signal's row -xi is the conjugate of its row xi, so the rows
        # xi >= 0 that dft returns are the whole spectrum.
        rng = np.random.default_rng(1100 + n)
        f = random_signal(n, rng)
        spec = dft(f)
        for xi in range(1, (1 << (n - 1))):
            assert dft_by_sum(f, -xi) == pytest.approx(spec[xi].conjugate(), abs=1e-12)


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

    @pytest.mark.parametrize("n, xi", [(4, 9), (4, -8), (1, 2), (1, -1), (0, 1), (0, -1)])
    def test_out_of_grid_frequency_rejected(self, n, xi):
        # Just past either edge of (-2**(N-1), 2**(N-1)], or off [0] at N=0.
        with pytest.raises(ValueError, match="outside the grid"):
            haar_fourier_coefficient(xi, (0, 1), n)

    @pytest.mark.parametrize("n", range(0, 7))
    def test_matches_direct_transform_of_basis(self, n):
        g = make_grid(n)
        freqs = frequencies(n)
        for k, j in all_indices(n):
            direct = dft_direct(haar_basis((k, j), g))
            for xi, value in zip(freqs, direct):
                closed = haar_fourier_coefficient(int(xi), (k, j), n)
                assert closed == pytest.approx(value, abs=1e-10)


class TestEnvelopes:
    def test_single_term_sum(self):
        assert _noise_envelopes(1)[0][1] == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_nyquist_value_is_half(self, n):
        assert _noise_envelopes(n)[0][-1] == pytest.approx(0.5, abs=1e-12)

    def test_exact_below_linear_at_low_frequency(self):
        exact, linear = _noise_envelopes(10)
        assert linear[1] == pytest.approx(10 * math.pi**2 / 4096, rel=1e-15)
        assert exact[1] <= linear[1] + 1e-10

    def test_linear_examples(self):
        assert _noise_envelopes(10)[1][4] == pytest.approx(
            4 * 10 * math.pi**2 / 4096, rel=1e-15
        )
        # exceeds the trivial bound 1 at N=1: only useful when |xi| << 2**N
        assert _noise_envelopes(1)[1][1] == pytest.approx(math.pi**2 / 8, rel=1e-15)

    @pytest.mark.parametrize("n", range(0, 21))
    def test_table_lookup_matches_every_level_evaluated(self, n):
        # Pins the envelope's bits on their own: the spectrum CSV tests compare
        # against a reference that formats the same table.  N=0 has no xi > 0.
        positive = np.arange(1, (1 << n) // 2 + 1, dtype=np.float64)
        exact, _ = _noise_envelopes(n)
        direct = exact_envelope_by_level(positive, n)
        assert np.array_equal(exact[1:].view(np.int64), direct.view(np.int64))

    @pytest.mark.parametrize("n", [0, 1, 8, 12])
    def test_tables_hold_the_half_grid_and_the_dc_bound(self, n):
        exact, linear = _noise_envelopes(n)
        assert exact.shape == linear.shape == ((1 << n) // 2 + 1,)
        assert exact[0] == linear[0] == _haar_bounds(n)[0] == 2.0 ** (-n - 1)
        assert not (exact.flags.writeable or linear.flags.writeable)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_term_chain_inequality(self, n):
        # (1 - cos(2 pi xi / 2**k)) / |sin(pi xi / 2**N)| <= 2**(N-2k) pi^2 |xi|
        exact, linear = _noise_envelopes(n)
        for xi in range(1, exact.size):
            denom = abs(math.sin(math.pi * xi / 2.0**n))
            for k in range(1, n + 1):
                lhs = (1.0 - math.cos(2.0 * math.pi * xi / 2.0**k)) / denom
                rhs = 2.0 ** (n - 2 * k) * math.pi**2 * xi
                assert lhs <= rhs + 1e-10
            assert exact[xi] <= linear[xi] + 1e-10


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
            assert table.measured_half[0] <= 2.0 ** (-n - 1) + 1e-10

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("step", [None, 0.25], ids=["uniform", "quarter_steps"])
    def test_every_column_is_bitwise_even(self, n, step, tmp_path):
        # The written row -xi is the row xi, and both hold the table's values
        # at |xi| bit for bit.  Quarter-step samples put many totals on
        # rounding ties.
        rng = np.random.default_rng(1250 + n)
        values = rng.uniform(-2.0, 2.0, 1 << n)
        if step is not None:
            values = np.round(values / step) * step
        f = Signal(make_grid(n), values)
        table = spectrum_error(f, quantize_haar_optimal(f)[0])
        p = tmp_path / "spec.csv"
        write_spectrum_csv(table, str(p))
        rows = [line.split(",") for line in p.read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == frequencies(n).tolist()
        by_xi = {int(r[0]): r[1:] for r in rows}
        for xi in range(1, 1 << (n - 1)):
            assert by_xi[-xi] == by_xi[xi]
        written = np.array([[float(v) for v in r[1:]] for r in rows])
        at = np.abs(frequencies(n))
        for column, half in zip(written.T, (
            table.measured_half, table.bound_exact_half, table.bound_linear_half,
        )):
            assert np.array_equal(column.view(np.int64), half[at].view(np.int64))
        assert np.all(written[:, 3] == 0.5)

    def test_integer_signal_zero_error(self):
        vals = np.array([1.0, -3.0, 0.0, 2.0])
        f = Signal(make_grid(2), vals)
        g = QuantizedSignal(make_grid(2), vals)
        table = spectrum_error(f, g)
        assert np.all(table.measured_half <= 1e-14)

    def test_dc_row_uses_dc_bound(self):
        rng = np.random.default_rng(31)
        f = random_signal(4, rng)
        g, _ = quantize_haar_optimal(f)
        table = spectrum_error(f, g)
        assert table.bound_exact_half[0] == 2.0**-5
        assert table.bound_linear_half[0] == 2.0**-5

    @pytest.mark.parametrize("n", range(0, 8))
    def test_apriori_unit_bound(self, n):
        rng = np.random.default_rng(1300 + n)
        f = random_signal(n, rng)
        for g in [quantize_haar_optimal(f)[0], quantize_simple(f)]:
            assert np.abs(f.values - g.values).max() <= 1.0
            table = spectrum_error(f, g)
            assert np.all(table.measured_half <= 1.0 + 1e-12)

    @pytest.mark.parametrize("n", [0, 4, 11])
    def test_row_tables_match_one_signal_calls(self, n):
        rng = np.random.default_rng(1400 + n)
        f = rng.uniform(-3.0, 3.0, (5, 1 << n))
        g = np.rint(f).astype(np.int64)
        grid = make_grid(n)
        for fr, gr, table in zip(f, g, _residual_tables(_residual(f, g))):
            one = spectrum_error(Signal(grid, fr), QuantizedSignal(grid, gr))
            assert np.array_equal(table.measured_half, one.measured_half)

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
        dc = table.measured_half[0]
        assert dc == float(dc_error_fraction(values, g.values))
        assert 0 < dc <= table.bound_exact_half[0]

    def test_totals_beyond_budget_rejected(self):
        f = Signal(make_grid(1), [1e300, 0.0])
        with pytest.raises(OverflowError):
            spectrum_error(f, QuantizedSignal(make_grid(1), np.zeros(2)))
