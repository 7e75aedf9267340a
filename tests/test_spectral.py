import math

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
from haarq.quantizer import QuantizedSignal
from haarq.spectral import _dft_rows, _noise_envelopes, _noise_tables

from oracles import all_indices, dft_by_sum, dft_direct


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
        freqs = FrequencyGrid(n).frequencies
        phase = (1.0 - 2.0 * (freqs & 1)) * np.exp(-1j * np.pi * freqs / size)
        batched = _dft_rows(rows)
        for row, got in zip(rows, batched):
            expected = np.fft.fft(row)[np.mod(freqs, size)] * phase / size
            assert np.array_equal(got, expected)
            assert np.array_equal(dft(Signal(make_grid(n), row)).values, expected)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_conjugate_symmetry(self, n):
        rng = np.random.default_rng(1100 + n)
        spec = dft(random_signal(n, rng))
        for xi in range(1, (1 << (n - 1))):
            assert spec.value_at(-xi) == pytest.approx(
                spec.value_at(xi).conjugate(), abs=1e-12
            )


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

    @pytest.mark.parametrize("n", [1, 8, 12])
    def test_scalar_matches_table_bit_for_bit(self, n):
        exact, _ = _noise_envelopes(n)
        for xi, table_value in zip(FrequencyGrid(n).frequencies, exact):
            if xi != 0:
                assert fourier_error_bound_exact(int(xi), n) == table_value

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
            assert table.all_pass
            dc = table.measured[list(table.frequencies).index(0)]
            assert dc <= 2.0 ** (-n - 1) + 1e-10

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
        for fr, gr, table in zip(f, g, _noise_tables(f, g)):
            one = spectrum_error(Signal(grid, fr), QuantizedSignal(grid, gr))
            assert np.array_equal(table.measured, one.measured)
            assert np.array_equal(table.passes, one.passes)

    def test_grid_mismatch(self):
        f = Signal(make_grid(1), [0.0, 0.0])
        g = QuantizedSignal(make_grid(2), np.zeros(4))
        with pytest.raises(ValueError):
            spectrum_error(f, g)
