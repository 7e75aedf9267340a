import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarq import Signal, haar_basis, make_grid, totals_pyramid

from oracles import all_indices, basis_by_formula

SQRT2 = math.sqrt(2.0)


def random_signal(n, rng):
    return Signal(make_grid(n), rng.uniform(-0.5, 0.5, 1 << n))


@st.composite
def signals(draw, max_exponent=6, lo=-4.0, hi=4.0):
    n = draw(st.integers(min_value=0, max_value=max_exponent))
    values = draw(
        st.lists(
            st.floats(min_value=lo, max_value=hi, allow_nan=False),
            min_size=1 << n,
            max_size=1 << n,
        )
    )
    return Signal(make_grid(n), values)


class TestGrid:
    def test_samples_n1(self):
        assert make_grid(1).samples.tolist() == [-0.25, 0.25]

    def test_samples_n2(self):
        assert make_grid(2).samples.tolist() == [-0.375, -0.125, 0.125, 0.375]

    def test_exponent_cap(self):
        with pytest.raises(ValueError):
            make_grid(25)
        with pytest.raises(ValueError):
            make_grid(-1)

    @pytest.mark.parametrize("n", range(0, 13))
    def test_samples_increasing_and_symmetric(self, n):
        t = make_grid(n).samples
        assert t.shape == (1 << n,)
        assert np.all(np.diff(t) > 0)
        assert np.all(t + t[::-1] == 0.0)

    def test_values_length_checked(self):
        with pytest.raises(ValueError):
            Signal(make_grid(2), [1.0, 2.0])

    def test_values_must_be_finite(self):
        with pytest.raises(ValueError):
            Signal(make_grid(1), [0.0, float("nan")])


class TestInnerProduct:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_basis_unit_norm(self, n):
        g = make_grid(n)
        b = haar_basis((1, 1), g)
        assert b.values @ b.values / g.size == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_levels(self):
        g = make_grid(2)
        assert haar_basis((1, 1), g).values @ haar_basis((2, 1), g).values / g.size == 0.0


class TestBasis:
    def test_dc_is_constant_one(self):
        assert haar_basis((0, 1), make_grid(2)).values.tolist() == [1, 1, 1, 1]

    def test_level_one_sign_pattern(self):
        assert haar_basis((1, 1), make_grid(2)).values.tolist() == [-1, -1, 1, 1]

    def test_level_two_scaled_pair(self):
        # frozen from pointwise evaluation of the defining formula
        got = haar_basis((2, 2), make_grid(2)).values
        assert got == pytest.approx([0.0, 0.0, -SQRT2, SQRT2], abs=0)

    def test_invalid_index_rejected(self):
        g = make_grid(2)
        for bad in [(0, 2), (3, 1), (2, 3), (1, 0), (-1, 1)]:
            with pytest.raises(ValueError):
                haar_basis(bad, g)

    @pytest.mark.parametrize("n", range(0, 7))
    def test_matches_formula_evaluation(self, n):
        g = make_grid(n)
        for k, j in all_indices(n):
            assert np.array_equal(haar_basis((k, j), g).values, basis_by_formula(k, j, g))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_support_size(self, n):
        g = make_grid(n)
        for k, j in all_indices(n):
            if k == 0:
                continue
            support = np.flatnonzero(haar_basis((k, j), g).values)
            assert support.size == 1 << (n - k + 1)


class TestTotalsPyramid:
    def test_small_integer_example(self):
        p = totals_pyramid(Signal(make_grid(2), [1.0, 2.0, 3.0, 4.0]))
        assert p[2].tolist() == [1, 2, 3, 4]
        assert p[1].tolist() == [3, 7]
        assert p[0].tolist() == [10]

    def test_zero_signal(self):
        p = totals_pyramid(Signal(make_grid(3), np.zeros(8)))
        assert all(np.all(level == 0) for level in p)

    def test_fraction_example(self):
        p = totals_pyramid(Signal(make_grid(2), [0.3, -0.2, 0.4, 0.1]))
        assert p[1] == pytest.approx([0.1, 0.5], abs=1e-15)
        assert p[0] == pytest.approx([0.6], abs=1e-15)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_parent_child_consistency(self, n):
        rng = np.random.default_rng(100 + n)
        p = totals_pyramid(random_signal(n, rng))
        for k in range(1, n + 1):
            child = p[k]
            parent = p[k - 1]
            assert np.allclose(parent, child[0::2] + child[1::2], rtol=1e-12, atol=0)


class TestUnitarity:
    @pytest.mark.parametrize("n", range(0, 7))
    def test_gram_matrix_is_identity(self, n):
        g = make_grid(n)
        family = [haar_basis((k, j), g) for k, j in all_indices(n)]
        gram = np.array([[a.values @ b.values / g.size for b in family] for a in family])
        assert np.abs(gram - np.eye(len(family))).max() <= 1e-12


def expanded(rows: np.ndarray, grid) -> np.ndarray:
    """Each row of a (rows, 2**N) array rebuilt as the sum over the basis of
    its coefficient <f, h> = mean(f h) times h."""
    back = np.zeros_like(rows)
    for index in all_indices(grid.n_exponent):
        h = haar_basis(index, grid).values
        back += np.outer(rows @ h / grid.size, h)
    return back


class TestExpansion:
    """The basis is complete: with the Gram matrix above, every signal is
    the sum of its coefficients times the basis."""

    @pytest.mark.parametrize("n", range(0, 13))
    def test_round_trip_random(self, n):
        rng = np.random.default_rng(300 + n)
        rows = rng.uniform(-0.5, 0.5, (20, 1 << n))
        assert np.abs(expanded(rows, make_grid(n)) - rows).max() <= 1e-12

    @given(signals())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, f):
        back = expanded(f.values[None, :], f.grid)[0]
        assert np.abs(back - f.values).max() <= 1e-10
