import math

import numpy as np
import pytest

import tailmoments as tm

I1 = tm.IndexSet([1])
I12 = tm.IndexSet([1, 2])


def test_standardize_known_powers_then_scales():
    out = tm.standardize_known(np.array([[2.0, 3.0]]), 2.0, np.array([1.0, 9.0]))
    assert out.values.tolist() == [[4.0, 1.0]]


def test_standardize_known_validates_parameters():
    x = np.array([[1.0, 2.0]])
    with pytest.raises(tm.NonPositiveAlpha):
        tm.standardize_known(x, 0.0, np.array([1.0, 1.0]))
    with pytest.raises(tm.NonPositiveScale):
        tm.standardize_known(x, 1.0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        tm.standardize_known(np.array([[-1.0, 2.0]]), 1.0, np.array([1.0, 1.0]))


def test_upper_order_statistics_vector():
    # a vector is one column of a matrix; ties count by multiplicity
    assert tm.upper_order_statistics(np.array([[5.0, 3.0, 8.0, 1.0, 9.0]]).T, 2).tolist() == [8.0]
    assert tm.upper_order_statistics(np.array([[4.0, 4.0, 4.0]]).T, 3).tolist() == [4.0]
    with pytest.raises(ValueError, match="matrix"):
        tm.upper_order_statistics(np.array([5.0, 3.0, 8.0]), 2)


def test_upper_order_statistics_matrix_is_per_column():
    x = np.array([[1.0, 40.0], [2.0, 30.0], [3.0, 20.0], [4.0, 10.0]])
    out = tm.upper_order_statistics(x, 2)
    assert out.tolist() == [3.0, 30.0]


@pytest.mark.parametrize("k", [0, 6])
def test_upper_order_statistics_k_range(k):
    with pytest.raises(tm.KOutOfRange):
        tm.upper_order_statistics(np.arange(1.0, 6.0).reshape(5, 1), k)


def test_scaled_by_order_statistics_zeroes_other_columns():
    x = np.array([[4.0, 100.0], [3.0, 200.0], [2.0, 300.0], [1.0, 400.0]])
    r = tm.scaled_by_order_statistics(x, 2, I1)
    assert np.array_equal(r[:, 0], x[:, 0] / 3.0)
    assert np.all(r[:, 1] == 0.0)


def test_hill_on_exact_exponential_spacings():
    x = np.array([1.0, math.e, math.e**2]).reshape(-1, 1)
    rep = tm.hill_inverse_alpha(x, 3, I1)
    assert rep.estimate == 1.5
    assert rep.inverse_estimate == pytest.approx(2.0 / 3.0)
    assert rep.exceedance_count == 2


def test_hill_equal_column_has_no_exceedances():
    with pytest.raises(tm.NoExceedances):
        tm.hill_inverse_alpha(np.full((3, 1), 2.0), 2, I1)


def test_hill_duplicated_column_matches_single_column():
    col = np.array([1.0, math.e, math.e**2])
    rep = tm.hill_inverse_alpha(np.column_stack([col, col]), 3, I12)
    assert rep.estimate == 1.5


def test_hill_exceedance_count_is_k_minus_one_without_ties():
    """For a single tie-free column exactly the k-1 largest ratios exceed one."""
    rng = np.random.default_rng(7)
    x = rng.pareto(2.0, size=(500, 1)) + 1.0
    for k in (10, 50, 200):
        rep = tm.hill_inverse_alpha(x, k, I1)
        assert rep.exceedance_count == k - 1


def test_hill_is_scale_invariant():
    rng = np.random.default_rng(8)
    x = rng.pareto(1.5, size=(300, 2)) + 1.0
    a = tm.hill_inverse_alpha(x, 30, I12)
    b = tm.hill_inverse_alpha(1000.0 * x, 30, I12)
    assert a.estimate == b.estimate


def test_hill_power_transform_scales_the_estimate():
    """Raising the data to a power gamma multiplies the reciprocal index by gamma."""
    rng = np.random.default_rng(9)
    x = rng.pareto(1.0, size=(400, 1)) + 1.0
    base = tm.hill_inverse_alpha(x, 40, I1).estimate
    powered = tm.hill_inverse_alpha(x**2.0, 40, I1).estimate
    assert powered == pytest.approx(2.0 * base, rel=1e-14)


def test_hill_recovers_frechet_index():
    x = tm.frechet_sample(20000, 2.0, seed=123).reshape(-1, 1)
    rep = tm.hill_inverse_alpha(x, 400, I1)
    assert rep.estimate == pytest.approx(0.5, abs=0.08)
