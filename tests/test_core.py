import numpy as np
import pytest

import tailmoments as tm
from tailmoments.core import check_moment_power


def test_index_set_members_and_lookup():
    s = tm.IndexSet([1, 3])
    assert s.members == (1, 3)
    assert s.size == 2
    assert 1 in s and 3 in s and 2 not in s
    assert s.zero_based().tolist() == [0, 2]
    assert tm.IndexSet([1.0, np.int64(3)]) == s


@pytest.mark.parametrize("bad", [[], [0, 1], [1, 1], [3, 1], [-2],
                                 [1.7, 2.2], [1, 2.5], [1, np.inf], [np.nan], ["1"]])
def test_index_set_rejects_bad_members(bad):
    with pytest.raises(ValueError):
        tm.IndexSet(bad)


def test_index_set_check_within():
    s = tm.IndexSet([1, 3])
    s.check_within(3)
    with pytest.raises(ValueError):
        s.check_within(2)


def test_make_weight_vector_normalizes():
    v = tm.make_weight_vector([2, 2], tm.IndexSet([1, 2]))
    assert v.weights.tolist() == [0.5, 0.5]


def test_make_weight_vector_embeds_support():
    v = tm.make_weight_vector([1, 0, 3], tm.IndexSet([1, 3]))
    assert v.weights.tolist() == [0.25, 0.0, 0.75]


def test_make_weight_vector_rejects_mass_off_support():
    with pytest.raises(tm.SupportViolation):
        tm.make_weight_vector([1, 1], tm.IndexSet([1]))


def test_make_weight_vector_rejects_negative_and_zero_sum():
    with pytest.raises(tm.NegativeWeight):
        tm.make_weight_vector([1, -1], tm.IndexSet([1, 2]))
    with pytest.raises(tm.NegativeWeight):  # negativity is checked before the support
        tm.make_weight_vector([0, 0, -1], tm.IndexSet([1, 2]))
    with pytest.raises(tm.ZeroSum):
        tm.make_weight_vector([0, 0], tm.IndexSet([1, 2]))
    with pytest.raises(ValueError, match="finite"):
        tm.make_weight_vector([np.nan, 1], tm.IndexSet([1, 2]))
    with pytest.raises(ValueError, match="finite"):
        tm.WeightVector([np.nan, 1.0], tm.IndexSet([1, 2]))


def test_uniform_and_basis_weights():
    s = tm.IndexSet([1, 3])
    u = tm.uniform_weights(s, 3)
    assert u.weights.tolist() == [0.5, 0.0, 0.5]
    e = tm.basis_weights(s, 3, 3)
    assert e.weights.tolist() == [0.0, 0.0, 1.0]
    with pytest.raises(ValueError):
        tm.basis_weights(s, 3, 2)


def test_partial_max_restricts_to_index_set():
    x = np.array([[1.0, 5.0, 2.0], [4.0, 0.0, 3.0]])
    out = tm.partial_max(x, tm.IndexSet([1, 3]))
    assert out.tolist() == [2.0, 4.0]


def test_data_matrix_rejects_negative_and_nonfinite():
    with pytest.raises(ValueError):
        tm.DataMatrix(np.array([[1.0, -2.0]]))
    with pytest.raises(ValueError):
        tm.DataMatrix(np.array([[1.0, np.nan]]))


def test_perturbation_indicator_is_identity_on_support():
    s = tm.IndexSet([1, 3])
    pert = tm.Perturbation.indicator(s, 3)
    assert pert.s.tolist() == [1.0, 0.0, 1.0]
    assert pert.beta == 1.0


def test_perturbation_validates_scales_and_beta():
    s = tm.IndexSet([1, 2])
    with pytest.raises(ValueError):
        tm.Perturbation([1.0, 1.0, 0.5], 1.0, s)  # mass outside the support
    with pytest.raises(ValueError):
        tm.Perturbation([1.0, 0.0], 1.0, s)  # zero scale on the support
    with pytest.raises(ValueError):
        tm.Perturbation([1.0, 1.0], -2.0, s)


@pytest.mark.parametrize("beta", [np.nan, np.inf])
def test_perturbation_rejects_a_non_finite_beta(beta):
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        tm.Perturbation([1.0, 1.0], beta, tm.IndexSet([1, 2]))


def test_quadratic_form_requires_symmetry():
    s = tm.IndexSet([1, 2])
    with pytest.raises(tm.NonSymmetric):
        tm.QuadraticForm(s, np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_quadratic_form_is_read_only_and_evaluates():
    s = tm.IndexSet([1, 2])
    q = tm.QuadraticForm(s, np.array([[2.0, 1.0], [1.0, 2.0]]))
    v = tm.make_weight_vector([1, 1], s)
    assert q.evaluate(v) == 1.5
    with pytest.raises(ValueError):
        q.matrix[0, 0] = 9.0


def test_quadratic_form_reads_weights_on_its_own_index_set():
    q = tm.QuadraticForm(tm.IndexSet([1, 2]), np.array([[2.0, 1.0], [1.0, 3.0]]))
    assert q.evaluate(tm.basis_weights(tm.IndexSet([1]), 2, 1)) == 2.0
    assert q.evaluate(tm.basis_weights(tm.IndexSet([2]), 2, 2)) == 3.0


def test_quadratic_form_rejects_a_vector_too_short_for_its_index_set():
    q = tm.QuadraticForm(tm.IndexSet([1, 2]), np.eye(2))
    with pytest.raises(ValueError, match="out of range"):
        q.evaluate([1.0])


def test_estimate_report_checks_inverse():
    assert tm.EstimateReport(estimate=2.0, exceedance_count=1, method="x").inverse_estimate == 0.5
    assert tm.EstimateReport(estimate=0.0, exceedance_count=1, method="x").inverse_estimate is None
    with pytest.raises(TypeError):
        tm.EstimateReport(estimate=2.0, inverse_estimate=0.5, exceedance_count=1, method="x")


def test_estimate_report_to_dict_serializes_arrays():
    rep = tm.EstimateReport(estimate=2.0, std_error=0.1,
                            exceedance_count=3, method="x",
                            parameters={"weights": np.array([0.5, 0.5])})
    d = rep.to_dict()
    assert d["estimate"] == 2.0
    assert d["parameters"]["weights"] == [0.5, 0.5]


def test_check_moment_power():
    assert check_moment_power(0) == 0
    assert check_moment_power(2) == 2
    with pytest.raises(ValueError):
        check_moment_power(-1)
    with pytest.raises(ValueError):
        check_moment_power(1.5)


@pytest.mark.parametrize("p", [np.inf, -np.inf, np.nan])
def test_check_moment_power_rejects_a_non_finite_power(p):
    with pytest.raises(ValueError, match="the moment power p must be an integer"):
        check_moment_power(p)
    x = np.array([[10.0, 10.0], [12.0, 6.0]])
    with pytest.raises(ValueError, match="the moment power p must be an integer"):
        tm.moment_ratio_known(x, 5.0, tm.uniform_weights(tm.IndexSet([1, 2]), 2), p=p)


# ------------------------------------------------- validation at the boundary

def _bad_inputs():
    rng = np.random.default_rng(8)
    x = rng.pareto(1.0, size=(200, 2)) + 1.0
    with_nan = x.copy()
    with_nan[17, 1] = np.nan
    negative = x.copy()
    negative[40, 0] = -3.0
    return {"nan": with_nan, "negative": negative}


@pytest.mark.parametrize("kind", ["nan", "negative"])
@pytest.mark.parametrize("call", [
    lambda x: tm.tau_moment_ranks(x, 20, tm.IndexSet([1, 2])),
    lambda x: tm.stable_tail_estimate(x, 20, tm.IndexSet([1, 2])),
    lambda x: tm.hill_inverse_alpha(x, 20, tm.IndexSet([1, 2])),
    lambda x: tm.tau_moment_known(x, 5.0, tm.IndexSet([1, 2])),
], ids=["tau_moment_ranks", "stable_tail_estimate", "hill_inverse_alpha",
        "tau_moment_known"])
def test_estimators_reject_invalid_raw_data(kind, call):
    message = "finite" if kind == "nan" else "non-negative"
    with pytest.raises(ValueError, match=message):
        call(_bad_inputs()[kind])


@pytest.mark.parametrize("call", [
    lambda x: tm.tau_moment_ranks(x, 0, tm.IndexSet([1, 2])),
    lambda x: tm.rank_variance_form(x, 0, tm.IndexSet([1, 2])),
    lambda x: tm.stable_tail_variance(x, 0, tm.IndexSet([1, 2]), eps=0.1),
], ids=["tau_moment_ranks", "rank_variance_form", "stable_tail_variance"])
def test_rank_routes_reject_k_zero_as_k_out_of_range(call):
    x = np.random.default_rng(8).pareto(1.0, size=(200, 2)) + 1.0
    with pytest.raises(tm.KOutOfRange):
        call(x)
