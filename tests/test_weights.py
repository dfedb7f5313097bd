import numpy as np
import pytest

import tailmoments as tm
from tailmoments.estimators import _stable_tail_variance
from tailmoments.samples import second_moments, tail_sample
from tailmoments.weights import rank_variance_form

I12 = tm.IndexSet([1, 2])

X4 = np.array([[10.0, 10.0], [12.0, 6.0], [0.5, 0.2], [0.1, 0.3]])
XR = np.array([[4.0, 1.0], [3.0, 2.0], [2.0, 3.0], [1.0, 4.0]])
FULL_DEP = np.column_stack([np.arange(100.0, 0.0, -1.0)] * 2)


def _form(matrix):
    return tm.QuadraticForm(I12, np.asarray(matrix, dtype=float))


# ---------------------------------------------------------------- matrices

def test_second_moment_matrix_known_example():
    q = tm.second_moment_matrix_known(X4, 5.0, I12)
    assert q.matrix.tolist() == [[1.0, 0.75], [0.75, 0.625]]


def test_second_moment_matrix_full_dependence_is_all_ones():
    full = np.column_stack([np.array([4.0, 3.0, 2.0, 1.0])] * 2)
    q = tm.second_moment_matrix_known(full, 2.5, I12)
    assert q.matrix.tolist() == [[1.0, 1.0], [1.0, 1.0]]


def test_second_moment_matrix_alternating_extremes_is_diagonal():
    alt = np.array([[9.0, 0.0], [0.0, 7.0], [5.0, 0.0], [0.0, 3.0]])
    q = tm.second_moment_matrix_known(alt, 2.0, I12)
    assert q.matrix.tolist() == [[0.5, 0.0], [0.0, 0.5]]


def test_second_moment_matrix_ranks_example():
    sample = tm.RankSample(XR, 2, I12, inv_alpha_hat=1.0)
    assert second_moments(sample).tolist() == [[0.53125, 0.25], [0.25, 0.53125]]


def test_second_moment_matrix_reproduces_squared_ratio():
    """v' V v equals the p = 2 moment ratio for any weights on the set."""
    rng = np.random.default_rng(12)
    x = rng.pareto(1.0, size=(400, 2)) + 1.0
    u = float(np.quantile(tm.partial_max(x, I12), 0.9))
    q = tm.second_moment_matrix_known(x, u, I12)
    for _ in range(20):
        v = tm.make_weight_vector(rng.dirichlet([1.0, 1.0]), I12)
        direct = tm.moment_ratio_known(x, u, v, p=2).estimate
        assert q.evaluate(v) == pytest.approx(direct, abs=1e-12)


# ---------------------------------------------------------------- simplex QP

def test_minimize_identity_form():
    w, val = tm.minimize_quadratic_on_simplex(_form(np.eye(2)))
    assert w.weights.tolist() == [0.5, 0.5]
    assert val == 0.5


def test_minimize_diagonal_form():
    w, val = tm.minimize_quadratic_on_simplex(_form(np.diag([1.0, 3.0])))
    assert w.weights.tolist() == [0.75, 0.25]
    assert val == 0.75


def test_minimize_concave_direction_picks_a_vertex():
    w, val = tm.minimize_quadratic_on_simplex(_form([[1.0, 2.0], [2.0, 1.0]]))
    assert w.weights.tolist() == [1.0, 0.0]
    assert val == 1.0


def test_minimize_rank_one_form_is_exactly_symmetric():
    """An exchangeable matrix must give bit-exact even weights (no solver noise)."""
    w, val = tm.minimize_quadratic_on_simplex(_form(np.ones((2, 2))))
    assert w.weights.tolist() == [0.5, 0.5]
    assert val == 1.0


def test_minimize_beats_vertices_and_random_points():
    rng = np.random.default_rng(13)
    for m in (2, 3, 5):
        for _ in range(20):
            b = rng.normal(size=(m, m))
            a = b @ b.T + 1e-3 * np.eye(m)
            s = tm.IndexSet(range(1, m + 1))
            w, val = tm.minimize_quadratic_on_simplex(tm.QuadraticForm(s, a))
            assert abs(float(w.weights.sum()) - 1.0) < 1e-12
            probes = [np.eye(m)[i] for i in range(m)]
            probes += list(rng.dirichlet(np.ones(m), size=200))
            for x in probes:
                assert val <= float(x @ a @ x) + 1e-10


def test_minimize_large_dimension_uses_descent():
    m = 25
    a = np.diag(np.linspace(1.0, 5.0, m))
    s = tm.IndexSet(range(1, m + 1))
    w, val = tm.minimize_quadratic_on_simplex(tm.QuadraticForm(s, a))
    vertices = min(a[i, i] for i in range(m))
    barycenter = float(np.full(m, 1.0 / m) @ a @ np.full(m, 1.0 / m))
    assert val <= min(vertices, barycenter)
    # the exact minimizer weights coordinates by reciprocal curvature
    exact = (1.0 / np.diag(a)) / (1.0 / np.diag(a)).sum()
    assert val <= float(exact @ a @ exact) * 1.001


def test_optimal_weights_known_agrees_with_direct_minimization():
    rng = np.random.default_rng(14)
    x = rng.pareto(1.0, size=(500, 2)) + 1.0
    u = float(np.quantile(tm.partial_max(x, I12), 0.92))
    report = tm.tau_moment_known(x, u, I12)
    q = tm.second_moment_matrix_known(x, u, I12)
    w2, val2 = tm.minimize_quadratic_on_simplex(q)
    assert report.parameters["weights"].tolist() == w2.weights.tolist()
    assert report.parameters["objective"] == val2


def test_tau_moment_known_on_a_defective_sample():
    """With two exceedances the quadratic form is singular and a vertex wins."""
    rep = tm.tau_moment_known(X4, 5.0, I12)
    assert rep.estimate == 0.75
    assert rep.method == "mk"
    assert rep.exceedance_count == 2
    assert list(rep.parameters["weights"]) == [0.0, 1.0]
    assert rep.parameters["objective"] == 0.625
    assert rep.std_error == pytest.approx(0.1767766952966369)


# ------------------------------------------------------- difference quotients

def test_scale_derivatives_full_dependence_closed_form():
    eps = 0.05
    c_matrix, _ = tm.RankSample(FULL_DEP, 10, I12, inv_alpha_hat=1.0).derivatives(eps)
    own, other = c_matrix[:, 0]  # the two scale derivatives at basis weights e1
    assert own == pytest.approx(0.5, abs=1e-12)
    assert other == pytest.approx(-1.0 / (2.0 * (1.0 + eps)), abs=1e-12)


def test_power_derivatives_full_dependence_vanish():
    _, b = tm.RankSample(FULL_DEP, 10, I12, inv_alpha_hat=1.0).derivatives(0.05)
    assert b @ np.array([0.5, 0.5]) == 0.0


def test_rank_variance_form_full_dependence_identity():
    eps = 0.05
    q = rank_variance_form(FULL_DEP, 10, I12, eps=eps, inv_alpha_hat=1.0)
    gamma2 = (eps / (2.0 * (1.0 + eps))) ** 2
    np.testing.assert_allclose(q.matrix, np.full((2, 2), gamma2), atol=1e-15)
    assert np.array_equal(q.matrix, q.matrix.T)


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.2, 5.0])
def test_rank_variance_form_eps_band(eps):
    with pytest.raises(tm.EpsOutOfRange):
        rank_variance_form(FULL_DEP, 10, I12, eps=eps)


def test_the_default_step_at_k_equal_to_n_is_named_as_the_default():
    n = FULL_DEP.shape[0]
    with pytest.raises(tm.EpsOutOfRange, match=r"default difference-quotient step k/n = 1.0 "
                                               r".* pass eps or take k < n"):
        tm.tau_moment_ranks(FULL_DEP, n, I12)
    with pytest.raises(tm.EpsOutOfRange, match=r"difference-quotient step must lie in \(0, 1\), "
                                               r"got 1.0"):
        tm.tau_moment_ranks(FULL_DEP, n, I12, eps=1.0)
    assert tm.tau_moment_ranks(FULL_DEP, n, I12, eps=0.5).parameters["eps"] == 0.5


def test_rank_variance_form_converges_to_the_population_matrix():
    model = tm.make_scenario(0.1, 0.2)
    x = tm.simulate(model, 20000, seed=31)
    q = rank_variance_form(x, 1000, I12, eps=0.05)
    target = tm.rank_variance_matrix(tm.model_spectral_measure(model), I12).matrix
    np.testing.assert_allclose(q.matrix, target, atol=0.02)


def test_tau_moment_ranks_full_dependence():
    rep = tm.tau_moment_ranks(FULL_DEP, 10, I12, eps=0.05, inv_alpha_hat=1.0)
    assert rep.estimate == 1.0
    assert list(rep.parameters["weights"]) == [0.5, 0.5]


def test_tau_moment_ranks_rejects_a_non_integral_k():
    x = np.random.default_rng(3).pareto(1.0, size=(1000, 2)) + 1.0
    for data in (x, tm.RankSample(x, 50, I12)):
        with pytest.raises(ValueError, match="k must be an integer, got 50.9"):
            tm.tau_moment_ranks(data, 50.9, I12)
    report = tm.tau_moment_ranks(x, 50.0, I12)
    assert report.to_dict() == tm.tau_moment_ranks(x, 50, I12).to_dict()
    assert report.parameters["eps"] == 50 / 1000


def test_tau_moment_ranks_is_consistent():
    model = tm.make_scenario(0.4, 0.6)  # extremal coefficient 4 / (2 + p + q)
    x = tm.simulate(model, 20000, seed=32)
    rep = tm.tau_moment_ranks(x, 1000, I12)
    assert rep.inverse_estimate == pytest.approx(4.0 / 3.0, rel=0.05)


# ------------------------------------------------------------ plug-in variance

def test_stable_tail_std_error_clamps_the_plug_in():
    """The raw plug-in may dip below zero at small k; the reported standard
    error is then clamped to zero."""
    x = tm.simulate(tm.make_scenario(0.89, 0.94), 500, seed=0)
    raw = _stable_tail_variance(tail_sample(tm.RankSample, x, 25, I12), 0.05)
    assert np.isfinite(raw) and raw < 0.0
    rep = tm.stable_tail_estimate(x, 25, I12, eps=0.05)
    assert rep.std_error == 0.0


def test_mu_reports_the_condition_number_of_its_variance_form():
    x = tm.simulate(tm.make_scenario(0.4, 0.6), 2000, seed=5).values
    report = tm.tau_moment_ranks(x, 100, I12, eps=0.05)
    form = rank_variance_form(x, 100, I12, eps=0.05)
    assert report.parameters["condition_number"] == np.linalg.cond(form.matrix)


def test_stable_tail_variance_is_consistent():
    """Averaged over independent samples the plug-in approaches sigma^2;
    single draws scatter widely because the gradient enters squared."""
    model = tm.make_scenario(0.1, 0.2)
    av = tm.asymptotic_variances(tm.model_spectral_measure(model), I12)
    sigma2 = av.avar_bu * av.tau**4
    # the reported standard error is sqrt(sigma2_hat / k) while sigma2_hat > 0
    draws = [
        5000 * tm.stable_tail_estimate(tm.simulate(model, 200000, seed=s), 5000, I12,
                                       eps=0.05).std_error ** 2
        for s in (33, 34, 35, 36)
    ]
    assert float(np.mean(draws)) == pytest.approx(sigma2, rel=0.45)
