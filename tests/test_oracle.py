import math
from functools import cached_property

import numpy as np
import pytest

import tailmoments as tm
from tailmoments import oracle
from tailmoments.oracle import (
    asymptotic_variances,
    extremal_coefficient,
    optimal_weights,
    perturbed_moment,
    rank_variance_matrix,
    ratio_covariance,
)

import _exact_reference as exact

I12 = tm.IndexSet([1, 2])

SCENARIOS = [(0.1, 0.2), (0.4, 0.6), (0.8, 0.9)]
RANDOM_PQS = [(0.05, 0.35), (0.25, 0.25), (0.3, 0.95), (0.55, 0.6), (0.7, 0.15), (1.0, 1.0), (0.0, 0.0)]


def scenario(p, q):
    return tm.model_spectral_measure(tm.make_scenario(p, q))


def rationalized(measure):
    return exact.rationalize(measure.atoms, measure.probs)


# ------------------------------------------------------------------ measures

def test_measure_validates_probabilities_and_normalization():
    with pytest.raises(ValueError):
        tm.DiscreteSpectralMeasure(np.array([[1.0, 0.5]]), np.array([0.5]))
    with pytest.raises(ValueError):
        tm.DiscreteSpectralMeasure(np.array([[0.5, 0.9]]), np.array([1.0]))
    with pytest.raises(ValueError, match="sup-norm 1"):
        tm.DiscreteSpectralMeasure(np.array([[1.0, 0.5], [0.0, 0.0]]), np.array([0.5, 0.5]))


def test_merged_sums_the_atoms_that_coincide_within_1e_12():
    m = tm.DiscreteSpectralMeasure(
        np.array([[1.0, 0.5], [1.0, 0.5 + 1e-13], [1.0, 0.5 + 1e-9], [0.5, 1.0]]),
        np.array([0.25, 0.25, 0.125, 0.375]))
    merged = m.merged()
    assert merged.atoms.tolist() == [[0.5, 1.0], [1.0, 0.5], [1.0, 0.5 + 1e-9]]
    assert merged.probs.tolist() == [0.375, 0.5, 0.125]


def test_measure_json_holds_only_atoms_and_probs():
    m = scenario(0.4, 0.6)
    again = tm.DiscreteSpectralMeasure.from_dict(m.to_dict())
    assert sorted(m.to_dict()) == ["atoms", "probs"]
    assert np.array_equal(again.atoms, m.atoms) and np.array_equal(again.probs, m.probs)
    with pytest.raises(ValueError, match="normalized_on"):
        tm.DiscreteSpectralMeasure.from_dict({**m.to_dict(), "normalized_on": [1]})
    with pytest.raises(ValueError, match="^a measure must be an object, got list$"):
        tm.DiscreteSpectralMeasure.from_dict([1])
    with pytest.raises(ValueError, match=r"^missing measure fields: \['probs'\]$"):
        tm.DiscreteSpectralMeasure.from_dict({"atoms": [[1, 1]]})


def test_renormalized_measure_example():
    m = tm.DiscreteSpectralMeasure(np.array([[1.0, 0.5], [0.25, 1.0]]), np.array([0.5, 0.5]))
    view = oracle.Population(m, tm.IndexSet([1]))
    assert view.theta.tolist() == [[1.0], [1.0]]
    assert view.probs.tolist() == [0.8, 0.2]


def test_renormalized_measure_drops_null_directions():
    m = tm.DiscreteSpectralMeasure(
        np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([0.25, 0.5, 0.25])
    )
    view = oracle.Population(m, tm.IndexSet([1]))
    assert len(view.probs) == 2  # the pure second-coordinate atom cannot appear
    assert np.all(view.theta[:, 0] == 1.0)
    assert view.probs.tolist() == [0.5, 0.5]


def test_mean_intensity_of_scenario_measures_is_flat():
    for p, q in SCENARIOS:
        m = scenario(p, q)
        r = m.atoms.T @ m.probs
        assert r[0] == pytest.approx(r[1], abs=1e-15)
        assert oracle.Population(m, I12).mean == float(r.mean())


def test_extremal_coefficient_scenario_value():
    tau = extremal_coefficient(scenario(0.1, 0.2), I12)
    assert tau == pytest.approx(40.0 / 23.0, rel=1e-15)
    assert f"{tau:.7f}" == "1.7391304"


@pytest.mark.parametrize("p,q", SCENARIOS + RANDOM_PQS)
def test_extremal_coefficient_matches_exact_enumeration(p, q):
    atoms, probs = rationalized(scenario(p, q))
    want = exact.extremal_coefficient(atoms, probs, (1, 2))
    got = extremal_coefficient(scenario(p, q), I12)
    assert got == pytest.approx(float(want), rel=1e-14)


def test_extremal_coefficient_bounds():
    for p, q in SCENARIOS + RANDOM_PQS:
        tau = extremal_coefficient(scenario(p, q), I12)
        assert 1.0 - 1e-15 <= tau <= 2.0 + 1e-15


# ------------------------------------------------------------------- moments

@pytest.mark.parametrize("p,q", SCENARIOS)
def test_first_moment_is_flat_across_directions(p, q):
    """E[v' Theta^I] = 1 / tau_I for every simplex direction."""
    m = scenario(p, q)
    tau = extremal_coefficient(m, I12)
    rng = np.random.default_rng(17)
    for _ in range(10):
        v = rng.dirichlet([1.0, 1.0])
        assert perturbed_moment(m, I12, v, p=1) == pytest.approx(1.0 / tau, rel=1e-14)


def test_second_moment_example():
    m = scenario(0.1, 0.2)
    assert perturbed_moment(m, I12, [0.5, 0.5], p=2) == pytest.approx(0.33125, rel=1e-15)


@pytest.mark.parametrize("p,q", SCENARIOS + RANDOM_PQS)
def test_moments_match_exact_enumeration(p, q):
    m = scenario(p, q)
    atoms, probs = rationalized(m)
    for v in ([0.5, 0.5], [1.0, 0.0], [0.3, 0.7]):
        for power in (1, 2, 3):
            want = exact.moment(atoms, probs, (1, 2), v, power)
            assert perturbed_moment(m, I12, v, p=power) == pytest.approx(float(want), rel=1e-13)


@pytest.mark.parametrize("p,q", SCENARIOS + RANDOM_PQS)
def test_second_moment_matrix_matches_exact_enumeration(p, q):
    m = scenario(p, q)
    atoms, probs = rationalized(m)
    want = np.array(exact.second_moment_matrix(atoms, probs, (1, 2)), dtype=float)
    np.testing.assert_allclose(tm.Population(m, I12).second, want, rtol=1e-13)


def test_pair_product_moment_identity():
    """E[Theta_1 Theta_2] = 2 / tau_12 - 1: on the pair, one renormalized coordinate is one."""
    for p, q in SCENARIOS + RANDOM_PQS:
        view = tm.Population(scenario(p, q), I12)
        product = float(view.probs @ (view.theta[:, 0] * view.theta[:, 1]))
        assert view.second[0, 1] == pytest.approx(product, rel=1e-13, abs=1e-15)
        assert view.second[0, 1] == pytest.approx(2.0 / view.tau - 1.0, abs=1e-9)


def test_negative_entropy_vector_scenario_value():
    b = tm.Population(scenario(0.1, 0.2), I12).entropy
    assert b[0] == pytest.approx(math.log(250.0) / 40.0, rel=1e-13)
    assert b[0] == b[1]


# ------------------------------------------------------------ perturbations

def test_perturbed_moment_independent_coordinates():
    ind = tm.DiscreteSpectralMeasure(np.eye(2), np.array([0.5, 0.5]))
    got = perturbed_moment(ind, I12, [1.0, 0.0], [2.0, 3.0])
    assert got == pytest.approx(2.0 / 5.0, rel=1e-15)


@pytest.mark.parametrize("p,q", SCENARIOS)
def test_perturbed_moment_matches_exact_enumeration(p, q):
    m = scenario(p, q)
    atoms, probs = rationalized(m)
    rng = np.random.default_rng(23)
    for _ in range(5):
        v = rng.dirichlet([1.0, 1.0])
        s = rng.uniform(0.5, 2.0, size=2)
        for beta in (1.0, 0.8, 1.25):
            want = exact.perturbed_moment(atoms, probs, (1, 2), v, s, beta)
            got = perturbed_moment(m, I12, v, s, beta)
            assert got == pytest.approx(float(want), rel=1e-12)


def test_perturbed_moment_at_identity_reduces_to_plain_moment():
    """Unit scales renormalize the view's atoms again; s=None reads them as they are."""
    m = scenario(0.4, 0.6)
    view = oracle.Population(m, I12)
    for power in (1, 2):
        plain = perturbed_moment(m, I12, [0.3, 0.7], p=power)
        assert plain == float(view.probs @ (view.theta @ [0.3, 0.7]) ** power)
        assert perturbed_moment(m, I12, [0.3, 0.7], [1.0, 1.0], 1.0, power) == pytest.approx(
            plain, rel=1e-15
        )
    # without scales the power still applies, to the atoms as they are
    assert perturbed_moment(m, I12, [0.3, 0.7], beta=2.0) == float(
        view.probs @ (np.power(view.theta, 0.5) @ [0.3, 0.7]))


def test_perturbed_moment_takes_the_power_of_a_perturbation():
    # a Perturbation's scales and power are passed as a vector and a number
    m = scenario(0.4, 0.6)
    perturbation = tm.Perturbation([1.1, 0.9], 2.0, I12)
    value = perturbed_moment(m, I12, [0.5, 0.5], perturbation.s, perturbation.beta)
    assert value == perturbed_moment(m, I12, [0.5, 0.5], [1.1, 0.9], beta=2.0)
    assert value != perturbed_moment(m, I12, [0.5, 0.5], [1.1, 0.9])
    atoms, probs = rationalized(m)
    want = exact.perturbed_moment(atoms, probs, (1, 2), [0.5, 0.5], [1.1, 0.9], 2)
    assert value == pytest.approx(float(want), rel=1e-12)


def test_perturbed_moment_tells_an_explicit_unit_beta_from_the_default():
    # beta defaults to 1.0, and an explicit 1.0 is the same call
    m = scenario(0.4, 0.6)
    assert perturbed_moment(m, I12, [0.5, 0.5], [1.1, 0.9]) == \
        perturbed_moment(m, I12, [0.5, 0.5], [1.1, 0.9], beta=1.0)


@pytest.mark.parametrize("beta", [np.nan, np.inf])
def test_perturbed_moment_rejects_a_non_finite_beta(beta):
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        perturbed_moment(scenario(0.4, 0.6), I12, [0.5, 0.5], [1.0, 1.0], beta=beta)


def test_perturbed_moment_with_zero_scales_is_degenerate():
    with pytest.raises(ValueError, match="no atom has a positive partial max on the index set"):
        perturbed_moment(scenario(0.4, 0.6), I12, [0.5, 0.5], [0.0, 0.0])


# -------------------------------------------------------------- derivatives

def test_moment_derivatives_independent_coordinates():
    view = tm.Population(tm.DiscreteSpectralMeasure(np.eye(2), np.array([0.5, 0.5])), I12)
    even = view.gradients[0]
    assert view.differentiable
    assert view.c([1.0, 0.0], even).tolist() == [0.25, -0.25]
    assert even.tolist() == [0.5, 0.5]


def test_moment_derivatives_scenario_center():
    view = tm.Population(scenario(0.1, 0.2), I12)
    v = np.array([0.5, 0.5])
    assert view.c(v, view.gradients[0]).tolist() == [0.0, 0.0]
    assert v @ view.entropy == pytest.approx(math.log(250.0) / 40.0, rel=1e-13)


def test_moment_derivatives_full_dependence_is_one_sided():
    view = tm.Population(tm.DiscreteSpectralMeasure(np.array([[1.0, 1.0]]), np.array([1.0])), I12)
    even, left, right = view.gradients
    assert not view.differentiable
    assert view.c([1.0, 0.0], left).tolist() == [1.0, 0.0]
    assert view.c([1.0, 0.0], right).tolist() == [0.0, -1.0]
    assert view.c([1.0, 0.0], even).tolist() == [0.5, -0.5]  # even split of the one-sided limits
    assert left.tolist() == [0.0, 0.0]
    assert right.tolist() == [1.0, 1.0]
    assert even.tolist() == [0.5, 0.5]


def test_scale_derivatives_sum_to_zero():
    """Scaling all coordinates together leaves the ratio invariant (Euler)."""
    rng = np.random.default_rng(29)
    for p, q in SCENARIOS:
        view = tm.Population(scenario(p, q), I12)
        for _ in range(5):
            v = rng.dirichlet([1.0, 1.0])
            assert float(view.c(v, view.gradients[0]).sum()) == pytest.approx(0.0, abs=1e-13)


def test_derivatives_match_central_differences():
    rng = np.random.default_rng(31)
    for p, q in SCENARIOS:
        m = scenario(p, q)
        v = rng.dirichlet([1.0, 1.0])
        view = tm.Population(m, I12)
        c, c_beta = view.c(v, view.gradients[0]), v @ view.entropy
        for i in range(2):
            h = 1e-6
            s_up = np.ones(2)
            s_up[i] += h
            s_dn = np.ones(2)
            s_dn[i] -= h
            quot = (perturbed_moment(m, I12, v, s_up) - perturbed_moment(m, I12, v, s_dn)) / (2 * h)
            assert quot == pytest.approx(c[i], abs=1e-6)
        quot_b = (perturbed_moment(m, I12, v, [1.0, 1.0], 1.0 + 1e-6)
                  - perturbed_moment(m, I12, v, [1.0, 1.0], 1.0 - 1e-6)) / (2e-6)
        assert quot_b == pytest.approx(c_beta, abs=1e-6)


# ------------------------------------------------------- optimal weights, QP

def test_optimal_weights_scenario_examples():
    w, val = optimal_weights(scenario(0.1, 0.2), I12)
    assert w.weights.tolist() == [0.5, 0.5]
    assert val == 0.33125
    full = tm.DiscreteSpectralMeasure(np.array([[1.0, 1.0]]), np.array([1.0]))
    wf, vf = optimal_weights(full, I12)
    assert wf.weights.tolist() == [0.5, 0.5]
    assert vf == 1.0
    ind = tm.DiscreteSpectralMeasure(np.eye(2), np.array([0.5, 0.5]))
    wi, vi = optimal_weights(ind, I12)
    assert wi.weights.tolist() == [0.5, 0.5]
    assert vi == 0.25


# ---------------------------------------------------- asymptotic variances

FROZEN_AVARS = {
    (0.1, 0.2): (0.140515625, 0.000359375, 0.018328125, 0.011315471958625724),
    (0.4, 0.6): (0.140625, 0.001875, 0.046875, 0.02310678299674587),
    (0.8, 0.9): (0.064171875, 0.000578125, 0.029484375, 0.004897549847253746),
}


@pytest.mark.parametrize("p,q", SCENARIOS)
def test_asymptotic_variances_frozen_values(p, q):
    av = asymptotic_variances(scenario(p, q), I12)
    bk, mk, bu, mu = FROZEN_AVARS[(p, q)]
    assert av.avar_bk == pytest.approx(bk, rel=1e-12)
    assert av.avar_mk == pytest.approx(mk, rel=1e-9)
    assert av.avar_bu == pytest.approx(bu, rel=1e-12)
    assert av.avar_mu == pytest.approx(mu, rel=1e-12)
    assert av.v_star.weights.tolist() == [0.5, 0.5]
    assert av.v_tilde.weights.tolist() == [0.5, 0.5]


@pytest.mark.parametrize("p,q", SCENARIOS + RANDOM_PQS)
def test_asymptotic_variances_match_exact_enumeration(p, q):
    m = scenario(p, q)
    atoms, probs = rationalized(m)
    av = asymptotic_variances(m, I12)
    assert av.avar_bk == pytest.approx(float(exact.variance_benchmark_known(atoms, probs, (1, 2))), abs=1e-13)
    assert av.avar_mk == pytest.approx(float(exact.variance_moment_known(atoms, probs, (1, 2))), abs=1e-13)
    assert av.avar_bu == pytest.approx(float(exact.variance_benchmark_ranks(atoms, probs, (1, 2))), abs=1e-13)
    assert exact.is_exchangeable(atoms, probs)
    assert av.avar_mu == pytest.approx(
        exact.variance_moment_ranks_exchangeable(atoms, probs, (1, 2)), abs=1e-12
    )


@pytest.mark.parametrize("p,q", SCENARIOS + RANDOM_PQS)
def test_variance_ordering(p, q):
    av = asymptotic_variances(scenario(p, q), I12)
    assert av.avar_mk <= av.avar_mu + 1e-12
    assert av.avar_mu <= av.avar_bu + 1e-12
    assert av.avar_bu <= av.avar_bk + 1e-12


def test_degenerate_scenarios():
    full = asymptotic_variances(scenario(1.0, 1.0), I12)
    assert (full.avar_bk, full.avar_mk, full.avar_bu, full.avar_mu) == (0.0, 0.0, 0.0, 0.0)
    ind = asymptotic_variances(scenario(0.0, 0.0), I12)
    assert ind.avar_bk == 0.125
    assert ind.avar_mk == 0.0
    assert ind.avar_mu == 0.0
    assert ind.avar_bu == pytest.approx(0.0, abs=1e-15)


def test_one_call_renormalizes_the_measure_once(monkeypatch):
    calls = []
    original = oracle._renormalized

    def counting(columns, probs):
        calls.append(columns.shape[1])
        return original(columns, probs)

    monkeypatch.setattr(oracle, "_renormalized", counting)
    asymptotic_variances(scenario(0.4, 0.6), I12)
    assert calls == [2]
    calls.clear()
    rank_variance_matrix(scenario(0.4, 0.6), I12)
    assert calls == [2]


def test_pair_coefficients_reuse_the_checked_mean(monkeypatch):
    rng = np.random.default_rng(8)
    coeffs = rng.uniform(size=(4, 6)) ** 2
    model = tm.MaxLinearModel(coeffs / coeffs.sum(axis=1, keepdims=True))
    measure = tm.model_spectral_measure(model)
    index_set = tm.IndexSet([1, 2, 3, 4])
    calls = []
    original = oracle.Population.mean.func

    def counting(view):
        calls.append(view)
        return original(view)

    checked = cached_property(counting)
    checked.__set_name__(oracle.Population, "mean")
    monkeypatch.setattr(oracle.Population, "mean", checked)
    view = oracle.Population(measure, index_set)
    rank_variance_matrix(view, index_set)
    assert calls == [view]
    for a, b in [(0, 1), (0, 3), (2, 3)]:
        pair = tm.IndexSet((a + 1, b + 1))
        assert view.pair_taus[a, b] == oracle.Population(measure, pair).tau


I1 = tm.IndexSet([1])


READS_OFF_SET = pytest.mark.parametrize("call", [
    lambda m, v: tm.QuadraticForm(I1, [[2.0]]).evaluate(v),
    lambda m, v: perturbed_moment(m, I1, v),  # the plain spectral moment: no scales
    lambda m, v: perturbed_moment(m, I1, v, [1.0]),
    lambda m, v: tm.Population(m, I1).c(v, np.zeros(1)),
    lambda m, v: rank_variance_matrix(m, I1).evaluate(v),
    lambda m, v: ratio_covariance(m, I1, v, v),
], ids=["evaluate", "spectral_moment", "perturbed_moment", "c",
        "rank_asymptotic_variance", "ratio_covariance"])


@READS_OFF_SET
def test_weights_outside_the_index_set_are_rejected(call):
    # weights that would be dropped off the set no longer sum to one on it
    with pytest.raises(tm.SupportViolation):
        call(scenario(0.4, 0.6), tm.uniform_weights(I12, 2))


@READS_OFF_SET
def test_plain_vectors_outside_the_index_set_are_rejected(call):
    # a length-d vector is read like a WeightVector: nothing off the set is dropped
    with pytest.raises(tm.SupportViolation):
        call(scenario(0.4, 0.6), [0.5, 0.5])
    call(scenario(0.4, 0.6), [0.5, 0.0])  # zero off the set is read on it


def test_plain_scales_outside_the_index_set_are_rejected():
    # as a Perturbation requires: scales off the set are not dropped either
    m = scenario(0.4, 0.6)
    with pytest.raises(tm.SupportViolation):
        perturbed_moment(m, I1, [1.0], [1.0, 1.0])
    assert perturbed_moment(m, I1, [1.0], [1.0, 0.0]) == perturbed_moment(m, I1, [1.0], [1.0])


def test_population_is_read_as_given_and_its_arrays_are_read_only():
    m = scenario(0.4, 0.6)
    view = oracle.population(m, I12)
    assert oracle.population(view, I12) is view
    other = oracle.population(view, tm.IndexSet([1]))
    assert other is not view and other.measure is m
    for array in (view.theta, view.second, view.entropy, *view.gradients):
        assert not array.flags.writeable


def test_asymptotic_variances_reject_unstandardized_measures():
    lopsided = tm.DiscreteSpectralMeasure(np.array([[1.0, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError, match="margins are not tail-equivalent"):
        asymptotic_variances(lopsided, I12)
    # on a set without mass, functions needing tau still report the standardization first
    second = tm.IndexSet([2])
    for call in (lambda: asymptotic_variances(lopsided, second),
                 lambda: rank_variance_matrix(lopsided, second),
                 lambda: ratio_covariance(lopsided, second, [1.0], [1.0])):
        with pytest.raises(ValueError, match="margins are not tail-equivalent"):
            call()
    with pytest.raises(ValueError, match="no atom has a positive partial max"):
        tm.Population(lopsided, second).second


# ------------------------------------------------------ rank variance matrix

def test_rank_variance_matrix_scenario_center():
    m = scenario(0.1, 0.2)
    q = rank_variance_matrix(m, I12)
    v = np.array([0.5, 0.5])
    assert float(v @ q.matrix @ v) == pytest.approx(0.011315471958625724, rel=1e-14)
    assert q.evaluate(v) == pytest.approx(0.011315471958625724, rel=1e-14)
    np.testing.assert_allclose(q.matrix, q.matrix.T, atol=0.0)


@pytest.mark.parametrize("p,q", SCENARIOS)
def test_rank_variance_matrix_minimum_is_avar_mu(p, q):
    m = scenario(p, q)
    form = rank_variance_matrix(m, I12)
    w, val = tm.minimize_quadratic_on_simplex(form)
    av = asymptotic_variances(m, I12)
    assert val == pytest.approx(av.avar_mu, rel=1e-12)
    assert w.weights.tolist() == av.v_tilde.weights.tolist()


def test_rank_variance_is_nonnegative_on_the_simplex():
    rng = np.random.default_rng(37)
    for p, q in SCENARIOS + RANDOM_PQS[:4]:
        form = rank_variance_matrix(scenario(p, q), I12)
        for _ in range(10):
            v = rng.dirichlet([1.0, 1.0])
            assert form.evaluate(v) >= -1e-13


# --------------------------------------------------------- ratio covariance

def test_ratio_covariance_examples():
    m = scenario(0.1, 0.2)
    assert ratio_covariance(m, I12, [1.0, 0.0], [1.0, 0.0]) == pytest.approx(0.104578125, rel=1e-13)
    v_star = [0.5, 0.5]
    assert ratio_covariance(m, I12, v_star, v_star) == pytest.approx(0.000359375, rel=1e-12)


@pytest.mark.parametrize("p,q", SCENARIOS)
def test_ratio_covariance_matches_moment_form(p, q):
    """Cov of two first-order ratios: (E[(v'T)(w'T)] - R(v) R(w)) / tau."""
    m = scenario(p, q)
    atoms, probs = rationalized(m)
    tau = exact.extremal_coefficient(atoms, probs, (1, 2))
    rng = np.random.default_rng(41)
    for _ in range(5):
        v = rng.dirichlet([1.0, 1.0])
        w = rng.dirichlet([1.0, 1.0])
        ca, cp = exact.conditioned(atoms, probs, (1, 2))
        cross = sum(
            pr * sum(exact._rat(a) * t for a, t in zip(v, at)) * sum(exact._rat(b) * t for b, t in zip(w, at))
            for at, pr in zip(ca, cp)
        )
        want = (cross - exact.moment(atoms, probs, (1, 2), v) * exact.moment(atoms, probs, (1, 2), w)) / tau
        assert ratio_covariance(m, I12, v, w) == pytest.approx(float(want), rel=1e-12)
