import numpy as np
import pytest

import tailmoments as tm
from tailmoments import samples, weights
from tailmoments.harness import TABLE_SCENARIOS, _single_rep

I12 = tm.IndexSet([1, 2])


def _pareto(seed, n=600, d=3):
    rng = np.random.default_rng(seed)
    return rng.pareto(1.5, size=(n, d)) + 1.0


# ------------------------------------------------ harness fast path

@pytest.mark.parametrize("p, q", TABLE_SCENARIOS)
def test_single_rep_matches_the_plain_public_calls(p, q):
    model = tm.make_scenario(p, q)
    n, k, eps = 1000, 50, 0.05
    u = -1.0 / np.log(0.95)
    for rep_seed in range(30):
        fast = _single_rep(rep_seed, model.coeffs, n, k, u, eps, tm.ESTIMATOR_NAMES)
        x = np.array(tm.simulate(model, n, rep_seed).values)
        plain = {
            "BK": tm.benchmark_ratio_known(x, u, tm.uniform_weights(I12, 2)).estimate,
            "MK": tm.tau_moment_known(x, u, I12).estimate,
            "BU": 1.0 / tm.stable_tail_estimate(x, k, I12).estimate,
            "MU": tm.tau_moment_ranks(x, k, I12, eps=eps).estimate,
        }
        for name, value in plain.items():
            assert abs(fast[name] - value) <= 1e-12, (rep_seed, name)


def test_one_replication_computes_the_anchors_once(monkeypatch):
    calls = []
    original = samples.upper_order_statistics

    def counting(x, k):
        calls.append(k)
        return original(x, k)

    monkeypatch.setattr(samples, "upper_order_statistics", counting)
    model = tm.make_scenario(0.4, 0.6)
    _single_rep(3, model.coeffs, 1000, 50, -1.0 / np.log(0.95), 0.05, tm.ESTIMATOR_NAMES)
    assert calls == [50]


# ------------------------------------------------ samples read by estimators

def test_estimators_read_a_matching_sample_and_rebuild_a_mismatched_one():
    x = _pareto(1)
    s = tm.IndexSet([1, 3])
    ranks = tm.RankSample(x, 40, s)
    assert tm.moment_ratio_ranks(ranks, 40, tm.uniform_weights(s, 3)).estimate == \
        tm.moment_ratio_ranks(x, 40, tm.uniform_weights(s, 3)).estimate
    # another k and another index set: the sample's data are used afresh
    assert tm.stable_tail_estimate(ranks, 30, s).estimate == \
        tm.stable_tail_estimate(x, 30, s).estimate
    assert tm.hill_inverse_alpha(ranks, 40, I12).estimate == \
        tm.hill_inverse_alpha(x, 40, I12).estimate
    assert samples.rank_sample(ranks, 40, s) is ranks
    np.testing.assert_array_equal(tm.core.matrix_values(ranks), x)

    u = float(np.quantile(tm.partial_max(x, s), 0.9))
    known = tm.KnownSample(x, u, s)
    assert samples.known_sample(known, u, s) is known
    assert tm.exceedance_fraction(known, 2 * u, s) == tm.exceedance_fraction(x, 2 * u, s)
    assert tm.tau_moment_known(known, u, s).estimate == tm.tau_moment_known(x, u, s).estimate


def test_a_sample_with_another_power_is_rebuilt():
    x = _pareto(2)
    ranks = tm.RankSample(x, 30, I12)
    other = samples.rank_sample(ranks, 30, I12, inv_alpha_hat=0.8)
    np.testing.assert_array_equal(other.ratios, ranks.ratios)
    assert other.inv_alpha == 0.8 and other.hill == ranks.hill
    assert samples.rank_sample(other, 30, I12).inv_alpha == ranks.hill
    with pytest.raises(ValueError):
        samples.rank_sample(ranks, 30, I12, inv_alpha_hat=-1.0)


def test_pair_sub_samples_equal_fresh_pair_samples():
    x = _pareto(3, d=4)
    ranks = tm.RankSample(x, 50, tm.IndexSet([1, 2, 4]))
    pair = ranks.pair(1, 2)
    fresh = tm.RankSample(x, 50, tm.IndexSet([2, 4]))
    assert pair.index_set == fresh.index_set
    np.testing.assert_array_equal(pair.ratios, fresh.ratios)
    np.testing.assert_array_equal(pair.angular, fresh.angular)
    assert pair.hill == fresh.hill
    with pytest.raises(AttributeError):
        pair.count = 0
    with pytest.raises(ValueError):
        pair.angular[0, 0] = 2.0


# ------------------------------------------------ differential checks of fast paths

@pytest.mark.parametrize("seed", range(5))
def test_row_restricted_scale_differences_equal_the_unrestricted_ones(seed):
    x = _pareto(seed, n=400)
    for k in (5, 20, 60):
        ranks = tm.RankSample(x, k, tm.IndexSet([1, 2, 3]))
        power = 1.0 / ranks.inv_alpha
        for eps in (k / 400, 0.2, 0.6):
            for pos in range(3):
                bump = np.zeros(3)
                bump[pos] = eps
                plain = (samples._scaled_means(ranks.ratios, 1.0 + bump, power)
                         - samples._scaled_means(ranks.ratios, 1.0 - bump, power))
                assert np.array_equal(ranks.central_difference(eps, pos), plain)


QP_FORMS = {
    "psd": [[2.0, 0.5], [0.5, 1.0]],
    "psd_vertex": [[1.0, 1.5], [1.5, 4.0]],
    "indefinite": [[1.0, 3.0], [3.0, 1.0]],
    "concave": [[-1.0, 0.0], [0.0, -2.0]],
    "singular": [[1.0, 2.0], [2.0, 4.0]],
    "denom_zero_constant": [[1.0, 1.0], [1.0, 1.0]],
    "denom_zero_linear": [[1.0, 2.0], [2.0, 3.0]],
    "zero": [[0.0, 0.0], [0.0, 0.0]],
}


@pytest.mark.parametrize("name", sorted(QP_FORMS))
def test_two_component_qp_matches_full_face_enumeration(name):
    _check_qp_against_enumeration(np.asarray(QP_FORMS[name]))


def test_two_component_qp_matches_full_face_enumeration_on_random_forms():
    rng = np.random.default_rng(9)
    for _ in range(300):
        b = rng.normal(size=(2, 2))
        _check_qp_against_enumeration(b + b.T)
        _check_qp_against_enumeration(b @ b.T)


def _full_face_enumeration(a):
    """The simplex QP with a least-squares stationary point on every face, as at m >= 3."""
    m = a.shape[0]
    candidates = [np.full(m, 1.0 / m)]
    denom = a[0, 0] + a[1, 1] - 2.0 * a[0, 1]
    if denom > 0.0 and 0.0 <= (a[1, 1] - a[0, 1]) / denom <= 1.0:
        w1 = (a[1, 1] - a[0, 1]) / denom
        candidates.append(np.array([w1, 1.0 - w1]))
    candidates += [np.eye(m)[i] for i in range(m)]
    scale = 1.0 + float(np.max(np.abs(a)))
    system = np.array([[2 * a[0, 0], 2 * a[0, 1], -1.0],
                       [2 * a[1, 0], 2 * a[1, 1], -1.0],
                       [1.0, 1.0, 0.0]])
    rhs = np.array([0.0, 0.0, 1.0])
    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    if (np.max(np.abs(system @ solution - rhs)) <= 1e-9 * scale
            and np.min(solution[:2]) >= -1e-12):
        w = np.clip(solution[:2], 0.0, None)
        candidates.append(w / w.sum())
    best_w, best_value, best_norm = None, np.inf, np.inf
    value_tol = 1e-12 * (1.0 + float(np.max(np.abs(a))))
    for w in candidates:
        value, norm = float(w @ a @ w), float(np.linalg.norm(w))
        if value < best_value - value_tol or (value <= best_value + value_tol
                                              and norm < best_norm - 1e-12):
            best_w, best_value, best_norm = w, value, norm
    return best_w, best_value


def _check_qp_against_enumeration(a):
    form = tm.QuadraticForm(I12, a)
    w, value = weights.minimize_quadratic_on_simplex(form)
    w_full, value_full = _full_face_enumeration(form.matrix)
    assert np.array_equal(w.on_support(), w_full)
    assert value == value_full
