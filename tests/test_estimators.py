import numpy as np
import pytest

import tailmoments as tm

I12 = tm.IndexSet([1, 2])

# four observations, two of which exceed u = 5 in the max norm
X4 = np.array([[10.0, 10.0], [12.0, 6.0], [0.5, 0.2], [0.1, 0.3]])
HALF = tm.make_weight_vector([1, 1], I12)


def _moment_mean(sample, v, p=1):
    """M(v, 1, 1, p): the sum of (v' a_l)^p over the sample's exceedances, over n."""
    return float(np.sum((sample.angular @ v.on_support()) ** p)) / sample.n


def test_moment_mean_example():
    assert _moment_mean(tm.KnownSample(X4, 5.0, I12), HALF) == 0.4375


def test_moment_mean_p_zero_counts_exceedances():
    sample = tm.KnownSample(X4, 5.0, I12)
    assert _moment_mean(sample, HALF, p=0) == sample.count / sample.n == 0.5


def test_moment_mean_empty_exceedance_set_is_zero():
    sample = tm.KnownSample(X4, 100.0, I12)
    assert sample.angular.shape == (0, 2)
    assert _moment_mean(sample, HALF) == 0.0


def test_exceedance_fraction_thresholds():
    assert [tm.KnownSample(X4, u, I12).count for u in (5.0, 11.0, 100.0)] == [2, 1, 0]


def test_moment_ratio_known_example():
    rep = tm.moment_ratio_known(X4, 5.0, HALF)
    assert rep.estimate == 0.875
    assert rep.exceedance_count == 2
    assert rep.inverse_estimate == pytest.approx(1.0 / 0.875)
    assert rep.std_error is not None and rep.std_error > 0


def test_moment_ratio_known_raises_without_exceedances():
    with pytest.raises(tm.NoExceedances):
        tm.moment_ratio_known(X4, 100.0, HALF)


@pytest.mark.parametrize("scenario", [(0.1, 0.2), (0.4, 0.6), (0.8, 0.9)])
def test_moment_ratio_known_standard_error_matches_the_monte_carlo_spread(scenario):
    """Over seeded replications the spread of the estimate agrees with the reported SE.

    The sample std of R normal draws has relative standard error about
    1/sqrt(2 (R - 1)), 0.041 at R = 300; the band is four of those.
    """
    n, k, reps = 4000, 100, 300
    u = -1.0 / np.log(1.0 - k / n)
    model = tm.make_scenario(*scenario)
    reports = [tm.moment_ratio_known(tm.simulate(model, n, seed=rep), u, HALF)
               for rep in range(reps)]
    spread = np.std([r.estimate for r in reports], ddof=1)
    ratio = spread / np.mean([r.std_error for r in reports])
    assert abs(ratio - 1.0) <= 4.0 / np.sqrt(2.0 * (reps - 1))


@pytest.mark.parametrize("scenario", [(0.1, 0.2), (0.4, 0.6), (0.8, 0.9)])
def test_benchmark_ratio_standard_error_matches_the_monte_carlo_spread(scenario):
    """The binomial plug-in SE of BK agrees with its spread, in the band of the MK test above."""
    n, k, reps = 4000, 100, 300
    u = -1.0 / np.log(1.0 - k / n)
    model = tm.make_scenario(*scenario)
    reports = [tm.benchmark_ratio_known(tm.simulate(model, n, seed=rep), u, HALF)
               for rep in range(reps)]
    spread = np.std([r.estimate for r in reports], ddof=1)
    ratio = spread / np.mean([r.std_error for r in reports])
    assert abs(ratio - 1.0) <= 4.0 / np.sqrt(2.0 * (reps - 1))


@pytest.mark.parametrize("scenario", [(0.1, 0.2), (0.4, 0.6)])
def test_stable_tail_standard_error_matches_the_monte_carlo_spread(scenario):
    """The reported SE is on the scale of the estimate, the coefficient itself.

    The band is wider than the Monte Carlo error of the ratio (about 0.04 at
    300 reps) because the plug-in variance runs low at this k: the ratio
    reads 1.22 and 1.31 on these seeds.  The SE of 1/tau would read 3.5 and 2.2.
    """
    n, k, reps = 4000, 100, 300
    model = tm.make_scenario(*scenario)
    reports = [tm.stable_tail_estimate(tm.simulate(model, n, seed=rep), k, I12, eps=k / n)
               for rep in range(reps)]
    spread = np.std([r.estimate for r in reports], ddof=1)
    ratio = spread / np.mean([r.std_error for r in reports])
    assert 1.0 / 1.5 <= ratio <= 1.5


def test_moment_ratio_known_rejects_weights_outside_the_perturbation():
    pert = tm.Perturbation([1.0, 0.0], 1.0, tm.IndexSet([1]))
    with pytest.raises(tm.SupportViolation):
        tm.moment_ratio_known(X4, 5.0, HALF, perturbation=pert)


SCENARIO_2 = tm.make_scenario(0.4, 0.6)
WEIGHTS_FOR_D3 = tm.uniform_weights(I12, 3)


@pytest.mark.parametrize("call", [
    # the plain spectral moment: perturbed_moment without scales
    lambda x: tm.perturbed_moment(tm.model_spectral_measure(SCENARIO_2), I12, WEIGHTS_FOR_D3),
    lambda x: tm.moment_ratio_known(x, 5.0, WEIGHTS_FOR_D3),
    lambda x: tm.moment_ratio_ranks(x, 50, WEIGHTS_FOR_D3),
    lambda x: tm.benchmark_ratio_known(x, 5.0, WEIGHTS_FOR_D3),
], ids=["spectral_moment", "moment_ratio_known", "moment_ratio_ranks", "benchmark_ratio_known"])
def test_weights_built_for_another_dimension_are_rejected(call):
    """Length-3 weights on {1, 2} against two columns: each call names both lengths."""
    x = tm.simulate(SCENARIO_2, 500, seed=0)
    with pytest.raises(ValueError, match="length 3, not the dimension 2"):
        call(x)


def test_moment_ratio_is_affine_in_the_weights():
    """For p = 1 the ratio is linear, so convex combinations pass through."""
    rng = np.random.default_rng(3)
    x = rng.pareto(1.0, size=(300, 2)) + 1.0
    u = float(np.quantile(tm.partial_max(x, I12), 0.9))
    for _ in range(25):
        a = rng.dirichlet([1.0, 1.0])
        b = rng.dirichlet([1.0, 1.0])
        lam = rng.uniform()
        va = tm.make_weight_vector(a, I12)
        vb = tm.make_weight_vector(b, I12)
        vc = tm.make_weight_vector(lam * a + (1 - lam) * b, I12)
        mixed = lam * tm.moment_ratio_known(x, u, va).estimate \
            + (1 - lam) * tm.moment_ratio_known(x, u, vb).estimate
        assert tm.moment_ratio_known(x, u, vc).estimate == pytest.approx(mixed, abs=1e-12)


def test_moment_ratio_lies_in_unit_interval():
    rng = np.random.default_rng(4)
    x = rng.pareto(1.0, size=(500, 3)) + 1.0
    s = tm.IndexSet([1, 2, 3])
    u = float(np.quantile(tm.partial_max(x, s), 0.8))
    for _ in range(20):
        v = tm.make_weight_vector(rng.dirichlet([1.0, 1.0, 1.0]), s)
        for p in (1, 2, 3):
            r = tm.moment_ratio_known(x, u, v, p=p).estimate
            assert 0.0 <= r <= 1.0


def test_benchmark_ratio_examples():
    left = tm.benchmark_ratio_known(X4, 5.0, tm.make_weight_vector([1, 0], I12))
    assert left.estimate == 1.0
    assert left.method == "benchmark"
    assert tm.benchmark_ratio_known(X4, 11.0, HALF).estimate == 0.0
    with pytest.raises(tm.NoExceedances):
        tm.benchmark_ratio_known(X4, 100.0, HALF)


def test_moment_ratio_ranks_example():
    x = np.array([[4.0, 1.0], [3.0, 2.0], [2.0, 3.0], [1.0, 4.0]])
    rep = tm.moment_ratio_ranks(x, 2, HALF, inv_alpha_hat=1.0)
    assert rep.estimate == 0.625
    assert rep.exceedance_count == 2


def test_moment_ratio_ranks_exceedance_set_only_sees_column_order():
    rng = np.random.default_rng(5)
    x = rng.pareto(1.0, size=(200, 2)) + 1.0
    monotone = np.column_stack([np.exp(x[:, 0]), x[:, 1] ** 3])
    a = tm.moment_ratio_ranks(x, 20, HALF)
    b = tm.moment_ratio_ranks(monotone, 20, HALF)
    assert a.exceedance_count == b.exceedance_count


def test_moment_ratio_ranks_is_invariant_under_scaled_powers():
    """Column rescaling plus a common power cancels against the Hill estimate."""
    rng = np.random.default_rng(5)
    x = rng.pareto(1.0, size=(200, 2)) + 1.0
    powered = np.column_stack([7.0 * x[:, 0] ** 2.5, 0.3 * x[:, 1] ** 2.5])
    a = tm.moment_ratio_ranks(x, 20, HALF)
    b = tm.moment_ratio_ranks(powered, 20, HALF)
    assert b.estimate == pytest.approx(a.estimate, rel=1e-13)
    assert b.exceedance_count == a.exceedance_count


def test_rank_angular_parts_shape_and_normalization():
    rng = np.random.default_rng(6)
    x = rng.pareto(1.0, size=(150, 3)) + 1.0
    sample = tm.RankSample(x, 15, tm.IndexSet([1, 3]))
    assert sample.angular.shape == (int(sample.mask.sum()), 2)  # columns 1 and 3 only
    assert np.allclose(sample.angular.max(axis=1), 1.0)
    assert sample.inv_alpha > 0


def test_stable_tail_estimate_examples():
    x = np.array([[4.0, 1.0], [3.0, 2.0], [2.0, 3.0], [1.0, 4.0]])
    assert tm.stable_tail_estimate(x, 2, I12).estimate == 1.0
    full = np.column_stack([np.array([4.0, 3.0, 2.0, 1.0])] * 2)
    assert tm.stable_tail_estimate(full, 2, I12).estimate == 0.5
    single = np.array([[4.0], [3.0], [2.0], [1.0]])
    assert tm.stable_tail_estimate(single, 2, tm.IndexSet([1])).estimate == 0.5


def test_stable_tail_estimate_checks_eps_without_exceedances():
    constant = np.ones((50, 2))
    with pytest.raises(tm.EpsOutOfRange):
        tm.stable_tail_estimate(constant, 5, I12, eps=7.0)
    rep = tm.stable_tail_estimate(constant, 5, I12, eps=0.5)
    assert rep.estimate == 0.0 and rep.std_error is None
    assert rep.parameters["eps"] == 0.5


def test_stable_tail_estimate_rejects_a_non_integral_k():
    x = np.random.default_rng(3).pareto(1.0, size=(1000, 2)) + 1.0
    for data in (x, tm.RankSample(x, 50, I12)):
        with pytest.raises(ValueError, match="k must be an integer, got 50.9"):
            tm.stable_tail_estimate(data, 50.9, I12)
    with pytest.raises(ValueError, match="k must be an integer"):
        tm.upper_order_statistics(x, np.inf)
    report = tm.stable_tail_estimate(x, np.float64(50.0), I12)
    assert report.to_dict() == tm.stable_tail_estimate(x, 50, I12).to_dict()
    assert type(report.parameters["k"]) is int


def test_stable_tail_estimate_converges_to_the_extremal_coefficient():
    model = tm.make_scenario(0.1, 0.2)
    x = tm.simulate(model, 40000, seed=21)
    rep = tm.stable_tail_estimate(x, 400, I12)
    assert rep.estimate == pytest.approx(40.0 / 23.0, rel=0.1)


def test_perturbed_moment_ratio_matches_rank_route():
    """Scaling columns onto their order statistics reproduces the rank estimate."""
    rng = np.random.default_rng(11)
    x = rng.pareto(2.0, size=(300, 2)) + 1.0
    k = 30
    ia = tm.hill_inverse_alpha(x, k, I12).estimate
    cols = tm.upper_order_statistics(x, k)
    pert = tm.Perturbation.scaled(I12, 2, scales=1.0 / cols, beta=ia)
    known = tm.moment_ratio_known(x, 1.0, HALF, perturbation=pert)
    ranked = tm.moment_ratio_ranks(x, k, HALF)
    assert known.estimate == pytest.approx(ranked.estimate, rel=1e-13)
    assert known.exceedance_count == ranked.exceedance_count
