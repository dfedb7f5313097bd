import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailmoments as tm
from tailmoments import harness, samples, variance, weights
from tailmoments.harness import TABLE_SCENARIOS

I12 = tm.IndexSet([1, 2])
U95 = -1.0 / np.log(0.95)


def _pareto(seed, n=600, d=3):
    rng = np.random.default_rng(seed)
    return rng.pareto(1.5, size=(n, d)) + 1.0


# ------------------------------------------------ harness blocks against the plain calls

def _plain_estimates(model, n, k, u, rep_seed):
    """The four reciprocal-coefficient estimates of one repetition by the public scalar calls,
    NaN where one raises NoExceedances or BU's coefficient is zero."""
    x = np.array(tm.simulate(model, n, rep_seed).values)
    index_set = tm.IndexSet(range(1, model.d + 1))
    calls = (lambda: tm.benchmark_ratio_known(x, u, tm.uniform_weights(index_set, model.d)),
             lambda: tm.tau_moment_known(x, u, index_set),
             lambda: tm.stable_tail_estimate(x, k, index_set),
             lambda: tm.tau_moment_ranks(x, k, index_set))
    out = []
    for name, call in zip(harness.ESTIMATOR_NAMES, calls):
        try:
            estimate = call().estimate
        except tm.NoExceedances:
            estimate = np.nan
        if name == "BU":
            estimate = 1.0 / estimate if estimate > 0 else np.nan
        out.append(estimate)
    return np.array(out)


def _check_block_against_plain_calls(model, n, k, u, seeds):
    block = harness._block_estimates(seeds, model, n, k, u)
    assert block.shape == (len(seeds), 4)
    for rep_seed, fast in zip(seeds, block):
        plain = _plain_estimates(model, n, k, u, rep_seed)
        assert np.array_equal(np.isnan(fast), np.isnan(plain)), rep_seed
        assert np.nanmax(np.abs(fast - plain), initial=0.0) <= 1e-12, rep_seed
    return block


@pytest.mark.parametrize("p, q", TABLE_SCENARIOS)
def test_single_rep_matches_the_plain_public_calls(p, q):
    """Every repetition of a block equals the public scalar calls on its own data."""
    _check_block_against_plain_calls(tm.make_scenario(p, q), 1000, 50, U95, list(range(30)))


# a d=3 max-linear model, coefficients written out: MK and MU solve one QP per repetition
D3_COEFFS = [[0.30, 0.05, 0.25, 0.10, 0.30],
             [0.10, 0.40, 0.05, 0.30, 0.15],
             [0.20, 0.20, 0.30, 0.05, 0.25]]


def test_a_three_component_block_matches_the_plain_public_calls():
    model = tm.MaxLinearModel(D3_COEFFS)
    block = _check_block_against_plain_calls(model, 600, 30, U95, list(range(12)))
    assert not np.any(np.isnan(block))


def test_blocks_exclude_the_repetitions_the_plain_calls_reject():
    """At n=40 some repetitions have no known-margin exceedance; with one component, MU also
    loses the exceedances of its scaled-down column in some; a block excludes the same ones."""
    block = _check_block_against_plain_calls(tm.make_scenario(0.4, 0.6), 40, 2, U95,
                                             list(range(60)))
    excluded = np.isnan(block)
    assert 0 < excluded[:, 0].sum() < 60  # BK and MK without exceedances
    assert np.array_equal(excluded[:, 0], excluded[:, 1])
    block = _check_block_against_plain_calls(tm.MaxLinearModel([[0.6, 0.4]]), 40, 2, U95,
                                             list(range(60)))
    excluded = np.isnan(block)
    assert not excluded[:, 2].any() and 0 < excluded[:, 3].sum() < 60


def test_an_estimator_reporting_one_number_rejects_a_block():
    block = tm.simulate(tm.make_scenario(0.4, 0.6), 200, [1, 2])
    assert block.values.shape == (2, 200, 2)
    calls = (lambda: tm.tau_moment_known(block, U95, I12),
             lambda: tm.benchmark_ratio_known(tm.KnownSample(block, U95, I12), U95,
                                              tm.uniform_weights(I12, 2)),
             lambda: tm.tau_moment_ranks(block, 10, I12),
             lambda: tm.hill_inverse_alpha(tm.RankSample(block, 10, I12), 10, I12))
    for call in calls:
        with pytest.raises(ValueError, match="one data matrix, not a block"):
            call()


def test_one_replication_computes_the_anchors_once(monkeypatch):
    """One anchor computation (the column partition) per block of repetitions."""
    calls = []
    original = samples.upper_order_statistics

    def counting(x, k):
        calls.append((np.shape(x), k))
        return original(x, k)

    monkeypatch.setattr(samples, "upper_order_statistics", counting)
    monkeypatch.setattr(harness, "BLOCK", 4)
    harness.run_experiment(tm.ExperimentConfig(model=tm.make_scenario(0.4, 0.6), n=1000,
                                               k=50, reps=10, seed=3))
    assert calls == [((4, 1000, 2), 50), ((3, 1000, 2), 50), ((3, 1000, 2), 50)]


def test_tau_moment_ranks_validates_a_raw_array_once(monkeypatch):
    calls = []
    original = tm.core._data_array

    def counting(values, name):
        calls.append(name)
        return original(values, name)

    monkeypatch.setattr(tm.core, "_data_array", counting)
    tm.tau_moment_ranks(_pareto(6), 40, tm.IndexSet([1, 3]))
    assert len(calls) == 1


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
    assert samples.tail_sample(tm.RankSample, ranks, 40, s) is ranks
    assert samples.tail_sample(tm.RankSample, ranks, 40.0, s, None) is ranks
    assert samples.tail_sample(tm.KnownSample, ranks, 5.0, s).values is ranks.values
    np.testing.assert_array_equal(tm.core.matrix_values(ranks), x)

    u = float(np.quantile(tm.partial_max(x, s), 0.9))
    known = tm.KnownSample(x, u, s)
    assert samples.tail_sample(tm.KnownSample, known, u, s) is known
    assert samples.tail_sample(tm.KnownSample, known, 2 * u, s).count == \
        tm.KnownSample(x, 2 * u, s).count
    # a perturbation is compared by identity, not by its scales
    unit = tm.Perturbation.scaled(s, 3, [1.0, 1.0])
    perturbed = tm.KnownSample(x, u, s, unit)
    assert samples.tail_sample(tm.KnownSample, perturbed, u, s, unit) is perturbed
    again = samples.tail_sample(tm.KnownSample, perturbed, u, s,
                                tm.Perturbation.scaled(s, 3, [1.0, 1.0]))
    assert again is not perturbed and np.array_equal(again.angular, perturbed.angular)
    assert samples.tail_sample(tm.KnownSample, perturbed, u, s) is not perturbed
    assert tm.tau_moment_known(known, u, s).estimate == tm.tau_moment_known(x, u, s).estimate


def test_a_sample_with_another_power_is_rebuilt():
    x = _pareto(2)
    ranks = tm.RankSample(x, 30, I12)
    other = samples.tail_sample(tm.RankSample, ranks, 30, I12, 0.8)
    for name in ("anchors", "ell", "unit"):  # the same ratios on the same exceeding rows
        np.testing.assert_array_equal(getattr(other, name), getattr(ranks, name))
    assert other.inv_alpha == 0.8 and other.hill == ranks.hill
    assert samples.tail_sample(tm.RankSample, other, 30, I12).inv_alpha == ranks.hill
    with pytest.raises(ValueError):
        samples.tail_sample(tm.RankSample, ranks, 30, I12, -1.0)
    with pytest.raises(ValueError, match="threshold u"):
        samples.tail_sample(tm.KnownSample, tm.KnownSample(x, 5.0, I12), np.nan, I12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0])
def test_a_non_finite_or_non_positive_power_is_rejected(bad):
    x = _pareto(4)
    with pytest.raises(ValueError, match="positive and finite"):
        tm.RankSample(x, 30, I12, inv_alpha_hat=bad)
    with pytest.raises(ValueError, match="positive and finite"):
        tm.tau_moment_ranks(x, 30, I12, inv_alpha_hat=bad)


def _loop_rank_sample(x, k, eps):
    """One replication's rank sample the plain way: sorted anchors, row maxima by ``max``,
    means by ``mean`` and the central differences scaled column by column."""
    ratios = x / np.sort(x, axis=0)[-k]
    ell = ratios.max(axis=1)
    hill = float(np.mean(np.log(ell[ell > 1.0])))
    angular = (ratios[ell > 1.0] / ell[ell > 1.0, None]) ** (1.0 / hill)

    def means(scales, power):
        scaled = ratios * scales
        peaks = scaled.max(axis=1)
        return np.mean((scaled[peaks > 1.0] / peaks[peaks > 1.0, None]) ** power, axis=0)

    scale = np.array([means(1.0 + bump, 1.0 / hill) - means(1.0 - bump, 1.0 / hill)
                      for bump in eps * np.eye(x.shape[1])]) / (2.0 * eps)
    power = (means(1.0, 1.0 / hill / (1.0 + eps)) - means(1.0, 1.0 / hill / (1.0 - eps)))
    return hill, angular, angular.T @ angular / len(angular), scale, power / (2.0 * eps)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_block_sample_matches_a_plain_loop_over_its_replications(d):
    """Segment sums over a block against the per-replication formulas written out."""
    x = np.stack([_pareto(seed, n=300, d=d) for seed in range(6)])
    x[2] = 1.0  # constant columns: the third replication has no exceedances
    index_set, k, eps = tm.IndexSet(range(1, d + 1)), 25, 0.05
    block = tm.RankSample(x, k, index_set)
    scale, power = block.derivatives(eps)
    moments = samples.second_moments(block)
    assert block.count[2] == 0 and np.isnan(block.hill[2]) and np.all(np.isnan(scale[2]))
    for r in (0, 1, 3, 4, 5):
        hill, angular, second, plain_scale, plain_power = _loop_rank_sample(x[r], k, eps)
        assert block.count[r] == len(angular)
        assert abs(block.hill[r] - hill) <= 1e-12
        assert np.max(np.abs(block.angular[block.rep == r] - angular)) <= 1e-12
        assert np.max(np.abs(moments[r] - second)) <= 1e-12
        assert np.max(np.abs(scale[r] - plain_scale)) <= 1e-12
        assert np.max(np.abs(power[r] - plain_power)) <= 1e-12


def test_one_matrix_holds_its_per_replication_fields_as_0d_arrays():
    """One matrix is the R=1 case of a block: 0-d count, hill and inv_alpha, NaN without
    exceedances, as in the block's replication."""
    x = np.ones((50, 2))  # constant positive columns: no ratio exceeds one
    ranks, block = tm.RankSample(x, 5, I12), tm.RankSample(x[None], 5, I12)
    for name in ("count", "hill", "inv_alpha"):
        value = getattr(ranks, name)
        assert isinstance(value, np.ndarray) and value.shape == ()
        np.testing.assert_array_equal(value, getattr(block, name)[0])
    assert ranks.count == 0 and np.isnan(ranks.hill) and np.isnan(ranks.inv_alpha)
    assert tm.KnownSample(x, 5.0, I12).count.shape == ()
    assert tm.RankSample(_pareto(7), 30, I12).hill.shape == ()
    with pytest.raises(tm.NoExceedances):
        ranks.derivatives(0.05)


def test_pair_sub_samples_equal_fresh_pair_samples():
    x = _pareto(3, d=4)
    ranks = tm.RankSample(x, 50, tm.IndexSet([1, 2, 4]))
    pair = ranks.pair(1, 2)
    fresh = tm.RankSample(x, 50, tm.IndexSet([2, 4]))
    assert pair.index_set == fresh.index_set
    for name in ("anchors", "ell", "unit"):
        np.testing.assert_array_equal(getattr(pair, name), getattr(fresh, name))
    np.testing.assert_array_equal(pair.angular, fresh.angular)
    assert pair.hill == fresh.hill
    with pytest.raises(AttributeError):
        pair.count = 0
    with pytest.raises(ValueError):
        pair.angular[0, 0] = 2.0


def test_samples_are_data_matrices_compared_by_identity():
    x = _pareto(7)
    known, ranks = tm.KnownSample(x, 5.0, I12), tm.RankSample(x, 30, I12)
    assert isinstance(known, tm.DataMatrix) and isinstance(ranks, tm.DataMatrix)
    assert (known.n, known.d) == (ranks.n, ranks.d) == x.shape
    assert known == known and known != tm.KnownSample(x, 5.0, I12)
    assert len({known, ranks, tm.KnownSample(x, 5.0, I12)}) == 3


def test_samples_do_not_alias_the_callers_array():
    x = np.random.default_rng(0).pareto(1.5, size=(200, 2)) + 1.0
    known, ranks = tm.KnownSample(x, 5.0, I12), tm.RankSample(x, 20, I12)
    v = tm.uniform_weights(I12, 2)
    reports = {
        "BK": lambda: tm.benchmark_ratio_known(known, 5.0, v),
        "MK": lambda: tm.tau_moment_known(known, 5.0, I12),
        "moment": lambda: tm.moment_ratio_known(known, 5.0, v),
        "BU": lambda: tm.stable_tail_estimate(ranks, 20, I12),
        "MU": lambda: tm.tau_moment_ranks(ranks, 20, I12),
        "Hill": lambda: tm.hill_inverse_alpha(ranks, 20, I12),
    }
    before = {name: report().to_dict() for name, report in reports.items()}
    assert before["BK"]["estimate"] > 0
    x[:] = 0.0
    assert {name: report().to_dict() for name, report in reports.items()} == before
    assert not known.values.flags.writeable and not ranks.values.flags.writeable
    data = tm.DataMatrix(np.ones((3, 2)))
    assert tm.KnownSample(data, 0.5, I12).values is data.values  # read as is


# ------------------------------------------------ differential checks of fast paths

def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and \
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def _layouts(model, n, seeds):
    """The same values three ways: a C-order array, simulate's block, in which each component
    lies together, and a DataMatrix copy of that block."""
    simulated = tm.simulate(model, n, seeds)
    columns = simulated.values[..., 0].size * simulated.values.itemsize
    assert simulated.values.strides[-1] == columns  # component-major
    copied = tm.DataMatrix(simulated.values)
    assert copied.values.strides == simulated.values.strides
    assert not np.shares_memory(copied.values, simulated.values)
    plain = np.ascontiguousarray(simulated.values)
    assert plain.flags.c_contiguous
    return plain, simulated, copied


RANK_FIELDS = ("anchors", "ell", "mask", "rep", "count", "unit", "hill", "inv_alpha", "angular")
KNOWN_FIELDS = ("mask", "rep", "count", "angular")


@pytest.mark.parametrize("coeffs, members", [(None, (1, 2)), (D3_COEFFS, (1, 2, 3)),
                                             (D3_COEFFS, (1, 3))])
@pytest.mark.parametrize("seeds", [11, list(range(6))])
def test_the_samples_give_the_same_bits_in_every_layout(coeffs, members, seeds):
    model = tm.make_scenario(0.4, 0.6) if coeffs is None else tm.MaxLinearModel(coeffs)
    n, k, index_set = 400, 20, tm.IndexSet(members)
    plain, *others = _layouts(model, n, seeds)
    rank = samples.RankSample(plain, k, index_set)
    known = samples.KnownSample(plain, U95, index_set)
    pair, derivatives = rank.pair(0, 1), rank.derivatives(k / n)
    assert not np.any(np.isnan(derivatives[0]))
    for data in others:
        other = samples.RankSample(data, k, index_set)
        assert all(_same_bits(getattr(rank, f), getattr(other, f)) for f in RANK_FIELDS)
        assert all(_same_bits(getattr(pair, f), getattr(other.pair(0, 1), f))
                   for f in RANK_FIELDS)
        assert all(map(_same_bits, derivatives, other.derivatives(k / n)))
        other = samples.KnownSample(data, U95, index_set)
        assert all(_same_bits(getattr(known, f), getattr(other, f)) for f in KNOWN_FIELDS)


@pytest.mark.parametrize("coeffs", [None, D3_COEFFS])
def test_block_estimates_give_the_same_bits_in_every_layout(coeffs, monkeypatch):
    model = tm.make_scenario(0.4, 0.6) if coeffs is None else tm.MaxLinearModel(coeffs)
    seeds = list(range(8))
    estimates = []
    for data in _layouts(model, 1000, seeds):
        data = data if isinstance(data, tm.DataMatrix) else tm.DataMatrix(data)
        monkeypatch.setattr(harness, "simulate", lambda *args, data=data: data)
        estimates.append(harness._block_estimates(seeds, model, 1000, 50, U95))
    assert not np.any(np.isnan(estimates[0]))
    assert _same_bits(estimates[0], estimates[1]) and _same_bits(estimates[0], estimates[2])


def _d_wide_known_sample(x, u, index_set, perturbation=None):
    """The (count, d) angular parts, zero outside the index set: the earlier full-width layout."""
    if perturbation is None:
        s, beta = np.zeros(x.shape[1]), 1.0
        s[index_set.zero_based()] = 1.0
    else:
        s, beta = perturbation.s, perturbation.beta
    scaled = x * s
    norms = tm.partial_max(scaled, index_set)
    mask = (norms > u) & (norms > 0.0)
    powered = np.power(scaled[mask], 1.0 / beta)
    return mask, powered / tm.partial_max(powered, index_set)[:, None]


@pytest.mark.parametrize("seed", range(4))
def test_known_sample_on_a_subset_matches_the_full_width_formula(seed):
    rng = np.random.default_rng(seed)
    x = _pareto(seed, n=500, d=5)
    index_set = tm.IndexSet([1, 3, 4])
    idx = index_set.zero_based()
    u = float(np.quantile(tm.partial_max(x, index_set), 0.9))
    scales = np.zeros(5)
    scales[idx] = rng.uniform(0.8, 1.25, size=3)
    for perturbation in (None, tm.Perturbation(scales, rng.uniform(0.8, 1.25), index_set)):
        sample = tm.KnownSample(x, u, index_set, perturbation)
        mask, wide = _d_wide_known_sample(x, u, index_set, perturbation)
        assert np.array_equal(sample.mask, mask) and sample.count == mask.sum()
        assert sample.angular.shape == (sample.count, 3)
        assert np.all(np.delete(wide, idx, axis=1) == 0.0)
        assert np.max(np.abs(sample.angular - wide[:, idx])) <= 1e-12
        v = tm.make_weight_vector(np.where(np.isin(np.arange(5), idx), rng.uniform(size=5), 0.0),
                                  index_set)
        for p in range(4):
            want = float(np.mean((wide @ v.weights) ** p))
            got = tm.moment_ratio_known(x, u, v, p, perturbation).estimate
            assert abs(got - want) <= 1e-12 * abs(want)
        if perturbation is None:
            got = tm.second_moment_matrix_known(x, u, index_set).matrix
            assert np.max(np.abs(got - wide[:, idx].T @ wide[:, idx] / mask.sum())) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_row_restricted_scale_differences_equal_the_unrestricted_ones(seed):
    x = _pareto(seed, n=400)
    for k in (5, 20, 60):
        ranks = tm.RankSample(x, k, tm.IndexSet([1, 2, 3]))
        ratios = x / np.sort(x, axis=0)[-k]  # every row's ratios
        power = 1.0 / ranks.inv_alpha
        for eps in (k / 400, 0.2, 0.6):
            for pos in range(3):
                bump = np.zeros(3)
                bump[pos] = eps
                rows = np.zeros(len(x), dtype=np.intp)  # every row, all of one replication
                plain = (samples._scaled_means(ratios, rows, 1.0 + bump, power, ())
                         - samples._scaled_means(ratios, rows, 1.0 - bump, power, ()))
                assert np.array_equal(ranks.derivatives(eps)[0][pos], plain / (2 * eps))


# ------------------------------------------------ the exceedance step against full arrays

def _plain_rank_fields(x, k, members, eps):
    """A RankSample's fields the earlier way: every row's ratios and row maxima, the mask
    ``ell > 1`` and the exceeding rows gathered from those full arrays.  Hill's mean and the
    derivatives' means take the package's segment sums; every row is a derivative candidate."""
    n, m, lead = x.shape[-2], len(members), x.shape[:-2]
    columns = x[..., np.asarray(members) - 1]
    anchors = np.sort(columns, axis=-2)[..., n - k, :]
    ratios = columns / anchors[..., None, :]
    ell = np.max(ratios, axis=-1)
    mask = ell > 1.0
    rows = np.flatnonzero(mask)
    rep = rows // n
    flat, flat_ell = ratios.reshape(-1, m), ell.reshape(-1)
    unit = flat[rows] / flat_ell[rows, None]
    count = samples._counts(rep, lead)
    hill = samples._means(count, np.log(flat_ell[rows]))
    power = 1.0 / hill
    every = np.arange(flat.shape[0]) // n
    scale = np.stack([samples._scaled_means(flat, every, 1.0 + bump, power, lead)
                      - samples._scaled_means(flat, every, 1.0 - bump, power, lead)
                      for bump in eps * np.eye(m)], axis=-2) / (2.0 * eps)
    powered = [samples._means(count, unit ** (power / (1.0 + sign * eps)).reshape(-1)[rep][:, None])
               for sign in (1.0, -1.0)]
    return {"anchors": anchors, "ell": flat_ell[rows], "mask": mask,
            "rep": rep, "unit": unit, "hill": hill,
            "angular": unit ** power.reshape(-1)[rep][:, None],
            "derivatives": (scale, (powered[0] - powered[1]) / (2.0 * eps))}


def _plain_known_fields(x, u, members, perturbation):
    """A KnownSample's fields the earlier way: the scaled columns and their row maxima in full,
    the mask ``ell > u`` and the exceeding rows gathered from them."""
    n, m = x.shape[-2], len(members)
    columns = x[..., np.asarray(members) - 1]
    beta = 1.0
    if perturbation is not None:
        columns, beta = columns * perturbation.s[np.asarray(members) - 1], perturbation.beta
    ell = np.max(columns, axis=-1)
    mask = ell > u
    rows = np.flatnonzero(mask)
    unit = columns.reshape(-1, m)[rows] / ell.reshape(-1)[rows, None]
    return {"mask": mask, "rep": rows // n, "angular": unit ** (1.0 / beta)}


def _component_major(x):
    """The values of ``x`` with each column together in memory, as simulate lays a block out."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1)


def _differential_data(kind, d):
    """Data of one kind: Pareto, values rounded to one decimal (many rows equal their anchors
    and many rows tie across columns), a column zero below its 80% quantile, a short block
    (n < 20) and one matrix."""
    rng = np.random.default_rng(["pareto", "ties", "zeros", "short", "matrix"].index(kind))
    shape = {"short": (4, 12, d), "matrix": (300, d)}.get(kind, (4, 300, d))
    x = rng.pareto(1.5, size=shape)
    if kind == "ties":
        x = np.round(x, 1)
    elif kind == "zeros":
        x[..., 1] = np.where(x[..., 1] > np.quantile(x[..., 1], 0.8), x[..., 1], 0.0)
    return x


@pytest.mark.parametrize("layout", ["c_order", "component_major"])
@pytest.mark.parametrize("kind", ["pareto", "ties", "zeros", "short", "matrix"])
@pytest.mark.parametrize("members", [(1, 2), (1, 2, 3), (1, 3)])
def test_the_samples_match_the_full_array_step_bit_for_bit(layout, kind, members):
    x = _differential_data(kind, 3 if 3 in members else 2)
    data = _component_major(x) if layout == "component_major" else np.ascontiguousarray(x)
    index_set, n = tm.IndexSet(members), x.shape[-2]
    k, eps = max(2, n // 10), 0.05
    rank = samples.RankSample(data, k, index_set)
    plain = _plain_rank_fields(x, k, members, eps)
    got = {name: getattr(rank, name) for name in plain if name != "derivatives"}
    assert [name for name in got if not _same_bits(got[name], plain[name])] == []
    assert _same_bits(rank.count, samples._counts(plain["rep"], x.shape[:-2]))
    assert all(map(_same_bits, rank.derivatives(eps), plain["derivatives"]))
    u = float(np.quantile(x[..., np.asarray(members) - 1].max(axis=-1), 0.8))
    # a first scale whose quotient u / s lies below the exact threshold: the value next above
    # it passes the comparison on the block, and the exact test on the scaled rows drops it
    first = next(s for s in np.linspace(0.5, 2.0, 1001)
                 if u / s * s <= u and np.nextafter(u / s, np.inf) * s <= u)
    scales = tm.core.embed(np.linspace(first, 0.7, len(members)), index_set, x.shape[-1])
    for perturbation in (None, tm.Perturbation(scales, 1.3, index_set)):
        if perturbation is not None:  # values at and next to the scaled threshold
            bound = u / first
            data = data.copy()
            data[..., :4, members[0] - 1] = [np.nextafter(bound, 0.0), bound,
                                             np.nextafter(bound, np.inf), bound * (1 + 1e-15)]
        known = samples.KnownSample(data, u, index_set, perturbation)
        plain = _plain_known_fields(np.array(data), u, members, perturbation)
        assert all(_same_bits(getattr(known, name), plain[name]) for name in plain)


def test_a_zero_column_raises_for_the_ranks_and_drops_out_of_the_known_sample():
    x = _pareto(9, n=200, d=3)
    x[:, 1] = 0.0
    with pytest.raises(tm.EstimationError, match="upper order statistic is zero"):
        samples.RankSample(x, 20, tm.IndexSet([1, 2, 3]))
    known = samples.KnownSample(x, 3.0, tm.IndexSet([1, 2, 3]))
    plain = _plain_known_fields(x, 3.0, (1, 2, 3), None)
    assert all(_same_bits(getattr(known, name), plain[name]) for name in plain)
    assert np.all(known.angular[:, 1] == 0.0)


POSITIVE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(anchor=POSITIVE, value=st.one_of(POSITIVE, st.just(0.0)), ulps=st.integers(-3, 3),
       near=st.booleans())
def test_a_ratio_exceeds_one_exactly_where_its_value_exceeds_the_anchor(anchor, value, ulps,
                                                                        near):
    # RankSample's rows above their anchors are its rows whose ratios exceed one
    a = np.float64(anchor)
    x = a if near else np.float64(value)
    with np.errstate(over="ignore"):  # past the largest float, or over a subnormal anchor: inf
        for _ in range(abs(ulps) if near else 0):  # the values next to the anchor
            x = np.nextafter(x, np.inf if ulps > 0 else 0.0)
        assert bool(x / a > 1.0) == bool(x > a)


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
    """The simplex QP with a least-squares stationary point on every face of two or more."""
    m = a.shape[0]
    candidates = [np.full(m, 1.0 / m)]
    denom = a[0, 0] + a[1, 1] - 2.0 * a[0, 1]
    if m == 2 and denom > 0.0 and 0.0 <= (a[1, 1] - a[0, 1]) / denom <= 1.0:
        w1 = (a[1, 1] - a[0, 1]) / denom
        candidates.append(np.array([w1, 1.0 - w1]))
    candidates += [np.eye(m)[i] for i in range(m)]
    scale = 1.0 + float(np.max(np.abs(a)))
    for bits in range(1, 2 ** m):
        face = np.flatnonzero([(bits >> t) & 1 for t in range(m)])
        f = face.size
        if f < 2:
            continue
        system = np.zeros((f + 1, f + 1))
        system[:f, :f] = 2.0 * a[np.ix_(face, face)]
        system[:f, f] = -1.0
        system[f, :f] = 1.0
        rhs = np.zeros(f + 1)
        rhs[f] = 1.0
        solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
        if np.max(np.abs(system @ solution - rhs)) > 1e-9 * scale:
            continue  # no stationary point on this face
        w_face, lam = solution[:f], solution[f]
        if np.min(w_face) < -1e-12:
            continue
        w = np.zeros(m)
        w[face] = np.clip(w_face, 0.0, None)
        w /= w.sum()
        outside = np.setdiff1d(np.arange(m), face, assume_unique=True)
        if outside.size and np.min(2.0 * (a @ w)[outside] - lam) < -1e-10 * scale:
            continue
        candidates.append(w)
    best_w, best_value, best_norm = None, np.inf, np.inf
    value_tol = 1e-12 * scale
    for w in candidates:
        value, norm = float(w @ a @ w), float(np.linalg.norm(w))
        if value < best_value - value_tol or (value <= best_value + value_tol
                                              and norm < best_norm - 1e-12):
            best_w, best_value, best_norm = w, value, norm
    return best_w, best_value


def _solve(a):
    form = tm.QuadraticForm(tm.IndexSet(range(1, a.shape[0] + 1)), a)
    w, value = weights.minimize_quadratic_on_simplex(form)
    return w.on_support(), value, form.matrix


def _check_qp_against_enumeration(a, same_weights=True):
    """The solver never ends above the enumeration's value, and matches its weights if asked.

    Indefinite forms compare the value only: where more than one KKT point
    attains it, the two solvers may tie-break among different candidates.
    """
    w, value, matrix = _solve(a)
    w_full, value_full = _full_face_enumeration(matrix)
    if matrix.shape[0] == 2:  # the closed form ties the enumeration bit for bit
        assert np.array_equal(w, w_full)
        assert value == value_full
    assert value <= value_full + 1e-12 * (1.0 + np.max(np.abs(matrix)))
    if same_weights:
        assert np.max(np.abs(w - w_full)) <= 1e-12


def _convex_form(rng, m):
    """Criterion 4's construction: g'g + I/2 plus terms constant or linear on the simplex."""
    g = rng.normal(size=(m, m))
    shift = rng.normal(size=m)
    a = (g.T @ g + 0.5 * np.eye(m) + rng.uniform(-0.5, 1.0) * np.ones((m, m))
         + np.outer(shift, np.ones(m)) + np.outer(np.ones(m), shift))
    return (a + a.T) / 2.0


def _max_linear_data(seed, m, factors, n=1000):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(size=(m, factors)) ** 2
    model = tm.MaxLinearModel(coeffs / coeffs.sum(axis=1, keepdims=True))
    return np.array(tm.simulate(model, n, seed).values)


def _mk_and_mu_forms(x, index_set):
    forms = []
    for k in (10, 50):
        u = float(np.quantile(tm.partial_max(x, index_set), 1.0 - k / x.shape[0]))
        forms.append(tm.second_moment_matrix_known(x, u, index_set).matrix)
        forms.append(tm.rank_variance_form(x, k, index_set).matrix)
    return forms


@pytest.mark.parametrize("m", range(3, 9))
def test_qp_matches_enumeration_on_strictly_convex_forms(m):
    rng = np.random.default_rng(40 + m)
    for _ in range(8):
        _check_qp_against_enumeration(_convex_form(rng, m))


@pytest.mark.parametrize("m", range(3, 7))
def test_qp_matches_enumeration_where_an_edge_has_no_stationary_point(m):
    """Equal columns 1 and 2 plus a linear term: v'Av is linear along that edge."""
    rng = np.random.default_rng(90 + m)
    for _ in range(8):
        g = rng.normal(size=(m, m))
        g[:, 1] = g[:, 0]
        shift = rng.normal(size=m)
        _check_qp_against_enumeration(
            g.T @ g + np.outer(shift, np.ones(m)) + np.outer(np.ones(m), shift))


@pytest.mark.parametrize("m", range(3, 8))
def test_qp_matches_enumeration_on_gram_forms_from_few_rows(m):
    rng = np.random.default_rng(50 + m)
    for rows in (m, m + 1, m + 3):
        for _ in range(4):
            g = rng.normal(size=(rows, m))
            _check_qp_against_enumeration(g.T @ g)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_qp_matches_enumeration_on_simulated_mk_and_mu_forms(m):
    index_set = tm.IndexSet(range(1, m + 1))
    for seed in range(4):
        for a in _mk_and_mu_forms(_max_linear_data(seed, m, m + 1), index_set):
            _check_qp_against_enumeration(a)


@pytest.mark.parametrize("m", range(3, 8))
def test_qp_reaches_the_enumeration_value_on_indefinite_forms(m):
    """Sampled forms only: no polynomial method finds every indefinite form's minimum."""
    rng = np.random.default_rng(60 + m)
    for trial in range(30):
        b = rng.normal(size=(m, m))
        a = b + b.T + (3.0 * rng.normal() * np.ones((m, m)) if trial % 2 else 0.0)
        _check_qp_against_enumeration(a, same_weights=False)


@pytest.mark.parametrize("m", range(3, 8))
def test_qp_reaches_the_enumeration_value_on_rank_deficient_forms(m):
    rng = np.random.default_rng(70 + m)
    for rows in range(1, m):
        for _ in range(4):
            g = rng.normal(size=(rows, m))
            _check_qp_against_enumeration(g.T @ g)
    # fewer max-linear factors than components: singular second-moment forms
    index_set = tm.IndexSet(range(1, m + 1))
    for a in _mk_and_mu_forms(_max_linear_data(m, m, 2), index_set):
        _check_qp_against_enumeration(a, same_weights=False)


# indefinite forms whose minimum lies inside an edge that no descent from a
# vertex reaches: the edge's closed-form stationary point finds it
EDGE_MINIMUM_FORMS = [
    [[6.604, 8.698, 3.799, 6.405, 6.504, 11.243], [8.698, 4.736, 4.072, 4.102, 4.069, 8.802],
     [3.799, 4.072, 6.527, 7.201, 8.272, 4.888], [6.405, 4.102, 7.201, 7.894, 5.893, 6.466],
     [6.504, 4.069, 8.272, 5.893, 7.923, 7.474], [11.243, 8.802, 4.888, 6.466, 7.474, 6.026]],
    [[3.76, 4.84, 2.16, 2.65, 5.61, 1.89, 2.38], [4.84, 3.01, 3.39, 0.74, 4.07, 5.9, 2.3],
     [2.16, 3.39, 4.06, 4.16, 2.2, 2.39, 3.94], [2.65, 0.74, 4.16, 2.39, 4.45, 1.23, 3.82],
     [5.61, 4.07, 2.2, 4.45, 5.29, 1.09, 1.46], [1.89, 5.9, 2.39, 1.23, 1.09, 1.64, 2.61],
     [2.38, 2.3, 3.94, 3.82, 1.46, 2.61, 3.75]],
]


@pytest.mark.parametrize("index", range(len(EDGE_MINIMUM_FORMS)))
def test_qp_finds_a_minimum_inside_an_edge_of_an_indefinite_form(index):
    a = np.asarray(EDGE_MINIMUM_FORMS[index])
    assert np.linalg.eigvalsh(a)[0] < 0.0
    _check_qp_against_enumeration(a)
    assert np.count_nonzero(_solve(a)[0]) == 2


@pytest.mark.parametrize("m, seed", [(4, 1), (4, 14), (5, 6), (5, 13)])
def test_mk_weights_are_the_least_norm_minimizer_of_a_flat_optimum(m, seed):
    """Two factors and more components: the MK form's minimizers are not unique."""
    index_set = tm.IndexSet(range(1, m + 1))
    x = _max_linear_data(seed, m, 2)
    u = float(np.quantile(tm.partial_max(x, index_set), 0.99))
    a = tm.second_moment_matrix_known(x, u, index_set).matrix
    assert np.linalg.matrix_rank(a) < m
    _check_qp_against_enumeration(a)
    w_full, _ = _full_face_enumeration(a)
    weights_used = tm.tau_moment_known(x, u, index_set).parameters["weights"]
    assert np.max(np.abs(weights_used - w_full)) <= 1e-12


def test_identical_components_share_their_weight_evenly():
    x = _pareto(5, n=800, d=4)
    x[:, 2] = x[:, 0]
    index_set = tm.IndexSet([1, 2, 3, 4])
    for a in _mk_and_mu_forms(x, index_set):
        w, _, matrix = _solve(a)
        assert abs(w[0] - w[2]) <= 1e-12
        _check_qp_against_enumeration(matrix, same_weights=False)


def _kkt_residual(a, w):
    """Largest violation of the simplex KKT conditions of w'Aw, relative to 2 max|A|."""
    if not np.all(np.isfinite(w)):
        return np.inf
    g = 2.0 * (a @ w)
    lam = float(w @ g)
    on = w > 0.0
    violations = [np.max(np.abs(g[on] - lam), initial=0.0),
                  np.max(lam - g[~on], initial=0.0)]
    return max(max(violations) / (2.0 * np.max(np.abs(a))),
               abs(float(w.sum()) - 1.0), -float(w.min()))


@pytest.mark.parametrize("m", [3, 5, 8, 12, 20, 35, 50])
def test_qp_end_point_satisfies_kkt(m):
    rng = np.random.default_rng(80 + m)
    g = rng.normal(size=(m + 3, m))
    for a in (_convex_form(rng, m), g.T @ g):
        w, _, matrix = _solve(a)
        assert _kkt_residual(matrix, w) <= 1e-10


def _edge_points(a):
    """The stationary point inside each edge along which v'Av curves upwards."""
    m, points = a.shape[0], []
    for i in range(m):
        for j in range(i + 1, m):
            curvature = a[i, i] + a[j, j] - 2.0 * a[i, j]
            if curvature > 0.0 and 0.0 <= (t := (a[j, j] - a[i, j]) / curvature) <= 1.0:
                points.append(t * np.eye(m)[i] + (1.0 - t) * np.eye(m)[j])
    return points


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_every_descent_ends_at_a_kkt_point_no_higher_than_its_start(m):
    """Indefinite, concave, linear-along-an-edge and constant forms, from vertices and edge points.

    The constant form is flat everywhere, so it also checks that nothing cycles there.
    """
    rng = np.random.default_rng(100 + m)
    for _ in range(10):
        b, g, h = (rng.normal(size=(m, m)) for _ in range(3))
        h[:, 1] = h[:, 0]
        shift = np.outer(rng.normal(size=m), np.ones(m))
        for a in (b + b.T, -(g.T @ g), h.T @ h + shift + shift.T, np.ones((m, m))):
            a = (a + a.T) / 2.0
            scale = 1.0 + np.max(np.abs(a))
            for start in list(np.eye(m)) + _edge_points(a):
                ends = variance._descend(a, start, scale)
                assert _kkt_residual(a, ends[0]) <= 1e-10
                for end in ends:
                    assert end @ a @ end <= start @ a @ start + 1e-12 * scale


def test_a_convex_form_takes_one_descent_and_an_indefinite_one_starts_at_every_edge_point(
        monkeypatch):
    starts = []
    descend = variance._descend

    def counting(a, w, scale):
        starts.append(w)
        return descend(a, w, scale)

    monkeypatch.setattr(variance, "_descend", counting)
    rng = np.random.default_rng(7)
    g = rng.normal(size=(6, 5))
    _solve(g.T @ g)
    assert len(starts) == 1
    assert np.array_equal(starts[0], np.eye(5)[np.argmin(np.diag(g.T @ g))])
    starts.clear()
    a = np.asarray(EDGE_MINIMUM_FORMS[1])
    _solve(a)
    assert len(starts) == len(_edge_points(a)) > 0


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_a_stack_of_forms_gives_the_bits_of_one_matrix_calls(m):
    """Convex, indefinite and flat forms in one stack; a NaN form leaves its neighbours alone."""
    rng = np.random.default_rng(120 + m)
    g, b = rng.normal(size=(6, m + 2, m)), rng.normal(size=(6, m, m))
    stack = np.concatenate([np.swapaxes(g, -1, -2) @ g, b + np.swapaxes(b, -1, -2),
                            [np.ones((m, m)), -np.eye(m)]])
    stack[3, 0, 1] = np.nan
    w, value = variance.simplex_minimizers(stack.reshape((2, 7, m, m)))
    assert w.shape == (2, 7, m) and value.shape == (2, 7)
    w, value = w.reshape(14, m), value.reshape(14)
    assert np.isnan(w[3]).all() and np.isnan(value[3])
    for r, a in enumerate(stack):
        if r != 3:
            one_w, one_value = variance.simplex_minimizers(a)
            assert np.array_equal(w[r], one_w) and value[r] == one_value


@pytest.mark.parametrize("m", [2, 3])
def test_an_empty_stack_of_forms_gives_empty_results(m):
    w, value = variance.simplex_minimizers(np.zeros((0, m, m)))
    assert w.shape == (0, m) and value.shape == (0,)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_qp_tie_rules(m):
    # constant, and exchangeable convex forms: the barycenter, bit for bit (at m = 2 the
    # edge point ties it bit for bit; the descent's end does not undercut it)
    center = np.full(m, 1.0 / m)
    for a in (np.full((m, m), 0.7), np.eye(m) + 0.3, 7.001 * np.eye(m) - 7.0):
        w, value = variance.simplex_minimizers(a)
        assert np.array_equal(w, center) and value == center @ a @ center
    # the vertices tie below everything else: the lowest-index vertex
    w, value = variance.simplex_minimizers(-np.eye(m))
    assert np.array_equal(w, np.eye(m)[0]) and value == -1.0
