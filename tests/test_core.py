import numpy as np
import pytest

import tailmoments as tm
from tailmoments.core import check_finite, check_moment_power, check_open_unit
from tailmoments.io import read_matrix_csv, write_matrix_csv


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
    for call in (lambda: s.check_within(2), lambda: tm.uniform_weights(s, 2),
                 lambda: tm.Perturbation.scaled(tm.IndexSet([3]), 2, [1.0])):
        with pytest.raises(ValueError, match="index 3 out of range for dimension 2"):
            call()


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
    with pytest.raises(ValueError, match="raw weights must be non-negative"):
        tm.make_weight_vector([1, -1], tm.IndexSet([1, 2]))
    # negativity is checked before the support
    with pytest.raises(ValueError, match="raw weights must be non-negative"):
        tm.make_weight_vector([0, 0, -1], tm.IndexSet([1, 2]))
    with pytest.raises(ValueError, match="raw weights sum to zero"):
        tm.make_weight_vector([0, 0], tm.IndexSet([1, 2]))
    with pytest.raises(ValueError, match="finite"):
        tm.make_weight_vector([np.nan, 1], tm.IndexSet([1, 2]))
    with pytest.raises(ValueError, match="finite"):
        tm.WeightVector([np.nan, 1.0], tm.IndexSet([1, 2]))


def test_uniform_and_basis_weights():
    s = tm.IndexSet([1, 3])
    u = tm.uniform_weights(s, 3)
    assert u.weights.tolist() == [0.5, 0.0, 0.5]
    e = tm.WeightVector([0.0, 0.0, 1.0], s)
    assert e.on_support().tolist() == [0.0, 1.0]
    with pytest.raises(tm.SupportViolation):
        tm.WeightVector([0.0, 1.0, 0.0], s)


def test_partial_max_restricts_to_index_set():
    x = np.array([[1.0, 5.0, 2.0], [4.0, 0.0, 3.0]])
    out = tm.partial_max(x, tm.IndexSet([1, 3]))
    assert out.tolist() == [2.0, 4.0]


@pytest.mark.parametrize("members", [[1], [2, 3], [1, 2, 4], [1, 2, 3, 4]])
def test_partial_max_is_the_row_max_of_exceedances(members):
    x = np.random.default_rng(len(members)).pareto(1.5, size=(300, 4))
    x[::7, 1] = 0.0
    index_set = tm.IndexSet(members)
    idx = index_set.zero_based()
    ell = tm.core.exceedances(x[:, idx], 0.0)[0]
    assert tm.partial_max(x, index_set).tobytes() == ell.tobytes()
    with pytest.raises(ValueError, match="2-dimensional"):  # one row is a (1, d) matrix
        tm.partial_max(x[0], index_set)


def test_data_matrix_rejects_negative_and_nonfinite():
    with pytest.raises(ValueError):
        tm.DataMatrix(np.array([[1.0, -2.0]]))
    with pytest.raises(ValueError):
        tm.DataMatrix(np.array([[1.0, np.nan]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
@pytest.mark.parametrize("where", [(0, 0, 0), (1, 3, 77), (1, 4, 99)])
def test_data_matrix_rejects_a_bad_entry_anywhere_in_a_component_major_block(bad, where):
    buf = np.ones((2, 5, 100))
    buf[where] = bad
    block = np.moveaxis(buf, 0, -1)  # the layout simulate builds
    for copy in (True, False):
        with pytest.raises(ValueError, match="non-negative and finite"):
            tm.DataMatrix(block, copy=copy)
    assert tm.core.check_finite(np.zeros(0), "empty").shape == (0,)


def test_data_matrix_copies_what_its_source_could_still_change():
    writable = np.arange(1.0, 7.0).reshape(3, 2)
    source = np.arange(1.0, 7.0).reshape(3, 2)
    view = source[:]
    view.flags.writeable = False  # read-only, but source still writes to its memory
    for values, owner in ((writable, writable), (view, source)):
        data = tm.DataMatrix(values)
        assert data.values is not values and data.values.flags.owndata
        owner[0, 0] = 99.0
        assert data.values[0, 0] == 1.0 and not data.values.flags.writeable


def test_data_matrix_copies_a_read_only_array_and_checks_it():
    values = np.array([[1.0, 2.0], [3.0, 4.0]])
    values.flags.writeable = False
    data = tm.DataMatrix(values)
    assert data.values is not values and data.values.flags.owndata
    assert np.array_equal(data.values, values) and not data.values.flags.writeable
    with pytest.raises(ValueError, match="finite"):
        frozen = np.array([[1.0, np.inf]])
        frozen.flags.writeable = False
        tm.DataMatrix(frozen)


def test_data_matrix_is_not_changed_through_a_view_made_before_the_array_was_frozen():
    a = np.ones((3, 2))
    b = a[:]
    a.flags.writeable = False
    d = tm.DataMatrix(a)
    b[0, 0] = 5.0
    assert d.values[0, 0] == 1.0


def test_data_matrix_without_a_copy_keeps_the_checked_array_read_only():
    values = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert tm.DataMatrix(values, copy=False).values is values
    assert not values.flags.writeable
    with pytest.raises(ValueError, match="finite"):  # only the copy is skipped
        tm.DataMatrix(np.array([[1.0, np.nan]]), copy=False)


def _plain_exceedances(columns, level):
    """core.exceedances by the formula: np.max over the last axis, no column-wise fast path."""
    ell = np.max(columns, axis=-1)
    mask = ell > level
    flat = columns.reshape(-1, columns.shape[-1])
    rows = np.flatnonzero(mask)
    unit = flat[rows] / ell.reshape(-1)[rows, None]
    return ell, mask, unit, rows // mask.shape[-1]


@pytest.mark.parametrize("shape", [(40, 1), (40, 2), (40, 5), (3, 40, 1), (3, 40, 2),
                                   (3, 40, 5)])
@pytest.mark.parametrize("level", ["zero", "median", "above_all"])
def test_exceedances_matches_the_plain_formula(shape, level):
    rng = np.random.default_rng(12)
    columns = rng.pareto(1.0, size=shape)
    columns[..., ::7, :] = 0.0  # rows that are zero everywhere
    columns[..., 1::5, :] = columns[..., 1::5, :1]  # rows whose coordinates all tie
    columns[..., 2::6, -1] = columns[..., 2::6, 0]  # rows with a tied first and last coordinate
    value = {"zero": 0.0, "median": float(np.median(columns)),
             "above_all": float(columns.max()) + 1.0}[level]
    got, want = tm.core.exceedances(columns, value), _plain_exceedances(columns, value)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    if level == "above_all":
        assert got[2].shape == (0, shape[-1])


def test_perturbation_indicator_is_identity_on_support():
    """Unit scales 1_I at power one select and scale like no perturbation at all."""
    s = tm.IndexSet([1, 3])
    pert = tm.Perturbation.scaled(s, 3, [1.0, 1.0])
    assert pert.s.tolist() == [1.0, 0.0, 1.0]
    assert pert.beta == 1.0
    x = np.random.default_rng(4).pareto(1.0, size=(300, 3)) + 1.0
    v = tm.uniform_weights(s, 3)
    assert (tm.moment_ratio_known(x, 5.0, v, perturbation=pert).to_dict()
            == tm.moment_ratio_known(x, 5.0, v).to_dict())


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
    with pytest.raises(ValueError, match="quadratic-form matrix is not symmetric"):
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
    assert q.evaluate(tm.WeightVector([1.0, 0.0], tm.IndexSet([1]))) == 2.0
    assert q.evaluate(tm.WeightVector([0.0, 1.0], tm.IndexSet([2]))) == 3.0


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
    lambda x: tm.stable_tail_estimate(x, 0, tm.IndexSet([1, 2]), eps=0.1),
], ids=["tau_moment_ranks", "rank_variance_form", "stable_tail_estimate"])
def test_rank_routes_reject_k_zero_as_k_out_of_range(call):
    x = np.random.default_rng(8).pareto(1.0, size=(200, 2)) + 1.0
    with pytest.raises(tm.KOutOfRange):
        call(x)


_POSITIVE = np.arange(1.0, 21.0).reshape(10, 2)
_PAIR = tm.IndexSet([1, 2])

# each real parameter, fed a bad value, with the error class its site raises and
# a finite value out of its range (zero where it must be positive)
RANGE_SITES = {
    "standardize_known.alpha": (lambda b: tm.standardize_known(_POSITIVE, b, [1.0, 1.0]),
                                ValueError, 0.0),
    "standardize_known.scales": (lambda b: tm.standardize_known(_POSITIVE, 1.0, [b, 1.0]),
                                 ValueError, 0.0),
    "frechet_sample.alpha": (lambda b: tm.frechet_sample(5, b, seed=1), ValueError, 0.0),
    "DiscreteSpectralMeasure.probs": (lambda b: tm.DiscreteSpectralMeasure([[1.0, 0.5]], [b]),
                                      ValueError, 0.0),
    "DiscreteSpectralMeasure.atoms": (lambda b: tm.DiscreteSpectralMeasure([[1.0, b]], [1.0]),
                                      ValueError, -0.5),
    "perturbed_moment.s": (lambda b: tm.perturbed_moment(
        tm.model_spectral_measure(tm.make_scenario(0.4, 0.6)), _PAIR, [0.5, 0.5], [1.0, b]),
        ValueError, -1.0),
    "perturbed_moment.beta": (lambda b: tm.perturbed_moment(
        tm.model_spectral_measure(tm.make_scenario(0.4, 0.6)), _PAIR, [0.5, 0.5], [1.0, 1.0],
        beta=b), ValueError, 0.0),
    "EstimateReport.std_error": (lambda b: tm.EstimateReport(0.5, 3, "mk", std_error=b),
                                 ValueError, -1.0),
    "Perturbation.s": (lambda b: tm.Perturbation([1.0, b], 1.0, _PAIR), ValueError, 0.0),
    "Perturbation.beta": (lambda b: tm.Perturbation([1.0, 1.0], b, _PAIR), ValueError, 0.0),
    "RankSample.inv_alpha_hat": (lambda b: tm.RankSample(_POSITIVE, 3, _PAIR, b),
                                 ValueError, 0.0),
    "KnownSample.u": (lambda b: tm.KnownSample(_POSITIVE, b, _PAIR), ValueError, -1.0),
    "MaxLinearModel.coeffs": (lambda b: tm.MaxLinearModel([[b, 1.0]]), ValueError, -0.5),
    "DataMatrix.values": (lambda b: tm.DataMatrix([[1.0, b]]), ValueError, -1.0),
}


@pytest.mark.parametrize("bad", ["nan", "inf", "out_of_range"])
@pytest.mark.parametrize("site", sorted(RANGE_SITES))
def test_real_parameters_must_be_finite_and_in_range(site, bad):
    call, error, low = RANGE_SITES[site]
    value = {"nan": np.nan, "inf": np.inf, "out_of_range": low}[bad]
    with pytest.raises(error, match="(positive|non-negative) and finite"):
        call(value)


# each shape, count or content check at the library boundary, fed one bad input, with the
# error class and the message its site raises; ``tmp`` is a scratch directory for the files
BOUNDARY_SITES = {
    "DataMatrix.1d": (lambda tmp: tm.DataMatrix([1.0, 2.0]),
                      ValueError, r"an \(n, d\) matrix or an \(R, n, d\) block"),
    "DataMatrix.empty": (lambda tmp: tm.DataMatrix(np.zeros((0, 2))),
                         ValueError, "at least one row and one column"),
    "WeightVector.negative": (lambda tmp: tm.WeightVector([1.5, -0.5], _PAIR),
                              ValueError, "weights must be non-negative"),
    "WeightVector.2d": (lambda tmp: tm.WeightVector([[0.5, 0.5]], _PAIR),
                        ValueError, "1-dimensional"),
    "QuadraticForm.shape": (lambda tmp: tm.QuadraticForm(_PAIR, np.eye(3)),
                            ValueError, "must be 2x2"),
    "QuadraticForm.nan": (lambda tmp: tm.QuadraticForm(_PAIR, [[1.0, np.nan], [np.nan, 1.0]]),
                          ValueError, "entries must be finite"),
    "EstimateReport.count": (lambda tmp: tm.EstimateReport(0.5, -1, "mk"),
                             ValueError, "exceedance_count must be non-negative"),
    "ExperimentConfig.n": (lambda tmp: tm.ExperimentConfig(tm.make_scenario(0.1, 0.2), n=1, k=1,
                                                           reps=1, seed=0),
                           ValueError, "n must be at least 2"),
    "variance_grid.zero": (lambda tmp: tm.variance_grid(0.0),
                           tm.ParamOutOfRange, r"must lie in \(0, 1\], got 0.0"),
    "variance_grid.above_one": (lambda tmp: tm.variance_grid(1.5),
                                tm.ParamOutOfRange, r"must lie in \(0, 1\], got 1.5"),
    "run_experiment.k_one": (lambda tmp: tm.run_experiment(tm.ExperimentConfig(
        tm.make_scenario(0.1, 0.2), n=50, k=1, reps=2, seed=0)),
        tm.NoExceedances, "estimator BU produced no usable repetitions"),
    "read_matrix_csv.empty": (lambda tmp: read_matrix_csv(_empty_file(tmp)),
                              ValueError, "file is empty"),
    "write_matrix_csv.vector": (lambda tmp: write_matrix_csv(tmp / "v.csv", [1.0, 2.0]),
                                ValueError, "2-dimensional"),
    "standardize_known.scales": (lambda tmp: tm.standardize_known(_POSITIVE, 1.0, [1.0] * 3),
                                 ValueError, "one entry per column"),
    "make_scenario": (lambda tmp: tm.make_scenario(1.5, 0),
                      tm.ParamOutOfRange, r"must lie in \[0, 1\], got \(1.5, 0.0\)"),
    "make_scenario.null": (lambda tmp: tm.make_scenario(None, 0.6),
                           tm.ParamOutOfRange, r"must lie in \[0, 1\], got \(None, 0.6\)"),
    "ExperimentConfig.reps_bool": (lambda tmp: tm.ExperimentConfig(
        tm.make_scenario(0.1, 0.2), n=50, k=5, reps=True, seed=0),
        ValueError, "reps must be an integer, got True"),
    "ExperimentConfig.u_quantile_list": (lambda tmp: tm.ExperimentConfig(
        tm.make_scenario(0.1, 0.2), n=50, k=5, reps=1, seed=0, u_quantile=[0.9]),
        tm.ParamOutOfRange, r"u_quantile must lie in \(0, 1\), got \[0.9\]"),
    "IndexSet.bool": (lambda tmp: tm.IndexSet([np.True_, 2]),
                      ValueError, "a component index must be an integer, got True"),
    "MaxLinearModel.1d": (lambda tmp: tm.MaxLinearModel([0.5, 0.5]),
                          ValueError, "non-empty 2-dimensional"),
    "MaxLinearModel.zero_column": (lambda tmp: tm.MaxLinearModel([[1.0, 0.0], [1.0, 0.0]]),
                                   ValueError, "every factor column"),
    "DiscreteSpectralMeasure.1d": (lambda tmp: tm.DiscreteSpectralMeasure([1.0, 0.5], [1.0]),
                                   ValueError, "2-dimensional"),
    "DiscreteSpectralMeasure.probs": (lambda tmp: tm.DiscreteSpectralMeasure(
        [[1.0, 0.5], [0.5, 1.0]], [1.0]), ValueError, "one probability to each atom"),
    "KnownSample.perturbation": (lambda tmp: tm.KnownSample(
        _POSITIVE, 1.0, _PAIR, tm.Perturbation([1.0, 0.0], 1.0, tm.IndexSet([1]))),
        ValueError, "another index set"),
    "RankSample.zero_anchor": (lambda tmp: tm.RankSample(
        np.vstack([np.zeros((8, 2)), _POSITIVE[:2]]), 5, _PAIR),
        tm.EstimationError, "k-th upper order statistic is zero"),
    "RankSample.k": (lambda tmp: tm.RankSample(_POSITIVE, 11, _PAIR),
                     tm.KOutOfRange, "k=11 must satisfy 1 <= k <= 10"),
    "WeightVector.support": (lambda tmp: tm.WeightVector([0.5, 0.5], tm.IndexSet([1])),
                             tm.SupportViolation, "exactly zero outside the support"),
    "make_weight_vector.negative": (lambda tmp: tm.make_weight_vector([1.0, -1.0], _PAIR),
                                    ValueError, "raw weights must be non-negative"),
    "make_weight_vector.zero_sum": (lambda tmp: tm.make_weight_vector([0.0, 0.0], _PAIR),
                                    ValueError, "raw weights sum to zero"),
    "QuadraticForm.asymmetric": (lambda tmp: tm.QuadraticForm(_PAIR, [[1.0, 2.0], [0.0, 1.0]]),
                                 ValueError, "quadratic-form matrix is not symmetric"),
    "extremal_coefficient.unstandardized": (lambda tmp: tm.extremal_coefficient(
        tm.DiscreteSpectralMeasure([[1.0, 0.0]], [1.0]), _PAIR),
        ValueError, "margins are not tail-equivalent"),
    "perturbed_moment.zero_scales": (lambda tmp: tm.perturbed_moment(
        tm.model_spectral_measure(tm.make_scenario(0.4, 0.6)), _PAIR, [0.5, 0.5], [0.0, 0.0]),
        ValueError, "no atom has a positive partial max on the index set"),
    "perturbed_moment.off_index_set": (lambda tmp: tm.perturbed_moment(
        tm.model_spectral_measure(tm.make_scenario(0.4, 0.6)), tm.IndexSet([1]), [0.5, 0.5]),
        tm.SupportViolation, "non-zero outside the index set"),
    "stable_tail_estimate.eps": (lambda tmp: tm.stable_tail_estimate(_POSITIVE, 3, _PAIR, eps=1.0),
                                 tm.EpsOutOfRange, r"step must lie in \(0, 1\), got 1.0"),
    "simulate.seed": (lambda tmp: tm.simulate(tm.make_scenario(0.1, 0.2), 3, -1),
                      ValueError, r"a seed must lie in \[0, 2\*\*64\)"),
    "ExperimentConfig.seed": (lambda tmp: tm.ExperimentConfig(tm.make_scenario(0.1, 0.2), n=50,
                                                              k=5, reps=1, seed=-1),
                              ValueError, r"a seed must lie in \[0, 2\*\*64\)"),
    "ExperimentConfig.from_dict.missing": (lambda tmp: tm.ExperimentConfig.from_dict(
        {"n": 50, "reps": 1, "seed": 0, "scenario": [0.1, 0.2]}),
        ValueError, r"missing config fields: \['k'\]"),
}


def _empty_file(tmp):
    path = tmp / "empty.csv"
    path.write_text("")
    return path


@pytest.mark.parametrize("site", sorted(BOUNDARY_SITES))
def test_boundary_checks_raise_their_own_error(site, tmp_path):
    call, error, message = BOUNDARY_SITES[site]
    with pytest.raises(error, match=message):
        call(tmp_path)


def test_every_error_class_is_an_estimation_error_and_a_value_error():
    errors = [value for value in map(vars(tm).get, tm.__all__)
              if isinstance(value, type) and issubclass(value, BaseException)]
    assert sorted(error.__name__ for error in errors) == [
        "EpsOutOfRange", "EstimationError", "KOutOfRange", "NoExceedances", "ParamOutOfRange",
        "SupportViolation"]
    assert issubclass(tm.EstimationError, ValueError)
    assert all(issubclass(error, tm.EstimationError) for error in errors)


@pytest.mark.parametrize("make", [
    lambda: tm.uniform_weights(_PAIR, 2),
    lambda: tm.Perturbation([1.0, 1.0], 1.0, _PAIR),
    lambda: tm.QuadraticForm(_PAIR, np.eye(2)),
    lambda: tm.DataMatrix(_POSITIVE),
    lambda: tm.EstimateReport(0.5, 3, "mk", std_error=0.1),
    lambda: tm.DiscreteSpectralMeasure([[1.0, 0.5]], [1.0]),
], ids=["WeightVector", "Perturbation", "QuadraticForm", "DataMatrix", "EstimateReport",
        "DiscreteSpectralMeasure"])
def test_array_holding_types_compare_and_hash_by_identity(make):
    value, twin = make(), make()
    assert value == value and value != twin
    assert len({value, twin, value}) == 2


def test_check_finite_reads_scalars_and_arrays_through_one_path():
    for value in (2, 2.0, np.float64(2.0), np.array(2.0)):
        out = check_finite(value, "x")
        assert type(out) is float and out == 2.0
    assert check_finite([1, 0], "x", positive=False).tolist() == [1.0, 0.0]
    with pytest.raises(ValueError, match="^x must be positive and finite, got nan$"):
        check_finite(np.nan, "x")
    with pytest.raises(ValueError, match="^x must be non-negative and finite$"):
        check_finite([1.0, -np.inf], "x", positive=False)


@pytest.mark.parametrize("value", [0.0, 1.0, np.nan, -0.5, 1.5, np.inf])
def test_check_open_unit_rejects_the_end_points_and_nan(value):
    with pytest.raises(tm.ParamOutOfRange, match=r"level must lie in \(0, 1\)"):
        check_open_unit(value, "level")
    with pytest.raises(tm.EpsOutOfRange):
        check_open_unit(value, "step", tm.EpsOutOfRange)
    assert check_open_unit("0.25", "level") == 0.25


@pytest.mark.parametrize("value", [0.0, 1.0, np.nan])
def test_config_u_quantile_uses_the_open_unit_rule(value):
    with pytest.raises(tm.ParamOutOfRange, match="u_quantile must lie in"):
        tm.ExperimentConfig(tm.make_scenario(0.1, 0.2), n=100, k=5, reps=1, seed=0,
                            u_quantile=value)


def test_restrict_names_one_length_when_the_index_set_is_everything():
    with pytest.raises(ValueError, match=r"length 2, got 3"):
        tm.core.restrict(np.ones(3), tm.IndexSet([1, 2]), 2)
    with pytest.raises(ValueError, match=r"length 1 or 2, got 3"):
        tm.core.restrict(np.ones(3), tm.IndexSet([1]), 2)
