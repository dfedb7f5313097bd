import math

import numpy as np
import pytest

import tailmoments as tm
from tailmoments.maxlinear import (
    MaxLinearModel,
    derive_seed,
    frechet_sample,
    make_scenario,
    model_spectral_measure,
    simulate,
    uniform_open,
)

I12 = tm.IndexSet([1, 2])


def test_model_requires_unit_row_sums_and_nonnegativity():
    with pytest.raises(ValueError):
        MaxLinearModel(np.array([[0.5, 0.5], [0.3, 0.3]]))
    with pytest.raises(ValueError):
        MaxLinearModel(np.array([[-0.1, 1.1], [0.5, 0.5]]))


def test_scenario_coefficients_are_a_valid_model():
    model = make_scenario(0.1, 0.2)
    assert model.coeffs.shape == (2, 4)
    np.testing.assert_allclose(model.coeffs.sum(axis=1), 1.0, atol=1e-15)


@pytest.mark.parametrize("p,q,tau", [(0.1, 0.2, 40.0 / 23.0), (0.4, 0.6, 4.0 / 3.0), (1.0, 1.0, 1.0), (0.0, 0.0, 2.0)])
def test_scenario_extremal_coefficient(p, q, tau):
    measure = model_spectral_measure(make_scenario(p, q))
    assert tm.extremal_coefficient(measure, I12) == pytest.approx(tau, rel=1e-14)


def test_spectral_measure_atoms_are_sup_normalized():
    m = model_spectral_measure(make_scenario(0.3, 0.8))
    assert np.allclose(np.max(m.atoms, axis=1), 1.0)
    assert float(np.sum(m.probs)) == pytest.approx(1.0, abs=1e-15)


def test_spectral_measure_merges_duplicate_directions():
    m = model_spectral_measure(make_scenario(0.3, 0.3))
    assert len(m.probs) == 2
    assert m.probs.tolist() == [0.5, 0.5]


def test_uniform_open_is_deterministic_and_in_the_open_interval():
    counters = np.arange(1000)
    u = uniform_open(9, counters)
    assert np.array_equal(u, uniform_open(9, counters))
    assert np.all((u > 0.0) & (u < 1.0))
    assert not np.array_equal(u, uniform_open(10, counters))


def test_uniform_open_looks_uniform():
    u = uniform_open(123, np.arange(200000))
    assert abs(float(u.mean()) - 0.5) < 0.005
    assert abs(float(u.var()) - 1.0 / 12.0) < 0.002


def test_frechet_sample_power_identity():
    base = frechet_sample(64, 1.0, seed=3)
    assert np.array_equal(frechet_sample(64, 2.0, seed=3), base**0.5)


def test_frechet_sample_distribution():
    z = frechet_sample(100000, 1.0, seed=5)
    # P(Z <= 1) = exp(-1) for the unit Frechet law
    assert float(np.mean(z <= 1.0)) == pytest.approx(math.exp(-1.0), abs=0.005)


def test_sample_sizes_are_checked_not_truncated():
    model = tm.make_scenario(0.4, 0.6)
    for call in (lambda n: simulate(model, n, seed=1), lambda n: frechet_sample(n, 1.0, seed=1)):
        for n in (100.9, np.inf, np.nan):
            with pytest.raises(ValueError, match="n must be an integer"):
                call(n)
    assert np.array_equal(simulate(model, 100.0, seed=1).values,
                          simulate(model, 100, seed=1).values)


@pytest.mark.parametrize("seed", [1.5, np.nan])
def test_seeds_are_checked_integers(seed):
    model = tm.make_scenario(0.4, 0.6)
    for call in (lambda s: simulate(model, 3, s), lambda s: frechet_sample(3, 1.0, s),
                 lambda s: simulate(model, 3, [1, s]), lambda s: derive_seed(s, 0)):
        with pytest.raises(ValueError, match="seed must be an integer"):
            call(seed)
    assert np.array_equal(simulate(model, 3, 7.0).values, simulate(model, 3, 7).values)


def test_a_block_of_seeds_gives_each_seeds_own_data():
    model = tm.MaxLinearModel([[0.5, 0.2, 0.3], [0.1, 0.6, 0.3]])
    seeds = [derive_seed(3, r) for r in range(5)] + [-1, 0]
    block = simulate(model, 40, seeds)
    assert block.values.shape == (7, 40, 2) and (block.n, block.d) == (40, 2)
    for seed, values in zip(seeds, block.values):
        assert np.array_equal(values, simulate(model, 40, seed).values)
    counters = np.arange(12, dtype=np.uint64).reshape(3, 4)
    assert np.array_equal(uniform_open(seeds[:2], counters)[1], uniform_open(seeds[1], counters))


def test_equal_models_hash_equal_and_configs_are_dict_keys():
    a, b = make_scenario(0.4, 0.6), make_scenario(0.4, 0.6)
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(MaxLinearModel([[1.0, 0.0], [0.5, 0.5]])) == \
        hash(MaxLinearModel([[1.0, -0.0], [0.5, 0.5]]))
    assert len({a, b, make_scenario(0.4, 0.7)}) == 2
    config = tm.ExperimentConfig(model=a, n=100, k=5, reps=2, seed=1)
    table = {config: "a"}
    assert table[tm.ExperimentConfig(model=b, n=100, k=5, reps=2, seed=1)] == "a"
    assert tm.ExperimentConfig(model=b, n=100, k=5, reps=3, seed=1) not in table


def test_simulate_is_reproducible_and_extends_by_row():
    model = make_scenario(0.3, 0.7)
    a = simulate(model, 10, seed=42)
    b = simulate(model, 5, seed=42)
    assert np.array_equal(a.values[:5], b.values)
    assert np.array_equal(a.values, simulate(model, 10, seed=42).values)
    assert a.values.shape == (10, 2)
    assert np.all(a.values > 0)


def test_simulate_margins_are_unit_frechet():
    x = simulate(make_scenario(0.1, 0.2), 100000, seed=8).values
    for col in range(2):
        assert float(np.mean(x[:, col] <= 1.0)) == pytest.approx(math.exp(-1.0), abs=0.006)


def test_simulate_realizes_the_model_dependence():
    """The empirical extremal coefficient of a large draw approaches tau."""
    model = make_scenario(0.4, 0.6)
    x = simulate(model, 200000, seed=13).values
    u = 100.0
    both = float(np.mean(np.maximum(x[:, 0], x[:, 1]) > u))
    one = float(np.mean(x[:, 0] > u))
    assert both / one == pytest.approx(4.0 / 3.0, rel=0.05)


def test_derive_seed_is_stable_and_spreads():
    assert derive_seed(5, 0) == derive_seed(5, 0)
    seeds = {derive_seed(5, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(5, 1) != derive_seed(6, 1)


@pytest.mark.parametrize("d, factors", [(1, 1), (1, 5), (2, 1), (2, 4), (3, 7)])
def test_simulate_equals_the_broadcast_maximum(d, factors):
    rng = np.random.default_rng(100 * d + factors)
    for seed in range(5):
        coeffs = rng.dirichlet(np.ones(factors), size=d)
        if factors > 1:
            coeffs[1:, rng.integers(factors)] = 0.0  # a factor some rows ignore
            coeffs /= coeffs.sum(axis=1, keepdims=True)
        counters = np.arange(257 * factors, dtype=np.uint64).reshape(257, factors)
        z = -1.0 / np.log(uniform_open(seed, counters))
        broadcast = np.max(z[:, None, :] * coeffs[None, :, :], axis=2)
        assert np.array_equal(simulate(MaxLinearModel(coeffs), 257, seed).values, broadcast)
