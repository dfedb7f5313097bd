import math
import tracemalloc

import numpy as np
import pytest

import tailmoments as tm
from tailmoments import core, maxlinear
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


def test_model_from_dict_rejects_unknown_fields():
    payload = {"coeffs": [[0.5, 0.5], [0.3, 0.7]]}
    assert MaxLinearModel.from_dict(payload) == MaxLinearModel(payload["coeffs"])
    with pytest.raises(ValueError, match=r"unknown model fields: \['cofs'\]"):
        MaxLinearModel.from_dict({**payload, "cofs": 1})
    with pytest.raises(ValueError, match="^a model must be an object, got list$"):
        MaxLinearModel.from_dict(payload["coeffs"])
    with pytest.raises(ValueError, match=r"^missing model fields: \['coeffs'\]$"):
        MaxLinearModel.from_dict({})


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


def test_a_uint64_seed_array_is_read_unchecked_with_the_same_bits(monkeypatch):
    seeds = derive_seed(3, range(100))
    assert seeds.dtype == np.uint64
    checked = maxlinear._seed_states([int(s) for s in seeds])
    calls = []
    check_integer = core.check_integer
    monkeypatch.setattr(core, "check_integer",
                        lambda *args: calls.append(args) or check_integer(*args))
    assert np.array_equal(maxlinear._seed_states(seeds), checked) and calls == []
    assert maxlinear._seed_states(seeds[5:5]).shape == (0,) and calls == []
    assert maxlinear._seed_states(seeds[5]) == checked[5]  # a uint64 scalar
    for same in (seeds.astype(object), seeds.tolist()):
        assert np.array_equal(maxlinear._seed_states(same), checked)
    # every other input is checked entry by entry: a non-integral or bool seed raises
    calls.clear()
    for bad in (1.5, np.nan, True, np.True_, [1, 2.5], [1, True], np.array([1.0, 0.5]),
                np.array([True, False])):
        with pytest.raises(ValueError, match="seed must be an integer"):
            maxlinear._seed_states(bad)
    assert calls
    # seeds follow the rule of stream indices and counters: an integer outside [0, 2**64) raises
    assert (seeds.view(np.int64) < 0).any()  # seeds above 2**63 - 1 read as negative int64s
    for bad in (-1, 2 ** 64, 2 ** 64 + 5, -2 ** 70, np.int64(-2), [0, -1], [2 ** 64],
                seeds.view(np.int64)):
        with pytest.raises(ValueError, match=r"a seed must lie in \[0, 2\*\*64\)"):
            maxlinear._seed_states(bad)
    model = tm.make_scenario(0.4, 0.6)
    for call in (lambda: simulate(model, 3, -1), lambda: frechet_sample(3, 1.0, 2 ** 64),
                 lambda: derive_seed(-1, 0), lambda: uniform_open(-1, [0])):
        with pytest.raises(ValueError, match=r"a seed must lie in \[0, 2\*\*64\)"):
            call()


@pytest.mark.parametrize("bad", [1.5, -1, 2 ** 64, np.nan])
def test_indices_and_counters_are_checked_not_truncated(bad):
    for call in (lambda i: derive_seed(1, i), lambda i: derive_seed(1, [0, i]),
                 lambda i: derive_seed(1, np.array([0, i])), lambda i: uniform_open(1, [i]),
                 lambda i: uniform_open(1, np.array([[0, 1], [2, i]]))):
        with pytest.raises(ValueError, match=r"must be an integer|non-negative|2\*\*64"):
            call(bad)


def test_integral_indices_and_counters_keep_their_bits():
    assert derive_seed(1, 2.0) == derive_seed(1, 2) == derive_seed(1, np.uint64(2))
    assert np.array_equal(derive_seed(1, range(4)), derive_seed(1, [0, 1, 2.0, 3]))
    counters = np.arange(6, dtype=np.uint64).reshape(2, 3)
    for same in (counters.astype(float), counters.astype(np.int32), counters.tolist()):
        assert np.array_equal(uniform_open(1, same), uniform_open(1, counters))


@pytest.mark.parametrize("n", [0, -5])
def test_sample_sizes_below_one_are_rejected(n):
    model = tm.make_scenario(0.4, 0.6)
    for call in (lambda: simulate(model, n, seed=1), lambda: frechet_sample(n, 1.0, seed=1)):
        with pytest.raises(ValueError, match="n must be at least 1"):
            call()


@pytest.mark.parametrize("seed,n", [(7, 200000), (range(200), 1000)])
def test_simulate_never_holds_its_output_twice(seed, n):
    model = tm.make_scenario(0.4, 0.6)
    simulate(model, 10, 1)
    tracemalloc.start()
    try:
        values = simulate(model, n, seed).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == np.shape(seed) + (n, 2)
    # a view of one buffer that holds these values and nothing more, both read-only
    base = values.base
    assert base.flags.owndata and base.nbytes == values.nbytes
    assert not values.flags.writeable and not base.flags.writeable
    # the pieces' scratch arrays have a fixed size, below one copy of these outputs
    assert peak < 2 * values.nbytes


def test_a_block_of_seeds_gives_each_seeds_own_data():
    model = tm.MaxLinearModel([[0.5, 0.2, 0.3], [0.1, 0.6, 0.3]])
    seeds = [derive_seed(3, r) for r in range(5)] + [2 ** 64 - 1, 0]
    block = simulate(model, 40, seeds)
    assert block.values.shape == (7, 40, 2) and (block.n, block.d) == (40, 2)
    for seed, values in zip(seeds, block.values):
        assert np.array_equal(values, simulate(model, 40, seed).values)
    counters = np.arange(12, dtype=np.uint64).reshape(3, 4)
    assert np.array_equal(uniform_open(seeds[:2], counters)[1], uniform_open(seeds[1], counters))
    with pytest.raises(ValueError, match=r"a seed must lie in \[0, 2\*\*64\)"):
        simulate(model, 40, seeds[:5] + [-1])


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


def _reference(model, n, seed):
    """simulate's data built from one uniform_open call over all n * factors counters."""
    counters = np.arange(n * model.factors, dtype=np.uint64).reshape(n, model.factors)
    z = -1.0 / np.log(uniform_open(seed, counters))
    return np.max(z[..., None, :] * model.coeffs, axis=-1)


@pytest.mark.parametrize("d, factors", [(1, 1), (1, 5), (2, 1), (2, 4), (3, 7)])
def test_simulate_equals_the_broadcast_maximum(d, factors):
    rng = np.random.default_rng(100 * d + factors)
    for seed in range(5):
        coeffs = rng.dirichlet(np.ones(factors), size=d)
        if factors > 1:
            coeffs[1:, rng.integers(factors)] = 0.0  # a factor some rows ignore
            coeffs /= coeffs.sum(axis=1, keepdims=True)
        model = MaxLinearModel(coeffs)
        assert np.array_equal(simulate(model, 257, seed).values, _reference(model, 257, seed))


PIECE_MODELS = {
    "scenario": make_scenario(0.4, 0.6),
    "d=1": MaxLinearModel([[0.3, 0.7]]),
    "2x9": MaxLinearModel(np.vstack([np.full(9, 1.0 / 9.0),
                                     np.r_[0.5, 0.0, np.full(7, 0.5 / 7.0)]])),
}


@pytest.mark.parametrize("chunk", [None, 4, 12, 64])  # None keeps the module's piece size
@pytest.mark.parametrize("name", PIECE_MODELS)
@pytest.mark.parametrize("n", [1, 7, 10])
def test_simulate_in_pieces_equals_one_call_over_all_counters(monkeypatch, chunk, name, n):
    """Pieces of 4 draws are single rows (or less) of the 2x9 model; 12 draws are row ranges
    of 3 rows at 4 factors, with a short last range; 64 draws are whole replications."""
    if chunk is not None:
        monkeypatch.setattr(maxlinear, "CHUNK_DRAWS", chunk)
    model = PIECE_MODELS[name]
    seeds = [derive_seed(3, r) for r in range(7)]
    block = simulate(model, n, seeds).values
    assert block.shape == (7, n, model.d)
    assert np.array_equal(block, _reference(model, n, seeds))


def test_one_replication_split_into_row_ranges_with_a_short_last_range():
    model = make_scenario(0.4, 0.6)
    rows = maxlinear.CHUNK_DRAWS // model.factors
    n = 2 * rows + 3  # two full row ranges and one of three rows
    assert np.array_equal(simulate(model, n, 5).values, _reference(model, n, 5))
    seeds = [5, 6]
    assert np.array_equal(simulate(model, n, seeds).values, _reference(model, n, seeds))


def test_replications_that_do_not_fill_the_last_piece():
    model = make_scenario(0.1, 0.2)
    n = 1000
    per = maxlinear.CHUNK_DRAWS // (n * model.factors)
    assert per >= 2
    seeds = [derive_seed(8, r) for r in range(2 * per + 1)]
    assert np.array_equal(simulate(model, n, seeds).values, _reference(model, n, seeds))


@pytest.mark.parametrize("chunk", [None, 12])
def test_a_scalar_seed_equals_a_one_seed_sequence(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(maxlinear, "CHUNK_DRAWS", chunk)
    model = make_scenario(0.4, 0.6)
    one, sequence = simulate(model, 10, 9).values, simulate(model, 10, [9]).values
    assert one.shape == (10, 2) and sequence.shape == (1, 10, 2)
    assert np.array_equal(one, sequence[0])
    assert np.array_equal(one, _reference(model, 10, 9))


def _splitmix_int(z: int) -> int:
    """The splitmix64 finalizer on one Python integer."""
    mask = 2 ** 64 - 1
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_uniform_open_equals_the_integer_formula():
    golden, mask = 0x9E3779B97F4A7C15, 2 ** 64 - 1
    for seed in (0, 5, 2 ** 64 - 1):
        counters = [0, 1, 2 ** 40 + 3, 2 ** 64 - 2]
        state = _splitmix_int((seed + golden) & mask)
        expected = [(_splitmix_int((state + (c + 1) * golden) & mask) >> 11) * 2.0 ** -53
                    + 2.0 ** -54 for c in counters]
        assert uniform_open(seed, np.array(counters, dtype=np.uint64)).tolist() == expected


def test_the_bits_of_known_draws_are_pinned():
    assert [float(x).hex() for x in frechet_sample(5, 1.5, 11)] == [
        "0x1.7818a07d431b1p+0", "0x1.a91e50807ce1ap-1", "0x1.71005cc294595p-1",
        "0x1.7ca9aadb3311dp+1", "0x1.3d0e0c8de0238p+0"]
    assert [float(x).hex() for x in uniform_open(2 ** 64 - 1, [0, 1, 2 ** 64 - 2])] == [
        "0x1.77082a9eca89dp-2", "0x1.7b4acd1403ae0p-1", "0x1.6ff0d52b2dbfep-3"]
