"""Max-linear models with unit-Frechet factors, and their exact spectral measures.

A max-linear vector takes componentwise maxima of scaled independent
standard Frechet factors, ``X_j = max_i a_{ji} Z_i``.  With coefficient rows
summing to one the margins are exactly standard Frechet, and the spectral
measure is discrete with one atom per coefficient column — which makes the
family ideal for validating estimators against exact population values.

Simulation is counter-based: every uniform is a pure function of the seed
and the (row, factor) position, so results are independent of execution
order and chunking, and bitwise reproducible across runs.  :func:`simulate`
therefore draws in cache-sized pieces of at most :data:`CHUNK_DRAWS`
factor draws, and folds each piece into its preallocated output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataMatrix, ParamOutOfRange, as_number, check_fields, check_finite, check_integer
from .oracle import DiscreteSpectralMeasure

# splitmix64 constants
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

#: factor draws :func:`simulate` makes at a time, so that its pieces stay in cache
CHUNK_DRAWS = 2 ** 15


def _splitmix(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """The splitmix64 finalizer, vectorized over uint64 arrays; an array is mixed in place.

    The shifted copies go to ``scratch``, a uint64 array (or a same-sized view of
    one) of ``z``'s shape, or to one temporary when there is none.
    """
    if scratch is None:
        scratch = np.empty_like(z)
    for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        if mix is not None:
            z *= mix
    return z


def _seed_states(seed) -> np.ndarray:
    """The splitmix state of an integer seed, or the array of states of a sequence of them.

    Seeds are read as :func:`derive_seed` reads stream indices: one outside the integers
    0 .. 2**64 - 1 raises ValueError.
    """
    seeds = _unsigned(seed, "a seed")
    with np.errstate(over="ignore"):
        return _splitmix(seeds.reshape(-1) + _GOLDEN).reshape(seeds.shape)


def _unsigned(values, name: str) -> np.ndarray:
    """Seeds, indices or counters as uint64; a non-integral, negative or >= 2**64 entry, or a
    bool, raises ValueError.

    Integer arrays are checked at once, anything else entry by entry (exact above 2**53), and
    so is a list or tuple, which may hold a bool among integers."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" or isinstance(values, (list, tuple)):
        arr = np.array([check_integer(x, name) for x in np.ravel(np.asarray(values, dtype=object))],
                       dtype=object).reshape(arr.shape)
    if arr.dtype.kind != "u" and np.any((arr < 0) | (arr >= 2 ** 64)):
        raise ValueError(f"{name} must lie in [0, 2**64)")
    return arr.astype(np.uint64, copy=False)


def _keys(counters) -> np.ndarray:
    """``(counter + 1) * golden``, the step each counter adds to a seed's state."""
    with np.errstate(over="ignore"):
        return (np.asarray(counters, dtype=np.uint64) + np.uint64(1)) * _GOLDEN


def _uniforms(states, keys: np.ndarray, bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The uniforms of seed ``states`` at counter ``keys``, written to ``out`` and returned.

    ``bits`` (uint64) and ``out`` (float64) have shape ``states.shape +
    keys.shape``; ``out`` is the mixer's scratch before it takes the result.
    """
    states = np.reshape(states, np.shape(states) + (1,) * keys.ndim)
    with np.errstate(over="ignore"):
        np.add(states, keys, out=bits)
    _splitmix(bits, out.view(np.uint64))
    bits >>= np.uint64(11)
    np.multiply(bits, 2.0 ** -53, out=out)
    out += 2.0 ** -54
    return out


def uniform_open(seed, counters: np.ndarray) -> np.ndarray:
    """Uniforms in the open interval (0, 1), one per counter value.

    Each output is ``mix(mix(seed + golden) + (counter + 1) * golden)`` with
    the top 53 bits mapped to ``[2^-54, 1 - 2^-54]``, so logs of either tail
    are always finite.  A sequence of R seeds gives R such arrays along a
    leading axis, each the same bits as its seed's own call.  A seed or a
    counter outside the integers 0 .. 2**64 - 1 raises ValueError.
    """
    states, keys = _seed_states(seed), _keys(_unsigned(counters, "a counter"))
    shape = np.shape(states) + keys.shape
    return _uniforms(states, keys, np.empty(shape, np.uint64), np.empty(shape))


def derive_seed(seed: int, index):
    """A decorrelated child seed for stream ``index`` (used for per-repetition seeding).

    A sequence of indices gives a uint64 array of their child seeds.  A seed or
    an index outside the integers 0 .. 2**64 - 1 raises ValueError.
    """
    index = _unsigned(index, "a stream index")
    with np.errstate(over="ignore"):
        child = _splitmix(_seed_states(seed) ^ _splitmix((index + np.uint64(1)) * _GOLDEN))
    return int(child) if child.ndim == 0 else child


@dataclass(frozen=True, slots=True)
class MaxLinearModel:
    """Coefficient matrix of a max-linear model, one row per component.

    Rows must sum to one (unit-Frechet margins) and every factor column must
    load on at least one component, so no factor is silent.
    """

    coeffs: np.ndarray

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("coeffs must be a non-empty 2-dimensional matrix")
        check_finite(arr, "coefficients", positive=False)
        rows = arr.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-12:
            raise ValueError("every coefficient row must sum to 1 within 1e-12")
        if np.any(arr.max(axis=0) <= 0.0):
            raise ValueError("every factor column must have a positive coefficient")
        arr = np.array(arr, copy=True)
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def __eq__(self, other) -> bool:  # the generated one would compare arrays
        return isinstance(other, MaxLinearModel) and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self) -> int:  # agrees with __eq__: adding 0.0 turns -0.0 into 0.0
        return hash((self.coeffs.shape, (self.coeffs + 0.0).tobytes()))

    @property
    def d(self) -> int:
        return self.coeffs.shape[0]

    @property
    def factors(self) -> int:
        return self.coeffs.shape[1]

    def to_dict(self) -> dict:
        return {"coeffs": self.coeffs.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "MaxLinearModel":
        return cls(**check_fields(payload, "model", ("coeffs",)))


def make_scenario(p: float, q: float) -> MaxLinearModel:
    """The two-component, four-factor benchmark family indexed by (p, q) in [0, 1]^2.

    Rows are ``(1, p, 1, q)`` and ``(p, 1, q, 1)`` divided by ``2 + p + q``;
    ``p = q = 1`` is complete dependence and ``p = q = 0`` gives two
    independent pairs of shared factors (asymptotic independence between
    the components).
    """
    p, q = as_number(p), as_number(q)
    if not all(isinstance(x, float) and 0.0 <= x <= 1.0 for x in (p, q)):
        raise ParamOutOfRange(f"scenario parameters must lie in [0, 1], got ({p}, {q})")
    total = 2.0 + p + q
    rows = np.array([[1.0, p, 1.0, q], [p, 1.0, q, 1.0]]) / total
    return MaxLinearModel(rows)


def model_spectral_measure(model: MaxLinearModel) -> DiscreteSpectralMeasure:
    """The exact discrete spectral measure of a max-linear model.

    One atom per factor column, the column divided by its maximum, with
    probability proportional to that maximum; duplicate atoms are merged.
    """
    col_max = model.coeffs.max(axis=0)
    atoms = (model.coeffs / col_max).T
    probs = col_max / col_max.sum()
    measure = DiscreteSpectralMeasure(atoms, probs)
    return measure.merged()


def simulate(model: MaxLinearModel, n: int, seed) -> DataMatrix:
    """n independent rows of the max-linear vector, counter-keyed by (seed, row, factor).

    The factor at position (l, i) uses counter ``l * factors + i``, so any
    sub-block of rows is reproducible in isolation and identical components
    of the model yield bitwise identical data columns.  A sequence of R
    seeds gives an (R, n, d) block whose slice r is, bit for bit, the data
    of seed r.  The block is column-major: a view of one (d, R, n) array, in
    which each component's n draws of a replication lie together.  A
    :class:`~tailmoments.core.DataMatrix` copy keeps that layout, and no
    result depends on it.  The draws are made in pieces of at most
    :data:`CHUNK_DRAWS` (or one row, if that is more): whole replications
    while they fit, else row ranges of one.
    """
    n = check_integer(n, "n")
    if n < 1:
        raise ValueError("n must be at least 1")
    states, m = _seed_states(seed), model.factors
    # component-major, so that each component's n draws of a replication lie together; no
    # caller holds it, so DataMatrix keeps its (R, n, d) view uncopied
    buf = np.empty((model.d,) + np.shape(states) + (n,))
    states, out = np.reshape(states, -1), buf.reshape(model.d, -1, n)
    rows = min(n, max(1, CHUNK_DRAWS // m))
    per = max(1, CHUNK_DRAWS // (rows * m))  # replications per piece
    bits, z, term = np.empty(per * m * rows, np.uint64), np.empty(per * m * rows), \
        np.empty(per * rows)
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        # factor by factor, so that each factor's draws for these rows lie together
        keys = _keys(np.arange(lo * m, hi * m, dtype=np.uint64).reshape(hi - lo, m).T.copy())
        for first in range(0, states.size, per):
            last = min(states.size, first + per)
            r, size = last - first, (last - first) * m * (hi - lo)
            piece = _uniforms(states[first:last], keys, bits[:size].reshape(r, m, hi - lo),
                              z[:size].reshape(r, m, hi - lo))
            np.log(piece, out=piece)
            np.divide(-1.0, piece, out=piece)  # standard Frechet factors
            # each component folds in one factor at a time; the same maximum bitwise,
            # since a maximum does not depend on order
            scaled = term[:r * (hi - lo)].reshape(r, hi - lo)
            for j, row in enumerate(model.coeffs):
                column = out[j, first:last, lo:hi]
                np.multiply(piece[:, 0, :], row[0], out=column)
                for i in range(1, m):
                    np.multiply(piece[:, i, :], row[i], out=scaled)
                    np.maximum(column, scaled, out=column)
    buf.flags.writeable = False
    return DataMatrix(np.moveaxis(buf, 0, -1), copy=False)


def frechet_sample(n: int, alpha: float, seed: int) -> np.ndarray:
    """n i.i.d. Frechet(alpha) draws: the one-factor model's :func:`simulate` data, bit for bit,
    raised to the power ``1 / alpha``.

    Draw l is ``(-1 / log u_l) ** (1 / alpha)`` with ``u_l`` the uniform of counter l; a
    sequence of R seeds gives R rows of n draws.
    """
    alpha = check_finite(alpha, "alpha")
    return simulate(MaxLinearModel([[1.0]]), n, seed).values[..., 0] ** (1.0 / alpha)
