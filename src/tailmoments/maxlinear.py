"""Max-linear models with unit-Frechet factors, and their exact spectral measures.

A max-linear vector takes componentwise maxima of scaled independent
standard Frechet factors, ``X_j = max_i a_{ji} Z_i``.  With coefficient rows
summing to one the margins are exactly standard Frechet, and the spectral
measure is discrete with one atom per coefficient column — which makes the
family ideal for validating estimators against exact population values.

Simulation is counter-based: every uniform is a pure function of the seed
and the (row, factor) position, so results are independent of execution
order and chunking, and bitwise reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataMatrix, ParamOutOfRange, check_integer
from .oracle import DiscreteSpectralMeasure

# splitmix64 constants
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, vectorized over uint64 arrays."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _seed_state(seed: int) -> np.uint64:
    return _splitmix(np.uint64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF)) + _GOLDEN)


def uniform_open(seed: int, counters: np.ndarray) -> np.ndarray:
    """Uniforms in the open interval (0, 1), one per counter value.

    Each output is ``mix(mix(seed + golden) + (counter + 1) * golden)`` with
    the top 53 bits mapped to ``[2^-54, 1 - 2^-54]``, so logs of either tail
    are always finite.
    """
    counters = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        state = _seed_state(seed)
        bits = _splitmix(state + (counters + np.uint64(1)) * _GOLDEN)
    return (bits >> np.uint64(11)) * 2.0 ** -53 + 2.0 ** -54


def derive_seed(seed: int, index: int) -> int:
    """A decorrelated child seed for stream ``index`` (used for per-repetition seeding)."""
    with np.errstate(over="ignore"):
        base = _seed_state(seed)
        child = _splitmix(base ^ _splitmix((np.uint64(index) + np.uint64(1)) * _GOLDEN))
    return int(child)


@dataclass(frozen=True)
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
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("coefficients must be finite and non-negative")
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
        return cls(payload["coeffs"])


def make_scenario(p: float, q: float) -> MaxLinearModel:
    """The two-component, four-factor benchmark family indexed by (p, q) in [0, 1]^2.

    Rows are ``(1, p, 1, q)`` and ``(p, 1, q, 1)`` divided by ``2 + p + q``;
    ``p = q = 1`` is complete dependence and ``p = q = 0`` gives two
    independent pairs of shared factors (asymptotic independence between
    the components).
    """
    p = float(p)
    q = float(q)
    if not (0.0 <= p <= 1.0) or not (0.0 <= q <= 1.0):
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


def simulate(model: MaxLinearModel, n: int, seed: int) -> DataMatrix:
    """n independent rows of the max-linear vector, counter-keyed by (seed, row, factor).

    The factor at position (l, i) uses counter ``l * factors + i``, so any
    sub-block of rows is reproducible in isolation and identical components
    of the model yield bitwise identical data columns.
    """
    n = check_integer(n, "n")
    if n < 1:
        raise ValueError("n must be at least 1")
    m = model.factors
    counters = np.arange(n * m, dtype=np.uint64).reshape(n, m)
    z = -1.0 / np.log(uniform_open(seed, counters))  # standard Frechet factors
    # fold in one factor at a time: no (n, d, m) temporary, and the same
    # maximum bitwise, since a maximum does not depend on order
    x = np.multiply.outer(z[:, 0], model.coeffs[:, 0])
    for i in range(1, m):
        np.maximum(x, np.multiply.outer(z[:, i], model.coeffs[:, i]), out=x)
    return DataMatrix(x)


def frechet_sample(n: int, alpha: float, seed: int) -> np.ndarray:
    """n i.i.d. Frechet(alpha) draws, sharing the counter scheme of :func:`simulate`."""
    alpha = float(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    counters = np.arange(check_integer(n, "n"), dtype=np.uint64)
    z = -1.0 / np.log(uniform_open(seed, counters))
    return z ** (1.0 / alpha)
