"""Shared domain types, validation, and simplex geometry used by every other module.

All component indices are 1-based in user-facing interfaces (constructors,
CLI, files) and converted to 0-based numpy indices exactly once, at the
boundary of each operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

#: absolute tolerance for weight normalization and matrix symmetry checks
WEIGHT_TOL = 1e-12
SYM_TOL = 1e-12


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

class EstimationError(Exception):
    """Base class for all errors raised by this package."""


class NegativeWeight(EstimationError):
    """A raw weight on the support is negative."""


class ZeroSum(EstimationError):
    """Raw weights sum to zero, so they cannot be normalized."""


class SupportViolation(EstimationError):
    """A weight is non-zero outside the declared support."""


class NonPositiveAlpha(EstimationError):
    """The tail index must be strictly positive."""


class NonPositiveScale(EstimationError):
    """Every marginal scale must be strictly positive."""


class KOutOfRange(EstimationError):
    """The order-statistic level k must satisfy 1 <= k <= n (and k < n where required)."""


class NoExceedances(EstimationError):
    """No observation exceeds the threshold, so a ratio denominator is zero."""


class EpsOutOfRange(EstimationError):
    """The difference-quotient step must lie in (0, 1)."""


class NonSymmetric(EstimationError):
    """A quadratic-form matrix is not symmetric."""


class NotStandardized(EstimationError):
    """The spectral measure does not have tail-equivalent (standardized) margins."""


class DegenerateDirection(EstimationError):
    """The measure puts no mass in the requested direction (E[l_I] = 0)."""


class ParamOutOfRange(EstimationError):
    """A model parameter lies outside its admissible range."""


# ---------------------------------------------------------------------------
# small array helpers
# ---------------------------------------------------------------------------

def _as_float_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# index sets and data matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexSet:
    """A non-empty set of 1-based component indices, kept sorted and unique."""

    members: tuple[int, ...]

    def __init__(self, members: Sequence[int]):
        mem = tuple(check_integer(m, "a component index") for m in members)
        if len(mem) == 0:
            raise ValueError("index set must be non-empty")
        if any(m < 1 for m in mem):
            raise ValueError("component indices are 1-based and must be >= 1")
        if len(set(mem)) != len(mem):
            raise ValueError("component indices must be unique")
        if tuple(sorted(mem)) != mem:
            raise ValueError("component indices must be strictly increasing")
        object.__setattr__(self, "members", mem)

    @property
    def size(self) -> int:
        return len(self.members)

    def zero_based(self) -> np.ndarray:
        """Numpy indexer (0-based) for the members."""
        return np.asarray(self.members, dtype=int) - 1

    def check_within(self, d: int) -> None:
        if self.members[-1] > d:
            raise ValueError(f"index {self.members[-1]} out of range for dimension {d}")

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, item) -> bool:
        return item in self.members

    def __len__(self) -> int:
        return len(self.members)


def embed(values, index_set: IndexSet, d: int) -> np.ndarray:
    """Zero-filled length-d vectors holding ``values`` on the index set, along the last axis."""
    values = np.asarray(values, dtype=float)
    out = np.zeros(values.shape[:-1] + (d,))
    out[..., index_set.zero_based()] = values
    return out


def restrict(v, index_set: IndexSet, d: int) -> np.ndarray:
    """The |I| coordinates on the index set of a WeightVector, an |I|-vector or a d-vector.

    A WeightVector off the index set raises SupportViolation, another length ValueError.
    """
    if isinstance(v, WeightVector):
        if v.d != d:
            raise ValueError(f"the weights have length {v.d}, not the dimension {d} read in")
        if any(j not in index_set for j in v.support):
            raise SupportViolation(f"the weights' support {v.support.members} is not "
                                   f"inside the index set {index_set.members}")
        return v.weights[index_set.zero_based()]
    arr = np.asarray(v, dtype=float)
    if arr.shape[0] == index_set.size:
        return arr
    if arr.shape[0] != d:
        raise ValueError(f"vectors must have length {index_set.size} or {d}, got {arr.shape[0]}")
    index_set.check_within(d)
    return arr[index_set.zero_based()]


def _zero_outside(arr: np.ndarray, index_set: IndexSet) -> bool:
    """True when every entry of ``arr`` off the index set is exactly zero (a NaN is not)."""
    return np.count_nonzero(arr) == np.count_nonzero(arr[index_set.zero_based()])


def _data_array(values, name: str) -> np.ndarray:
    """``values`` as a non-empty 2-d float array with finite, non-negative entries."""
    arr = _as_float_array(values, name, 2)
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("data matrix must have at least one row and one column")
    if not np.all(np.isfinite(arr)):
        raise ValueError("data matrix entries must be finite")
    if np.any(arr < 0):
        raise ValueError("data matrix entries must be non-negative")
    return arr


@dataclass(frozen=True)
class DataMatrix:
    """Raw n x d non-negative observation matrix; rows are i.i.d. samples."""

    values: np.ndarray

    def __init__(self, values):
        object.__setattr__(self, "values", _freeze(_data_array(values, "values")))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


# ---------------------------------------------------------------------------
# weight vectors on the simplex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightVector:
    """Convex-combination weights on the unit simplex, supported inside an index set.

    ``weights`` always has full length d; entries outside ``support`` are
    exactly zero and the entries sum to one within ``WEIGHT_TOL``.
    """

    weights: np.ndarray
    support: IndexSet

    def __init__(self, weights, support: IndexSet):
        w = _as_float_array(weights, "weights", 1)
        support.check_within(w.shape[0])
        if not _zero_outside(w, support):
            raise SupportViolation("weights must be exactly zero outside the support")
        if np.any(w < 0):
            raise NegativeWeight("weights must be non-negative")
        if not abs(float(w.sum()) - 1.0) <= WEIGHT_TOL:  # NaN and inf fail it too
            raise ValueError(f"weights must be finite and sum to 1 within {WEIGHT_TOL}")
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "support", support)

    @property
    def d(self) -> int:
        return self.weights.shape[0]

    def on_support(self) -> np.ndarray:
        """The weights restricted to the support, in support order."""
        return self.weights[self.support.zero_based()]


def make_weight_vector(raw, support: IndexSet) -> WeightVector:
    """Normalize raw non-negative weights into a :class:`WeightVector`.

    Parameters
    ----------
    raw : sequence of float
        Full-length (d) weights, non-negative on the support and exactly zero
        elsewhere.
    support : IndexSet
        1-based indices the weights may live on.

    Returns
    -------
    WeightVector
        ``raw`` rescaled to sum to one, with the support recorded.

    Raises
    ------
    ValueError
        If any entry is not finite.
    NegativeWeight
        If any entry is negative.
    ZeroSum
        If the entries sum to zero (nothing to normalize).
    SupportViolation
        If any entry outside the support is non-zero (raised by :class:`WeightVector`).
    """
    w = _as_float_array(raw, "raw", 1)
    if not np.all(np.isfinite(w)):  # before dividing: inf / inf would warn
        raise ValueError("raw weights must be finite")
    if np.any(w < 0):
        raise NegativeWeight("raw weights must be non-negative")
    total = float(w.sum())
    if total <= 0.0:
        raise ZeroSum("raw weights sum to zero")
    return WeightVector(w / total, support)


def uniform_weights(support: IndexSet, d: int) -> WeightVector:
    """The barycenter of the simplex face spanned by ``support``."""
    return WeightVector(embed(np.full(support.size, 1.0 / support.size), support, d), support)


def basis_weights(support: IndexSet, d: int, j: int) -> WeightVector:
    """The standard basis vector 1_{j} as a weight vector (j must lie in support)."""
    if j not in support:
        raise ValueError(f"index {j} is not in the support {support.members}")
    return WeightVector(embed(np.equal(support.members, j), support, d), support)


# ---------------------------------------------------------------------------
# perturbations of the threshold geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Perturbation:
    """A componentwise scale factor s (supported on an index set) and a power beta."""

    s: np.ndarray
    beta: float
    index_set: IndexSet

    def __init__(self, s, beta: float, index_set: IndexSet):
        arr = _as_float_array(s, "s", 1)
        index_set.check_within(arr.shape[0])
        if not _zero_outside(arr, index_set):
            raise ValueError("perturbation scales must be zero outside the index set")
        if np.any(arr[index_set.zero_based()] <= 0.0) or not np.all(np.isfinite(arr)):
            raise ValueError("perturbation scales must be positive and finite on the index set")
        beta = float(beta)
        if not 0.0 < beta < np.inf:
            raise ValueError(f"beta must be positive and finite, got {beta}")
        object.__setattr__(self, "s", _freeze(arr))
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "index_set", index_set)

    @classmethod
    def indicator(cls, index_set: IndexSet, d: int, beta: float = 1.0) -> "Perturbation":
        """The unperturbed scaling 1_I (ones on the index set, zero elsewhere)."""
        return cls(embed(np.ones(index_set.size), index_set, d), beta, index_set)

    @classmethod
    def scaled(cls, index_set: IndexSet, d: int, scales, beta: float = 1.0) -> "Perturbation":
        """An arbitrary positive scaling on the index set."""
        return cls(embed(scales, index_set, d), beta, index_set)


# ---------------------------------------------------------------------------
# quadratic forms and estimate reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticForm:
    """A symmetric |I| x |I| matrix representing v -> v^T A v restricted to an index set."""

    index_set: IndexSet
    matrix: np.ndarray

    def __init__(self, index_set: IndexSet, matrix):
        mat = _as_float_array(matrix, "matrix", 2)
        m = index_set.size
        if mat.shape != (m, m):
            raise ValueError(f"matrix must be {m}x{m} for this index set, got {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix entries must be finite")
        if np.max(np.abs(mat - mat.T), initial=0.0) > SYM_TOL:
            raise NonSymmetric("quadratic-form matrix is not symmetric")
        # exact symmetry for downstream eigensolves
        mat = 0.5 * (mat + mat.T)
        object.__setattr__(self, "index_set", index_set)
        object.__setattr__(self, "matrix", _freeze(mat))

    def evaluate(self, v) -> float:
        """v^T A v for a WeightVector, a full-length vector, or an |I|-vector."""
        x = restrict(v, self.index_set, v.d if isinstance(v, WeightVector) else len(v))
        return float(x @ self.matrix @ x)


@dataclass(frozen=True)
class EstimateReport:
    """A single estimate with its reciprocal, a plug-in standard error, and context."""

    estimate: float
    exceedance_count: int
    method: str
    parameters: Mapping[str, object] = field(default_factory=dict)
    std_error: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "estimate", float(self.estimate))
        object.__setattr__(self, "exceedance_count", int(self.exceedance_count))
        if self.exceedance_count < 0:
            raise ValueError("exceedance_count must be non-negative")
        if self.std_error is not None:
            object.__setattr__(self, "std_error", float(self.std_error))
            if self.std_error < 0:
                raise ValueError("std_error must be non-negative")
        object.__setattr__(self, "parameters", dict(self.parameters))

    @property
    def inverse_estimate(self) -> float | None:
        """``1 / estimate`` for a positive estimate, else None."""
        return 1.0 / self.estimate if self.estimate > 0 else None

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "inverse_estimate": self.inverse_estimate,
            "std_error": self.std_error,
            "exceedance_count": self.exceedance_count,
            "method": self.method,
            "parameters": _plain(self.parameters),
        }


def _plain(obj):
    """Recursively convert numpy scalars/arrays to built-in types for JSON output."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, IndexSet):
        return list(obj.members)
    return obj


def check_integer(value, name: str) -> int:
    """``value`` as an int; a non-integral or non-finite value raises ValueError, not truncated."""
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or out != value:
        raise ValueError(f"{name} must be an integer, got {value}")
    return out


def check_moment_power(p) -> int:
    """Validate a moment power: must be a non-negative integer; returns it as int."""
    p = check_integer(p, "the moment power p")
    if p < 0:
        raise ValueError(f"the moment power p must be non-negative, got {p}")
    return p


def matrix_values(data) -> np.ndarray:
    """The (n, d) float array of a DataMatrix (a tail sample is one) or an array-like.

    Array-likes get the checks of :class:`DataMatrix`; a DataMatrix was checked when built.
    """
    if isinstance(data, DataMatrix):
        return data.values
    return _data_array(data, "data")


# ---------------------------------------------------------------------------
# the partial max functional
# ---------------------------------------------------------------------------

def partial_max(x, index_set: IndexSet):
    """Maximum of the coordinates of ``x`` over the index set.

    Accepts a single d-vector (returns a float) or an (n, d) matrix
    (returns the per-row maxima as an n-vector).
    """
    arr = np.asarray(x, dtype=float)
    idx = index_set.zero_based()
    if arr.ndim == 1:
        index_set.check_within(arr.shape[0])
        return float(np.max(arr[idx]))
    if arr.ndim == 2:
        index_set.check_within(arr.shape[1])
        return np.max(arr[:, idx], axis=1)
    raise ValueError("x must be a vector or a matrix")


def exceedances(columns: np.ndarray, level: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row maxima ``ell`` of (n, m) columns, the mask ``ell > level`` and those rows / ``ell``.

    The one exceedance step of the estimators and the oracle; a level >= 0 divides by no zero.
    """
    ell = columns.max(axis=1)
    mask = ell > level
    return ell, mask, columns[mask] / ell[mask, None]
