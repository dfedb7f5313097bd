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

class EstimationError(ValueError):
    """Base class of the package's own error classes, each naming the input to change.

    It is a ValueError, so one ``except ValueError`` catches every bad input.
    """


class SupportViolation(EstimationError):
    """A weight is non-zero outside the declared support."""


class KOutOfRange(EstimationError):
    """The order-statistic level k must satisfy 1 <= k <= n (and k < n where required)."""


class NoExceedances(EstimationError):
    """No observation exceeds the threshold, so a ratio denominator is zero."""


class EpsOutOfRange(EstimationError):
    """The difference-quotient step must lie in (0, 1)."""


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
    """A read-only float copy of ``arr``: no array or view the caller holds can change it."""
    out = np.array(arr, dtype=float)
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


def embed(values, index_set: IndexSet, d: int) -> np.ndarray:
    """Zero-filled length-d vectors holding ``values`` on the index set, along the last axis."""
    index_set.check_within(d)
    values = np.asarray(values, dtype=float)
    out = np.zeros(values.shape[:-1] + (d,))
    out[..., index_set.zero_based()] = values
    return out


def restrict(v, index_set: IndexSet, d: int) -> np.ndarray:
    """The |I| coordinates on the index set of a WeightVector, an |I|-vector or a d-vector.

    A WeightVector or a d-vector off the index set raises SupportViolation, another length
    ValueError.
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
        lengths = d if index_set.size == d else f"{index_set.size} or {d}"
        raise ValueError(f"vectors must have length {lengths}, got {arr.shape[0]}")
    index_set.check_within(d)
    if not _zero_outside(arr, index_set):
        raise SupportViolation(f"a length-{d} vector is non-zero outside the index set "
                               f"{index_set.members}")
    return arr[index_set.zero_based()]


def _zero_outside(arr: np.ndarray, index_set: IndexSet) -> bool:
    """True when every entry of ``arr`` off the index set is exactly zero (a NaN is not)."""
    return np.count_nonzero(arr) == np.count_nonzero(arr[index_set.zero_based()])


def _data_array(values, name: str) -> np.ndarray:
    """``values`` as a non-empty (n, d) or (R, n, d) float array, finite and non-negative."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim not in (2, 3):
        raise ValueError(f"{name} must be an (n, d) matrix or an (R, n, d) block, "
                         f"got shape {arr.shape}")
    if 0 in arr.shape:
        raise ValueError("data matrix must have at least one row and one column")
    return check_finite(arr, "data matrix entries", positive=False)


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """Raw n x d non-negative observation matrix; rows are i.i.d. samples.

    ``values`` may also be an (R, n, d) block: R replications of such a
    matrix along a leading axis.  They are checked and kept as a read-only
    copy in the layout of the array handed in, so the copy of a
    column-major block, as :func:`~tailmoments.maxlinear.simulate` builds,
    is column-major too; no result depends on the layout.  ``copy=False``
    keeps the checked array itself, made read-only: it is only for an array
    that nothing else holds or views, such as the block ``simulate`` has
    just built.
    """

    values: np.ndarray

    def __init__(self, values, *, copy: bool = True):
        arr = _data_array(values, "values")
        if not copy:
            arr.flags.writeable = False
        object.__setattr__(self, "values", _freeze(arr) if copy else arr)

    @property
    def n(self) -> int:
        return self.values.shape[-2]

    @property
    def d(self) -> int:
        return self.values.shape[-1]


# ---------------------------------------------------------------------------
# weight vectors on the simplex
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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
            raise ValueError("weights must be non-negative")
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
        If any entry is not finite or negative, or if the entries sum to zero
        (nothing to normalize).
    SupportViolation
        If any entry outside the support is non-zero (raised by :class:`WeightVector`).
    """
    w = _as_float_array(raw, "raw", 1)
    if not np.all(np.isfinite(w)):  # before dividing: inf / inf would warn
        raise ValueError("raw weights must be finite")
    if np.any(w < 0):
        raise ValueError("raw weights must be non-negative")
    total = float(w.sum())
    if total <= 0.0:
        raise ValueError("raw weights sum to zero")
    return WeightVector(w / total, support)


def uniform_weights(support: IndexSet, d: int) -> WeightVector:
    """The barycenter of the simplex face spanned by ``support``."""
    return WeightVector(embed(np.full(support.size, 1.0 / support.size), support, d), support)


# ---------------------------------------------------------------------------
# perturbations of the threshold geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Perturbation:
    """A componentwise scale factor s (supported on an index set) and a power beta.

    No perturbation is ``None`` wherever a Perturbation is read.
    """

    s: np.ndarray
    beta: float
    index_set: IndexSet

    def __init__(self, s, beta: float, index_set: IndexSet):
        arr = _as_float_array(s, "s", 1)
        index_set.check_within(arr.shape[0])
        if not _zero_outside(arr, index_set):
            raise ValueError("perturbation scales must be zero outside the index set")
        check_finite(arr[index_set.zero_based()], "perturbation scales on the index set")
        beta = check_finite(beta, "beta")
        object.__setattr__(self, "s", _freeze(arr))
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "index_set", index_set)

    @classmethod
    def scaled(cls, index_set: IndexSet, d: int, scales, beta: float = 1.0) -> "Perturbation":
        """An arbitrary positive scaling on the index set."""
        return cls(embed(scales, index_set, d), beta, index_set)


# ---------------------------------------------------------------------------
# quadratic forms and estimate reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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
            raise ValueError("quadratic-form matrix is not symmetric")
        # exact symmetry for downstream eigensolves
        mat = 0.5 * (mat + mat.T)
        object.__setattr__(self, "index_set", index_set)
        object.__setattr__(self, "matrix", _freeze(mat))

    def evaluate(self, v) -> float:
        """v^T A v for a WeightVector, a full-length vector, or an |I|-vector."""
        x = restrict(v, self.index_set, v.d if isinstance(v, WeightVector) else len(v))
        return float(x @ self.matrix @ x)


@dataclass(frozen=True, eq=False)
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
            object.__setattr__(self, "std_error",
                               check_finite(self.std_error, "std_error", positive=False))
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
        return _plain(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, IndexSet):
        return list(obj.members)
    return obj


def as_number(value, kind: type = float):
    """``kind(value)``, or ``value`` itself where it has no such reading, for a check to refuse."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        return value


def check_fields(payload, name: str, required, optional=()) -> dict:
    """A copy of the JSON object ``payload``, which must hold every ``required`` field and no
    field outside ``required`` and ``optional``; anything else raises ValueError.

    Unknown fields are named before missing ones; ``name`` names the object in each message.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"a {name} must be an object, got {type(payload).__name__}")
    unknown = set(payload) - {*required, *optional}
    if unknown:
        raise ValueError(f"unknown {name} fields: {sorted(unknown)}")
    missing = [field for field in required if field not in payload]
    if missing:
        raise ValueError(f"missing {name} fields: {missing}")
    return dict(payload)


def check_integer(value, name: str) -> int:
    """``value`` as an int; a non-integral or non-finite value raises ValueError, not truncated.

    A bool is not a count or an index, so ``True`` and ``np.True_`` raise too.
    """
    out = as_number(value, int)
    if not isinstance(out, int) or out != value or isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, got {value}")
    return out


def check_unsigned(values, name: str) -> np.ndarray:
    """Seeds, stream indices or counters as uint64; a non-integral, negative or >= 2**64 entry,
    or a bool, raises ValueError.

    Integer arrays are checked at once, anything else entry by entry (exact above 2**53), and
    so is a list or tuple, which may hold a bool among integers."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" or isinstance(values, (list, tuple)):
        arr = np.array([check_integer(x, name) for x in np.ravel(np.asarray(values, dtype=object))],
                       dtype=object).reshape(arr.shape)
    if arr.dtype.kind != "u" and np.any((arr < 0) | (arr >= 2 ** 64)):
        raise ValueError(f"{name} must lie in [0, 2**64)")
    return arr.astype(np.uint64, copy=False)


def check_finite(values, name: str, positive: bool = True):
    """``values`` as a float (array) whose entries are finite and > 0, or >= 0 if not ``positive``.

    A 0-d input gives a float.  NaN and infinity fail like an out-of-range value: ValueError.
    """
    arr = np.asarray(values, dtype=float)
    low, high = arr.min(initial=np.inf), arr.max(initial=-np.inf)  # both NaN if an entry is
    if not ((low > 0.0 if positive else low >= 0.0) and high < np.inf):  # NaN fails both
        got = f", got {float(arr)}" if arr.ndim == 0 else ""
        sign = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be {sign} and finite{got}")
    return arr if arr.ndim else float(arr)


def check_open_unit(value, name: str, error: type = ParamOutOfRange) -> float:
    """``value`` as a float strictly inside (0, 1); NaN, both end points and a value that reads
    as no number (None, a list) raise ``error``."""
    value = as_number(value)
    if not (isinstance(value, float) and 0.0 < value < 1.0):
        raise error(f"{name} must lie in (0, 1), got {value}")
    return value


def check_moment_power(p) -> int:
    """Validate a moment power: must be a non-negative integer; returns it as int."""
    p = check_integer(p, "the moment power p")
    if p < 0:
        raise ValueError(f"the moment power p must be non-negative, got {p}")
    return p


def matrix_values(data) -> np.ndarray:
    """The (n, d) or (R, n, d) array of a DataMatrix (a tail sample is one) or an array-like.

    Array-likes get the checks of :class:`DataMatrix`; a DataMatrix was checked when built.
    """
    if isinstance(data, DataMatrix):
        return data.values
    return _data_array(data, "data")


# ---------------------------------------------------------------------------
# the partial max functional
# ---------------------------------------------------------------------------

def index_columns(x: np.ndarray, index_set: IndexSet) -> np.ndarray:
    """The columns of the index set (the last axis); all of them are ``x`` itself, not a copy."""
    index_set.check_within(x.shape[-1])
    return x if index_set.size == x.shape[-1] else x[..., index_set.zero_based()]


def partial_max(x, index_set: IndexSet) -> np.ndarray:
    """The per-row maxima over the index set of an (n, d) matrix ``x``, as an n-vector."""
    return _row_max(index_columns(_as_float_array(x, "x", 2), index_set))


def _row_max(columns: np.ndarray) -> np.ndarray:
    """The maxima over the last axis, column by column: a short trailing max axis is slow."""
    ell = columns[..., 0].copy()
    for j in range(1, columns.shape[-1]):
        np.maximum(ell, columns[..., j], out=ell)
    return ell


def exceedances(columns: np.ndarray, level: float
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row maxima ``ell`` of (..., n, m) columns, the mask ``ell > level`` and the rows
    above it divided by their ``ell``, as a column-major (count, m) array.

    The one exceedance step of the estimators and the oracle; a level >= 0 divides by no zero.
    The rows of a block are selected once, in order, replication by replication.  The tail
    samples run it on the (count, m) rows that :func:`rows_above` selects from a block.
    """
    ell = _row_max(columns)
    mask = ell > level
    rows = np.flatnonzero(mask)
    norms, unit = ell.reshape(-1)[rows], np.empty((columns.shape[-1], rows.size)).T
    for j in range(columns.shape[-1]):  # column by column: a column may lie together in memory
        np.divide(columns[..., j].reshape(-1)[rows], norms, out=unit[:, j])
    return ell, mask, unit


def rows_above(columns: np.ndarray, bounds) -> np.ndarray:
    """The mask of the rows of (..., n, m) columns in which some column j exceeds its bound
    ``bounds[..., j]``, one bound per leading index (broadcast to the leading shape).

    The columns are read through one comparison each, so a block costs boolean temporaries
    alone, and every float of the exceedance step is computed on the selected rows only.
    """
    bounds = np.broadcast_to(bounds, columns.shape[:-2] + columns.shape[-1:])
    mask = np.greater(columns[..., 0], bounds[..., 0, None])
    above = np.empty_like(mask)
    for j in range(1, columns.shape[-1]):
        mask |= np.greater(columns[..., j], bounds[..., j, None], out=above)
    return mask
