"""Tail samples: the exceedances of one data matrix, derived once and read by every estimator.

A :class:`KnownSample` thresholds the (perturbed) partial max over an index
set at a fixed level ``u``; a :class:`RankSample` thresholds each column at
its own k-th largest value and carries Hill's estimate of 1/alpha.  Both
hold the angular parts of their exceedances as a (count, m) array on the
index set, and :func:`second_moments` gives their mean outer product.  A
sample keeps the values of the DataMatrix it is built from, or checks and
copies an array like a DataMatrix does, so no array of the caller's can
change it.  The estimators accept a sample wherever they accept data and
reach it through one reuse rule, :func:`tail_sample`: ``data`` itself when
it is a sample of the requested class built from equal arguments, else a
new sample of ``data``.

The data may also be an (R, n, d) block of R replications.  The exceeding
rows of the whole block are then selected at once, in order, replication
by replication, and every per-replication quantity is a segment sum over
those rows (:meth:`means`): it has the leading shape of the data,
a 0-d array for one matrix and (R,) for a block.  A per-replication value
reaches the rows by ``np.repeat`` over the counts (:meth:`per_row`).  A
mean, Hill's estimate among them, is NaN for a replication without
exceedances.  One matrix is the R=1 case of the same code.  Where an
estimator on one matrix without exceedances raises NoExceedances, a block
marks the replication with NaN.

A block is read only through each column's order statistic and one
comparison per column (:func:`core.rows_above`: ``x > u``, ``x`` above its
anchor, or a bound below which no row can exceed), so the only temporaries
of the block's size are boolean.  Every float, the ratios and their row
maxima, the angular parts, Hill's logs and the derivatives' candidates, is
computed on the rows so selected, with the bits the full arrays would give.
A simulated block is column-major, each component's values of a
replication together in memory, and a DataMatrix copy keeps that layout.
The samples read their data one column at a time, which is fast in that
layout and gives the same bits in any other: no result depends on the
layout.  The (count, m) arrays of the exceeding rows (ratios, ``unit``,
``angular``, the derivatives' candidates) are column-major too, so each
elementwise step runs along a column rather than along rows of m values.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    DataMatrix,
    EstimationError,
    IndexSet,
    KOutOfRange,
    NoExceedances,
    Perturbation,
    check_finite,
    check_integer,
    exceedances,
    index_columns,
    rows_above,
)


def _counts(rep: np.ndarray, lead: tuple) -> np.ndarray:
    """The number of rows of each replication, in the leading shape ``lead``."""
    return np.bincount(rep, minlength=math.prod(lead)).reshape(lead)


def _means(counts: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per-replication means of ``rows``, shaped ``counts.shape + rows.shape[1:]``.

    ``counts`` (:func:`_counts`) holds the number of rows of each replication,
    whose rows come in order.  Each replication's rows are summed as a segment
    of their own, so its mean does not depend on its block; a replication
    without rows gets NaN.
    """
    lead, counts = counts.shape, counts.reshape(-1)
    means = np.full(counts.shape + rows.shape[1:], np.nan)
    some = counts > 0
    if np.any(some):
        sums = np.add.reduceat(rows, (np.cumsum(counts) - counts)[some], axis=0)
        means[some] = sums / counts[some].reshape((-1,) + (1,) * (rows.ndim - 1))
    return means.reshape(lead + rows.shape[1:])


def _per_row(values, counts: np.ndarray) -> np.ndarray:
    """Per-replication vectors ``values`` (the leading shape of ``counts``, then one axis; or one
    vector for all) repeated on each replication's ``counts`` rows, as (rows, length)."""
    values = np.asarray(values, dtype=float)
    values = np.broadcast_to(values, counts.shape + values.shape[-1:])
    return np.repeat(values.reshape(-1, values.shape[-1]), counts.reshape(-1), axis=0)


class _Sample(DataMatrix):
    """An immutable tail sample of checked ``values``, compared and hashed by identity."""

    _level = "its order-statistic threshold"  # named by require_exceedances, formatted with self
    __repr__ = object.__repr__

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _store(self, **fields) -> None:
        """Set the fields once; their arrays become read-only."""
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def means(self, rows: np.ndarray) -> np.ndarray:
        """Per-replication means of values given on the exceeding rows, NaN without exceedances."""
        return _means(self.count, rows)

    def per_row(self, values) -> np.ndarray:
        """Per-replication vectors ``values`` (the data's leading shape, then one axis; or one
        vector for all) on each exceeding row, as (count, length)."""
        return _per_row(values, self.count)

    def require_exceedances(self, enough=True) -> np.ndarray:
        """The replications with exceedances and ``enough``, as a mask of the leading shape.

        One matrix without them raises NoExceedances instead.
        """
        ok = (self.count > 0) & enough
        if self.values.ndim == 2 and not ok:
            raise NoExceedances("no partial maximum exceeds " + self._level.format(self))
        return ok


def _own_values(data) -> np.ndarray:
    """The checked values of ``data``: a DataMatrix's own, else a checked copy of the array."""
    return (data if isinstance(data, DataMatrix) else DataMatrix(data)).values


def _tail_rows(columns: np.ndarray, bounds, combine, operands
               ) -> tuple[np.ndarray, np.ndarray]:
    """The replication of each row in which some column exceeds its bound
    (:func:`core.rows_above`), in order, and those rows' (count, m) values ``combine(x,
    operand)``, computed on them alone with each column's operand of their replication."""
    mask = rows_above(columns, bounds)
    rows = np.flatnonzero(mask)
    rep, m = rows // mask.shape[-1], columns.shape[-1]
    operands = _per_row(operands, _counts(rep, mask.shape[:-1]))
    values = np.empty((m, rows.size)).T  # column-major: each column lies together in memory
    for j in range(m):
        combine(columns[..., j].reshape(-1)[rows], operands[:, j], out=values[:, j])
    return rep, values


def _bounds(start, image, level: float) -> np.ndarray:
    """``start`` lowered where needed so that ``image`` of each bound is at most ``level``.

    ``image`` is non-decreasing, so no value at or below its bound has an image above
    ``level``: the rows above the bounds hold every row whose image exceeds it.  A bound
    whose image is above ``level`` is stepped to the next float down, which sufficed for each
    of two million random quotient starts, and if that is not enough it is set to zero, whose
    image is zero.
    """
    bounds = np.array(start, dtype=float)
    over = image(bounds) > level
    bounds[over] = np.nextafter(bounds[over], 0.0)
    bounds[image(bounds) > level] = 0.0
    return bounds


def upper_order_statistics(x, k: int) -> np.ndarray:
    """The per-column k-th largest values (position k of the descending sort, ties kept by
    multiplicity) of an (n, d) matrix, as a d-vector, or of an (R, n, d) block, as (R, d).

    Raises
    ------
    ValueError
        If k is not an integer.
    KOutOfRange
        If k < 1 or k > n.
    """
    arr = np.asarray(x, dtype=float)
    k = check_integer(k, "k")
    if arr.ndim not in (2, 3):
        raise ValueError("x must be an (n, d) matrix or an (R, n, d) block")
    n = arr.shape[-2]
    if k < 1 or k > n:
        raise KOutOfRange(f"k={k} must satisfy 1 <= k <= {n}")
    out = np.empty(arr.shape[:-2] + arr.shape[-1:])
    column = np.empty(arr.shape[:-1])  # one partition buffer for every column
    for j in range(arr.shape[-1]):  # one column at a time, along its own n values
        np.copyto(column, arr[..., j])
        column.partition(n - k, axis=-1)
        out[..., j] = column[..., n - k]
    return out


class KnownSample(_Sample):
    """Rows whose perturbed partial max over an index set exceeds a level ``u``.

    Without a perturbation the scaling is one and the power is one.
    ``angular`` holds the ``count`` rows above ``u`` (never a row that is
    zero on the index set) of ``s o x`` on the index set, divided by their
    own partial max, to the power ``1/beta``: a (count, m) array, as in
    :class:`RankSample`.
    """

    _level = "the threshold u={0.u}"
    _args = ("u", "index_set", "perturbation")  # the fields tail_sample compares

    def __init__(self, data, u: float, index_set: IndexSet,
                 perturbation: Perturbation | None = None):
        x = _own_values(data)
        u = check_finite(u, "threshold u", positive=False)
        if perturbation is None:
            scales, beta = np.ones(index_set.size), 1.0
        elif perturbation.index_set != index_set:
            raise ValueError("the perturbation lives on another index set")
        else:
            scales, beta = perturbation.s[index_set.zero_based()], perturbation.beta
        # x * s exceeds u only where x is above its bound, u itself when s is one; the exact
        # test on the scaled rows drops any row that a lowered bound let in
        with np.errstate(over="ignore"):
            bounds = _bounds(u / scales, lambda b: b * scales, u)
        rep, scaled = _tail_rows(index_columns(x, index_set), bounds, np.multiply, scales)
        _, keep, unit = exceedances(scaled, u)
        self._store(values=x, u=u, index_set=index_set, perturbation=perturbation,
                    count=_counts(rep[keep], x.shape[:-2]), angular=np.power(unit, 1.0 / beta))


def _scaled_means(ratios, rep, scales, power, lead) -> np.ndarray:
    """Per-replication column means of the powered angular parts after scaling the ratio columns,
    NaN without exceedances; ``rep`` gives the replication of each ratio row."""
    _, mask, unit = exceedances(ratios * scales, 1.0)
    counts = _counts(rep[mask], lead)
    return _means(counts, np.power(unit, _per_row(power[..., None], counts)))


class RankSample(_Sample):
    """Rank-scaled columns of an index set and the rows where their maximum exceeds one.

    ``anchors`` are the per-column k-th largest values, and the ``count``
    exceedances are the rows with a column above its anchor: the rows whose
    ratios, the columns divided by their anchors, have a maximum above one
    (``fl(x / a) > 1`` exactly when ``x > a``).  Only those rows' ratios are
    computed: ``unit`` holds the rows divided by their maxima, and ``hill``
    is Hill's 1/alpha from the maxima (NaN without exceedances).
    ``angular`` is ``unit ** (1 / inv_alpha)``, where ``inv_alpha`` is
    ``inv_alpha_hat`` when one is given and ``hill`` if not.
    """

    _args = ("k", "index_set", "inv_alpha_hat")  # the fields tail_sample compares

    def __init__(self, data, k: int, index_set: IndexSet,
                 inv_alpha_hat: float | None = None):
        x = _own_values(data)
        if inv_alpha_hat is not None:
            inv_alpha_hat = check_finite(inv_alpha_hat, "inv_alpha_hat")
        columns = index_columns(x, index_set)
        anchors = upper_order_statistics(columns, k)
        if np.any(anchors <= 0):
            raise EstimationError(
                "a k-th upper order statistic is zero; the ratio data are undefined"
            )
        # upper_order_statistics checked that k is an integer
        self._fill(x, int(k), index_set, inv_alpha_hat, anchors, columns)

    def _fill(self, x, k, index_set, inv_alpha_hat, anchors, columns) -> None:
        lead = x.shape[:-2]
        rep, ratios = _tail_rows(columns, anchors, np.divide, anchors)
        ell, _, unit = exceedances(ratios, 1.0)  # every row exceeds
        count = _counts(rep, lead)
        hill = _means(count, np.log(ell))
        inv_alpha = hill if inv_alpha_hat is None else np.full(lead, inv_alpha_hat)
        self._store(values=x, k=k, index_set=index_set, inv_alpha_hat=inv_alpha_hat,
                    anchors=anchors, count=count, unit=unit, hill=hill, inv_alpha=inv_alpha,
                    angular=np.power(unit, _per_row(1.0 / inv_alpha[..., None], count)))

    def pair(self, a: int, b: int) -> RankSample:
        """The sub-sample on positions ``a < b``, from these anchors.

        It has its own Hill estimate, unless this sample's power was given.
        """
        members = self.index_set.members
        index_set = IndexSet((members[a], members[b]))
        out = object.__new__(RankSample)
        out._fill(self.values, self.k, index_set, self.inv_alpha_hat,
                  self.anchors[..., [a, b]], index_columns(self.values, index_set))
        return out

    def derivatives(self, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """Central difference quotients ``(R(+eps) - R(-eps)) / (2 eps)`` of the basis ratios R.

        R holds the column means of ``angular``.  Row i of the (m, m) scale
        matrix multiplies ratio column i by ``1 +/- eps`` before the indicator
        and the normalization; the power m-vector divides the angular
        exponent by ``1 +/- eps`` on the unchanged exceedance set.  A block
        gives (R, m, m) and (R, m), NaN for a replication without
        exceedances under any of the scalings.
        """
        lead, bumps = self.values.shape[:-2], eps * np.eye(self.index_set.size)
        power = 1.0 / self.inv_alpha  # NaN without exceedances
        # a row whose every ratio times 1 + eps is at most one exceeds under no scaling, and
        # neither does a row at or below the bounds, so the rows above them hold every
        # exceedance, in order; _scaled_means tests each of them exactly
        anchors = self.anchors
        bounds = _bounds(anchors / (1.0 + eps), lambda b: b / anchors * (1.0 + eps), 1.0)
        rep, candidates = _tail_rows(index_columns(self.values, self.index_set), bounds,
                                     np.divide, anchors)
        scale = (np.stack([_scaled_means(candidates, rep, 1.0 + bump, power, lead)
                           for bump in bumps], axis=-2)
                 - np.stack([_scaled_means(candidates, rep, 1.0 - bump, power, lead)
                             for bump in bumps], axis=-2))
        # a scaling without exceedances leaves NaN means; with no exceedance at all, every
        # scaling down has none
        self.require_exceedances(~np.isnan(scale).any(axis=(-2, -1)))
        upper = self.means(np.power(self.unit, self.per_row(power[..., None] / (1.0 + eps))))
        lower = self.means(np.power(self.unit, self.per_row(power[..., None] / (1.0 - eps))))
        return scale / (2.0 * eps), (upper - lower) / (2.0 * eps)


def tail_sample(kind: type[KnownSample] | type[RankSample], data,
                *args) -> KnownSample | RankSample:
    """The one-matrix sample of class ``kind`` to read: ``data`` itself when it is a ``kind``
    built from equal arguments, else ``kind(data, *args)``.

    The arguments are a KnownSample's (u, index set, perturbation) or a
    RankSample's (k, index set, inv_alpha_hat), an omitted last one None.
    They compare by ``==`` with the sample's checked fields, a Perturbation
    by identity.  An estimator reporting one number cannot read a block of
    replications: it raises ValueError.
    """
    given = dict(zip(kind._args, args))
    if not (isinstance(data, kind)
            and all(getattr(data, name) == given.get(name) for name in kind._args)):
        data = kind(data, *args)
    if data.values.ndim != 2:
        raise ValueError("this estimator reads one data matrix, not a block of replications")
    return data


def second_moments(sample: KnownSample | RankSample) -> np.ndarray:
    """The (m, m) mean outer product of a sample's angular parts over its exceedances.

    A block gives (R, m, m), NaN for a replication without exceedances.
    """
    sample.require_exceedances()
    return sample.means(np.einsum("ri,rj->rij", sample.angular, sample.angular))
