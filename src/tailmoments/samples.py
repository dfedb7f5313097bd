"""Tail samples: the exceedances of one data matrix, derived once and read by every estimator.

A :class:`KnownSample` thresholds the (perturbed) partial max over an index
set at a fixed level ``u``; a :class:`RankSample` thresholds each column at
its own k-th largest value and carries Hill's estimate of 1/alpha.  Both
hold the angular parts of their exceedances as a (count, m) array on the
index set, and :func:`second_moments` gives their mean outer product.  The
estimators accept a sample wherever they accept data, and read it when it
was built for the same level and index set.
"""

from __future__ import annotations

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
    matrix_values,
)


class _Sample(DataMatrix):
    """An immutable tail sample of checked (n, d) ``values``, compared and hashed by identity."""

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

    def require_exceedances(self) -> None:
        if self.count == 0:
            raise NoExceedances("no partial maximum exceeds " + self._level.format(self))


def _own_values(data) -> np.ndarray:
    """The checked (n, d) values of ``data``: a DataMatrix's own, else a copy of the array."""
    return data.values if isinstance(data, DataMatrix) else matrix_values(data).copy()


def upper_order_statistics(x, k: int):
    """The k-th largest value (position k of the descending sort, ties kept by multiplicity).

    For a vector, returns a float.  For an (n, d) matrix, returns the
    per-column k-th largest values as a d-vector.

    Raises
    ------
    ValueError
        If k is not an integer.
    KOutOfRange
        If k < 1 or k > n.
    """
    arr = np.asarray(x, dtype=float)
    k = check_integer(k, "k")
    if arr.ndim not in (1, 2):
        raise ValueError("x must be a vector or a matrix")
    n = arr.shape[0]
    if k < 1 or k > n:
        raise KOutOfRange(f"k={k} must satisfy 1 <= k <= {n}")
    value = np.partition(arr, n - k, axis=0)[n - k]
    return float(value) if arr.ndim == 1 else value


class KnownSample(_Sample):
    """Rows whose perturbed partial max over an index set exceeds a level ``u``.

    Without a perturbation the scaling is one and the power is one.
    ``mask`` flags the ``count`` rows above ``u`` (never a row that is zero
    on the index set), and ``angular`` holds those rows of ``s o x`` on the
    index set divided by their own partial max, to the power ``1/beta``: a
    (count, m) array, as in :class:`RankSample`.
    """

    _level = "the threshold u={0.u}"

    def __init__(self, data, u: float, index_set: IndexSet,
                 perturbation: Perturbation | None = None):
        x = _own_values(data)
        u = check_finite(u, "threshold u", positive=False)
        index_set.check_within(x.shape[1])
        idx = index_set.zero_based()
        if perturbation is None:
            s, beta = 1.0, 1.0
        elif perturbation.index_set != index_set:
            raise ValueError("the perturbation lives on another index set")
        else:
            s, beta = perturbation.s[idx], perturbation.beta
        _, mask, unit = exceedances(x[:, idx] * s, u)
        self._store(values=x, u=u, index_set=index_set, perturbation=perturbation,
                    mask=mask, count=int(np.count_nonzero(mask)),
                    angular=np.power(unit, 1.0 / beta))


def known_sample(data, u: float, index_set: IndexSet,
                 perturbation: Perturbation | None = None) -> KnownSample:
    """The sample to read: ``data`` itself if it was built for these arguments, else a new one."""
    if (isinstance(data, KnownSample) and data.u == check_finite(u, "threshold u", positive=False)
            and data.index_set == index_set and data.perturbation is perturbation):
        return data
    return KnownSample(data, u, index_set, perturbation)


def _scaled_means(ratios: np.ndarray, scales: np.ndarray, power: float) -> np.ndarray:
    """Column means of the powered angular parts after scaling the ratio columns."""
    _, mask, unit = exceedances(ratios * scales, 1.0)
    if not np.any(mask):
        raise NoExceedances("no partial maximum exceeds its order-statistic threshold")
    return np.power(unit, power).mean(axis=0)


class RankSample(_Sample):
    """Rank-scaled columns of an index set and the rows where their maximum exceeds one.

    ``anchors`` are the per-column k-th largest values, ``ratios`` the (n, m)
    columns divided by them, ``ell`` the row maxima of ``ratios`` and ``mask``
    the ``count`` rows with ``ell > 1``.  ``unit`` holds those rows divided by
    their ``ell``, and ``hill`` is Hill's 1/alpha from them (None without
    exceedances).  ``angular`` is ``unit ** (1 / inv_alpha)``, where
    ``inv_alpha`` is ``inv_alpha_hat`` when one is given and ``hill`` if not.
    """

    def __init__(self, data, k: int, index_set: IndexSet,
                 inv_alpha_hat: float | None = None):
        x = _own_values(data)
        if inv_alpha_hat is not None:
            inv_alpha_hat = check_finite(inv_alpha_hat, "inv_alpha_hat")
        index_set.check_within(x.shape[1])
        columns = x[:, index_set.zero_based()]
        anchors = upper_order_statistics(columns, k)
        if np.any(anchors <= 0):
            raise EstimationError(
                "a k-th upper order statistic is zero; the ratio data are undefined"
            )
        # upper_order_statistics checked that k is an integer
        self._fill(x, int(k), index_set, inv_alpha_hat, anchors, columns / anchors)

    def _fill(self, x, k, index_set, inv_alpha_hat, anchors, ratios) -> None:
        n = x.shape[0]
        ell, mask, unit = exceedances(ratios, 1.0)
        count = int(np.count_nonzero(mask))
        hill = (float(np.sum(np.log(ell[mask]))) / n) / (count / n) if count else None
        inv_alpha = hill if inv_alpha_hat is None else inv_alpha_hat
        self._store(values=x, k=k, index_set=index_set, inv_alpha_hat=inv_alpha_hat,
                    anchors=anchors, ratios=ratios, ell=ell, mask=mask, count=count,
                    unit=unit, hill=hill, inv_alpha=inv_alpha,
                    angular=None if inv_alpha is None else np.power(unit, 1.0 / inv_alpha))

    def pair(self, a: int, b: int) -> RankSample:
        """The sub-sample on positions ``a < b``, from these anchors and ratios.

        It has its own Hill estimate, unless this sample's power was given.
        """
        members = self.index_set.members
        out = object.__new__(RankSample)
        out._fill(self.values, self.k, IndexSet((members[a], members[b])),
                  self.inv_alpha_hat, self.anchors[[a, b]], self.ratios[:, [a, b]])
        return out

    def derivatives(self, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """Central difference quotients ``(R(+eps) - R(-eps)) / (2 eps)`` of the basis ratios R.

        R holds the column means of ``angular``.  Row i of the (m, m) scale
        matrix multiplies ratio column i by ``1 +/- eps`` before the indicator
        and the normalization; the power m-vector divides the angular
        exponent by ``1 +/- eps`` on the unchanged exceedance set.
        """
        self.require_exceedances()
        power = 1.0 / self.inv_alpha
        # a row with ell * (1 + eps) <= 1 exceeds under neither scaling, so
        # dropping it first leaves both exceedance sets, in order, unchanged
        candidates = self.ratios[self.ell * (1.0 + eps) > 1.0]
        scale = np.array([_scaled_means(candidates, 1.0 + bump, power)
                          - _scaled_means(candidates, 1.0 - bump, power)
                          for bump in eps * np.eye(self.index_set.size)])
        upper = np.power(self.unit, power / (1.0 + eps)).mean(axis=0)
        lower = np.power(self.unit, power / (1.0 - eps)).mean(axis=0)
        return scale / (2.0 * eps), (upper - lower) / (2.0 * eps)


def rank_sample(data, k: int, index_set: IndexSet,
                inv_alpha_hat: float | None = None) -> RankSample:
    """The sample to read: ``data`` itself if it was built for these arguments, else a new one."""
    if (isinstance(data, RankSample) and data.k == k and data.index_set == index_set
            and data.inv_alpha_hat == inv_alpha_hat):
        return data
    return RankSample(data, k, index_set, inv_alpha_hat)


def second_moments(sample: KnownSample | RankSample) -> np.ndarray:
    """The (m, m) mean outer product of a sample's angular parts over its exceedances."""
    sample.require_exceedances()
    return sample.angular.T @ sample.angular / sample.count
