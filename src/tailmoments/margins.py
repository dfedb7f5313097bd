"""Marginal standardization and tail-index estimation.

Two routes to comparable margins are provided: an exact power/scale transform
when the tail index and scales are known, and a rank-based route built on
per-column upper order statistics together with a Hill-type estimator of the
reciprocal tail index.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DataMatrix,
    EstimateReport,
    IndexSet,
    check_finite,
    embed,
    matrix_values,
)
from .samples import RankSample, tail_sample


def standardize_known(data, alpha: float, scales) -> DataMatrix:
    """Transform each entry x to x**alpha / scale_column.

    The power is applied first, then the division, so the resulting columns
    are tail-equivalent with unit scale when ``scales`` are the true
    column scales of ``data**alpha``.

    Parameters
    ----------
    data : DataMatrix or (n, d) array-like
        Non-negative observations.
    alpha : float
        Common tail index of the margins; must be positive and finite.
    scales : (d,) array-like
        Positive and finite per-column scale constants.

    Returns
    -------
    DataMatrix
        The transformed observations; a non-finite result, such as an
        overflow, is rejected like any other data.
    """
    x = matrix_values(data)
    alpha = check_finite(alpha, "alpha")
    sc = np.asarray(scales, dtype=float)
    if sc.ndim != 1 or sc.shape[0] != x.shape[-1]:
        raise ValueError("scales must be a vector with one entry per column")
    check_finite(sc, "scales")
    out = np.power(x, alpha)
    out /= sc
    return DataMatrix(out, copy=False)  # nothing else holds the new array


def scaled_by_order_statistics(data, k: int, index_set: IndexSet) -> np.ndarray:
    """Each column of ``data`` (restricted to the index set) divided by its own k-th largest value.

    Returns the full-width matrix with the columns outside the index set set
    to zero, so downstream partial maxima over the index set are unaffected.
    """
    sample = tail_sample(RankSample, data, k, index_set)
    return embed(sample.values[:, index_set.zero_based()] / sample.anchors, index_set, sample.d)


def hill_inverse_alpha(data, k: int, index_set: IndexSet) -> EstimateReport:
    """Hill-type estimate of 1/alpha from exceedances of the partial max of rank-scaled data.

    Each column in the index set is divided by its own k-th largest value;
    an observation is an exceedance when the maximum of these ratios over
    the index set is above one.  The estimate is the mean log-excess among
    exceedances:

        (1/n) * sum log(max ratio) * 1{max ratio > 1}  /  (fraction of exceedances)

    The reported ``inverse_estimate`` is the tail index alpha itself, and the
    standard error is 1 / (alpha_hat * sqrt(count)).

    Raises
    ------
    NoExceedances
        If no maximum ratio is strictly above one (e.g. a constant column).
    """
    sample = tail_sample(RankSample, data, k, index_set)
    sample.require_exceedances()
    alpha_hat = 1.0 / sample.hill
    return EstimateReport(
        estimate=sample.hill,
        std_error=1.0 / (alpha_hat * np.sqrt(sample.count)),
        exceedance_count=sample.count,
        method="hill",
        parameters={"k": sample.k, "index_set": index_set, "n": sample.n},
    )
