"""Tail moment functionals and ratio estimators of extremal dependence.

The central object is the empirical tail moment

    M(v, s, beta, p) = (1/n) * sum_l  (v' a_l)^p * 1{ ||s o X_l|| > u },

where ``o`` is the componentwise product, ``|| . ||`` the maximum over the
index set, and ``a_l`` the angular part of ``(s o X_l)^(1/beta)``.  Dividing
by the exceedance fraction (the ``p = 0`` case) gives ratio estimators whose
limits are moments of the renormalized spectral vector; with unit weights and
no perturbation the ratio estimates the reciprocal extremal coefficient.
Every estimator reads ``M`` off one tail sample of :mod:`tailmoments.samples`,
whose (count, m) angular parts are the ``a_l`` of the exceedances.

Both margin conventions are covered: thresholding standardized data at a
level ``u`` (known margins), and thresholding each column by its own k-th
largest value (rank-based, self-normalizing).
"""

from __future__ import annotations

import numpy as np

from .core import (
    EpsOutOfRange,
    EstimateReport,
    IndexSet,
    Perturbation,
    WeightVector,
    check_moment_power as _check_power,
    check_open_unit,
    restrict,
)
from .samples import KnownSample, RankSample, tail_sample
from .variance import bu_sigma2, pairwise


def moment_ratios(sample: KnownSample | RankSample, weights,
                  p: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Per-replication moment ratios and plug-in standard errors of a tail sample.

    ``weights`` are on the sample's index set, one vector per replication
    (or one for all); the ratio and its standard error are those of
    :func:`moment_ratio_known` (the ratio also that of
    :func:`moment_ratio_ranks`), NaN for a replication without exceedances.
    """
    sample.require_exceedances()
    powered = np.einsum("ij,ij->i", sample.angular, sample.per_row(weights)) ** p
    estimate = sample.means(powered)
    variance = sample.means(powered ** 2) - estimate ** 2
    return estimate, np.sqrt(np.maximum(variance, 0.0) / sample.count)


def moment_ratio_known(data, u: float, v: WeightVector, p: int = 1,
                       perturbation: Perturbation | None = None) -> EstimateReport:
    """Moment of the angular parts conditional on an exceedance, for standardized data.

    The estimate is ``M(v, s, beta, p) / M(v, s, beta, 0)``, the mean of
    ``(v' a_l)^p`` over the ``count`` exceedances; with ``p = 1`` and simplex
    weights it converges to the reciprocal extremal coefficient of
    the support of ``v``, for any such ``v``.  The standard error is the
    plug-in ``sqrt(var_hat / count)``, with ``var_hat`` the variance of the
    p-th power over the ``count`` exceedances.

    Raises
    ------
    SupportViolation
        If ``v`` has support outside the perturbation's index set.
    ValueError
        If ``v`` has another length than the data have columns.
    NoExceedances
        If no row exceeds the threshold.
    """
    p = _check_power(p)
    index_set = v.support if perturbation is None else perturbation.index_set
    sample = tail_sample(KnownSample, data, u, index_set, perturbation)
    estimate, std_error = moment_ratios(sample, restrict(v, index_set, sample.d), p)
    return EstimateReport(
        estimate=estimate,
        std_error=std_error,
        exceedance_count=sample.count,
        method="moment_known",
        parameters={"u": sample.u, "p": p, "weights": v.weights, "index_set": index_set,
                    "beta": 1.0 if perturbation is None else perturbation.beta},
    )


def benchmark_ratios(sample: KnownSample, v: WeightVector) -> tuple[np.ndarray, np.ndarray]:
    """Per-replication benchmark ratios and binomial standard errors of a known-margin sample.

    Those of :func:`benchmark_ratio_known`, with the partial max over the
    sample's index set; NaN for a replication without exceedances.
    """
    restrict(v, sample.index_set, sample.d)  # weights for another dimension raise ValueError
    sample.require_exceedances()
    numerator = np.count_nonzero(sample.values @ v.weights > sample.u, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        estimate = numerator / sample.count
    return estimate, np.sqrt(estimate * (1.0 - estimate) / sample.count)


def benchmark_ratio_known(data, u: float, v: WeightVector) -> EstimateReport:
    """Ratio of two exceedance counts: weighted-sum exceedances over partial-max exceedances.

    ``#{ v'X_l > u } / #{ max_I X_l > u }`` estimates the reciprocal extremal
    coefficient of the support of ``v`` without using angular parts at all.
    The estimate always lies in [0, 1] because ``v'x <= max_I x`` for simplex
    weights, and its standard error is the binomial plug-in
    ``sqrt(est * (1 - est) / count)``.
    """
    sample = tail_sample(KnownSample, data, u, v.support)
    estimate, std_error = benchmark_ratios(sample, v)
    return EstimateReport(
        estimate=estimate,
        std_error=std_error,
        exceedance_count=sample.count,
        method="benchmark",
        parameters={"u": sample.u, "weights": v.weights, "index_set": v.support},
    )


# ---------------------------------------------------------------------------
# rank-based (self-normalized) versions
# ---------------------------------------------------------------------------

def check_eps(eps, k: int, n: int) -> float:
    """Validate a difference-quotient step, ``k / n`` when absent; it must lie in (0, 1)."""
    if eps is None and k >= n:
        raise EpsOutOfRange(f"the default difference-quotient step k/n = {k / n} must lie in "
                            "(0, 1); pass eps or take k < n")
    return check_open_unit(k / n if eps is None else eps, "difference-quotient step",
                           EpsOutOfRange)


def moment_ratio_ranks(data, k: int, v: WeightVector, p: int = 1,
                       inv_alpha_hat: float | None = None) -> EstimateReport:
    """Rank-based analogue of :func:`moment_ratio_known`.

    Thresholding at the k-th largest value of each column replaces both the
    margin standardization and the choice of ``u``; the angular parts are
    raised to the estimated tail index so the estimate is invariant under
    increasing marginal transformations up to the index estimate.  No
    closed-form standard error is reported here; the optimally weighted
    version carries one.
    """
    p = _check_power(p)
    index_set = v.support
    sample = tail_sample(RankSample, data, k, index_set, inv_alpha_hat)
    estimate, _ = moment_ratios(sample, restrict(v, index_set, sample.d), p)
    return EstimateReport(
        estimate=estimate,
        std_error=None,
        exceedance_count=sample.count,
        method="moment_ranks",
        parameters={"k": sample.k, "p": p, "weights": v.weights,
                    "index_set": index_set, "inv_alpha_hat": sample.inv_alpha},
    )


def stable_tail_estimates(sample: RankSample) -> np.ndarray:
    """Per-replication extremal coefficients of :func:`stable_tail_estimate`: (n/k) times the
    rank exceedance fraction."""
    n = sample.n
    return (n / sample.k) * (sample.count / n)


def stable_tail_estimate(data, k: int, index_set: IndexSet,
                         eps: float | None = None) -> EstimateReport:
    """Nonparametric extremal coefficient: (n/k) times the rank exceedance fraction.

    The estimate is the empirical stable tail dependence function at the
    indicator of the index set, so it targets the extremal coefficient
    itself (between 1 and the set size) rather than its reciprocal.

    Parameters
    ----------
    eps : float, optional
        When given, a difference-quotient step used to estimate the gradient
        of the stable tail dependence function, from which the plug-in
        standard error ``sqrt(sigma2 / k)`` of the coefficient is assembled;
        when absent the standard error is omitted.
    """
    sample = tail_sample(RankSample, data, k, index_set)
    n, k = sample.n, sample.k
    estimate = stable_tail_estimates(sample)
    std_error = None
    if eps is not None:
        eps = check_eps(eps, k, n)
        if estimate > 0:
            sigma2 = _stable_tail_variance(sample, eps)
            std_error = float(np.sqrt(max(sigma2, 0.0) / k))
    return EstimateReport(
        estimate=estimate,
        std_error=std_error,
        exceedance_count=sample.count,
        method="stdf",
        parameters={"k": k, "index_set": index_set, "n": n,
                    **({"eps": eps} if eps is not None else {})},
    )


def _stable_tail_variance(sample: RankSample, eps: float) -> float:
    """Plug-in variance of the empirical extremal coefficient at the indicator.

    Combines difference-quotient estimates (at the checked step ``eps``) of
    the gradient of the perturbed exceedance functional with pairwise minimum
    moments obtained from two-component exceedance counts at the same level
    k, for a one-matrix sample with exceedances.
    """
    k = sample.k
    tau_hat = sample.count / k
    c_matrix, _ = sample.derivatives(eps)
    # gradient of the mean partial max of the renormalized spectral vector,
    # recovered from the diagonal scale derivatives
    gradient = 1.0 - tau_hat * np.diag(c_matrix)
    # pairwise coefficients from pair exceedance counts at the same k
    pair_taus = pairwise(sample.index_set.size, lambda a, b: sample.pair(a, b).count / k)
    return bu_sigma2(tau_hat, pair_taus, gradient)
