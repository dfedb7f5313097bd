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
    restrict,
)
from .samples import known_sample, rank_sample
from .variance import bu_sigma2, pairwise


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
    sample = known_sample(data, u, index_set, perturbation)
    weights = restrict(v, index_set, sample.d)
    sample.require_exceedances()
    projected = sample.angular @ weights
    powered = projected ** p if p != 1 else projected
    estimate = float(np.mean(powered)) if p > 0 else 1.0
    variance = float(np.mean(powered ** 2)) - estimate ** 2
    std_error = float(np.sqrt(max(variance, 0.0) / sample.count))
    return EstimateReport(
        estimate=estimate,
        std_error=std_error,
        exceedance_count=sample.count,
        method="moment_known",
        parameters={"u": sample.u, "p": p, "weights": v.weights, "index_set": index_set,
                    "beta": 1.0 if perturbation is None else perturbation.beta},
    )


def benchmark_ratio_known(data, u: float, v: WeightVector) -> EstimateReport:
    """Ratio of two exceedance counts: weighted-sum exceedances over partial-max exceedances.

    ``#{ v'X_l > u } / #{ max_I X_l > u }`` estimates the reciprocal extremal
    coefficient of the support of ``v`` without using angular parts at all.
    The estimate always lies in [0, 1] because ``v'x <= max_I x`` for simplex
    weights, and its standard error is the binomial plug-in
    ``sqrt(est * (1 - est) / count)``.
    """
    sample = known_sample(data, u, v.support)
    restrict(v, v.support, sample.d)  # weights for another dimension raise ValueError
    sample.require_exceedances()
    denominator = sample.count
    numerator = int(np.count_nonzero(sample.values @ v.weights > sample.u))
    estimate = numerator / denominator
    return EstimateReport(
        estimate=estimate,
        std_error=float(np.sqrt(estimate * (1.0 - estimate) / denominator)),
        exceedance_count=denominator,
        method="benchmark",
        parameters={"u": sample.u, "weights": v.weights, "index_set": v.support},
    )


# ---------------------------------------------------------------------------
# rank-based (self-normalized) versions
# ---------------------------------------------------------------------------

def check_eps(eps, k: int, n: int) -> float:
    """Validate a difference-quotient step, ``k / n`` when absent; it must lie in (0, 1)."""
    if eps is None:
        eps = k / n
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise EpsOutOfRange(f"difference-quotient step must lie in (0, 1), got {eps}")
    return eps


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
    sample = rank_sample(data, k, index_set, inv_alpha_hat)
    sample.require_exceedances()
    weights = restrict(v, index_set, sample.d)
    estimate = float(np.mean((sample.angular @ weights) ** p)) if p > 0 else 1.0
    return EstimateReport(
        estimate=estimate,
        std_error=None,
        exceedance_count=sample.count,
        method="moment_ranks",
        parameters={"k": sample.k, "p": p, "weights": v.weights,
                    "index_set": index_set, "inv_alpha_hat": sample.inv_alpha},
    )


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
    sample = rank_sample(data, k, index_set)
    n, k = sample.n, sample.k
    count = sample.count
    estimate = (n / k) * (count / n)
    std_error = None
    if eps is not None:
        eps = check_eps(eps, k, n)
        if estimate > 0:
            sigma2 = stable_tail_variance(sample, k, index_set, eps)
            std_error = float(np.sqrt(max(sigma2, 0.0) / k))
    return EstimateReport(
        estimate=estimate,
        std_error=std_error,
        exceedance_count=count,
        method="stdf",
        parameters={"k": k, "index_set": index_set, "n": n,
                    **({"eps": eps} if eps is not None else {})},
    )


def stable_tail_variance(data, k: int, index_set: IndexSet, eps: float) -> float:
    """Plug-in variance of the empirical extremal coefficient at the indicator.

    Combines difference-quotient estimates of the gradient of the perturbed
    exceedance functional with pairwise minimum moments obtained from
    two-component exceedance counts at the same level k.
    """
    sample = rank_sample(data, k, index_set)
    k = sample.k
    eps = check_eps(eps, k, sample.n)
    sample.require_exceedances()
    tau_hat = sample.count / k
    c_matrix, _ = sample.derivatives(eps)
    # gradient of the mean partial max of the renormalized spectral vector,
    # recovered from the diagonal scale derivatives
    gradient = 1.0 - tau_hat * np.diag(c_matrix)
    # pairwise coefficients from pair exceedance counts at the same k
    pair_taus = pairwise(index_set.size, lambda a, b: sample.pair(a, b).count / k)
    return bu_sigma2(tau_hat, pair_taus, gradient)
