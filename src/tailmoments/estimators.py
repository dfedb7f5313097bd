"""Tail moment functionals and ratio estimators of extremal dependence.

The central object is the empirical tail moment

    M(v, s, beta, p) = (1/n) * sum_l  (v' a_l)^p * 1{ ||s o X_l|| > u },

where ``o`` is the componentwise product, ``|| . ||`` the maximum over the
index set, and ``a_l`` the angular part of ``(s o X_l)^(1/beta)``.  Dividing
by the exceedance fraction (the ``p = 0`` case) gives ratio estimators whose
limits are moments of the renormalized spectral vector; with unit weights and
no perturbation the ratio estimates the reciprocal extremal coefficient.

Both margin conventions are covered: thresholding standardized data at a
level ``u`` (known margins), and thresholding each column by its own k-th
largest value (rank-based, self-normalizing).
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import (
    EpsOutOfRange,
    EstimateReport,
    IndexSet,
    Perturbation,
    WeightVector,
    check_moment_power as _check_power,
    matrix_values,
)
from .samples import known_sample, rank_sample


def moment_mean(data, u: float, v: WeightVector, p: int = 1,
                perturbation: Perturbation | None = None) -> float:
    """The empirical tail moment M(v, s, beta, p) at threshold u (mean over all n rows).

    Parameters
    ----------
    data : StandardizedMatrix, DataMatrix, KnownSample or (n, d) array-like
        Non-negative observations with comparable margins.
    u : float
        Threshold applied to the partial max of the perturbed row.
    v : WeightVector
        Simplex weights; their support fixes the index set when no
        perturbation is given.
    p : int
        Non-negative integer moment power; ``p = 0`` counts exceedances.
    perturbation : Perturbation, optional
        Componentwise scales (applied before thresholding and powering) and
        the power ``beta``; defaults to the identity on the support of ``v``.

    Notes
    -----
    Rows whose perturbed partial max is zero contribute nothing, and an empty
    exceedance set gives 0 rather than an error.
    """
    p = _check_power(p)
    index_set = v.support if perturbation is None else perturbation.index_set
    sample = known_sample(data, u, index_set, perturbation)
    if sample.count == 0:
        return 0.0
    if p == 0:
        return float(sample.count) / sample.n
    contributions = (sample.angular @ v.weights) ** p
    return float(np.sum(contributions)) / sample.n


def exceedance_fraction(data, u: float, index_set: IndexSet,
                        perturbation: Perturbation | None = None) -> float:
    """Fraction of rows whose perturbed partial max over the index set exceeds u."""
    if perturbation is not None:
        index_set = perturbation.index_set
    sample = known_sample(data, u, index_set, perturbation)
    return float(sample.count) / sample.n


def moment_ratio_known(data, u: float, v: WeightVector, p: int = 1,
                       perturbation: Perturbation | None = None) -> EstimateReport:
    """Moment of the angular parts conditional on an exceedance, for standardized data.

    The estimate is ``moment_mean / exceedance_fraction``; with ``p = 1`` and
    simplex weights it converges to the reciprocal extremal coefficient of
    the support of ``v``, for any such ``v``.  The standard error is the
    plug-in ``sqrt(inv_tau_hat * var_hat / count)`` where both factors are
    empirical moments over the exceedances.

    Raises
    ------
    NoExceedances
        If no row exceeds the threshold.
    """
    p = _check_power(p)
    index_set = v.support if perturbation is None else perturbation.index_set
    sample = known_sample(data, u, index_set, perturbation)
    sample.require_exceedances()
    projected = sample.angular @ v.weights
    powered = projected ** p if p != 1 else projected
    estimate = float(np.mean(powered)) if p > 0 else 1.0
    # 1/tau plug-in from the first moment at the same weights; variance of the
    # p-th power over the exceedances
    inv_tau = float(np.mean(projected))
    variance = float(np.mean(powered ** 2)) - estimate ** 2
    std_error = float(np.sqrt(max(inv_tau * variance, 0.0) / sample.count))
    return EstimateReport(
        estimate=estimate,
        inverse_estimate=(1.0 / estimate) if estimate > 0 else None,
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
    sample.require_exceedances()
    denominator = sample.count
    numerator = int(np.count_nonzero(sample.values @ v.weights > sample.u))
    estimate = numerator / denominator
    return EstimateReport(
        estimate=estimate,
        inverse_estimate=(1.0 / estimate) if estimate > 0 else None,
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


def rank_angular_parts(data, k: int, index_set: IndexSet,
                       inv_alpha_hat: float | None = None):
    """Exceedance mask and powered angular parts of the rank-scaled data.

    Each column in the index set is divided by its own k-th largest value;
    a row is an exceedance when its partial max ratio is strictly above one.
    Exceeding rows are normalized by that partial max and raised entrywise
    to the estimated tail index (the reciprocal of ``inv_alpha_hat``, which
    is estimated by the Hill routine on the same rows when absent).

    Returns
    -------
    mask : (n,) bool array
    angular : (count, d) array, zero outside the index set
    inv_alpha : float
        The reciprocal tail index actually used.
    """
    sample = rank_sample(data, k, index_set, inv_alpha_hat)
    if sample.inv_alpha is None:
        sample.require_exceedances()
    angular = np.zeros((sample.count, sample.d))
    angular[:, index_set.zero_based()] = sample.angular
    return sample.mask, angular, sample.inv_alpha


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
    estimate = float(np.mean((sample.angular @ v.on_support()) ** p)) if p > 0 else 1.0
    return EstimateReport(
        estimate=estimate,
        inverse_estimate=(1.0 / estimate) if estimate > 0 else None,
        std_error=None,
        exceedance_count=sample.count,
        method="moment_ranks",
        parameters={"k": int(k), "p": p, "weights": v.weights,
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
        standard error ``sqrt(sigma2 / (tau^4 * k))`` is assembled; when
        absent the standard error is omitted.
    """
    sample = rank_sample(data, k, index_set)
    n = sample.n
    count = sample.count
    estimate = (n / k) * (count / n)
    std_error = None
    if eps is not None and estimate > 0:
        sigma2 = stable_tail_variance(sample, k, index_set, eps)
        std_error = float(np.sqrt(max(sigma2, 0.0) / (estimate ** 4 * k)))
    return EstimateReport(
        estimate=estimate,
        inverse_estimate=(1.0 / estimate) if estimate > 0 else None,
        std_error=std_error,
        exceedance_count=count,
        method="stdf",
        parameters={"k": int(k), "index_set": index_set, "n": n,
                    **({"eps": float(eps)} if eps is not None else {})},
    )


def stable_tail_variance(data, k: int, index_set: IndexSet, eps: float) -> float:
    """Plug-in variance of the empirical extremal coefficient at the indicator.

    Combines difference-quotient estimates of the gradient of the perturbed
    exceedance functional with pairwise minimum moments obtained from
    two-component exceedance counts at the same level k.
    """
    x = matrix_values(data)
    m = index_set.size
    eps = check_eps(eps, k, x.shape[0])
    sample = rank_sample(data, k, index_set)
    sample.require_exceedances()
    tau_hat = sample.count / k

    # gradient of the mean partial max of the renormalized spectral vector,
    # recovered from the diagonal scale quotients
    partial_e = np.zeros(m)
    for pos in range(m):
        c_diag = float(sample.central_difference(eps, pos)[pos] / (2.0 * eps))
        partial_e[pos] = 1.0 - tau_hat * c_diag

    # pairwise minimum moments from pair exceedance counts at the same k
    minimum = np.zeros((m, m))
    for a in range(m):
        minimum[a, a] = 1.0 / tau_hat
    for a, b in itertools.combinations(range(m), 2):
        pair_tau = sample.pair(a, b).count / k
        minimum[a, b] = minimum[b, a] = 2.0 / tau_hat - pair_tau / tau_hat

    return float(tau_hat ** 3 * (partial_e @ minimum @ partial_e) - tau_hat)
