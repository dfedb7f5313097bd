"""Optimally weighted ratio estimators and the plug-in variance forms behind their weights.

With known margins the asymptotic variance of the weighted ratio is (up to
centering) the quadratic form of the spectral second-moment matrix.  In the
rank-based setting the variance picks up correction terms driven by
derivatives of perturbed tail moments with respect to componentwise scales
and to the power; those derivatives are estimated from one rank sample by
central difference quotients and assembled by :func:`variance.mu_form`.
Either way the best weights minimize the form over the unit simplex
(:func:`variance.minimize_quadratic_on_simplex`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import (
    EstimateReport,
    IndexSet,
    QuadraticForm,
    embed,
)
from .estimators import check_eps, moment_ratios
from .samples import KnownSample, RankSample, second_moments, tail_sample
from .variance import minimize_quadratic_on_simplex  # noqa: F401 (read from this module too)
from .variance import mu_form, pairwise, simplex_minimizers


class OptimalRatios(NamedTuple):
    """Per-replication results of an optimally weighted ratio, NaN for an excluded replication.

    ``matrix`` is the variance form minimized over the simplex, ``weights``
    its minimizers on the index set and ``objective`` their values.
    """

    estimate: np.ndarray
    std_error: np.ndarray
    weights: np.ndarray
    objective: np.ndarray
    matrix: np.ndarray


# ---------------------------------------------------------------------------
# known-margin second moments and optimal weights
# ---------------------------------------------------------------------------

def second_moment_matrix_known(data, u: float, index_set: IndexSet) -> QuadraticForm:
    """Mean outer product of the angular parts over exceedances of the partial max.

    The (i, j) entry estimates the renormalized spectral moment
    ``E[Theta_i * Theta_j]``; the quadratic form at simplex weights v is then
    exactly the conditional second moment of ``v' Theta``.
    """
    sample = tail_sample(KnownSample, data, u, index_set)
    return QuadraticForm(index_set, second_moments(sample))


def optimal_known_ratios(sample: KnownSample) -> OptimalRatios:
    """The MK estimates of :func:`tau_moment_known`, one per replication of the sample."""
    matrix = second_moments(sample)
    weights, objective = simplex_minimizers(matrix)
    return OptimalRatios(*moment_ratios(sample, weights), weights, objective, matrix)


def tau_moment_known(data, u: float, index_set: IndexSet) -> EstimateReport:
    """Optimally weighted moment-ratio estimate of the reciprocal extremal coefficient.

    The weights are re-estimated from the same exceedances (the minimizer of
    the empirical second-moment form), then plugged into the first-moment
    ratio.  The reported standard error is the plug-in from the weighted
    ratio at those weights.
    """
    sample = tail_sample(KnownSample, data, u, index_set)
    result = optimal_known_ratios(sample)
    return EstimateReport(
        estimate=result.estimate,
        std_error=result.std_error,
        exceedance_count=sample.count,
        method="mk",
        parameters={"u": sample.u, "weights": embed(result.weights, index_set, sample.d),
                    "index_set": index_set, "objective": float(result.objective)},
    )


# ---------------------------------------------------------------------------
# rank-based pipeline with perturbations
# ---------------------------------------------------------------------------

def _tau_hat(sample) -> np.ndarray:
    """The extremal coefficient as the reciprocal of the uniform-weight rank ratio."""
    sample.require_exceedances()
    return 1.0 / sample.means(sample.angular).mean(axis=-1)


def rank_variance_matrices(sample: RankSample, eps: float | None = None) -> np.ndarray:
    """The matrix of :func:`rank_variance_form`, one per replication of the sample."""
    eps = check_eps(eps, sample.k, sample.n)
    m = sample.index_set.size
    tau = _tau_hat(sample)
    # pairwise extremal coefficients; at m = 2 the pair is the whole sample
    pair_taus = pairwise(m, lambda a, b: tau if m == 2 else _tau_hat(sample.pair(a, b)))
    c_matrix, b = sample.derivatives(eps)
    return mu_form(tau, pair_taus, second_moments(sample), c_matrix, b)


def rank_variance_form(data, k: int, index_set: IndexSet,
                       eps: float | None = None,
                       inv_alpha_hat: float | None = None) -> QuadraticForm:
    """Plug-in asymptotic-variance form of the rank-based weighted moment ratio.

    All ingredients come from the same rank sample at level ``k``: the
    extremal coefficient from the uniform-weight ratio, pairwise extremal
    coefficients from its two-component sub-samples (each with its own
    tail-index estimate unless one is supplied), spectral second moments,
    and the scale/power derivative matrices by central difference quotients
    with step ``eps`` (default ``k / n``).  The returned quadratic form
    evaluates, at simplex weights v, the estimated variance of the limiting
    Gaussian of the ratio — the objective whose simplex minimizer gives the
    optimally weighted rank estimator.
    """
    sample = tail_sample(RankSample, data, k, index_set, inv_alpha_hat)
    return QuadraticForm(index_set, rank_variance_matrices(sample, eps))


def optimal_rank_ratios(sample: RankSample, eps: float | None = None) -> OptimalRatios:
    """The MU estimates of :func:`tau_moment_ranks`, one per replication of the sample."""
    matrix = rank_variance_matrices(sample, eps)
    weights, objective = simplex_minimizers(matrix)
    return OptimalRatios(moment_ratios(sample, weights)[0],
                         np.sqrt(np.maximum(objective, 0.0) / sample.k),
                         weights, objective, matrix)


def tau_moment_ranks(data, k: int, index_set: IndexSet,
                     eps: float | None = None,
                     inv_alpha_hat: float | None = None) -> EstimateReport:
    """Optimally weighted rank-based estimate of the reciprocal extremal coefficient.

    The plug-in variance form is minimized over the simplex, the first-moment
    rank ratio is evaluated at the minimizing weights (with the same
    tail-index estimate), and the attained objective yields the standard
    error ``sqrt(objective / k)``; the report adds the form's condition number.
    """
    sample = tail_sample(RankSample, data, k, index_set, inv_alpha_hat)
    result = optimal_rank_ratios(sample, eps)
    condition = float(np.linalg.cond(result.matrix)) if np.any(result.matrix) else float("inf")
    return EstimateReport(
        estimate=result.estimate,
        std_error=result.std_error,
        exceedance_count=sample.count,
        method="mu",
        parameters={"k": sample.k, "eps": check_eps(eps, sample.k, sample.n),
                    "inv_alpha_hat": sample.inv_alpha,
                    "weights": embed(result.weights, index_set, sample.d),
                    "index_set": index_set,
                    "objective": float(result.objective), "condition_number": condition},
    )
