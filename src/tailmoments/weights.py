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

import numpy as np

from .core import (
    EstimateReport,
    IndexSet,
    QuadraticForm,
)
from .estimators import check_eps, moment_ratio_known, moment_ratio_ranks
from .samples import known_sample, rank_sample, second_moments
from .variance import minimize_quadratic_on_simplex, mu_form, pairwise


# ---------------------------------------------------------------------------
# known-margin second moments and optimal weights
# ---------------------------------------------------------------------------

def second_moment_matrix_known(data, u: float, index_set: IndexSet) -> QuadraticForm:
    """Mean outer product of the angular parts over exceedances of the partial max.

    The (i, j) entry estimates the renormalized spectral moment
    ``E[Theta_i * Theta_j]``; the quadratic form at simplex weights v is then
    exactly the conditional second moment of ``v' Theta``.
    """
    sample = known_sample(data, u, index_set)
    return QuadraticForm(index_set, second_moments(sample))


def tau_moment_known(data, u: float, index_set: IndexSet) -> EstimateReport:
    """Optimally weighted moment-ratio estimate of the reciprocal extremal coefficient.

    The weights are re-estimated from the same exceedances (the minimizer of
    the empirical second-moment form), then plugged into the first-moment
    ratio.  The reported standard error is the plug-in from the weighted
    ratio at those weights.
    """
    sample = known_sample(data, u, index_set)
    form = second_moment_matrix_known(sample, u, index_set)
    v_star, objective = minimize_quadratic_on_simplex(form, d=sample.d)
    base = moment_ratio_known(sample, u, v_star, p=1)
    return EstimateReport(
        estimate=base.estimate,
        std_error=base.std_error,
        exceedance_count=base.exceedance_count,
        method="mk",
        parameters={"u": sample.u, "weights": v_star.weights,
                    "index_set": index_set, "objective": objective},
    )


# ---------------------------------------------------------------------------
# rank-based pipeline with perturbations
# ---------------------------------------------------------------------------

def _tau_hat(sample) -> float:
    """The extremal coefficient as the reciprocal of the uniform-weight rank ratio."""
    sample.require_exceedances()
    return 1.0 / float(np.mean(sample.angular.mean(axis=0)))


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
    sample = rank_sample(data, k, index_set, inv_alpha_hat)
    eps = check_eps(eps, sample.k, sample.n)
    m = index_set.size
    tau = _tau_hat(sample)
    # pairwise extremal coefficients; at m = 2 the pair is the whole sample
    pair_taus = pairwise(m, lambda a, b: tau if m == 2 else _tau_hat(sample.pair(a, b)))
    c_matrix, b = sample.derivatives(eps)
    return mu_form(index_set, tau, pair_taus, second_moments(sample), c_matrix, b)


def tau_moment_ranks(data, k: int, index_set: IndexSet,
                     eps: float | None = None,
                     inv_alpha_hat: float | None = None) -> EstimateReport:
    """Optimally weighted rank-based estimate of the reciprocal extremal coefficient.

    The plug-in variance form is minimized over the simplex, the first-moment
    rank ratio is evaluated at the minimizing weights (with the same
    tail-index estimate), and the attained objective yields the standard
    error ``sqrt(objective / k)``; the report adds the form's condition number.
    """
    sample = rank_sample(data, k, index_set, inv_alpha_hat)
    form = rank_variance_form(sample, k, index_set, eps=eps, inv_alpha_hat=inv_alpha_hat)
    v_tilde, objective = minimize_quadratic_on_simplex(form, d=sample.d)
    base = moment_ratio_ranks(sample, k, v_tilde, p=1, inv_alpha_hat=inv_alpha_hat)
    condition = float(np.linalg.cond(form.matrix)) if np.any(form.matrix) else float("inf")
    return EstimateReport(
        estimate=base.estimate,
        std_error=float(np.sqrt(max(objective, 0.0) / sample.k)),
        exceedance_count=base.exceedance_count,
        method="mu",
        parameters={"k": sample.k, "eps": check_eps(eps, sample.k, sample.n),
                    "inv_alpha_hat": sample.inv_alpha,
                    "weights": v_tilde.weights, "index_set": index_set,
                    "objective": objective, "condition_number": condition},
    )
