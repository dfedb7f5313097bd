"""Optimal weight selection and plug-in variance forms for the ratio estimators.

With known margins the asymptotic variance of the weighted ratio is (up to
centering) the quadratic form of the spectral second-moment matrix, so the
best weights solve a small quadratic program over the unit simplex.  In the
rank-based setting the variance picks up correction terms driven by
derivatives of perturbed tail moments with respect to componentwise scales
and to the power; those derivatives are estimated by central difference
quotients and assembled into an explicit symmetric matrix, after which the
same simplex program applies.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import (
    EstimateReport,
    IndexSet,
    QuadraticForm,
    WeightVector,
    matrix_values,
)
from .estimators import (  # noqa: F401 (stable_tail_variance is re-exported)
    check_eps,
    moment_ratio_known,
    moment_ratio_ranks,
    stable_tail_variance,
)
from .samples import known_sample, rank_sample


# ---------------------------------------------------------------------------
# quadratic minimization over the simplex
# ---------------------------------------------------------------------------

def _face_point(a: np.ndarray, face: np.ndarray, scale: float):
    """Least-norm stationary point of v'Av on a face's affine hull, zero off the face.

    Where there is none (then False), the residual: a direction making v'Av linear.
    """
    f = face.size
    system = np.ones((f + 1, f + 1))
    system[:f, :f] = 2.0 * a[face][:, face]
    system[:f, f], system[f, f] = -1.0, 0.0
    rhs = np.eye(f + 1)[f]
    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    residual = rhs - system @ solution
    stationary = np.max(np.abs(residual)) <= 1e-9 * scale
    point = np.zeros(a.shape[0])
    point[face] = (solution if stationary else residual)[:f]
    return point, stationary


def _advance(w, step, limit, target, face) -> tuple[np.ndarray, bool]:
    """Go to ``target``, ``limit`` steps away, or to where a coordinate hits zero and leaves."""
    ratios = np.divide(w, -step, out=np.full(w.size, np.inf), where=step < 0.0)
    block = int(np.argmin(ratios))
    reached = bool(ratios[block] >= limit)
    w = np.clip(target if reached else w + ratios[block] * step, 0.0, None)
    if not reached:
        w[block], face[block] = 0.0, False
    return w / w.sum(), reached


def _descend(a: np.ndarray, w: np.ndarray, scale: float) -> list[np.ndarray]:
    """Primal active-set descent of v'Av from a simplex point stationary on its support.

    Steps head for the face's stationary point, or to the face boundary where
    v'Av does not curve upwards, so the value never increases; the steepest
    coordinate enters while it undercuts the multiplier by more than the value
    tolerance.  The end is a KKT point unless the 4m^2 guard against cycling
    trips.  It comes with the least-norm stationary point of the end face widened
    by the zero-multiplier coordinates, less those that block the way there.
    """
    m, tol = a.shape[0], 1e-12 * scale
    face, stationary = w > 0.0, True
    for _ in range(4 * m * m):
        aw, value = a @ w, float(w @ a @ w)
        slope = 2.0 * (aw - value)  # along the edge from w to each vertex
        if stationary:
            entering = int(np.argmin(np.where(face, np.inf, slope)))
            if face[entering] or slope[entering] >= -tol:
                break
            face[entering] = True
        target, stationary = _face_point(a, np.flatnonzero(face), scale)
        step, limit = (target - w, 1.0) if stationary else (target, np.inf)
        if not (stationary and step @ a @ step > 0.0):
            target, limit = w, np.inf
            step = -step if aw @ step > 0.0 else step
        w, stationary = _advance(w, step, limit, target, face)
    end, wider = w, face | (2.0 * (a @ w - float(w @ a @ w)) <= tol)
    for _ in range(m if np.any(wider & ~face) else 0):  # reach it or drop a coordinate
        point, feasible = _face_point(a, np.flatnonzero(wider), scale)
        point = np.clip(point, 0.0, None) if np.min(point) >= -1e-12 else point
        w, reached = _advance(w, point - w, 1.0, point, wider) if feasible else (w, True)
        if reached:
            break
    return [end] if w is end else [end, w]


def minimize_quadratic_on_simplex(form: QuadraticForm, d: int | None = None
                                  ) -> tuple[WeightVector, float]:
    """Minimize v'Av over simplex weights supported on the form's index set.

    The candidates are the barycenter, the vertices and, for two components,
    the segment's stationary point in closed form; from three on, the end
    points of active-set descents, at polynomial cost.  A form convex on the
    simplex takes one descent, from the lowest vertex, to its global minimum.
    Otherwise (an NP-hard problem) a descent starts from the stationary point
    of every edge that curves upwards, and the best KKT point they reach need
    not be global.  Value ties go to the smaller norm, then the earlier
    candidate (an all-vertex tie gives the lowest-index vertex), so a flat
    optimum need not give the least-norm minimizer.  Returns the weights in
    dimension ``d`` (by default the largest index) and the attained value.
    """
    a, index_set = form.matrix, form.index_set
    m = a.shape[0]
    if d is None:
        d = index_set.members[-1]
    index_set.check_within(d)
    scale = 1.0 + float(np.max(np.abs(a)))
    value_tol = 1e-12 * scale

    vertices = [np.eye(m)[i] for i in range(m)]
    # the form on the sum-zero directions is semidefinite iff convex on the simplex
    if m > 2 and np.linalg.eigvalsh(
            a - a.mean(axis=0) - a.mean(axis=1)[:, None] + a.mean())[0] >= -value_tol:
        starts = [vertices[int(np.argmin(np.diag(a)))]]
    else:  # the stationary point on every edge that curves upwards, without a solve
        starts = []
        for i, j in itertools.combinations(range(m), 2):
            curvature = a[i, i] + a[j, j] - 2.0 * a[i, j]
            if curvature > 0.0 and 0.0 <= (t := (a[j, j] - a[i, j]) / curvature) <= 1.0:
                starts.append(t * vertices[i] + (1.0 - t) * vertices[j])
    # at m = 2 the edge point solves the problem, and ties to the barycenter bit for bit
    candidates = [np.full(m, 1.0 / m)] + (starts if m == 2 else []) + vertices
    for start in starts if m > 2 else []:
        candidates += _descend(a, start, scale)

    best_w, best_value, best_norm = None, np.inf, np.inf
    for w in candidates:
        value, norm = float(w @ a @ w), float(np.linalg.norm(w))
        if value < best_value - value_tol or (value <= best_value + value_tol
                                              and norm < best_norm - 1e-12):
            best_w, best_value, best_norm = w, value, norm

    full = np.zeros(d)
    full[index_set.zero_based()] = best_w
    return WeightVector(full, index_set), best_value


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
    sample.require_exceedances()
    theta = sample.angular[:, index_set.zero_based()]
    matrix = (theta.T @ theta) / sample.count
    return QuadraticForm(index_set, matrix, meta={"u": sample.u, "count": sample.count})


def optimal_weights_known(data, u: float, index_set: IndexSet
                          ) -> tuple[WeightVector, float]:
    """Weights minimizing the empirical second moment of v'Theta over exceedances."""
    sample = known_sample(data, u, index_set)
    form = second_moment_matrix_known(sample, u, index_set)
    return minimize_quadratic_on_simplex(form, d=sample.d)


def tau_moment_known(data, u: float, index_set: IndexSet) -> EstimateReport:
    """Optimally weighted moment-ratio estimate of the reciprocal extremal coefficient.

    The weights are re-estimated from the same exceedances (the minimizer of
    the empirical second-moment form), then plugged into the first-moment
    ratio.  The reported standard error is the plug-in from the weighted
    ratio at those weights.
    """
    sample = known_sample(data, u, index_set)
    v_star, objective = optimal_weights_known(sample, u, index_set)
    base = moment_ratio_known(sample, u, v_star, p=1)
    return EstimateReport(
        estimate=base.estimate,
        inverse_estimate=base.inverse_estimate,
        std_error=base.std_error,
        exceedance_count=base.exceedance_count,
        method="mk",
        parameters={"u": sample.u, "weights": v_star.weights,
                    "index_set": index_set, "objective": objective},
    )


# ---------------------------------------------------------------------------
# rank-based pipeline with perturbations
# ---------------------------------------------------------------------------

def scale_quotient(data, k: int, v: WeightVector, i: int,
                   eps: float | None = None,
                   inv_alpha_hat: float | None = None) -> float:
    """Central difference quotient of the rank moment ratio in the i-th scale.

    Both evaluations perturb the rank-scaled data by ``1 +/- eps`` in
    component ``i`` before the indicator, the normalization, and the
    weighting, so the quotient estimates the derivative of the perturbed
    tail moment ratio with respect to that componentwise scale.  The step
    defaults to ``k / n``.
    """
    x = matrix_values(data)
    index_set = v.support
    if i not in index_set:
        raise ValueError(f"component {i} is not in the index set {index_set.members}")
    eps = check_eps(eps, k, x.shape[0])
    sample = rank_sample(data, k, index_set, inv_alpha_hat)
    difference = sample.central_difference(eps, index_set.members.index(i))
    return float(difference @ v.on_support()) / (2.0 * eps)


def power_quotient(data, k: int, v: WeightVector,
                   eps: float | None = None,
                   inv_alpha_hat: float | None = None) -> float:
    """Central difference quotient of the rank moment ratio in the power direction.

    The two evaluations divide the angular exponent by ``1 + eps`` and
    ``1 - eps`` while leaving the exceedance set untouched, estimating the
    derivative with respect to the power parameter at one.
    """
    x = matrix_values(data)
    eps = check_eps(eps, k, x.shape[0])
    sample = rank_sample(data, k, v.support, inv_alpha_hat)
    return float(sample.central_difference(eps) @ v.on_support()) / (2.0 * eps)


def second_moment_matrix_ranks(data, k: int, index_set: IndexSet,
                               inv_alpha_hat: float | None = None) -> QuadraticForm:
    """Rank-based spectral second-moment matrix: the mean outer product of the angular parts."""
    sample = rank_sample(data, k, index_set, inv_alpha_hat)
    sample.require_exceedances()
    matrix = (sample.angular.T @ sample.angular) / sample.count
    return QuadraticForm(index_set, matrix,
                         meta={"k": int(k), "inv_alpha_hat": sample.inv_alpha,
                               "count": sample.count})


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
    x = matrix_values(data)
    m = index_set.size
    eps = check_eps(eps, k, x.shape[0])
    sample = rank_sample(data, k, index_set, inv_alpha_hat)
    sample.require_exceedances()
    angular = sample.angular
    tau = 1.0 / float(np.mean(angular.mean(axis=0)))

    # pairwise extremal coefficients (tau of a singleton is identically one)
    pair_taus = np.ones((m, m))
    for a, b in itertools.combinations(range(m), 2):
        if m == 2:
            pair_taus[a, b] = pair_taus[b, a] = tau
        else:
            pair = sample.pair(a, b)
            pair.require_exceedances()
            value = 1.0 / float(np.mean(pair.angular.mean(axis=0)))
            pair_taus[a, b] = pair_taus[b, a] = value

    second_moments = (angular.T @ angular) / sample.count

    # scale derivatives: row i holds the quotients of all basis ratios in
    # the direction of the i-th component's scale
    c_matrix = np.array([sample.central_difference(eps, pos)
                         for pos in range(m)]) / (2.0 * eps)
    b = sample.central_difference(eps) / (2.0 * eps)

    matrix = _assemble_variance_matrix(tau, pair_taus, second_moments, c_matrix, b)
    meta = {
        "tau": tau,
        "pair_taus": pair_taus,
        "eps": eps,
        "inv_alpha_hat": sample.inv_alpha,
        "k": int(k),
        "exceedance_count": sample.count,
        "condition_number": _condition_number(matrix),
    }
    return QuadraticForm(index_set, matrix, meta=meta)


def _condition_number(matrix: np.ndarray) -> float:
    if not np.any(matrix):
        return float("inf")
    return float(np.linalg.cond(matrix))


def _assemble_variance_matrix(tau: float, pair_taus: np.ndarray,
                              second_moments: np.ndarray, c_matrix: np.ndarray,
                              b: np.ndarray) -> np.ndarray:
    """Exact quadratic-form assembly of the rank ratio's limiting variance.

    Writing E for the second-moment matrix, C for the scale-derivative
    matrix (C[i, j] the i-th scale derivative at basis weights j), b for the
    power derivatives at basis weights, and using that the centered moment
    matrix is ``E - J / tau^2`` on the simplex, the five variance
    contributions collapse to

        A = (1/tau) Ebar - (C' Ebar + Ebar C) + C' D C
            - (b m' + m b') + (1/tau) b b',

    with ``Ebar = E - J / tau^2``, ``D[i, j] = 2 - tau_{ij}`` (tau times the
    pairwise minimum moments), and ``m = C' b``.
    """
    m = b.shape[0]
    ones = np.ones((m, m))
    centered = second_moments - ones / tau ** 2
    d_matrix = 2.0 - pair_taus
    mixed = c_matrix.T @ b
    matrix = (
        centered / tau
        - (c_matrix.T @ centered + centered @ c_matrix)
        + c_matrix.T @ d_matrix @ c_matrix
        - (np.outer(b, mixed) + np.outer(mixed, b))
        + np.outer(b, b) / tau
    )
    return 0.5 * (matrix + matrix.T)


def tau_moment_ranks(data, k: int, index_set: IndexSet,
                     eps: float | None = None,
                     inv_alpha_hat: float | None = None) -> EstimateReport:
    """Optimally weighted rank-based estimate of the reciprocal extremal coefficient.

    The plug-in variance form is minimized over the simplex, the first-moment
    rank ratio is evaluated at the minimizing weights (with the same
    tail-index estimate), and the attained objective yields the standard
    error ``sqrt(objective / k)``.
    """
    x = matrix_values(data)
    eps = check_eps(eps, k, x.shape[0])
    sample = rank_sample(data, k, index_set, inv_alpha_hat)
    form = rank_variance_form(sample, k, index_set, eps=eps, inv_alpha_hat=inv_alpha_hat)
    v_tilde, objective = minimize_quadratic_on_simplex(form, d=sample.d)
    base = moment_ratio_ranks(sample, k, v_tilde, p=1, inv_alpha_hat=inv_alpha_hat)
    return EstimateReport(
        estimate=base.estimate,
        inverse_estimate=base.inverse_estimate,
        std_error=float(np.sqrt(max(objective, 0.0) / k)),
        exceedance_count=base.exceedance_count,
        method="mu",
        parameters={"k": int(k), "eps": form.meta["eps"],
                    "inv_alpha_hat": form.meta["inv_alpha_hat"],
                    "weights": v_tilde.weights, "index_set": index_set,
                    "objective": objective},
    )
