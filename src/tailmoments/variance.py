"""Asymptotic-variance formulas of the rank estimators and the simplex program they feed.

The plug-in variance of an estimator and its population variance are one
formula applied to the same ingredients: the extremal coefficient tau, the
pairwise coefficients, the spectral second moments and the scale and power
derivatives.  The empirical estimators (``estimators``, ``weights``) estimate
these from a rank sample and the oracle evaluates them exactly on a discrete
spectral measure; both assemble them here.  The optimal weights minimize a
quadratic form over the unit simplex, which :func:`minimize_quadratic_on_simplex`
solves for every form in the package.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import IndexSet, QuadraticForm, WeightVector, embed


def pairwise(m: int, coefficient) -> np.ndarray:
    """The symmetric (m, m) matrix of ``coefficient(a, b)`` over positions a < b, ones on the diagonal."""
    matrix = np.ones((m, m))
    for a, b in itertools.combinations(range(m), 2):
        matrix[a, b] = matrix[b, a] = coefficient(a, b)
    return matrix


def bu_sigma2(tau: float, pair_taus: np.ndarray, gradient: np.ndarray) -> float:
    """``tau^3 g'((2 - P) / tau) g - tau``: the stable-tail (BU) variance times tau^4.

    ``g`` is the gradient of the mean partial max of the renormalized
    spectral vector and ``P`` the pairwise coefficients; ``(2 - P) / tau``
    holds the pairwise minimum moments (``1 / tau`` on the diagonal).
    """
    minimum = (2.0 - pair_taus) / tau
    return float(tau ** 3 * (gradient @ minimum @ gradient) - tau)


def mu_form(index_set: IndexSet, tau: float, pair_taus: np.ndarray, second_moments: np.ndarray,
            c_matrix: np.ndarray, b: np.ndarray) -> QuadraticForm:
    """The limiting variance of the rank ratio at simplex weights v, as the form v'Av.

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
    return QuadraticForm(index_set, 0.5 * (matrix + matrix.T))


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

    return WeightVector(embed(best_w, index_set, d), index_set), best_value
