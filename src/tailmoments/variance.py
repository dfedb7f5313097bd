"""Asymptotic-variance formulas of the rank estimators and the simplex program they feed.

The plug-in variance of an estimator and its population variance are one
formula applied to the same ingredients: the extremal coefficient tau, the
pairwise coefficients, the spectral second moments and the scale and power
derivatives.  The empirical estimators (``estimators``, ``weights``) estimate
these from a rank sample and the oracle evaluates them exactly on a discrete
spectral measure; both assemble them here.  The optimal weights minimize a
quadratic form over the unit simplex, which :func:`simplex_minimizers` solves
for every form in the package, a stack of them at a time.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .core import QuadraticForm, WeightVector, embed


def pairwise(m: int, coefficient) -> np.ndarray:
    """The symmetric (..., m, m) matrix of ``coefficient(a, b)`` at a < b, ones on the diagonal.

    A coefficient may be an array over leading (replication) axes.
    """
    pairs = {pair: coefficient(*pair) for pair in itertools.combinations(range(m), 2)}
    lead = np.shape(next(iter(pairs.values()))) if pairs else ()
    matrix = np.ones(lead + (m, m))
    for (a, b), value in pairs.items():
        matrix[..., a, b] = matrix[..., b, a] = value
    return matrix


def bu_sigma2(tau: float, pair_taus: np.ndarray, gradient: np.ndarray) -> float:
    """``tau^3 g'((2 - P) / tau) g - tau``: the stable-tail (BU) variance times tau^4.

    ``g`` is the gradient of the mean partial max of the renormalized
    spectral vector and ``P`` the pairwise coefficients; ``(2 - P) / tau``
    holds the pairwise minimum moments (``1 / tau`` on the diagonal).
    """
    minimum = (2.0 - pair_taus) / tau
    return float(tau ** 3 * (gradient @ minimum @ gradient) - tau)


def mu_form(tau, pair_taus: np.ndarray, second_moments: np.ndarray,
            c_matrix: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The limiting variance of the rank ratio at simplex weights v, as the matrix A of v'Av.

    Writing E for the second-moment matrix, C for the scale-derivative
    matrix (C[i, j] the i-th scale derivative at basis weights j), b for the
    power derivatives at basis weights, and using that the centered moment
    matrix is ``E - J / tau^2`` on the simplex, the five variance
    contributions collapse to

        A = (1/tau) Ebar - (C' Ebar + Ebar C) + C' D C
            - (b m' + m b') + (1/tau) b b',

    with ``Ebar = E - J / tau^2``, ``D[i, j] = 2 - tau_{ij}`` (tau times the
    pairwise minimum moments), and ``m = C' b``.  Every argument may carry
    leading (replication) axes; A is symmetric and has them too.
    """
    m = b.shape[-1]
    tau = np.asarray(tau, dtype=float)[..., None, None]
    ones = np.ones((m, m))
    centered = second_moments - ones / tau ** 2
    d_matrix = 2.0 - pair_taus
    c_t = np.swapaxes(c_matrix, -1, -2)
    mixed = (c_t @ b[..., None])[..., 0]
    column, row = b[..., :, None], b[..., None, :]
    matrix = (
        centered / tau
        - (c_t @ centered + centered @ c_matrix)
        + c_t @ d_matrix @ c_matrix
        - (column * mixed[..., None, :] + mixed[..., :, None] * row)
        + column * row / tau
    )
    return 0.5 * (matrix + np.swapaxes(matrix, -1, -2))


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


def _pick(candidates: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The candidate the tie rule takes from each (..., C, m) table of a (..., m, m) stack, and
    its value.

    The lowest value wins, up to ``1e-12 * (1 + max|A|)``; within that, a norm
    smaller by more than 1e-12; then the earlier candidate.  A NaN row after the first (no
    candidate) is never taken, so the rule only folds over the rows that hold a candidate
    somewhere in the stack.
    """
    tol = 1e-12 * (1.0 + np.max(np.abs(a), axis=(-2, -1)))
    filled = ~np.isnan(candidates).all(axis=-1)  # (..., C): the rows that hold a candidate
    filled = filled.reshape(-1, filled.shape[-1]).any(axis=0)
    filled[0] = True  # the rule starts from the first row, also in an empty stack
    live = np.flatnonzero(filled)
    rows = candidates[..., live, None, :]
    columns = np.swapaxes(rows, -2, -1)
    values = (rows @ a[..., None, :, :] @ columns)[..., 0, 0]
    norms = np.sqrt(rows @ columns)[..., 0, 0]
    best = np.zeros(values.shape[:-1], dtype=int)
    best_value, best_norm = values[..., 0], norms[..., 0]
    for c in range(1, live.size):
        value, norm = values[..., c], norms[..., c]
        take = (value < best_value - tol) | ((value <= best_value + tol)
                                             & (norm < best_norm - 1e-12))
        best = np.where(take, c, best)
        best_value, best_norm = np.where(take, value, best_value), np.where(take, norm, best_norm)
    return np.take_along_axis(candidates, live[best][..., None, None], axis=-2)[..., 0, :], \
        best_value


@functools.cache
def _edges(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The (i, j) index pairs of the simplex's edges, i < j, as read-only arrays."""
    pairs = np.triu_indices(m, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def simplex_minimizers(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (..., m) simplex minimizers of v'Av and their (...) values for a (..., m, m) stack.

    :func:`_pick` takes them from one candidate table for the whole stack:
    the barycenter, the end points of the active-set descents, the
    stationary point of every edge that curves upwards (in closed form) and
    the vertices.  Two components need no descent.  From three on, one
    eigenvalue test finds the forms convex on the simplex; each descends from
    its lowest vertex, every other form from each of its edge points.  A
    matrix holding NaN (an excluded replication) gets NaN weights and value.
    """
    a = np.asarray(matrices, dtype=float)
    lead, m = a.shape[:-2], a.shape[-1]
    excluded = np.isnan(a).any(axis=(-2, -1))  # a replication without a form
    i, j = _edges(m)
    curvature = a[..., i, i] + a[..., j, j] - 2.0 * a[..., i, j]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (a[..., j, j] - a[..., i, j]) / curvature
    on_edge = (curvature > 0.0) & (0.0 <= t) & (t <= 1.0)
    t = np.where(on_edge, t, np.nan)  # a NaN candidate stands for none
    edges, e = np.zeros(lead + (i.size, m)), np.arange(i.size)
    edges[..., e, i], edges[..., e, j] = t, 1.0 - t  # t e_i + (1 - t) e_j on edge (i, j)
    found = {}
    if m > 2:
        # the form on the sum-zero directions is semidefinite iff convex on the simplex
        b = np.where(excluded[..., None, None], 0.0, a)
        centered = (b - b.mean(axis=-2, keepdims=True) - b.mean(axis=-1, keepdims=True)
                    + b.mean(axis=(-2, -1), keepdims=True))
        scale = 1.0 + np.max(np.abs(b), axis=(-2, -1))
        convex = np.linalg.eigvalsh(centered)[..., 0] >= -1e-12 * scale
        for r in np.ndindex(lead):
            if not excluded[r]:
                starts = ([np.eye(m)[int(np.argmin(np.diag(a[r])))]] if convex[r]
                          else edges[r][on_edge[r]])
                found[r] = np.reshape([end for start in starts
                                       for end in _descend(a[r], start, scale[r])], (-1, m))
    # the order settles ties: a descent's end before the edge point it starts from, an
    # edge point before the vertex it rounds to
    count = max(map(len, found.values()), default=0)
    table = np.full(lead + (1 + count + i.size + m, m), np.nan)
    table[..., 0, :] = 1.0 / m
    for r, found_r in found.items():
        table[r][1:1 + len(found_r)] = found_r
    table[..., 1 + count:-m, :], table[..., -m:, :] = edges, np.eye(m)
    best_w, best_value = _pick(table, a)
    best_w[excluded], best_value[excluded] = np.nan, np.nan
    return best_w, best_value


def minimize_quadratic_on_simplex(form: QuadraticForm, d: int | None = None
                                  ) -> tuple[WeightVector, float]:
    """Minimize v'Av over simplex weights supported on the form's index set.

    The candidates are, in this order, the barycenter, the end points of
    active-set descents (from three components on, at polynomial cost), the
    stationary point of every edge in closed form, and the vertices; two
    components need no descent.  A form convex on the simplex takes one
    descent, from the lowest vertex, to its global minimum.
    Otherwise (an NP-hard problem) a descent starts from the stationary point
    of every edge that curves upwards, and the best KKT point they reach need
    not be global.  Value ties go to the smaller norm, then the earlier
    candidate (an all-vertex tie gives the lowest-index vertex), so a flat
    optimum need not give the least-norm minimizer; at two components the
    edge point ties to the barycenter bit for bit.  Returns the weights in
    dimension ``d`` (by default the largest index) and the attained value:
    the one-matrix case of :func:`simplex_minimizers`.
    """
    index_set = form.index_set
    if d is None:
        d = index_set.members[-1]
    w, value = simplex_minimizers(form.matrix)
    return WeightVector(embed(w, index_set, d), index_set), float(value)
