"""Population quantities of discrete spectral measures.

A finite spectral measure (atoms on the positive orthant, sup-norm one,
with probabilities) determines every limit targeted by the estimators:
extremal coefficients, perturbed tail moments (the renormalized moments
are their unscaled case) and their derivatives, optimal weights, and the
asymptotic variances of the four estimation strategies.  Everything here
is computed by exact atom enumeration so the results can serve as ground
truth in tests and as the theoretical column of simulation reports.  Each function reads one
:class:`Population` view of the measure on its index set, which
renormalizes the measure once and derives tau, the second moments, the
entropy vector and the argmax gradients once; a function handed a view
for its index set reads that view, and a caller after one of those parts
reads it off the view.  The variances and the optimal weights
come from :mod:`tailmoments.variance`, whose formulas the plug-in
estimators share; this module imports nothing else from the package but
``core``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    IndexSet,
    QuadraticForm,
    WeightVector,
    check_fields,
    check_finite,
    check_moment_power,
    exceedances,
    partial_max,
    restrict,
)
from .variance import bu_sigma2, minimize_quadratic_on_simplex, mu_form, pairwise

#: tolerance for the standardized-margins precondition (equal atom means)
STANDARDIZED_TOL = 1e-9
#: atoms within this distance of the partial max count as attaining it
ARGMAX_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class DiscreteSpectralMeasure:
    """Finitely supported spectral measure: atoms (rows) with probabilities.

    Every atom has sup-norm one.  Atoms and probabilities are exactly
    renormalized by the constructor after a tolerance check, so downstream
    identities hold to machine precision.
    """

    atoms: np.ndarray
    probs: np.ndarray

    def __init__(self, atoms, probs):
        atoms = np.asarray(atoms, dtype=float)
        if atoms.ndim != 2:
            raise ValueError("atoms must be a 2-dimensional array (one atom per row)")
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1 or probs.shape[0] != atoms.shape[0]:
            raise ValueError("probs must assign one probability to each atom")
        check_finite(atoms, "atoms", positive=False)
        check_finite(probs, "atom probabilities")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ValueError("atom probabilities must sum to 1 within 1e-12")
        peaks, _, atoms = exceedances(atoms, 0.0)
        if np.any(np.abs(peaks - 1.0) > STANDARDIZED_TOL):
            raise ValueError("every atom must have sup-norm 1 (within 1e-9)")
        probs = probs / probs.sum()
        atoms.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)

    @property
    def d(self) -> int:
        return self.atoms.shape[1]

    def merged(self) -> "DiscreteSpectralMeasure":
        """Combine atoms that coincide within 1e-12, summing their probabilities."""
        order = np.lexsort(self.atoms.T[::-1])
        atoms = self.atoms[order]
        probs = self.probs[order]
        kept_atoms = [atoms[0]]
        kept_probs = [probs[0]]
        for row, weight in zip(atoms[1:], probs[1:]):
            if np.max(np.abs(row - kept_atoms[-1])) <= 1e-12:
                kept_probs[-1] += weight
            else:
                kept_atoms.append(row)
                kept_probs.append(weight)
        return DiscreteSpectralMeasure(np.array(kept_atoms), np.array(kept_probs))

    def to_dict(self) -> dict:
        return {"atoms": self.atoms.tolist(), "probs": self.probs.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "DiscreteSpectralMeasure":
        return cls(**check_fields(payload, "measure", ("atoms", "probs")))


def _renormalized(columns: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The atoms' columns on an index set, renormalized on it, with their probabilities.

    Atoms are divided by their partial max over the columns and reweighted
    proportionally to it; atoms with zero partial max disappear.  The result
    is the spectral measure "seen from" extremes of the index set.
    """
    peaks, keep, theta = exceedances(columns, 0.0)
    if not np.any(keep):
        raise ValueError("no atom has a positive partial max on the index set")
    weights = probs[keep] * peaks[keep]
    return theta, weights / weights.sum()


@dataclass(frozen=True, eq=False)
class Population:
    """What the oracle reads of one measure on one index set, each part derived once.

    ``tau`` is the extremal coefficient of the set; it needs a standardized
    measure, whose checked coordinate mean ``mean`` also gives the
    coefficient of any other index set through :meth:`coefficient`, and
    ``pair_taus`` those of the pairs of the set (ones on the diagonal).
    ``theta`` and ``probs`` are the atoms on the set and their probabilities
    under the measure renormalized on it; ``second`` holds E[Theta_i Theta_j],
    ``entropy`` E[-Theta_i log Theta_i], ``gradients`` the even, left and
    right gradients of the mean partial max, and ``differentiable`` tells
    whether the last two agree.  Each part is derived on its first read,
    ``theta`` and ``probs`` with the parts read from them, so a function fails
    on the first part it reads.  The arrays are read-only.
    """

    measure: DiscreteSpectralMeasure
    index_set: IndexSet

    @cached_property
    def tau(self) -> float:
        self.index_set.check_within(self.measure.d)
        return self.coefficient(self.index_set)

    @cached_property
    def mean(self) -> float:
        """The common coordinate mean E[Theta_i] of the measure, checked once."""
        means = self.measure.atoms.T @ self.measure.probs
        if float(means.max() - means.min()) > STANDARDIZED_TOL:
            raise ValueError(
                "margins are not tail-equivalent: coordinate means of the spectral "
                f"vector differ by {means.max() - means.min():.3g}")
        return float(means.mean())

    def coefficient(self, index_set: IndexSet) -> float:
        """The extremal coefficient of any index set of the measure, from the checked mean.

        Every atom has sup-norm one, so the equal coordinate means of a
        standardized measure are each at least 1/d, and so is the mass of
        any index set: the coefficient is always defined.
        """
        mass = float(self.measure.probs @ partial_max(self.measure.atoms, index_set))
        return 1.0 / self.mean * mass

    @cached_property
    def pair_taus(self) -> np.ndarray:
        m = self.index_set.members
        taus = pairwise(len(m), lambda a, b: self.coefficient(IndexSet((m[a], m[b]))))
        taus.flags.writeable = False
        return taus

    def __getattr__(self, name: str):
        """Derive ``theta``, ``probs`` and the parts read from them together, on the first read."""
        if name not in ("theta", "probs", "second", "entropy", "gradients", "differentiable"):
            raise AttributeError(name)
        self.index_set.check_within(self.measure.d)
        theta, probs = _renormalized(self.measure.atoms[:, self.index_set.zero_based()],
                                     self.measure.probs)
        # increasing s_i moves the partial max (exactly 1 here) when i is among
        # the argmax set (right gradient), decreasing it when i is the unique
        # argmax (left gradient); ties are split evenly in between
        top = theta >= 1.0 - ARGMAX_TOL
        sizes = top.sum(axis=1)
        indicators = (top / sizes[:, None], top & (sizes == 1)[:, None], top)
        even, left, right = (x.T.astype(float) @ probs for x in indicators)
        logs = np.log(np.where(theta > 0, theta, 1.0))
        second = theta.T @ (probs[:, None] * theta)
        entropy = np.where(theta > 0.0, -theta * logs, 0.0).T @ probs
        for array in (theta, probs, second, entropy, even, left, right):
            array.flags.writeable = False
        self.__dict__.update(theta=theta, probs=probs, second=second, entropy=entropy,
                             gradients=(even, left, right),
                             differentiable=bool(np.max(np.abs(right - left)) <= ARGMAX_TOL))
        return self.__dict__[name]

    def c(self, weights, gradient: np.ndarray) -> np.ndarray:
        """Scale derivatives ``(w_i - (sum w) * gradient_i) / tau`` of the perturbed moment.

        ``weights`` is a vector read through ``core.restrict`` (a WeightVector,
        an |I|- or a d-vector), or an |I|-row matrix with a weight vector in
        each column: at ``np.eye(m)``, entry (i, j) is the i-th derivative at
        basis weights j.  The power derivative at v is ``v @ entropy``.
        """
        weights = restrict(weights, self.index_set, self.measure.d)
        return (weights - np.multiply.outer(gradient, weights.sum(axis=0))) / self.tau


def population(measure, index_set: IndexSet) -> Population:
    """The view to read: ``measure`` itself if it is one for this index set, else a new one."""
    if not isinstance(measure, Population):
        return Population(measure, index_set)
    return measure if measure.index_set == index_set else Population(measure.measure, index_set)


def extremal_coefficient(measure: DiscreteSpectralMeasure,
                         index_set: IndexSet) -> float:
    """The extremal coefficient of the index set, between 1 and its size.

    Requires a standardized measure; equals the reciprocal mean
    coordinate times the mean partial max over the index set.
    """
    return population(measure, index_set).tau


def perturbed_moment(measure: DiscreteSpectralMeasure, index_set: IndexSet,
                     v, s=None, beta: float = 1.0, p: int = 1) -> float:
    """The population limit of the perturbed moment ratio.

    For componentwise scales ``s`` (a vector read through ``core.restrict``:
    an |I|- or a d-vector) and power ``beta``, this is the
    partial-max-weighted mean of ``(v' angular(s o Theta)^(1/beta))^p``
    divided by the mean partial max of ``s o Theta`` — the quantity whose
    scale and power derivatives enter the rank-based variance corrections.
    ``s=None`` reads the renormalized atoms as they are, neither scaled nor
    renormalized again; at ``beta`` 1 that is the plain moment E[(v' Theta)^p].
    """
    p = check_moment_power(p)
    beta = check_finite(beta, "beta")
    view = population(measure, index_set)
    theta, probs = view.theta, view.probs
    if s is not None:
        scales = check_finite(restrict(s, index_set, view.measure.d), "perturbation scales",
                              positive=False)
        theta, probs = _renormalized(theta * scales, probs)
    weights = restrict(v, index_set, view.measure.d)
    return float(probs @ (np.power(theta, 1.0 / beta) @ weights) ** p)


# ---------------------------------------------------------------------------
# optimal weights and asymptotic variances
# ---------------------------------------------------------------------------

def optimal_weights(measure: DiscreteSpectralMeasure, index_set: IndexSet
                    ) -> tuple[WeightVector, float]:
    """Simplex weights minimizing E[(v' Theta)^2] on the index set, with the value."""
    view = population(measure, index_set)
    return minimize_quadratic_on_simplex(QuadraticForm(index_set, view.second), d=view.measure.d)


def rank_variance_matrix(measure: DiscreteSpectralMeasure,
                         index_set: IndexSet) -> QuadraticForm:
    """Population analogue of the rank-based plug-in variance form.

    Assembled from the same ingredients as the empirical version — extremal
    coefficient, pairwise coefficients, spectral second moments, scale and
    power derivative matrices — all evaluated exactly on the atoms, with
    ties in the argmax split evenly (matching the even convention of the
    derivative estimates).
    """
    view = population(measure, index_set)
    tau = view.tau  # read first, so an unstandardized measure fails before its renormalization
    c_matrix = view.c(np.eye(index_set.size), view.gradients[0])
    return QuadraticForm(index_set, mu_form(tau, view.pair_taus, view.second, c_matrix,
                                             view.entropy))


@dataclass(frozen=True)
class AsymptoticVariances:
    """The four asymptotic variances with the two optimal weight vectors."""

    avar_bk: float
    avar_mk: float
    avar_bu: float
    avar_mu: float
    v_star: WeightVector
    v_tilde: WeightVector
    tau: float

    def as_dict(self) -> dict:
        return {
            "avar_bk": self.avar_bk,
            "avar_mk": self.avar_mk,
            "avar_bu": self.avar_bu,
            "avar_mu": self.avar_mu,
            "v_star": self.v_star.weights.tolist(),
            "v_tilde": self.v_tilde.weights.tolist(),
            "tau": self.tau,
        }


def asymptotic_variances(measure: DiscreteSpectralMeasure,
                         index_set: IndexSet) -> AsymptoticVariances:
    """Asymptotic variances of the four estimation strategies on an index set.

    - benchmark with known margins: ``(tau - 1) / tau^3``;
    - optimally weighted moment ratio with known margins:
      ``Var(v*' Theta^I) / tau`` at the minimizing weights (centered so a
      degenerate optimum yields exactly zero);
    - empirical extremal coefficient from ranks: the gradient-weighted
      minimum-moment form divided by ``tau^4``;
    - optimally weighted rank ratio: the minimum of the rank variance form.
    """
    view = population(measure, index_set)
    tau = view.tau
    v_star, _ = optimal_weights(view, index_set)
    form = rank_variance_matrix(view, index_set)
    v_tilde, best_rank = minimize_quadratic_on_simplex(form, d=view.measure.d)
    return AsymptoticVariances(
        avar_bk=(tau - 1.0) / tau ** 3,
        avar_mk=max(ratio_covariance(view, index_set, v_star, v_star), 0.0),
        avar_bu=max(bu_sigma2(tau, view.pair_taus, view.gradients[0]), 0.0) / tau ** 4,
        avar_mu=float(max(best_rank, 0.0)),
        v_star=v_star,
        v_tilde=v_tilde,
        tau=tau,
    )


def ratio_covariance(measure: DiscreteSpectralMeasure, index_set: IndexSet,
                     v, w, p: int = 1, q: int = 1) -> float:
    """Scaled covariance of two weighted spectral moments on the index set.

    ``Cov((v' Theta)^p, (w' Theta)^q) / tau_I`` — with ``v = w`` and
    ``p = q = 1`` this is the known-margin asymptotic variance of the
    weighted moment ratio at those weights.
    """
    p = check_moment_power(p)
    q = check_moment_power(q)
    view = population(measure, index_set)
    tau = view.tau
    theta, probs = view.theta, view.probs
    x = (theta @ restrict(v, index_set, view.measure.d)) ** p
    y = (theta @ restrict(w, index_set, view.measure.d)) ** q
    mean_x = float(probs @ x)
    mean_y = float(probs @ y)
    return (float(probs @ (x * y)) - mean_x * mean_y) / tau
