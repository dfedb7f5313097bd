"""Estimation of extremal dependence through tail moment ratios.

The package estimates the extremal coefficient of a heavy-tailed random
vector — the effective number of asymptotically independent components among
a chosen index set — together with exact population counterparts for
discrete spectral measures, weight optimization on the simplex, a max-linear
simulation model, and a Monte Carlo harness comparing the estimators.
"""

import types as _types

from .core import (
    DataMatrix,
    DegenerateDirection,
    EpsOutOfRange,
    EstimateReport,
    EstimationError,
    IndexSet,
    KOutOfRange,
    NegativeWeight,
    NoExceedances,
    NonPositiveAlpha,
    NonPositiveScale,
    NonSymmetric,
    NotStandardized,
    ParamOutOfRange,
    Perturbation,
    QuadraticForm,
    SupportViolation,
    WeightVector,
    ZeroSum,
    make_weight_vector,
    partial_max,
    uniform_weights,
)
from .estimators import (
    benchmark_ratio_known,
    moment_ratio_known,
    moment_ratio_ranks,
    stable_tail_estimate,
)
from .harness import (
    ExperimentConfig,
    run_experiment,
    table_experiments,
    variance_grid,
)
from .io import read_matrix_csv, write_matrix_csv
from .margins import (
    hill_inverse_alpha,
    scaled_by_order_statistics,
    standardize_known,
)
from .maxlinear import (
    MaxLinearModel,
    derive_seed,
    frechet_sample,
    make_scenario,
    model_spectral_measure,
    simulate,
)
from .oracle import (
    AsymptoticVariances,
    DiscreteSpectralMeasure,
    Population,
    asymptotic_variances,
    extremal_coefficient,
    perturbed_moment,
    rank_variance_matrix,
)
from .samples import KnownSample, RankSample, upper_order_statistics
from .variance import minimize_quadratic_on_simplex
from .weights import (
    rank_variance_form,
    second_moment_matrix_known,
    tau_moment_known,
    tau_moment_ranks,
)

__version__ = "0.1.0"

# every public name bound above; modules are left out, so a star-import
# never shadows the standard library's io
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
