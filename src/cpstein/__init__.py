"""Compound Poisson Stein-factor bounds with numerical verification.

The package has four layers:

* :mod:`cpstein.core` - compound Poisson parameters, factorial-moment
  functionals, probability tables, sampling.
* :mod:`cpstein.bounds` - closed-form Stein-factor ("magic factor") bounds
  and the trigonometric functionals behind them.
* :mod:`cpstein.oracle` - direct numerical solution of the Stein equation,
  giving empirical factors that every claimed bound must dominate.
* :mod:`cpstein.models` / :mod:`cpstein.exact` - application models (runs on
  a circle, square lattice reliability, mixed Poisson, independent sums)
  with exact small-instance laws and certified distance computations.

Importing the package loads neither numpy nor scipy: each function that
needs one imports it when called, because loading numpy costs more than
half of a cold closed-form command, and scipy more again.  The closed-form
bounds (``theta``, ``evaluate_all`` and the model approximants, which the
``bounds`` and ``sweep`` commands run) are plain ``math`` and never load
numpy, except for the sums model and an order-3 criterion that needs the
Bernstein enclosure.  The oracle, ``cp_pmf`` and the exact laws load numpy
on first use, and only the mixed Poisson laws and
``poisson_stein_forward`` load ``scipy.special``.
"""

from __future__ import annotations

from .bounds import (
    DeltaResult,
    GkEvaluation,
    SteinFactorBound,
    best_bound,
    best_of,
    bound_bx99,
    bound_cor3,
    bound_general,
    bound_lemma_c,
    bound_monotone,
    bound_thm2,
    bound_thm4,
    delta_k,
    delta_k_grid,
    evaluate_all,
    g_k_eval,
    g_k_grid,
)
from .core import (
    CompoundPoissonParams,
    DistributionTable,
    ThetaVector,
    TruncationCapError,
    chernoff_tail,
    cp_pmf,
    cp_sample,
    monotone_condition,
    theta,
    variance,
)
from .exact import (
    BudgetExceededError,
    DistanceReport,
    distance,
    mixed_exact_pmf,
    reliability_exact_pmf,
    reliability_mc_pmf,
    runs_exact_pmf,
    sums_exact_pmf,
)
from .models import (
    GammaMixing,
    IndependentSumModel,
    MixedPoissonModel,
    ReliabilityModel,
    RunsModel,
    TwoPointMixing,
    cp_params_for,
    mixed_cp_params,
    mixed_dk_bound,
    model_from_json,
    regime_classify,
    reliability_cp_params,
    reliability_delta,
    reliability_dk_bound,
    runs_cp_params,
    runs_dk_bound,
    sums_cp_params,
)
from .oracle import (
    ConvergenceError,
    EmpiricalFactors,
    SteinSolution,
    VerifyReport,
    empirical_factors,
    interior_residuals,
    poisson_stein_forward,
    solve_stein,
    verify_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CompoundPoissonParams",
    "ConvergenceError",
    "DeltaResult",
    "DistanceReport",
    "DistributionTable",
    "EmpiricalFactors",
    "GammaMixing",
    "GkEvaluation",
    "IndependentSumModel",
    "MixedPoissonModel",
    "ReliabilityModel",
    "RunsModel",
    "SteinFactorBound",
    "SteinSolution",
    "ThetaVector",
    "TruncationCapError",
    "TwoPointMixing",
    "VerifyReport",
    "best_bound",
    "best_of",
    "bound_bx99",
    "bound_cor3",
    "bound_general",
    "bound_lemma_c",
    "bound_monotone",
    "bound_thm2",
    "bound_thm4",
    "chernoff_tail",
    "cp_params_for",
    "cp_pmf",
    "cp_sample",
    "delta_k",
    "delta_k_grid",
    "distance",
    "empirical_factors",
    "evaluate_all",
    "g_k_eval",
    "g_k_grid",
    "interior_residuals",
    "mixed_cp_params",
    "mixed_dk_bound",
    "mixed_exact_pmf",
    "model_from_json",
    "monotone_condition",
    "poisson_stein_forward",
    "regime_classify",
    "reliability_cp_params",
    "reliability_delta",
    "reliability_dk_bound",
    "reliability_exact_pmf",
    "reliability_mc_pmf",
    "runs_cp_params",
    "runs_dk_bound",
    "runs_exact_pmf",
    "solve_stein",
    "sums_cp_params",
    "sums_exact_pmf",
    "theta",
    "variance",
    "verify_bound",
]
