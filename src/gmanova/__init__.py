"""Trace-based testing of bilateral linear hypotheses L Theta R' = 0 on the
mean matrix of grouped multivariate linear models X = A Theta B' + E, valid
when the dimension rivals or exceeds the group sample sizes, the group
covariances differ, and the errors are non-normal."""

__version__ = "0.1.0"

import logging

from .design import (
    DesignSpec,
    ProjectionSet,
    build_omega,
    build_projections,
    hypothesis_projector,
    numerical_rank,
    projector,
    row_compressor,
)
from .errors import (
    ConfigError,
    DegenerateGroupError,
    DesignError,
    EstimatorUndefinedError,
    GroupError,
    NoBalancingSolution,
)
from .estimators import (
    GroupedSample,
    VarianceEstimate,
    a2_hat,
    b_hat,
    estimate_variance,
    group_residual_scatter,
    sigma0_hat,
    tau_coefficients,
    v_hat,
)
from .scenarios import (
    Scenario,
    growth_curve,
    one_way_manova,
    profile_parallelism,
    two_way_manova,
)
from .simulate import (
    CovarianceSpec,
    ErrorDistribution,
    SimulationSummary,
    calibrate_signal_ray,
    canonical_direction,
    monte_carlo,
)
from .trace_test import (
    DiagnosticsReport,
    MeanModel,
    TestReport,
    TraceTestEngine,
    assumption_diagnostics,
    asymptotic_power,
    model_diagnostics,
    run_test,
    sigma_full,
    statistic_t,
    true_q,
)

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "__version__",
    "ConfigError", "DegenerateGroupError", "DesignError",
    "EstimatorUndefinedError", "GroupError", "NoBalancingSolution",
    "DesignSpec", "ProjectionSet", "projector", "hypothesis_projector",
    "row_compressor", "build_omega",
    "build_projections", "numerical_rank",
    "GroupedSample", "VarianceEstimate", "group_residual_scatter",
    "tau_coefficients", "a2_hat", "b_hat", "v_hat", "sigma0_hat",
    "estimate_variance",
    "TestReport", "MeanModel", "DiagnosticsReport", "TraceTestEngine",
    "statistic_t", "run_test", "true_q", "sigma_full", "asymptotic_power",
    "assumption_diagnostics", "model_diagnostics",
    "Scenario", "one_way_manova", "two_way_manova", "profile_parallelism",
    "growth_curve",
    "ErrorDistribution", "CovarianceSpec", "SimulationSummary",
    "monte_carlo", "canonical_direction", "calibrate_signal_ray",
]
