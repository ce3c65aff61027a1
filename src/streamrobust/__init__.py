"""Streaming robust linear regression.

Averaged stochastic gradient descent on the absolute loss recovers linear
models from corrupted streams at the parametric rate, as long as the
corruption hits the responses independently of the features. This package
bundles the estimator, the closed-form smoothed objective it implicitly
minimizes, seeded data generators, a numerical verification suite for the
supporting inequalities, and a benchmark harness with a CLI.
"""

from .core import (
    CONSTANT,
    CovarianceDesign,
    Explicit,
    Huber,
    Identity,
    INV_SQRT,
    L1,
    L2,
    NonFiniteError,
    OutlierDistribution,
    PointMass,
    RegressionModel,
    RunRecord,
    Sample,
    SgdState,
    Spectrum,
    StepSchedule,
    Uniform,
    derive_seed,
    no_outliers,
    point_outliers,
    realize_covariance,
    substream,
)
from .analytic import (
    effective_eta,
    expected_loss,
    gradient,
    gradient_scale,
    hessian_at_optimum,
    pred_error_sigma,
)
from .datagen import (
    sample_arrays,
    sample_stream,
    stream_samples,
    tiered_contamination,
)
from .optimizer import default_checkpoints, default_gamma0, oracle_ls_run, run, sgd_step
from .verify import (
    CheckResult,
    check_avg_iterate_bound,
    check_error_loss_link,
    check_moment_bounds,
    check_scalar_inequalities,
    check_scale_drift,
    fd_gradient,
    fd_hessian_at_optimum,
    mc_expected_loss,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "CONSTANT",
    "CheckResult",
    "CovarianceDesign",
    "Explicit",
    "Huber",
    "INV_SQRT",
    "Identity",
    "L1",
    "L2",
    "NonFiniteError",
    "OutlierDistribution",
    "PointMass",
    "RegressionModel",
    "RunRecord",
    "Sample",
    "SgdState",
    "Spectrum",
    "StepSchedule",
    "Uniform",
    "check_avg_iterate_bound",
    "check_error_loss_link",
    "check_moment_bounds",
    "check_scalar_inequalities",
    "check_scale_drift",
    "default_checkpoints",
    "default_gamma0",
    "derive_seed",
    "effective_eta",
    "expected_loss",
    "fd_gradient",
    "fd_hessian_at_optimum",
    "gradient",
    "gradient_scale",
    "hessian_at_optimum",
    "mc_expected_loss",
    "no_outliers",
    "oracle_ls_run",
    "point_outliers",
    "pred_error_sigma",
    "realize_covariance",
    "run",
    "run_suite",
    "sample_arrays",
    "sample_stream",
    "sgd_step",
    "stream_samples",
    "substream",
    "tiered_contamination",
    "__version__",
]
