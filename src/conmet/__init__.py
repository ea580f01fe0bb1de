"""conmet: meshfree construction of Riemannian contraction metrics.

Solves the matrix-valued PDE  Df^T M + M Df + M' = -C  for an autonomous
ODE x' = f(x) by optimal recovery in a matrix-valued reproducing kernel
space built from a compactly supported Wendland kernel, and provides the
diagnostics and error-study harness around it.
"""

from .kernels import RadialKernel, wendland_c8
from .systems import (
    DynamicalSystem,
    ExactMetric,
    check_equilibrium_condition,
    linear_example,
    register_system,
    get_system,
)
from .collocation import (
    GridSpec,
    make_grid,
    collocation_data,
    assemble,
    solve,
    RecoverySolution,
    SolveDiagnostics,
    FactorizationError,
)
from .evaluate import (
    eval_metric_batch,
    eval_operator_batch,
    field_export,
    error_report,
    convergence_study,
    ellipse_points,
)

__version__ = "0.1.0"

__all__ = [
    "RadialKernel", "wendland_c8",
    "DynamicalSystem", "ExactMetric", "check_equilibrium_condition", "linear_example",
    "register_system", "get_system",
    "GridSpec", "make_grid", "collocation_data", "assemble", "solve",
    "RecoverySolution", "SolveDiagnostics", "FactorizationError",
    "eval_metric_batch", "eval_operator_batch", "field_export",
    "error_report", "convergence_study", "ellipse_points",
]
