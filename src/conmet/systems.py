"""Autonomous ODE systems x' = f(x) and exact reference metrics.

Systems are batched callbacks (right-hand side and exact Jacobian), pure and
reentrant; the registry maps CLI-visible names to systems with optional
reference data (exact metric, default right-hand side, known equilibria).
The checks, jacobian_consistency and check_equilibrium_condition, raise
ValueError where they fail and otherwise return what they measured.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "DynamicalSystem",
    "ExactMetric",
    "SystemBundle",
    "check_equilibrium_condition",
    "jacobian_consistency",
    "linear_example",
    "register_system",
    "get_system",
]

_EQUILIBRIUM_TOL = 1e-10
_EIGENVALUE_TOL = 1e-12
_JACOBIAN_RTOL = 1e-5                 # of the Jacobian against finite differences
_FD_STEP = 1e-6


@dataclass(frozen=True)
class DynamicalSystem:
    """Right-hand side f and exact Jacobian of an autonomous ODE on R^dim,
    both batched: f maps an (E, dim) point array to the (E, dim) array of f
    values, jacobian to the (E, dim, dim) stack of Df.  values() calls each
    once and is the one check of these shapes."""

    dim: int
    f: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    label: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"system dimension must be >= 1, got {self.dim}")

    def values(self, points):
        """(f, Df) at the points; a ValueError names any shape but (E, dim)."""
        points = np.asarray(points, dtype=float)
        n = self.dim
        if points.ndim != 2 or points.shape[1] != n:
            raise ValueError(f"points have shape {points.shape}, system dimension is {n}")
        e = len(points)
        f_values, jacobians = (np.asarray(g(points), dtype=float) for g in (self.f, self.jacobian))
        if (f_values.shape, jacobians.shape) != ((e, n), (e, n, n)):
            raise ValueError(f"system {self.label!r} returned f of shape {f_values.shape} and Df "
                             f"of shape {jacobians.shape} at {e} points, expected {(e, n)} and "
                             f"{(e, n, n)}: the callbacks take all points at once")
        return f_values, jacobians


@dataclass(frozen=True)
class ExactMetric:
    """Exact solution metric on an (E, dim) point array: value(points) is the
    (E, dim, dim) stack of symmetric values, gradient(points) the
    (E, dim, dim, dim) stack with grad M_ij(points[e]) at [e, i, j]."""

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    label: str = ""


def jacobian_consistency(system, points):
    """Check the supplied Jacobian against central finite differences of f.

    Calls each callback on the (E, dim) points and on all their shifts at
    once.  Returns the worst relative deviation; raises ValueError if it
    exceeds 1e-5 or a callback result has the wrong shape."""
    points = np.asarray(points, dtype=float)
    n = system.dim
    exact = system.values(points)[1]
    shifted = points[:, None] + _FD_STEP * np.concatenate([np.eye(n), -np.eye(n)])
    f_shifted = system.values(shifted.reshape(-1, n))[0].reshape(-1, 2, n, n)  # [e, sign, a, i]
    approx = (f_shifted[:, 0] - f_shifted[:, 1]).transpose(0, 2, 1) / (2 * _FD_STEP)
    scale = np.maximum(1.0, np.max(np.abs(exact), axis=(1, 2)))
    worst = float(np.max(np.max(np.abs(exact - approx), axis=(1, 2)) / scale, initial=0.0))
    if worst > _JACOBIAN_RTOL:
        raise ValueError(
            f"Jacobian of {system.label or 'system'} deviates from finite "
            f"differences of f by {worst:.3e} (> {_JACOBIAN_RTOL:.1e})")
    return worst


def check_equilibrium_condition(system, x0, stability_sign="stable"):
    """Eigenvalue condition of the Jacobian at an equilibrium x0.

    For "stable" every eigenvalue of Df(x0) must have real part below
    -1e-12, for "unstable" above 1e-12.  Returns the eigenvalues when the
    condition holds; raises ValueError when it fails, when x0 is not an
    equilibrium, or when the sign keyword is unknown.
    """
    if stability_sign not in ("stable", "unstable"):
        raise ValueError(f"stability_sign must be 'stable' or 'unstable', got {stability_sign!r}")
    x0 = np.asarray(x0, dtype=float)
    (fx,), (jac,) = system.values(x0[None])
    if np.linalg.norm(fx) > _EQUILIBRIUM_TOL:
        raise ValueError(f"point {x0.tolist()} is not an equilibrium: |f| = {np.linalg.norm(fx):.3e}")
    eigs = np.linalg.eigvals(jac)
    real = eigs.real if stability_sign == "unstable" else -eigs.real     # > 0 when satisfied
    if np.min(real) <= _EIGENVALUE_TOL:
        raise ValueError(f"equilibrium {x0.tolist()} fails the {stability_sign} "
                         f"eigenvalue condition: {eigs.tolist()}")
    return eigs


def linear_example():
    """The built-in two-dimensional linear system x' = -x + y, y' = x - 2y.

    Returns (system, exact_metric, rhs_matrix).  The constant matrix
    M = [[1, 1/2], [1/2, 1/2]] satisfies Df^T M + M Df = -I, so the exact
    metric pairs with the right-hand-side matrix C = I.
    """
    a = np.array([[-1.0, 1.0], [1.0, -2.0]])
    m = np.array([[1.0, 0.5], [0.5, 0.5]])
    system = DynamicalSystem(2, lambda x: x @ a.T, lambda x: np.tile(a, (len(x), 1, 1)),
                             label="linear-example")
    exact = ExactMetric(lambda points: np.tile(m, (len(points), 1, 1)),
                        lambda points: np.zeros((len(points), 2, 2, 2)), label="linear-example")
    return system, exact, np.eye(2)


@dataclass(frozen=True)
class SystemBundle:
    """Registry entry: a system plus optional reference data."""

    system: DynamicalSystem
    exact: Optional[ExactMetric] = None
    rhs: Optional[np.ndarray] = None
    equilibria: tuple = ()        # ((point, "stable"|"unstable"), ...)


_REGISTRY = {}


def register_system(name, system, exact=None, rhs=None, equilibria=()):
    """Register a system under a CLI-visible name.

    system and exact, which the convergence study needs, are batched (see
    DynamicalSystem and ExactMetric).  Registration checks the Jacobian
    against finite differences of f at five deterministic sample points in
    [-1, 1]^dim, which a callback result of another shape, such as one
    point's f, fails with ValueError.  Duplicate names are rejected.
    """
    if name in _REGISTRY:
        raise ValueError(f"system name {name!r} is already registered")
    rng = np.random.default_rng(0)
    jacobian_consistency(system, 2.0 * rng.random((5, system.dim)) - 1.0)
    equilibria = tuple((np.asarray(x0, dtype=float), sign) for x0, sign in equilibria)
    bundle = SystemBundle(
        system=system,
        exact=exact,
        rhs=None if rhs is None else np.asarray(rhs, dtype=float),
        equilibria=equilibria,
    )
    _REGISTRY[name] = bundle
    return bundle


def get_system(name):
    """Look up a registered SystemBundle by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise ValueError(f"unknown system {name!r}; registered systems: {known}") from None


register_system("linear-example", *linear_example(), equilibria=((np.zeros(2), "stable"),))
