"""Autonomous ODE systems x' = f(x) and exact reference metrics.

Systems are supplied as code callbacks (right-hand side plus exact Jacobian);
the registry maps CLI-visible names to built-in systems together with optional
reference data (exact metric, default right-hand-side matrix, known
equilibria).  All callables are expected to be pure and reentrant.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "DynamicalSystem",
    "ExactMetric",
    "EquilibriumCheck",
    "SystemBundle",
    "check_equilibrium_condition",
    "jacobian_consistency",
    "linear_example",
    "register_system",
    "get_system",
    "registered_systems",
]

_EQUILIBRIUM_TOL = 1e-10
_EIGENVALUE_TOL = 1e-12


@dataclass(frozen=True)
class DynamicalSystem:
    """Right-hand side f and exact Jacobian of an autonomous ODE on R^dim."""

    dim: int
    f: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    label: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"system dimension must be >= 1, got {self.dim}")


@dataclass(frozen=True)
class ExactMetric:
    """Exact solution metric on an (E, dim) point array: value(points) is the
    (E, dim, dim) stack of symmetric values, gradient(points) the
    (E, dim, dim, dim) stack with grad M_ij(points[e]) at [e, i, j]."""

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    label: str = ""


@dataclass(frozen=True)
class EquilibriumCheck:
    """Outcome of the eigenvalue condition at an equilibrium point."""

    satisfied: bool
    indeterminate: bool
    eigenvalues: tuple
    stability_sign: str


def _fd_jacobian(f, x, step=1e-6):
    x = np.asarray(x, dtype=float)
    n = len(np.asarray(f(x), dtype=float))
    jac = np.empty((n, x.size))
    for a in range(x.size):
        e = np.zeros_like(x)
        e[a] = step
        jac[:, a] = (np.asarray(f(x + e), float) - np.asarray(f(x - e), float)) / (2 * step)
    return jac


def jacobian_consistency(system, points, rtol=1e-5):
    """Check the supplied Jacobian against central finite differences of f.

    Returns the worst relative deviation over the given points; raises
    ValueError if it exceeds rtol.
    """
    worst = 0.0
    for x in points:
        x = np.asarray(x, dtype=float)
        exact = np.asarray(system.jacobian(x), dtype=float)
        approx = _fd_jacobian(system.f, x)
        scale = max(1.0, np.max(np.abs(exact)))
        worst = max(worst, np.max(np.abs(exact - approx)) / scale)
    if worst > rtol:
        raise ValueError(
            f"Jacobian of {system.label or 'system'} deviates from finite "
            f"differences of f by {worst:.3e} (> {rtol:.1e})")
    return worst


def check_equilibrium_condition(system, x0, stability_sign="stable"):
    """Eigenvalue condition of the Jacobian at an equilibrium x0.

    For "stable" every eigenvalue of Df(x0) must have strictly negative real
    part, for "unstable" strictly positive.  A real part within 1e-12 of zero
    makes the result indeterminate.  Raises ValueError when x0 is not an
    equilibrium or the sign keyword is unknown.
    """
    if stability_sign not in ("stable", "unstable"):
        raise ValueError(f"stability_sign must be 'stable' or 'unstable', got {stability_sign!r}")
    x0 = np.asarray(x0, dtype=float)
    fx = np.asarray(system.f(x0), dtype=float)
    if np.linalg.norm(fx) > _EQUILIBRIUM_TOL:
        raise ValueError(f"point {x0.tolist()} is not an equilibrium: |f| = {np.linalg.norm(fx):.3e}")
    eigs = np.linalg.eigvals(np.asarray(system.jacobian(x0), dtype=float))
    real = eigs.real if stability_sign == "unstable" else -eigs.real     # > 0 when satisfied
    indeterminate = bool(np.min(np.abs(real)) <= _EIGENVALUE_TOL)
    satisfied = not indeterminate and bool(np.all(real > 0.0))
    return EquilibriumCheck(satisfied, indeterminate, tuple(eigs), stability_sign)


def linear_example():
    """The built-in two-dimensional linear system x' = -x + y, y' = x - 2y.

    Returns (system, exact_metric, rhs_matrix).  The constant matrix
    M = [[1, 1/2], [1/2, 1/2]] satisfies Df^T M + M Df = -I, so the exact
    metric pairs with the right-hand-side matrix C = I.
    """
    a = np.array([[-1.0, 1.0], [1.0, -2.0]])
    m = np.array([[1.0, 0.5], [0.5, 0.5]])

    def f(x):
        return a @ np.asarray(x, dtype=float)

    def jacobian(x):
        return a.copy()

    system = DynamicalSystem(2, f, jacobian, label="linear-example")
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


def register_system(name, system, exact=None, rhs=None, equilibria=(),
                    sample_box=None):
    """Register a system under a CLI-visible name.

    Registration runs the Jacobian/finite-difference consistency check on a
    handful of deterministic sample points inside sample_box (default
    [-1, 1]^dim).  Duplicate names are rejected.  exact, which the
    convergence study needs, is batched (see ExactMetric): the study calls
    each of its callables once, on all check points, and any result of
    another shape fails it with ValueError.
    """
    if name in _REGISTRY:
        raise ValueError(f"system name {name!r} is already registered")
    if sample_box is None:
        sample_box = ((-1.0, 1.0),) * system.dim
    rng = np.random.default_rng(0)
    los, his = np.array(sample_box, dtype=float).T
    jacobian_consistency(system, los + rng.random((5, system.dim)) * (his - los))
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


def registered_systems():
    return sorted(_REGISTRY)


def _register_builtins():
    system, exact, rhs = linear_example()
    register_system(
        "linear-example", system, exact=exact, rhs=rhs,
        equilibria=((np.zeros(2), "stable"),),
    )


_register_builtins()
