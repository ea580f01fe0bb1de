"""Scalar reference implementations, point by point from the defining
formulas, that the batched production path is checked against."""

from dataclasses import dataclass

import numpy as np

from conmet import triangle_indices


@dataclass(frozen=True)
class CollocationPointData:
    """Cached system data at one collocation point: x, f(x) and Df(x)."""

    x: np.ndarray
    f: np.ndarray
    jac: np.ndarray


@dataclass(frozen=True)
class FunctionalIndex:
    """Point index k with component pair (i, j), upper triangular i <= j."""

    k: int
    i: int
    j: int

    def __post_init__(self):
        if not (0 <= self.i <= self.j):
            raise ValueError(f"component indices must satisfy 0 <= i <= j, got ({self.i}, {self.j})")
        if self.k < 0:
            raise ValueError(f"point index must be nonnegative, got {self.k}")


def point_data(cset, k):
    """Data of point k of a CollocationSet."""
    return CollocationPointData(cset.points[k], cset.f_values[k], cset.jacobians[k])


def functional_indices(cset):
    """All functionals of a CollocationSet: point-major, (i, j) minor."""
    pairs = triangle_indices(cset.system.dim)
    return tuple(FunctionalIndex(k, i, j) for k in range(len(cset.points)) for i, j in pairs)


def _pair(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"point dimensions differ: {x.shape} vs {y.shape}")
    return x - y


def phi(kernel, x, y):
    """Kernel value psi(|x - y|)."""
    return kernel.psi(np.linalg.norm(_pair(x, y)))


def grad1_phi(kernel, x, y):
    """Gradient of phi in its first argument: psi1(r) * (x - y)."""
    diff = _pair(x, y)
    return kernel.psi1(np.linalg.norm(diff)) * diff


def hess12_phi(kernel, x, y):
    """Mixed second derivative matrix d^2 phi / dx_i dy_j.

    Equals -psi2(r) (x-y)(x-y)^T - psi1(r) I; symmetric, finite at x = y
    where it reduces to -psi1(0) I.
    """
    diff = _pair(x, y)
    r = np.linalg.norm(diff)
    return (-kernel.psi2(r)) * np.outer(diff, diff) - kernel.psi1(r) * np.eye(diff.size)


def _sym_unit(n, i, j):
    """Symmetrised unit matrix Q_ij = (E_ij + E_ji)/2, Q_ii = E_ii."""
    q = np.zeros((n, n))
    q[i, j] = q[j, i] = 1.0 if i == j else 0.5
    return q


def representer_column(kernel, data, x, mu, nu):
    """Operator applied to the (mu, nu) kernel column, evaluated at x_k.

    Returns the matrix H with H[i, j] = L(phi(., x) E_mu_nu)(x_k)[i, j],
    which for the product kernel is

        phi(x_k, x) * (J_k^T E_mu_nu + E_mu_nu J_k)
        + <grad1_phi(x_k, x), f(x_k)> * E_mu_nu.

    Not symmetric in general; vanishes whenever |x - x_k| >= 1/c.
    """
    n = data.jac.shape[0]
    if not (0 <= mu < n and 0 <= nu < n):
        raise ValueError(f"component indices ({mu}, {nu}) out of range for dimension {n}")
    e = np.zeros((n, n))
    e[mu, nu] = 1.0
    value = phi(kernel, data.x, x)
    theta = grad1_phi(kernel, data.x, x) @ data.f
    return value * (data.jac.T @ e + e @ data.jac) + theta * e


def riesz_representer(kernel, data, index, x):
    """Value at x of the Riesz representer of the (k, i, j) functional,
    phi(x_k, x) (J_k Q_ij + Q_ij J_k^T) + <grad1_phi(x_k, x), f(x_k)> Q_ij.

    Symmetric by construction.
    """
    q = _sym_unit(data.jac.shape[0], index.i, index.j)
    value = phi(kernel, data.x, x)
    theta = grad1_phi(kernel, data.x, x) @ data.f
    p = data.jac @ q + q @ data.jac.T
    return value * p + theta * q


def gram_entry(kernel, data_l, index_l, data_k, index_k):
    """Row functional (l, p, q) applied to the representer of (k, i, j).

    Symmetric under swapping the two functionals (it is an inner product of
    representers) and exactly zero once |x_l - x_k| >= 1/c.
    """
    n = data_l.jac.shape[0]
    diff = data_k.x - data_l.x
    r = np.linalg.norm(diff)
    psi = kernel.psi(r)
    psi1 = kernel.psi1(r)
    dot_k = diff @ data_k.f
    dot_l = diff @ data_l.f
    theta = psi1 * dot_k
    g2 = -psi1 * dot_l
    h = -kernel.psi2(r) * dot_l * dot_k - psi1 * (data_l.f @ data_k.f)

    q = _sym_unit(n, index_k.i, index_k.j)
    p = data_k.jac @ q + q @ data_k.jac.T
    value = psi * p + theta * q                    # representer at x_l
    image = data_l.jac.T @ value + value @ data_l.jac + g2 * p + h * q
    return image[index_l.i, index_l.j]


def row_operator_matrix(jac, pairs):
    """out[a, b] = (J^T G_b + G_b J)[p_a, q_a] for the coordinate basis G_b."""
    n = jac.shape[0]
    m = len(pairs)
    out = np.empty((m, m))
    for b, (i, j) in enumerate(pairs):
        g = np.zeros((n, n))                       # E_ij + E_ji, or E_ii
        g[i, j] = g[j, i] = 1.0
        w = jac.T @ g + g @ jac
        for a, (p, q) in enumerate(pairs):
            out[a, b] = w[p, q]
    return out


def column_representer_matrix(jac, pairs):
    """out[a, b] = (J Q_b + Q_b J^T)[p_a, q_a] for the symmetrised units Q_b."""
    n = jac.shape[0]
    m = len(pairs)
    out = np.empty((m, m))
    for b, (i, j) in enumerate(pairs):
        g = _sym_unit(n, i, j)
        w = jac @ g + g @ jac.T
        for a, (p, q) in enumerate(pairs):
            out[a, b] = w[p, q]
    return out
