"""Scalar reference implementations, point by point from the defining
formulas, that the batched production path is checked against."""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist


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


def triangle_indices(n):
    """Upper-triangular component pairs (i, j), i <= j, in lexicographic order:
    the order of the functionals at a point, of the Gram and of beta.csv."""
    return tuple((i, j) for i in range(n) for j in range(i, n))


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
    return kernel.profile_values(np.linalg.norm(_pair(x, y)))[0]


def grad1_phi(kernel, x, y):
    """Gradient of phi in its first argument: psi1(r) * (x - y)."""
    diff = _pair(x, y)
    return kernel.profile_values(np.linalg.norm(diff))[1] * diff


def hess12_phi(kernel, x, y):
    """Mixed second derivative matrix d^2 phi / dx_i dy_j.

    Equals -psi2(r) (x-y)(x-y)^T - psi1(r) I; symmetric, finite at x = y
    where it reduces to -psi1(0) I.
    """
    diff = _pair(x, y)
    _, psi1, psi2 = kernel.profile_values(np.linalg.norm(diff))
    return -psi2 * np.outer(diff, diff) - psi1 * np.eye(diff.size)


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
    psi, psi1, psi2 = kernel.profile_values(np.linalg.norm(diff))
    dot_k = diff @ data_k.f
    dot_l = diff @ data_l.f
    theta = psi1 * dot_k
    g2 = -psi1 * dot_l
    h = -psi2 * dot_l * dot_k - psi1 * (data_l.f @ data_k.f)

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


def _power_by_squaring(x, e):
    """x**e by repeated squaring, without sharing powers between calls."""
    if e == 0:
        return np.ones_like(x)
    if e == 1:
        return x
    half = _power_by_squaring(x, e // 2)
    sq = half * half
    return sq if e % 2 == 0 else sq * x


def profile_values_by_helper(kernel, r):
    """(psi, psi1, psi2) with each helper evaluated on its own: Horner on the
    cofactor, times (1 - t)**e formed afresh, times the outer factor."""
    r = np.asarray(r, dtype=float)
    t = (kernel.shape_parameter * r).ravel()
    inside = t < 1.0
    t_in = t[inside]
    values = []
    for helper in (kernel._psi, kernel._psi1, kernel._psi2):
        acc = np.full(t_in.shape, helper.cofactor[-1])
        for a in helper.cofactor[-2::-1]:
            acc = acc * t_in + a
        acc = acc * _power_by_squaring(1.0 - t_in, helper.exponent)
        if helper.outer != 1.0:
            acc = acc * helper.outer
        flat = np.zeros(t.shape)
        flat[inside] = acc
        values.append(flat.reshape(r.shape))
    return tuple(values)


def pairwise_scalars_by_expression(kernel, centre, rows, row_f, cols, col_f):
    """(psi, theta, g2, h) of operator.pairwise_scalars, each formed as the
    expression written in its docstring, one new array per operation."""
    rows = rows - centre
    cols = cols - centre
    psi, psi1, psi2 = profile_values_by_helper(kernel, cdist(rows, cols))
    dot_k = np.einsum("kd,kd->k", cols, col_f)[None, :] - rows @ col_f.T
    dot_l = row_f @ cols.T - np.einsum("ld,ld->l", rows, row_f)[:, None]
    h = -psi2 * dot_k * dot_l - psi1 * (row_f @ col_f.T)
    return psi, psi1 * dot_k, -psi1 * dot_l, h
