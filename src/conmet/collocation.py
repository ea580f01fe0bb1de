"""Grids, geometric quantities, and the collocation system A gamma = b.

The Gram matrix couples every pair of functionals (point k, component pair
i <= j).  Assembly is vectorised over point pairs: all pairwise kernel
quantities are computed as dense N x N arrays and combined with the small
per-point coordinate matrices from the operator module, block row by block
row.  The matrix is dense and symmetric positive definite; it is factorised
with a Cholesky decomposition, and a diagonal regularisation fallback exists
only behind an explicit opt-in flag because a factorisation failure indicates
near-degenerate geometry rather than an expected condition.
"""

import logging
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.spatial import Delaunay, QhullError, cKDTree

from .operator import coordinate_matrices, pairwise_scalars, triangle_indices
from .systems import check_equilibrium_condition

__all__ = [
    "GridSpec",
    "make_grid",
    "separation_distance",
    "fill_distance_estimate",
    "CollocationSet",
    "collocation_data",
    "assemble",
    "solve",
    "RecoverySolution",
    "SolveDiagnostics",
    "FactorizationError",
]

logger = logging.getLogger(__name__)

_DIVISIBILITY_TOL = 1e-12
_ASSEMBLY_CHUNK_BYTES = 200 * 2 ** 20


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned tensor grid: bounds per axis, spacing, common offset.

    offset = 0 places nodes on the box boundary; offset = spacing/2 yields
    the staggered check grids that avoid the node lattice.  The spacing must
    divide the (offset-reduced) edge lengths essentially exactly so that the
    outermost grid points are hit without rounding surprises.
    """

    bounds: tuple
    spacing: float
    offset: float = 0.0

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        object.__setattr__(self, "bounds", bounds)
        if self.spacing <= 0.0:
            raise ValueError(f"grid spacing must be positive, got {self.spacing}")
        if self.offset < 0.0:
            raise ValueError(f"grid offset must be nonnegative, got {self.offset}")
        for lo, hi in bounds:
            edge = hi - lo
            if edge <= 0.0:
                raise ValueError(f"empty axis range [{lo}, {hi}]")
            if self.spacing > edge:
                raise ValueError(f"spacing {self.spacing} exceeds edge length {edge}")
            span = edge - 2.0 * self.offset
            if span < 0.0:
                raise ValueError(f"offset {self.offset} exceeds half the edge [{lo}, {hi}]")
            steps = span / self.spacing
            if abs(steps - round(steps)) > _DIVISIBILITY_TOL * max(1.0, steps):
                raise ValueError(
                    f"spacing {self.spacing} does not divide the edge [{lo}, {hi}] "
                    f"with offset {self.offset}")

    def axis_values(self, axis):
        lo, hi = self.bounds[axis]
        count = int(round((hi - lo - 2.0 * self.offset) / self.spacing)) + 1
        return lo + self.offset + self.spacing * np.arange(count)

    @property
    def dim(self):
        return len(self.bounds)


def make_grid(spec):
    """Tensor-product grid, points in lexicographic coordinate order."""
    axes = [spec.axis_values(a) for a in range(spec.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, spec.dim)


def separation_distance(points):
    """Minimum pairwise distance of a point set (at least two points)."""
    points = np.asarray(points, dtype=float)
    if len(points) < 2:
        raise ValueError("separation distance needs at least 2 points")
    dist, _ = cKDTree(points).query(points, k=2)
    return float(np.min(dist[:, 1]))


def _probe_grid(bounds, spacing):
    axes = []
    for lo, hi in bounds:
        count = int(np.floor((hi - lo) / spacing + 1e-9)) + 1
        vals = lo + spacing * np.arange(count)
        if hi - vals[-1] > 1e-9 * spacing:
            vals = np.append(vals, hi)
        axes.append(vals)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(bounds))


def fill_distance_estimate(points, bounds, probe_spacing):
    """Fill distance of the point set over the box, probed on a fine grid.

    The estimate is the largest probe-to-nearest-point distance, a lower
    bound of the true fill distance that converges as probe_spacing -> 0.
    """
    points = np.asarray(points, dtype=float)
    if len(points) == 0:
        raise ValueError("fill distance of an empty point set")
    if probe_spacing <= 0.0:
        raise ValueError(f"probe spacing must be positive, got {probe_spacing}")
    probes = _probe_grid(tuple((float(lo), float(hi)) for lo, hi in bounds), probe_spacing)
    dist, _ = cKDTree(points).query(probes, k=1)
    return float(np.max(dist))


@dataclass(frozen=True)
class CollocationSet:
    """Pairwise-distinct collocation points with cached f and Df values."""

    system: object
    points: np.ndarray        # (N, dim)
    f_values: np.ndarray      # (N, dim)
    jacobians: np.ndarray     # (N, dim, dim)

    def __len__(self):
        return len(self.points)

    @property
    def n_functionals(self):
        n = self.system.dim
        return len(self.points) * (n * (n + 1)) // 2


def _find_duplicates(points):
    order = np.lexsort(points.T[::-1])
    sorted_pts = points[order]
    same = np.all(sorted_pts[1:] == sorted_pts[:-1], axis=1)
    hits = np.nonzero(same)[0]
    if hits.size:
        a, b = order[hits[0]], order[hits[0] + 1]
        return int(min(a, b)), int(max(a, b))
    return None


def collocation_data(system, points):
    """Evaluate f and Df at every point and cache them in a CollocationSet."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = system.dim
    if points.shape[1] != n:
        raise ValueError(f"points have dimension {points.shape[1]}, system has {n}")
    f_values = np.empty((len(points), n))
    jacobians = np.empty((len(points), n, n))
    for k, x in enumerate(points):
        f_values[k] = np.asarray(system.f(x), dtype=float)
        jacobians[k] = np.asarray(system.jacobian(x), dtype=float)
    return CollocationSet(system, points, f_values, jacobians)


def _check_equilibria(system, points, equilibria):
    if not equilibria or len(points) <= points.shape[1]:
        return
    try:
        hull = Delaunay(points)
    except QhullError:
        logger.warning("could not triangulate collocation points; "
                       "skipping equilibrium condition check")
        return
    for x0, sign in equilibria:
        if hull.find_simplex(np.asarray(x0, dtype=float)) < 0:
            continue
        result = check_equilibrium_condition(system, x0, sign)
        if not result.satisfied:
            raise ValueError(
                f"equilibrium {np.asarray(x0).tolist()} inside the collocation hull "
                f"fails the {sign} eigenvalue condition: {result.eigenvalues}")


def assemble(system, kernel, points, equilibria=()):
    """Build the collocation set and the dense symmetric Gram matrix.

    The functional ordering is point-major with the (i, j) pairs, i <= j, in
    lexicographic order, so the matrix is laid out in m x m blocks per point
    pair with m = dim (dim + 1) / 2.  Raises ValueError for duplicate points
    (naming the offending pair) and when a supplied equilibrium inside the
    convex hull of the points violates its eigenvalue condition.
    """
    cset = collocation_data(system, points)
    dup = _find_duplicates(cset.points)
    if dup is not None:
        raise ValueError(f"collocation points {dup[0]} and {dup[1]} coincide: "
                         f"{cset.points[dup[0]].tolist()}")
    _check_equilibria(system, cset.points, equilibria)

    row_ops, col, scale = coordinate_matrices(cset.jacobians)
    col_t = np.ascontiguousarray(col.transpose(1, 0, 2))     # (m, N, m): [a, k, b]
    big_n, m = len(cset), len(scale)
    dim = big_n * m
    psi, theta, g2, h = pairwise_scalars(kernel, cset.points, cset.f_values,
                                         cset.points, cset.f_values)
    # h is symmetric in (l, k).  Its transpose rounds psi2 <x_k - x_l, f_l>
    # before the f_k product, the order of earlier releases, so their Grams
    # and beta.csv are reproduced bit for bit.
    h = h.T

    # Block row l, block column k:
    #   B_lk = R_l (psi C_k + theta D) + g2 C_k + h D
    # built in (l, a, k, b) layout so the R_l contraction is one batched GEMM
    # per chunk of block rows.
    gram = np.zeros((dim, dim), order="F")
    chunk = max(1, int(_ASSEMBLY_CHUNK_BYTES // max(1, big_n * m * m * 8)))
    for l0 in range(0, big_n, chunk):
        l1 = min(big_n, l0 + chunk)
        value = psi[l0:l1, None, :, None] * col_t[None, :, :, :]
        orbital = g2[l0:l1, None, :, None] * col_t[None, :, :, :]
        for a in range(m):
            value[:, a, :, a] += theta[l0:l1] * scale[a]
            orbital[:, a, :, a] += h[l0:l1] * scale[a]
        body = np.matmul(row_ops[l0:l1], value.reshape(l1 - l0, m, big_n * m))
        body += orbital.reshape(l1 - l0, m, big_n * m)
        # fill by block columns (transposed rows): contiguous in Fortran order
        gram[:, l0 * m:l1 * m] = body.reshape((l1 - l0) * m, dim).T
    return cset, gram


class FactorizationError(RuntimeError):
    """Cholesky factorisation failed: the matrix is numerically not positive
    definite.  Carries the 1-based pivot index reported by LAPACK."""

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


def _cholesky(gram):
    try:
        return scipy.linalg.cho_factor(gram, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as err:
        match = re.search(r"(\d+)", str(err))
        pivot = int(match.group(1)) if match else None
        raise FactorizationError(
            f"Gram matrix is numerically not positive definite ({err})",
            pivot=pivot) from err


@dataclass(frozen=True)
class SolveDiagnostics:
    dimension: int
    relative_residual: float
    factorization: str
    regularized: bool
    epsilon: Optional[float] = None


@dataclass(frozen=True)
class RecoverySolution:
    """Solved recovery: coefficient matrices beta_k plus provenance.

    beta[k] is the exactly symmetric matrix obtained from the raw solution
    vector gamma by halving the off-diagonal coefficients.
    """

    collocation: CollocationSet
    kernel: object
    beta: np.ndarray          # (N, dim, dim), each slice symmetric
    rhs: np.ndarray           # the matrix C
    diagnostics: SolveDiagnostics


def solve(gram, rhs, cset, kernel, regularize=False):
    """Solve the collocation system for the right-hand-side matrix C.

    The stacked right-hand side repeats -C_ij over the functional ordering.
    On factorisation failure a FactorizationError carrying the pivot index is
    raised unless regularize=True, in which case the solve is retried once
    with eps = 1e-10 tr(A)/dim added to the diagonal (loudly, via a warning,
    and recorded in the diagnostics).
    """
    rhs = np.asarray(rhs, dtype=float)
    n = cset.system.dim
    if rhs.shape != (n, n):
        raise ValueError(f"right-hand-side matrix has shape {rhs.shape}, expected {(n, n)}")
    if np.max(np.abs(rhs - rhs.T)) > _DIVISIBILITY_TOL * max(1.0, np.max(np.abs(rhs))):
        raise ValueError("right-hand-side matrix must be symmetric")
    if np.min(np.linalg.eigvalsh(rhs)) <= 0.0:
        raise ValueError("right-hand-side matrix must be positive definite")

    i, j = np.transpose(triangle_indices(n))
    dim = len(cset) * len(i)
    if gram.shape != (dim, dim):
        raise ValueError(f"Gram matrix has shape {gram.shape}, expected {(dim, dim)}")
    b = -np.tile(rhs[i, j], len(cset))

    regularized = False
    epsilon = None
    try:
        factor = _cholesky(gram)
    except FactorizationError as err:
        if not regularize:
            raise
        epsilon = 1e-10 * np.trace(gram) / dim
        logger.warning("Cholesky failed at pivot %s; retrying with diagonal "
                       "regularization eps=%.3e", err.pivot, epsilon)
        shifted = gram.copy(order="F")
        shifted[np.diag_indices_from(shifted)] += epsilon
        factor = _cholesky(shifted)
        regularized = True
    gamma = scipy.linalg.cho_solve(factor, b, check_finite=False)
    residual = float(np.linalg.norm(gram @ gamma - b) / np.linalg.norm(b))

    beta = np.zeros((len(cset), n, n))
    beta[:, i, j] = beta[:, j, i] = gamma.reshape(len(cset), -1) * np.where(i == j, 1.0, 0.5)

    diagnostics = SolveDiagnostics(
        dimension=dim,
        relative_residual=residual,
        factorization="cholesky",
        regularized=regularized,
        epsilon=epsilon,
    )
    return RecoverySolution(cset, kernel, beta, rhs, diagnostics)
