"""Grids, geometric quantities, and the collocation system A gamma = b.

The Gram matrix couples every pair of functionals (point k, component pair
i <= j).  It is symmetric positive definite, stored dense, and it is the one
large array of a solve.  Like LAPACK's xPOTRF with uplo = 'L', conmet
defines it by its lower triangle: assembly computes only the lower block
triangle, in chunks of operator.block_rows(N) block rows that
operator.run_blocks spreads over the worker threads, and leaves the strict
upper triangle as it found it, zero, except inside each chunk's diagonal
square.  The Gram lives in an anonymous mapping on 4 KiB pages, so the pages
that no chunk writes are never backed by memory, and assembly needs the
lower triangle, one page per column and one workspace per worker.  A block
is zero when its two points lie at least the kernel's support radius apart,
so each chunk stops at the last block column that operator.near_box keeps
for the chunk rows' bounding box; the zero blocks past it are never
computed.  Before it maps the Gram, assembly checks every equilibrium it is
given, and that much memory against what the system reports as available,
raising MemoryError if it does not fit.  The solve consumes the Gram, as
xPOTRF consumes its input: the Cholesky factor overwrites the lower
triangle, and nothing reads the Gram afterwards.  The Gram of a positive
definite kernel is SPD in exact arithmetic, so a failed factor means
near-degenerate node geometry; it raises FactorizationError and is not
retried.
"""

import contextlib
import mmap
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.spatial import cKDTree

from .operator import (PAIRWISE_SLOTS, block_rows, coordinate_matrices, near_box,
                       pairwise_scalars, run_blocks, triangle_indices, workspace_shape)
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

_DIVISIBILITY_TOL = 1e-12
_MEMORY_LIMIT_FILES = ("/sys/fs/cgroup/memory.max",                     # cgroup v2
                       "/sys/fs/cgroup/memory/memory.limit_in_bytes")   # cgroup v1


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
        if not self.spacing > 0.0:
            raise ValueError(f"grid spacing must be positive, got {self.spacing}")
        if not self.offset >= 0.0:
            raise ValueError(f"grid offset must be nonnegative, got {self.offset}")
        for lo, hi in bounds:
            edge = hi - lo
            if not np.isfinite(edge):
                raise ValueError(f"axis range [{lo}, {hi}] is not finite")
            if not edge > 0.0:
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


def fill_distance_estimate(points, bounds, probe_spacing):
    """Fill distance of the point set over the box, probed on a fine grid.

    The probes form a tensor grid that spans every edge in equal steps of at
    most probe_spacing.  The estimate is the largest probe-to-nearest-point
    distance, a lower bound of the true fill distance that converges as
    probe_spacing -> 0.
    """
    points = np.asarray(points, dtype=float)
    if len(points) == 0:
        raise ValueError("fill distance of an empty point set")
    if not probe_spacing > 0.0:
        raise ValueError(f"probe spacing must be positive, got {probe_spacing}")
    axes = [np.linspace(lo, hi, max(1, int(np.ceil((hi - lo) / probe_spacing - 1e-9))) + 1)
            for lo, hi in bounds]
    probes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
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
    def centre(self):
        """Midpoint of the points' bounding box, the pairwise engine's origin."""
        return 0.5 * (np.min(self.points, axis=0) + np.max(self.points, axis=0))


def _reject_duplicates(points):
    """Raise ValueError naming the first pair of coincident points, if any."""
    order = np.lexsort(points.T[::-1])
    sorted_pts = points[order]
    same = np.all(sorted_pts[1:] == sorted_pts[:-1], axis=1)
    hits = np.nonzero(same)[0]
    if hits.size:
        a, b = sorted(int(k) for k in order[hits[0]:hits[0] + 2])
        raise ValueError(f"collocation points {a} and {b} coincide: {points[a].tolist()}")


def collocation_data(system, points):
    """Cache f and Df at the points, one call to each batched callback, in a
    CollocationSet; a ValueError names any wrong shape (DynamicalSystem.values)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return CollocationSet(system, points, *system.values(points))


def assemble(system, kernel, points, equilibria=()):
    """Build the collocation set and the dense symmetric Gram matrix.

    The functional ordering is point-major with the (i, j) pairs, i <= j, in
    lexicographic order, so the matrix is laid out in m x m blocks per point
    pair with m = dim (dim + 1) / 2.  The Gram is Fortran-ordered and given
    by its lower triangle; its strict upper triangle is zero outside the
    chunks' diagonal squares, and np.tril(gram) + np.tril(gram, -1).T is the
    whole matrix.  Raises ValueError for duplicate points (naming the
    offending pair) and when a supplied equilibrium, wherever it lies, fails
    check_equilibrium_condition, and MemoryError, before mapping anything
    large, when the lower triangle plus one assembly workspace per worker
    exceeds the memory the system reports as available or cannot be mapped.
    """
    cset = collocation_data(system, points)
    _reject_duplicates(cset.points)
    for x0, sign in equilibria:
        check_equilibrium_condition(system, x0, sign)

    row_ops, col, scale = coordinate_matrices(cset.jacobians)
    col_t = np.ascontiguousarray(col.transpose(1, 0, 2))     # (m, N, m): [a, k, b]
    big_n, m = len(cset), len(scale)
    dim = big_n * m
    chunk = block_rows(big_n)
    chunks = [(l0, min(big_n, l0 + chunk)) for l0 in range(0, big_n, chunk)]
    slots = max(m * m + 5, PAIRWISE_SLOTS)    # 4 pairwise arrays, m^2 of value, 1 product
    _check_memory(dim, 8 * np.prod(workspace_shape(len(chunks), slots, big_n)))
    centre = cset.centre

    # Block row l, block column k:
    #   B_lk = R_l (psi C_k + theta D) + g2 C_k + h D
    # for k >= l only, built in (l, a, k, b) layout so the R_l contraction is
    # one batched GEMM per chunk of block rows.  Block row l is stored as
    # block column l of the Fortran-ordered Gram, whose lower half it is, so
    # the chunks write disjoint columns.
    gram = _zeroed_gram(dim)
    gram_rows = gram.T.reshape(big_n, m, dim)                # a view: writes fill the Gram

    def assemble_chunk(bounds, work):
        l0, l1 = bounds
        # Block columns from k1 on lie outside the support of every chunk
        # row, so their blocks keep the mapping's zeros.
        rows = cset.points[l0:l1]
        near = near_box(cset.points[l0:], (rows.min(axis=0), rows.max(axis=0)),
                        kernel.support_radius)
        k1 = l0 + 1 + np.flatnonzero(near)[-1]
        # The engine is called with the roles swapped (rows k >= l0, columns
        # l in the chunk), which swaps theta and g2 and transposes all four.
        # Then h rounds psi2 <x_k - x_l, f_l> before the f_k product, the
        # order of earlier releases, so their Grams and beta.csv are
        # reproduced bit for bit.
        psi, g2, theta, h = (a.T for a in pairwise_scalars(
            kernel, centre, cset.points[l0:k1], cset.f_values[l0:k1],
            rows, cset.f_values[l0:l1], work))
        cols = col_t[:, l0:k1]
        shape = (l1 - l0, m, (k1 - l0) * m)
        value = work[4:].reshape(-1)[:m * m * psi.size].reshape(l1 - l0, m, k1 - l0, m)
        product = work[-1, :psi.size].reshape(theta.T.shape).T   # theta's layout, past value
        np.multiply(psi[:, None, :, None], cols[None], out=value)
        for a in range(m):
            value[:, a, :, a] += np.multiply(theta, scale[a], out=product)
        body = gram_rows[l0:l1, :, l0 * m:k1 * m]
        np.matmul(row_ops[l0:l1], value.reshape(shape), out=body)
        np.multiply(g2[:, None, :, None], cols[None], out=value)
        for a in range(m):
            value[:, a, :, a] += np.multiply(h, scale[a], out=product)
        body += value.reshape(shape)

    run_blocks(assemble_chunk, chunks, slots, big_n)
    return cset, gram


def _available_memory_bytes():
    """Bytes the system reports as available to this process, or None.

    The smallest of MemAvailable in /proc/meminfo and the cgroup memory
    limit, over those that are readable.
    """
    found = []
    try:
        with open("/proc/meminfo") as handle:
            found += [int(line.split()[1]) * 1024 for line in handle
                      if line.startswith("MemAvailable:")]
    except (OSError, ValueError, IndexError):
        pass
    for path in _MEMORY_LIMIT_FILES:
        try:
            with open(path) as handle:
                found.append(int(handle.read()))       # "max" (no limit) is skipped
        except (OSError, ValueError):
            pass
    return min(found, default=None)


def _check_memory(dim, workspace_bytes):
    """Raise MemoryError if the lower triangle of a dim x dim Gram, the page
    each column starts on, and workspace_bytes more do not fit."""
    needed = 8 * dim * (dim + 1) // 2 + dim * mmap.PAGESIZE + workspace_bytes
    available = _available_memory_bytes()
    if available is not None and needed > available:
        raise MemoryError(
            f"the {dim}-unknown Gram matrix and its assembly need about "
            f"{needed / 1e6:.0f} MB, but only {available / 1e6:.0f} MB are available")


def _zeroed_gram(dim):
    """A zero (dim, dim) Fortran-ordered array in a private anonymous mapping.

    The mapping stays on 4 KiB pages where the platform can say so, so a
    page is backed by memory only once it is written: a 2 MiB huge page
    would span many columns and bring in the upper triangle with the lower.
    """
    try:
        pages = mmap.mmap(-1, 8 * dim * dim, flags=mmap.MAP_PRIVATE)
    except OSError as err:
        raise MemoryError(f"cannot map the {dim}-unknown Gram matrix: {err}") from err
    with contextlib.suppress(AttributeError, OSError):      # no such advice here
        pages.madvise(mmap.MADV_NOHUGEPAGE)
    return np.ndarray((dim, dim), order="F", buffer=pages)


class FactorizationError(RuntimeError):
    """Cholesky factorisation failed: the matrix is numerically not positive
    definite.  Carries the 1-based pivot index reported by LAPACK."""

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


def _cholesky(gram):
    """Factor gram's lower triangle, overwriting it if gram is Fortran-ordered.

    cho_factor copies other input; neither way reads the strict upper half.
    """
    try:
        return scipy.linalg.cho_factor(gram, lower=True, overwrite_a=True,
                                       check_finite=False)
    except scipy.linalg.LinAlgError as err:
        match = re.search(r"(\d+)", str(err))
        pivot = int(match.group(1)) if match else None
        raise FactorizationError(
            f"Gram matrix is numerically not positive definite ({err})",
            pivot=pivot) from err


@dataclass(frozen=True)
class SolveDiagnostics:
    dimension: int
    relative_residual: Optional[float] = None   # not computed; perfbench still passes it
    factorization: str = "cholesky"        # always "cholesky" and False: solve has
    regularized: bool = False              # one path; both stay solution.json keys
    min_pivot: Optional[float] = None      # smallest diagonal entry of the factor


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


def check_rhs(rhs, n):
    """C as an (n, n) float array; a ValueError unless it is finite,
    symmetric and positive definite."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (n, n):
        raise ValueError(f"right-hand-side matrix has shape {rhs.shape}, expected {(n, n)}")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("right-hand-side matrix must be finite")
    if np.max(np.abs(rhs - rhs.T)) > _DIVISIBILITY_TOL * max(1.0, np.max(np.abs(rhs))):
        raise ValueError("right-hand-side matrix must be symmetric")
    if np.min(np.linalg.eigvalsh(rhs)) <= 0.0:
        raise ValueError("right-hand-side matrix must be positive definite")
    return rhs


def solve(gram, rhs, cset, kernel):
    """Solve the collocation system for the right-hand-side matrix C.

    The stacked right-hand side repeats -C_ij over the functional ordering.
    A failed Cholesky factor raises a FactorizationError carrying the pivot
    index.

    gram (writeable float64) is consumed, as LAPACK's xPOTRF consumes its
    input: only its lower triangle is read, and a Fortran-ordered gram, as
    assemble returns it, is factored in place and holds the Cholesky factor
    in its lower half afterwards, also after a FactorizationError, so a Gram
    is good for one solve.  C goes through check_rhs, and a solution that
    overflows to non-finite values is a FloatingPointError.
    """
    rhs = check_rhs(rhs, cset.system.dim)
    n = len(rhs)
    i, j = np.transpose(triangle_indices(n))
    dim = len(cset) * len(i)
    if gram.shape != (dim, dim):
        raise ValueError(f"Gram matrix has shape {gram.shape}, expected {(dim, dim)}")
    if gram.dtype != np.float64 or not gram.flags.writeable:
        raise ValueError("Gram matrix must be a writeable float64 array")
    b = -np.tile(rhs[i, j], len(cset))

    factor = _cholesky(gram)
    gamma = scipy.linalg.cho_solve(factor, b, check_finite=False)
    if not np.all(np.isfinite(gamma)):
        raise FloatingPointError("the solution of the collocation system is not finite "
                                 f"(largest |C| entry {np.max(np.abs(rhs)):.3g})")
    min_pivot = float(np.min(factor[0].diagonal()))

    beta = np.zeros((len(cset), n, n))
    beta[:, i, j] = beta[:, j, i] = gamma.reshape(len(cset), -1) * np.where(i == j, 1.0, 0.5)

    return RecoverySolution(cset, kernel, beta, rhs, SolveDiagnostics(dim, min_pivot=min_pivot))
