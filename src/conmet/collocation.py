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
so each chunk stops at the last block column k1 that operator.near_box
keeps for the chunk rows' bounding box; the zero blocks past it are never
computed.  Before it maps the Gram, assembly checks every equilibrium it is
given, and that much memory against the headroom the system reports, the
lower triangle first, as it needs only N, raising MemoryError if it does
not fit; make_grid sizes its points the same way before it builds them.
The solve takes the node set, which carries the kernel that assembly used
and its envelope, and consumes the Gram, as xPOTRF consumes its input: the
Cholesky factor overwrites the lower triangle.

Each node's reach bounds the factor: column j of the Gram is zero from row
ends[j] on, one past the last node where assembly found the kernel value
psi of column j's node nonzero (positive exactly inside the support), in
unknowns, made nondecreasing.  That is a column envelope, inside which
the Cholesky factor fills in and outside of which it stays zero (George &
Liu, Computer Solution of Large Sparse Positive Definite Systems, 1981).
When its flops, sum_j (ends[j] - j)^2, are at most a quarter of the dense
dim^3 / 3, the solve factors panel by panel inside it: cho_factor on each
256-column diagonal block, dtrsm on the rows below it down to the envelope
and dgemm updates of the trailing envelope in 256-column tiles, through
scipy's BLAS and LAPACK, whose thread pool is not numpy's; then each
triangular solve is a dtrsv on each diagonal block and a GEMV below it down
to the envelope.  The zeros past the envelope are never used, and solve
checks memory for the loop's two panel-wide arrays first.  Any other
Gram is one cho_factor and one cho_solve call on the lower triangle.  The
Gram of a positive definite kernel is SPD in exact arithmetic, so a failed
factor means near-degenerate node geometry; it raises FactorizationError,
which carries the global 1-based pivot, and is not retried.
"""

import contextlib
import math
import mmap
import re
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.linalg.blas
from scipy.spatial import cKDTree

from .operator import (PAIRWISE_SLOTS, block_rows, coordinate_matrices, near_box,
                       pairwise_scalars, run_blocks, workspace_shape)
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
_PANEL = 256                    # columns per panel of the envelope Cholesky factor
_MEMINFO = "/proc/meminfo"
_CGROUP_FILES = (           # limit, usage, stat and its inactive file cache key
    ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory.current",
     "/sys/fs/cgroup/memory.stat", "inactive_file"),                            # cgroup v2
    ("/sys/fs/cgroup/memory/memory.limit_in_bytes", "/sys/fs/cgroup/memory/memory.usage_in_bytes",
     "/sys/fs/cgroup/memory/memory.stat", "total_inactive_file"))               # cgroup v1


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
        if not len(self.bounds) or any(len(row) != 2 for row in self.bounds):
            raise ValueError(f"bounds must be one [lo, hi] pair per axis, got {self.bounds}")
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
            if not steps < 2.0 ** 53:       # beyond, every float is whole; round(inf) raises
                raise ValueError(f"spacing {self.spacing} is too small for the edge [{lo}, {hi}]")
            if abs(steps - round(steps)) > _DIVISIBILITY_TOL * max(1.0, steps):
                raise ValueError(
                    f"spacing {self.spacing} does not divide the edge [{lo}, {hi}] "
                    f"with offset {self.offset}")


def make_grid(spec):
    """Tensor-product grid, points in lexicographic coordinate order; a
    MemoryError, before anything is built, if its coordinates do not fit."""
    counts = [int(round((hi - lo - 2.0 * spec.offset) / spec.spacing)) + 1
              for lo, hi in spec.bounds]
    _check_memory(f"the {' x '.join(map(str, counts))} points of a grid",
                  8 * len(counts) * math.prod(counts))
    axes = [lo + spec.offset + spec.spacing * np.arange(count)
            for (lo, _), count in zip(spec.bounds, counts)]
    mesh = np.meshgrid(*axes, indexing="ij", copy=False)      # views: stack makes the one copy
    return np.stack(mesh, axis=-1).reshape(-1, len(axes))


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
    """Pairwise-distinct collocation points with cached f and Df values; from
    assemble also its kernel and the envelope ends read off the kernel values."""

    system: object
    points: np.ndarray        # (N, dim)
    f_values: np.ndarray      # (N, dim)
    jacobians: np.ndarray     # (N, dim, dim)
    kernel: object = None     # that of assemble's Gram; None from collocation_data
    ends: np.ndarray = None   # (N m,): the Gram's envelope (module docstring); None as kernel

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
    """Build the collocation set, carrying kernel, and the dense symmetric Gram.

    The functional ordering is point-major with the (i, j) pairs, i <= j, in
    lexicographic order, so the matrix is laid out in m x m blocks per point
    pair with m = dim (dim + 1) / 2.  The Gram is Fortran-ordered and given
    by its lower triangle; its strict upper triangle is zero outside the
    chunks' diagonal squares, and np.tril(gram) + np.tril(gram, -1).T is the
    whole matrix.  The set also carries the envelope ends (module docstring),
    read off the kernel values psi that the chunks compute.  Raises
    ValueError for duplicate points (naming the offending pair) and when a
    supplied equilibrium, wherever it lies, fails check_equilibrium_condition,
    and MemoryError, before mapping anything large, when the lower triangle
    plus one assembly workspace per worker exceed the memory the system
    reports as available, or cannot be mapped.
    """
    cset = replace(collocation_data(system, points), kernel=kernel)
    _reject_duplicates(cset.points)
    for x0, sign in equilibria:
        check_equilibrium_condition(system, x0, sign)

    row_ops, col, scale = coordinate_matrices(cset.jacobians)
    col_t = np.ascontiguousarray(col.transpose(1, 0, 2))     # (m, N, m): [a, k, b]
    big_n, m = len(cset), len(scale)
    dim = big_n * m
    what = f"the {dim}-unknown Gram matrix, its assembly and its factor"
    needed = 8 * dim * (dim + 1) // 2 + dim * mmap.PAGESIZE    # lower triangle, a page a column
    _check_memory(what, needed)                 # before the chunks, which scan the nodes
    chunks = _chunk_reach(cset.points, kernel.support_radius)
    slots = max(m * m + 5, PAIRWISE_SLOTS)    # 4 pairwise arrays, m^2 of value, 1 product
    _check_memory(what, needed + 8 * np.prod(workspace_shape(len(chunks), slots, big_n)))
    centre = cset.centre
    last = np.empty(big_n, dtype=np.intp)     # each node's last node in its support

    # Block row l, block column k:
    #   B_lk = R_l (psi C_k + theta D) + g2 C_k + h D
    # for k >= l only, built in (l, a, k, b) layout so the R_l contraction is
    # one batched GEMM per chunk of block rows.  Block row l is stored as
    # block column l of the Fortran-ordered Gram, whose lower half it is, so
    # the chunks write disjoint columns.
    gram = _zeroed_gram(dim)
    gram_rows = gram.T.reshape(big_n, m, dim)                # a view: writes fill the Gram

    def assemble_chunk(bounds, work):
        # Block columns from k1 on lie outside the support of every chunk
        # row, so their blocks keep the mapping's zeros.
        l0, l1, k1 = bounds
        rows = cset.points[l0:l1]
        # The engine is called with the roles swapped (rows k >= l0, columns
        # l in the chunk), which swaps theta and g2 and transposes all four.
        # Then h rounds psi2 <x_k - x_l, f_l> before the f_k product, the
        # order of earlier releases, so their Grams and beta.csv are
        # reproduced bit for bit.
        psi, g2, theta, h = (a.T for a in pairwise_scalars(
            kernel, centre, cset.points[l0:k1], cset.f_values[l0:k1],
            rows, cset.f_values[l0:l1], work))
        # psi > 0 exactly inside the support, which holds each row's own node
        last[l0:l1] = k1 - 1 - np.argmax(psi[:, ::-1] > 0.0, axis=1)
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
    return replace(cset, ends=np.maximum.accumulate(np.repeat(m * (last + 1), m))), gram


def _chunk_reach(points, radius):
    """Assembly's chunks of block rows as triples (l0, l1, k1), operator.near_box
    dropping every node from k1 on for the box around nodes l0 .. l1 - 1; the
    envelope ends come from the kernel values the chunks compute."""
    step = block_rows(len(points))
    chunks = []
    for l0 in range(0, len(points), step):
        rows = points[l0:l0 + step]
        near = near_box(points[l0:], (rows.min(axis=0), rows.max(axis=0)), radius)
        chunks.append((l0, l0 + len(rows), l0 + 1 + int(np.flatnonzero(near)[-1])))
    return chunks


def _takes_panels(ends):
    """Whether the envelope's flops are at most a quarter of the dense factor's."""
    dim = len(ends)
    return np.sum((ends - np.arange(dim)) ** 2.0) <= dim ** 3 / 12.0


def _read_int(path, key=None):
    """The integer in the file at path, or the one after key on the line that
    starts with it; None if there is none ("max" is cgroup v2's no limit)."""
    try:
        with open(path) as handle:
            if key is None:
                return int(handle.read())
            return next(int(line.split()[1]) for line in handle if line.split()[0] == key)
    except (OSError, ValueError, IndexError, StopIteration):
        return None


def _available_memory_bytes():
    """Bytes the system reports as available to this process, or None.

    The smallest of MemAvailable in /proc/meminfo and, for each readable
    cgroup memory limit, the headroom under it: the limit less the group's
    usage without its inactive file cache, which the kernel reclaims first.
    """
    available = _read_int(_MEMINFO, "MemAvailable:")
    found = [] if available is None else [1024 * available]
    for limit, usage, stat, inactive in _CGROUP_FILES:
        cap = _read_int(limit)
        if cap is not None:
            used = (_read_int(usage) or 0) - (_read_int(stat, inactive) or 0)
            found.append(cap - max(used, 0))
    return min(found, default=None)


def _check_memory(what, needed):
    """Raise MemoryError, naming what, if needed bytes do not fit."""
    available = _available_memory_bytes()
    if available is not None and needed > available:
        raise MemoryError(f"{what} need about {needed / 1e6:.0f} MB, "
                          f"but only {available / 1e6:.0f} MB are available")


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


def _factor_block(block, offset):
    """Lower Cholesky factor of block by cho_factor, in place if block is
    Fortran-contiguous; a failure is a FactorizationError whose 1-based
    pivot counts from offset."""
    try:
        return scipy.linalg.cho_factor(block, lower=True, overwrite_a=True,
                                       check_finite=False)[0]
    except scipy.linalg.LinAlgError as err:
        match = re.search(r"(\d+)", str(err))
        pivot = offset + int(match.group(1)) if match else None
        raise FactorizationError(
            f"Gram matrix is numerically not positive definite (pivot {pivot})",
            pivot=pivot) from err


def _cholesky(gram, ends):
    """Overwrite the lower triangle of the Fortran-ordered gram with its factor.

    Column j is taken as zero from row ends[j] on.  Panels, when
    _takes_panels(ends), write zeros there down to their last row, and
    neither path touches the strict upper triangle.
    """
    if not _takes_panels(ends):
        _factor_block(gram, 0)
        return
    lower = np.asfortranarray(np.tri(_PANEL, dtype=bool))    # the Gram's order: twice as fast
    for j0 in range(0, len(gram), _PANEL):
        j1 = min(len(gram), j0 + _PANEL)
        e, s = int(ends[j1 - 1]), int(ends[j0])     # the panel's rows end before row e
        # rows from s on can lie past their column's end, which becomes zero
        np.copyto(gram[s:e, j0:j1], 0.0, where=np.arange(s, e)[:, None] >= ends[j0:j1])
        # L11 L11^T = A11, L21 = A21 L11^-T, then A22 -= L21 L21^T in tiles
        diag = _factor_block(gram[j0:j1, j0:j1], j0)
        np.copyto(gram[j0:j1, j0:j1], diag, where=lower[:j1 - j0, :j1 - j0])
        if e == j1:
            continue
        # C order: the transpose of any row range of it is a Fortran-ordered
        # BLAS operand, used without a copy
        below = np.array(gram[j1:e, j0:j1], order="C")
        below = scipy.linalg.blas.dtrsm(1.0, diag, below.T, lower=1, overwrite_b=1).T
        gram[j1:e, j0:j1] = below
        for c0 in range(j1, e, _PANEL):
            c1 = min(e, c0 + _PANEL)
            update = scipy.linalg.blas.dgemm(1.0, below[c0 - j1:].T,
                                             below[c0 - j1:c1 - j1].T, trans_a=1)
            square = gram[c0:c1, c0:c1]
            np.subtract(square, update[:c1 - c0], out=square, where=lower[:c1 - c0, :c1 - c0])
            gram[c1:e, c0:c1] -= update[c1 - c0:]


def _substitute(factor, ends, b):
    """x with L L^T x = b, L the lower triangle of a factor that took panels,
    by substitution panel by panel inside the envelope.  numpy's @ takes the
    strided views of the factor as they are; scipy's dgemv would copy them."""
    x = b.copy()
    panels = [(j0, min(len(x), j0 + _PANEL)) for j0 in range(0, len(x), _PANEL)]
    for j0, j1 in panels:                                   # L y = b
        x[j0:j1] = scipy.linalg.blas.dtrsv(factor[j0:j1, j0:j1], x[j0:j1], lower=1)
        x[j1:ends[j1 - 1]] -= factor[j1:ends[j1 - 1], j0:j1] @ x[j0:j1]
    for j0, j1 in reversed(panels):                         # L^T x = y
        x[j0:j1] -= factor[j1:ends[j1 - 1], j0:j1].T @ x[j1:ends[j1 - 1]]
        x[j0:j1] = scipy.linalg.blas.dtrsv(factor[j0:j1, j0:j1], x[j0:j1], lower=1, trans=1)
    return x


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


def solve(gram, rhs, cset):
    """Solve the collocation system for the right-hand-side matrix C.

    gram and cset are what assemble returned, and the solution's kernel is
    cset.kernel.  The stacked right-hand side repeats -C_ij over the
    functional ordering; a failed Cholesky factor is a FactorizationError.

    gram (writeable, Fortran-ordered float64) is consumed as xPOTRF consumes
    its input: only its lower triangle is read, and it holds the Cholesky
    factor afterwards, also after a FactorizationError.  Its entries outside
    cset.ends, the envelope assemble read off its kernel values (module
    docstring), are the zeros it leaves there; panels and triangular solves
    stay inside it.  A set without ends, any other gram or a C that fails
    check_rhs is a ValueError, and panels that do not fit a MemoryError,
    before the Gram is read; a non-finite solution is a FloatingPointError.
    """
    if cset.ends is None:
        raise ValueError("the collocation set carries no envelope; pass the set from assemble")
    rhs = check_rhs(rhs, cset.system.dim)
    n = len(rhs)
    i, j = np.triu_indices(n)
    dim = len(cset) * len(i)
    if gram.shape != (dim, dim):
        raise ValueError(f"Gram matrix has shape {gram.shape}, expected {(dim, dim)}")
    if gram.dtype != np.float64 or not (gram.flags.writeable and gram.flags.f_contiguous):
        raise ValueError("Gram matrix must be a writeable, Fortran-ordered float64 array, "
                         'as assemble returns it; copy one with gram.copy(order="F")')
    ends = cset.ends
    if _takes_panels(ends):                  # the two panel-wide arrays _cholesky holds
        _check_memory(f"the panels of the {dim}-unknown Gram's factor", 2 * 8 * _PANEL * dim)
    b = -np.tile(rhs[i, j], len(cset))

    _cholesky(gram, ends)
    gamma = (_substitute(gram, ends, b) if _takes_panels(ends)
             else scipy.linalg.cho_solve((gram, True), b, check_finite=False))
    if not np.all(np.isfinite(gamma)):
        raise FloatingPointError("the solution of the collocation system is not finite "
                                 f"(largest |C| entry {np.max(np.abs(rhs)):.3g})")
    min_pivot = float(np.min(gram.diagonal()))

    beta = np.zeros((len(cset), n, n))
    beta[:, i, j] = beta[:, j, i] = gamma.reshape(len(cset), -1) * np.where(i == j, 1.0, 0.5)

    return RecoverySolution(cset, cset.kernel, beta, rhs, SolveDiagnostics(dim, min_pivot=min_pivot))
