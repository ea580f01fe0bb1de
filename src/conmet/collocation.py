"""Grids and the collocation system A gamma = b.

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
computed.  Before it scans a node or maps the Gram, assembly checks every
equilibrium it is given, and that much memory, which N alone fixes, against
the headroom the system reports, in one check, raising MemoryError if it
does not fit; make_grid sizes its points the same way before it builds them.
The solve takes the node set, which carries the kernel that assembly used
and the Gram's bandwidth, and consumes the Gram, as xPOTRF consumes its
input: the Cholesky factor overwrites the lower triangle.

Each node's reach bounds the factor.  Assembly reads each node's last node
in the support off the kernel values psi it computes (positive exactly
inside the support), and from those the Gram's lower bandwidth kd, in
unknowns: no column j is nonzero past row j + kd, and the Cholesky factor
fills in only inside that band (LAPACK Users' Guide, xPBTRF).  The Fortran
(dim, dim) array is LAPACK band storage with LDAB = dim + 1, which keeps
A(i, j) at AB(1 + i - j, j), flat offset i + j dim, where the dense array
keeps it.  So dpbtrf factors the Gram and dpbtrs solves with its factor
where they lie, touching only rows j .. j + kd of column j, so no page that
assembly left unwritten.  scipy's wrappers of both would copy the Gram, so
_lapack binds them by pointer from scipy.linalg.cython_lapack, scipy's own
OpenBLAS and thread pool, through ctypes.  When the band's flops are at most
a quarter of the dense dim^3 / 3, the factor is instead taken panel by
panel inside the band: cho_factor on each 256-column diagonal block, dtrsm
on the rows below it down to the band and dgemm updates of the trailing band
in 256-column tiles, through scipy's BLAS and LAPACK; the panels write zeros
past the band in the rows they read, and the factor checks memory for the
loop's two panel-wide arrays before it writes anything.  dpbtrf would beat
the panels too, but the benchmark's tracer times the factor only through
cho_factor; the panels go once it reads dpbtrf.  The Gram of a positive
definite kernel is SPD in exact arithmetic, so a failed factor means
near-degenerate node geometry; it raises FactorizationError, which carries
the global 1-based pivot, and is not retried.
"""

import contextlib
import ctypes
import math
import mmap
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack
import scipy.linalg.cython_lapack

from .operator import (PAIRWISE_SLOTS, _SYMMETRY_TOL, block_rows, coordinate_matrices,
                       near_box, pairwise_scalars, run_blocks, workspace_shape)
from .systems import check_equilibrium_condition

__all__ = [
    "GridSpec",
    "make_grid",
    "CollocationSet",
    "collocation_data",
    "assemble",
    "solve",
    "RecoverySolution",
    "SolveDiagnostics",
    "FactorizationError",
]

_DIVISIBILITY_TOL = 1e-12
_PANEL = 256                    # columns per panel of the band's panel factor
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


@dataclass(frozen=True)
class CollocationSet:
    """Pairwise-distinct collocation points with cached f and Df values; from
    assemble also its kernel and the Gram's bandwidth read off the kernel values."""

    system: object
    points: np.ndarray        # (N, dim)
    f_values: np.ndarray      # (N, dim)
    jacobians: np.ndarray     # (N, dim, dim)
    kernel: object = None     # that of assemble's Gram; None from collocation_data
    kd: int = None            # the Gram's lower bandwidth (module docstring); None as kernel

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
    points = np.asarray(points, dtype=float)
    return CollocationSet(system, points, *system.values(points))


def assemble(system, kernel, points, equilibria=()):
    """Build the collocation set, carrying kernel, and the dense symmetric Gram.

    The functional ordering is point-major with the (i, j) pairs, i <= j, in
    lexicographic order, so the matrix is laid out in m x m blocks per point
    pair with m = dim (dim + 1) / 2.  The Gram is Fortran-ordered and given
    by its lower triangle; its strict upper triangle is zero outside the
    chunks' diagonal squares, and np.tril(gram) + np.tril(gram, -1).T is the
    whole matrix.  The set also carries its lower bandwidth kd (module
    docstring), read off the kernel values psi that the chunks compute.  Raises
    ValueError for no or duplicate points (naming the offending pair) and when a
    supplied equilibrium, wherever it lies, fails check_equilibrium_condition,
    and MemoryError, in one check before it scans the nodes or maps anything
    large, when the lower triangle, a page per column and one assembly
    workspace per worker exceed the memory the system reports as available,
    or when the Gram cannot be mapped.
    """
    cset = replace(collocation_data(system, points), kernel=kernel)
    if not len(cset):
        raise ValueError("there is no collocation point: assemble needs at least one")
    _reject_duplicates(cset.points)
    for x0, sign in equilibria:
        check_equilibrium_condition(system, x0, sign)

    row_ops, col, scale = coordinate_matrices(cset.jacobians)
    col_t = np.ascontiguousarray(col.transpose(1, 0, 2))     # (m, N, m): [a, k, b]
    big_n, m = len(cset), len(scale)
    dim = big_n * m
    slots = max(m * m + 5, PAIRWISE_SLOTS)    # 4 pairwise arrays, m^2 of value, 1 product
    chunk_count = -(-big_n // block_rows(big_n))              # as many as _chunk_reach makes
    # the lower triangle, a page a column and the workspaces, before the chunks scan the nodes
    _check_memory(f"the {dim}-unknown Gram matrix, its assembly and its factor",
                  8 * dim * (dim + 1) // 2 + dim * mmap.PAGESIZE
                  + 8 * np.prod(workspace_shape(chunk_count, slots, big_n)))
    chunks = _chunk_reach(cset.points, kernel.support_radius)
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
        psi, theta, g2, h = pairwise_scalars(
            kernel, centre, cset.points[l0:l1], cset.f_values[l0:l1],
            cset.points[l0:k1], cset.f_values[l0:k1], work)
        # psi > 0 exactly inside the support, which holds each row's own node
        last[l0:l1] = k1 - 1 - np.argmax(psi[:, ::-1] > 0.0, axis=1)
        cols = col_t[:, l0:k1]
        shape = (l1 - l0, m, (k1 - l0) * m)
        value = work[4:].reshape(-1)[:m * m * psi.size].reshape(l1 - l0, m, k1 - l0, m)
        product = work[-1, :psi.size].reshape(psi.shape)          # past value
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
    return replace(cset, kd=m * int(np.max(last - np.arange(big_n))) + m - 1), gram


def _chunk_reach(points, radius):
    """Assembly's chunks of block rows as triples (l0, l1, k1), operator.near_box
    dropping every node from k1 on for the box around nodes l0 .. l1 - 1; the
    bandwidth comes from the kernel values the chunks compute."""
    step = block_rows(len(points))
    chunks = []
    for l0 in range(0, len(points), step):
        rows = points[l0:l0 + step]
        near = near_box(points[l0:], (rows.min(axis=0), rows.max(axis=0)), radius)
        chunks.append((l0, l0 + len(rows), l0 + 1 + int(np.flatnonzero(near)[-1])))
    return chunks


def _takes_panels(dim, kd):
    """Whether the band's flops are at most a quarter of the dense factor's."""
    return np.sum(np.minimum(kd + 1, np.arange(dim, 0, -1)) ** 2.0) <= dim ** 3 / 12.0


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


def _not_positive_definite(pivot):
    """The FactorizationError for LAPACK's 1-based pivot."""
    return FactorizationError(f"Gram matrix is numerically not positive definite (pivot {pivot})",
                              pivot=pivot)


_CHAR, _INT, _DOUBLE = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
_C_TYPES = {_CHAR: "char *", _INT: "int *",
            _DOUBLE: "__pyx_t_5scipy_6linalg_13cython_lapack_d *"}    # Cython's name for double
_CAPSULE_NAME = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_CAPSULE_POINTER = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _lapack(name, arguments):
    """Bind scipy's LAPACK routine name by pointer.

    arguments are the routine's (name, ctypes type) pairs in order, INFO
    last.  The function returned takes the values of all but INFO (bytes,
    ints and arrays, the last two passed by reference) and returns INFO;
    ctypes releases the GIL for the call.  An ImportError, naming the
    routine, unless scipy declares it with exactly these argument types;
    the function raises RuntimeError, naming the argument, when INFO
    rejects one.
    """
    capsule = scipy.linalg.cython_lapack.__pyx_capi__.get(name)
    signature = None if capsule is None else _CAPSULE_NAME(capsule)
    declared = f"void ({', '.join(_C_TYPES[kind] for _, kind in arguments)})"
    if signature != declared.encode():
        raise ImportError(f"scipy's LAPACK {name} is {signature!r}, not {declared!r}")
    routine = ctypes.CFUNCTYPE(None, *(kind for _, kind in arguments))(
        _CAPSULE_POINTER(capsule, signature))

    def call(*values):
        info = ctypes.c_int()
        passed = [value.ctypes.data_as(_DOUBLE) if kind is _DOUBLE
                  else ctypes.byref(ctypes.c_int(value)) if kind is _INT else value
                  for value, (_, kind) in zip(values, arguments)]
        routine(*passed, ctypes.byref(info))
        if info.value < 0:
            raise RuntimeError(f"LAPACK's {name} rejected its argument {arguments[-info.value - 1][0]}")
        return info.value
    return call


_DPBTRF = _lapack("dpbtrf", (("uplo", _CHAR), ("n", _INT), ("kd", _INT), ("ab", _DOUBLE),
                             ("ldab", _INT), ("info", _INT)))
_DPBTRS = _lapack("dpbtrs", (("uplo", _CHAR), ("n", _INT), ("kd", _INT), ("nrhs", _INT),
                             ("ab", _DOUBLE), ("ldab", _INT), ("b", _DOUBLE), ("ldb", _INT),
                             ("info", _INT)))


def _factor_block(block, offset):
    """Lower Cholesky factor of block by cho_factor, in a copy; a failure is a
    FactorizationError whose 1-based pivot, LAPACK's info on block, counts
    from offset.  block stays as it was for that second call."""
    try:
        return scipy.linalg.cho_factor(block, lower=True, overwrite_a=False,
                                       check_finite=False)[0]
    except scipy.linalg.LinAlgError as err:
        pivot = scipy.linalg.lapack.dpotrf(block, lower=1)[1]
        raise _not_positive_definite(offset + pivot) from err


def _cholesky(gram, kd):
    """Overwrite the lower triangle of the Fortran-ordered gram with its factor.

    Column j is taken as zero past row j + kd.  Panels, when _takes_panels,
    write zeros there down to their last row; a MemoryError comes before any
    write if their two panel-wide arrays do not fit.  The band factor reads
    and writes only rows j .. j + kd of column j, and neither path touches
    the strict upper triangle.
    """
    dim = len(gram)
    if not _takes_panels(dim, kd):
        # the Fortran (dim, dim) array is band storage with LDAB = dim + 1:
        # AB(1 + i - j, j) lies at i - j + j (dim + 1) = i + j dim, where A(i, j) is
        pivot = _DPBTRF(b"L", dim, kd, gram, dim + 1)
        if pivot:
            raise _not_positive_definite(pivot)
        return
    # diag and below, each at most _PANEL columns of dim rows
    _check_memory(f"the panels of the {dim}-unknown Gram's factor", 2 * 8 * _PANEL * dim)
    lower = np.asfortranarray(np.tri(_PANEL, dtype=bool))    # the Gram's order: twice as fast
    for j0 in range(0, dim, _PANEL):
        j1 = min(dim, j0 + _PANEL)
        s, e = j0 + kd + 1, min(dim, j1 + kd)      # the panel's rows end before row e
        # rows from s on can lie past their column's band, which becomes zero
        np.copyto(gram[s:e, j0:j1], 0.0, where=np.arange(s, e)[:, None] > np.arange(j0, j1) + kd)
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
    if np.max(np.abs(rhs - rhs.T)) > _SYMMETRY_TOL * max(1.0, np.max(np.abs(rhs))):
        raise ValueError("right-hand-side matrix must be symmetric")
    if np.min(np.linalg.eigvalsh(rhs)) <= 0.0:
        raise ValueError("right-hand-side matrix must be positive definite")
    return rhs


def solve(gram, rhs, cset):
    """Solve the collocation system for the right-hand-side matrix C.

    gram and cset are what assemble returned, and the solution's kernel is
    cset.kernel.  The stacked right-hand side repeats -C_ij over the
    functional ordering.

    gram (writeable, Fortran-ordered float64) is consumed as xPOTRF consumes
    its input: only its lower triangle is read, and it holds the Cholesky
    factor afterwards, also after a FactorizationError.  Its entries past
    cset.kd, the lower bandwidth assemble read off its kernel values (module
    docstring), are the zeros it leaves there.  A set without kd, any other
    gram or a C that fails check_rhs is a ValueError, and a factor that does
    not fit a MemoryError, before the Gram is read; a failed factor is a
    FactorizationError and a non-finite solution a FloatingPointError.
    """
    if cset.kd is None:
        raise ValueError("the collocation set carries no bandwidth; pass the set from assemble")
    rhs = check_rhs(rhs, cset.system.dim)
    n = len(rhs)
    i, j = np.triu_indices(n)
    dim = len(cset) * len(i)
    if gram.shape != (dim, dim):
        raise ValueError(f"Gram matrix has shape {gram.shape}, expected {(dim, dim)}")
    if gram.dtype != np.float64 or not (gram.flags.writeable and gram.flags.f_contiguous):
        raise ValueError("Gram matrix must be a writeable, Fortran-ordered float64 array, "
                         'as assemble returns it; copy one with gram.copy(order="F")')
    gamma = -np.tile(rhs[i, j], len(cset))

    _cholesky(gram, cset.kd)
    _DPBTRS(b"L", dim, cset.kd, 1, gram, dim + 1, gamma, dim)      # A gamma = b, in place
    if not np.all(np.isfinite(gamma)):
        raise FloatingPointError("the solution of the collocation system is not finite "
                                 f"(largest |C| entry {np.max(np.abs(rhs)):.3g})")
    min_pivot = float(np.min(gram.diagonal()))

    beta = np.zeros((len(cset), n, n))
    beta[:, i, j] = beta[:, j, i] = gamma.reshape(len(cset), -1) * np.where(i == j, 1.0, 0.5)

    return RecoverySolution(cset, cset.kernel, beta, rhs, SolveDiagnostics(dim, min_pivot=min_pivot))
