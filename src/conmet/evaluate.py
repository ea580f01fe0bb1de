"""Evaluation of the recovered metric, diagnostics, and the error study.

The recovered metric and the operator image have the closed forms

    S(x)   = sum_k [ psi(r_k) (J_k b_k + b_k J_k^T)
                     + psi1(r_k) <x_k - x, f_k> b_k ]
    L(S)(x) = Df(x)^T S(x) + S(x) Df(x)
             + sum_k [ psi1(r_k) <x - x_k, f(x)> (J_k b_k + b_k J_k^T)
                       + (f_k^T H12(x_k, x) f(x)) b_k ]

with r_k = |x_k - x|, b_k the coefficient matrices, and H12 the mixed kernel
Hessian.  The weights of both sums are the pairwise quantities of
operator.pairwise_scalars with the query points as rows, and f, Df at the
query points come from collocation_data, one batched call each, so assembly
and evaluation share one engine.  Both sums run in the upper-triangle
coordinates of assembly and solve, and one index map reads (i, j) and (j, i)
from the same coordinate, so S is exactly symmetric, and so is L(S), whose
zero-order part is Df^T S plus its transpose.  Evaluation groups the query
points into square cells whose edge is the kernel's support radius and splits
each cell into blocks of operator.block_rows(K) points, with K the count of
nodes that operator.near_box keeps for the cell; a block sums only over the
nodes kept for it, since every other node contributes exactly zero.
operator.run_blocks runs the blocks on the worker threads that assembly uses
too; each block writes its own rows, so the values do not depend on the worker
count.  convergence_study checks C and the declared equilibria, and computes
f, Df, M and L(M) at the check points, once, before its first assembly, so a
bad C, a bad equilibrium or an exact metric of the wrong shape fails before
any Gram exists.  It evaluates the finest spacing first, right after its
solve, so that Gram peaks before any block exists.  Evaluation takes arrays
only: one point x is the batch x[None]; a (0, n) batch gives empty arrays.
Definiteness is one rule, the sign of an extreme eigenvalue: field_export
takes it from eigvalsh, and ellipse_points from the batched eigh whose
eigenvectors also give its samples.
"""

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .collocation import (CollocationSet, FactorizationError, GridSpec, assemble,
                          check_rhs, collocation_data, make_grid, solve)
from .operator import (PAIRWISE_SLOTS, apply_operator, block_rows, near_box,
                       operator_image, pairwise_scalars, run_blocks)
from .systems import check_equilibrium_condition

__all__ = [
    "eval_metric_batch",
    "eval_operator_batch",
    "field_export",
    "error_report",
    "ConvergenceRow",
    "ConvergenceReport",
    "convergence_study",
    "ellipse_points",
]


def _combine(weights_a, coords_a, weights_b, coords_b, work):
    """sum_k w_a[e,k] A_k + w_b[e,k] B_k in (K, m) coordinates; two GEMMs into work's rows 0-1."""
    m = coords_a.shape[1]
    out, product = (row[:len(weights_a) * m].reshape(-1, m) for row in work[:2])
    return np.add(np.matmul(weights_a, coords_a, out=out),
                  np.matmul(weights_b, coords_b, out=product), out=out)


def _cell_blocks(points, nodes, edge):
    """Index arrays that split the points into blocks within square cells.

    The points are stably sorted by their cell of the given edge; each block
    lies in one cell and has block_rows(K) rows, with K the count of nodes
    that near_box keeps for the cell.
    """
    cells = np.floor(points / edge)
    order = np.lexsort(cells.T[::-1])
    keys = cells[order]
    starts = np.flatnonzero(np.any(keys[1:] != keys[:-1], axis=1)) + 1
    bounds = [0, *starts, len(points)] if len(points) else []     # no points, no cell
    for c0, c1 in zip(bounds[:-1], bounds[1:]):
        cell = points[order[c0:c1]]
        near = np.count_nonzero(near_box(nodes, (cell.min(axis=0), cell.max(axis=0)), edge))
        step = block_rows(near)
        for e0 in range(c0, c1, step):
            yield order[e0:min(c1, e0 + step)]


def _fields_batch(solution, query):
    """S and L(S) at the points of a CollocationSet, in one shared pass."""
    cset = solution.collocation
    radius = solution.kernel.support_radius
    n = cset.system.dim
    upper = np.triu_indices(n)
    m = len(upper[0])
    mirror = np.empty((n, n), dtype=np.intp)        # (i, j) and (j, i) -> coordinate of i <= j
    mirror[upper] = mirror[upper[::-1]] = np.arange(m)
    # P_k = J_k beta_k + beta_k J_k^T and beta_k by their upper triangles, (N, m) each
    p_coords, beta_coords = (values[:, upper[0], upper[1]] for values in (
        operator_image(solution.beta, 0.0, cset.jacobians.transpose(0, 2, 1)), solution.beta))
    centre = cset.centre
    s_out, fs_out = (np.empty((len(query), n, n)) for _ in range(2))

    def evaluate_block(block, work):
        rows = query.points[block]
        near = near_box(cset.points, (rows.min(axis=0), rows.max(axis=0)), radius)
        psi, theta, g2, h = pairwise_scalars(
            solution.kernel, centre, rows, query.f_values[block],
            cset.points[near], cset.f_values[near], work)
        p_near, beta_near = p_coords[near], beta_coords[near]
        s_out[block] = s_val = _combine(psi, p_near, theta, beta_near, work[4:])[:, mirror]
        orbital = _combine(g2, p_near, h, beta_near, work[4:])[:, mirror]
        fs_out[block] = operator_image(s_val, orbital, query.jacobians[block])

    blocks = list(_cell_blocks(query.points, cset.points, radius))
    run_blocks(evaluate_block, blocks, PAIRWISE_SLOTS,     # rows that fit _combine's sums too
               max([len(cset)] + [m * len(block) for block in blocks]))
    return s_out, fs_out


def _query(solution, points):
    """points as a CollocationSet: as given if it is one, else with f and Df evaluated there."""
    if isinstance(points, CollocationSet):
        return points
    return collocation_data(solution.collocation.system, points)


def eval_metric_batch(solution, points):
    """Recovered metric S at each row of points, or at the points of a
    CollocationSet with its cached f and Df; (E, n, n) array."""
    return _fields_batch(solution, _query(solution, points))[0]


def eval_operator_batch(solution, points):
    """Operator image L(S) at each row of points, or at the points of a
    CollocationSet with its cached f and Df, such as solution.collocation;
    (E, n, n) array."""
    return _fields_batch(solution, _query(solution, points))[1]


def field_export(solution, grid):
    """Sample S and L(S) with their definiteness scalars on a point list.

    Returns a dict of arrays whose entry e belongs to the point x[e]: "x"
    (E, n); "s" and "fs", the (E, n, n) stacks of S and L(S); and the (E,)
    arrays "trace_s", "det_s", "trace_fs", "neg_det_fs", "min_eig_s" and
    "max_eig_fs".  The determinants are products of the eigenvalues, and a
    matrix with a non-finite entry has NaN in all four definiteness columns.
    S(x[e]) is positive definite where min_eig_s[e] > 0 and L(S)(x[e])
    negative definite where max_eig_fs[e] < 0; a NaN fails both.
    """
    query = collocation_data(solution.collocation.system, grid)
    s, fs = _fields_batch(solution, query)
    # one eigvalsh per stack; it returns arbitrary values for a non-finite matrix
    eig_s, eig_fs = (np.where(np.all(np.isfinite(m), axis=(1, 2))[:, None],
                              np.linalg.eigvalsh(m), np.nan) for m in (s, fs))
    with np.errstate(over="ignore", invalid="ignore"):      # +-inf past the range, 0 * inf NaN
        det_s, det_fs = np.prod(eig_s, axis=1), np.prod(eig_fs, axis=1)
    return {
        "x": query.points,
        "s": s,
        "fs": fs,
        "trace_s": np.trace(s, axis1=1, axis2=2),
        "det_s": det_s,
        "trace_fs": np.trace(fs, axis1=1, axis2=2),
        "neg_det_fs": -det_fs,
        "min_eig_s": eig_s[:, 0],
        "max_eig_fs": eig_fs[:, -1],
    }


def _check_grid(exact, system, check_points):
    """The check points as a CollocationSet, with M and L(M) there."""
    query = collocation_data(system, check_points)
    if len(query) == 0:
        raise ValueError("empty check grid")
    m = np.asarray(exact.value(query.points), dtype=float)
    return query, m, apply_operator(m, exact.gradient(query.points), query.f_values,
                                    query.jacobians)


def _errors(solution, query, m, fm):
    """(max |S - M|, max |L(S) - L(M)|) over the points of query."""
    s_all, fs_all = _fields_batch(solution, query)
    return float(np.max(np.abs(s_all - m))), float(np.max(np.abs(fs_all - fm)))


def error_report(solution, exact, check_points):
    """Max-norm errors of S and L(S) against an exact metric.

    Returns (e, e_s): the componentwise maximum of |S - M| and of
    |L(S) - L(M)| over the check points, with L(M) evaluated through
    apply_operator from the exact value/gradient callables.
    """
    return _errors(solution, *_check_grid(exact, solution.collocation.system, check_points))


@dataclass(frozen=True)
class ConvergenceRow:
    alpha: float
    e_s: float
    ratio_s: Optional[float]
    e: float
    ratio: Optional[float]


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-grid errors with successive coarse/fine ratios.

    Rows are ordered by decreasing spacing alpha; ratios compare each row
    against the previous (coarser) one.  reference_ratio is the expected
    asymptotic ratio 2^(sigma - 1 - dim/2) for spacing halving.
    """

    rows: tuple
    reference_ratio: float


def convergence_study(system, exact, rhs, kernel, alphas, bounds, check_spec,
                      equilibria=(), *, progress=None):
    """Solve on the grid family X_alpha and tabulate errors and ratios.  As each
    spacing finishes, progress, if given, is called with a dict of its alpha,
    nodes, assemble_seconds, solve_seconds and error_seconds."""
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("the convergence study needs at least one spacing")
    if any(b >= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError(f"spacings must be strictly decreasing, got {alphas}")
    # every spacing's GridSpec first, so one that does not divide the box fails before any solve
    specs = {alpha: GridSpec(bounds=bounds, spacing=alpha) for alpha in alphas}
    rhs = check_rhs(rhs, system.dim)
    for x0, sign in equilibria:
        check_equilibrium_condition(system, x0, sign)
    check = _check_grid(exact, system, make_grid(check_spec))
    errors = {}
    for alpha in reversed(alphas):      # finest first; see the module docstring
        t0 = time.perf_counter()
        cset, gram = assemble(system, kernel, make_grid(specs[alpha]))
        t1 = time.perf_counter()
        try:
            solution = solve(gram, rhs, cset)
        except FactorizationError as err:
            raise FactorizationError(f"alpha={alpha}: {err}", pivot=err.pivot) from err
        del gram        # the error evaluation does not need it
        t2 = time.perf_counter()
        errors[alpha] = _errors(solution, *check)
        if progress is not None:
            progress({"alpha": alpha, "nodes": len(cset), "assemble_seconds": t1 - t0,
                      "solve_seconds": t2 - t1, "error_seconds": time.perf_counter() - t2})
    first = errors[alphas[0]]
    rows = [ConvergenceRow(alphas[0], first[1], None, first[0], None)]
    for coarse, fine in zip(alphas, alphas[1:]):
        (e0, s0), (e1, s1) = errors[coarse], errors[fine]
        rows.append(ConvergenceRow(fine, s1, s0 / s1, e1, e0 / e1))
    reference = 2.0 ** (kernel.sigma - 1.0 - system.dim / 2.0)
    return ConvergenceReport(rows=tuple(rows), reference_ratio=reference)


def ellipse_points(anchors, metrics, level, count):
    """Samples of the metric ellipses (v - x)^T S(x) (v - x) = level.

    anchors is an (A, 2) array and metrics the (A, 2, 2) stack of the
    symmetric S(x) there, of which eigh reads the lower triangles.  One
    batched eigh gives positive, the (A,) mask of the anchors where S(x) is
    positive definite (its smallest eigenvalue is > 0), and the (P, count, 2)
    samples of the P anchors in the mask, in order, parametrised through the
    eigendecomposition.  Raises ValueError for other shapes, non-finite
    anchors or level, or count < 1, and FloatingPointError when a sample
    overflows.
    """
    anchors = np.asarray(anchors, dtype=float)
    metrics = np.asarray(metrics, dtype=float)
    if anchors.ndim != 2 or anchors.shape[1] != 2 or metrics.shape != (len(anchors), 2, 2):
        raise ValueError("ellipse sampling takes (A, 2) anchors and (A, 2, 2) metrics, "
                         f"got shapes {anchors.shape} and {metrics.shape}")
    if not np.all(np.isfinite(anchors)):
        raise ValueError(f"anchors must be finite, got {anchors.tolist()}")
    if not 0.0 < level < np.inf:
        raise ValueError(f"level must be positive and finite, got {level}")
    if count < 1:
        raise ValueError(f"need at least one sample, got {count}")
    eigenvalues, eigenvectors = np.linalg.eigh(metrics)
    positive = eigenvalues[:, 0] > 0.0
    angles = 2.0 * np.pi * np.arange(count) / count
    with np.errstate(over="raise"):      # FloatingPointError; then x + v cannot overflow
        radial = np.sqrt(level / eigenvalues[positive])
    local = np.stack([radial[:, :1] * np.cos(angles), radial[:, 1:] * np.sin(angles)], axis=1)
    return positive, anchors[positive, None] + np.matmul(eigenvectors[positive],
                                                         local).transpose(0, 2, 1)
