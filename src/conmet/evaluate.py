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
and evaluation share one engine.  Evaluation groups the query points into
square cells whose edge is the kernel's support radius and splits each cell
into blocks of operator.block_rows(K) points, with K the count of nodes that
operator.near_box keeps for the cell; a block sums only over the nodes kept
for it, since every other node contributes exactly zero.  operator.run_blocks
runs the blocks on the worker threads that assembly uses too; each block
writes its own rows, so the values do not depend on the worker count.
convergence_study checks C and the declared equilibria, and computes f, Df,
M and L(M) at the check points, once, before its first assembly, so a bad C,
a bad equilibrium or an exact metric of the wrong shape fails before any
Gram exists.  It evaluates the finest spacing first, right after its solve,
so that Gram peaks before any block exists.  Every result is exactly
symmetric by construction.  Evaluation takes arrays only: a single point x
is the batch x[None].  Definiteness is one rule, the sign of an extreme
eigenvalue (eigvalsh), as in field_export and ellipse_points.
"""

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


def _symmetrize(fields):
    """Exactly symmetric copy, (T + T^T)/2 slice by slice."""
    return 0.5 * (fields + fields.transpose(0, 2, 1))


def _combine(weights_a, flats_a, weights_b, flats_b, n, work):
    """sum_k w_a[e,k] A_k + w_b[e,k] B_k through two dense GEMMs into work's rows 0-1."""
    out, product = (row[:len(weights_a) * n * n].reshape(-1, n * n) for row in work[:2])
    np.add(np.matmul(weights_a, flats_a, out=out), np.matmul(weights_b, flats_b, out=product),
           out=out)
    return out.reshape(-1, n, n)


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
    bounds = [0, *starts, len(points)]
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
    # P_k = J_k beta_k + beta_k J_k^T
    p_flat = operator_image(solution.beta, 0.0,
                            cset.jacobians.transpose(0, 2, 1)).reshape(-1, n * n)
    beta_flat = solution.beta.reshape(-1, n * n)
    centre = cset.centre
    s_out = np.empty((len(query), n, n))
    fs_out = np.empty((len(query), n, n))

    def evaluate_block(block, work):
        rows = query.points[block]
        near = near_box(cset.points, (rows.min(axis=0), rows.max(axis=0)), radius)
        psi, theta, g2, h = pairwise_scalars(
            solution.kernel, centre, rows, query.f_values[block],
            cset.points[near], cset.f_values[near], work)
        p_near, beta_near = p_flat[near], beta_flat[near]
        s_val = _symmetrize(_combine(psi, p_near, theta, beta_near, n, work[4:]))
        s_out[block] = s_val
        fs = operator_image(s_val, _combine(g2, p_near, h, beta_near, n, work[4:]),
                            query.jacobians[block])
        fs_out[block] = _symmetrize(fs)

    blocks = list(_cell_blocks(query.points, cset.points, radius))
    run_blocks(evaluate_block, blocks, PAIRWISE_SLOTS,     # rows that fit _combine's sums too
               max([len(cset)] + [n * n * len(block) for block in blocks]))
    return s_out, fs_out


def eval_metric_batch(solution, points):
    """Recovered metric S at each row of points; (E, n, n) array."""
    return _fields_batch(solution, collocation_data(solution.collocation.system, points))[0]


def eval_operator_batch(solution, points):
    """Operator image L(S) at each row of points; (E, n, n) array."""
    return _fields_batch(solution, collocation_data(solution.collocation.system, points))[1]


def _det(stack):
    """Determinants of an (E, n, n) stack; NaN where a matrix is not finite,
    without the LU that would warn of an invalid value there."""
    finite = np.all(np.isfinite(stack), axis=(1, 2))
    return np.where(finite, np.linalg.det(np.where(finite[:, None, None], stack, 0.0)), np.nan)


def field_export(solution, grid):
    """Sample S and L(S) with their definiteness scalars on a point list.

    Returns a dict of arrays whose entry e belongs to the point x[e]: "x"
    (E, n); "s" and "fs", the (E, n, n) stacks of S and L(S); and the (E,)
    arrays "trace_s", "det_s", "trace_fs", "neg_det_fs", "min_eig_s" and
    "max_eig_fs".  S(x[e]) is positive definite where min_eig_s[e] > 0 and
    L(S)(x[e]) negative definite where max_eig_fs[e] < 0; a NaN fails both.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    s, fs = _fields_batch(solution, collocation_data(solution.collocation.system, grid))
    return {
        "x": grid,
        "s": s,
        "fs": fs,
        "trace_s": np.trace(s, axis1=1, axis2=2),
        "det_s": _det(s),
        "trace_fs": np.trace(fs, axis1=1, axis2=2),
        "neg_det_fs": -_det(fs),
        "min_eig_s": np.linalg.eigvalsh(s)[:, 0],
        "max_eig_fs": np.linalg.eigvalsh(fs)[:, -1],
    }


@dataclass(frozen=True)
class _CheckGrid(CollocationSet):
    m: np.ndarray           # the exact metric M at the points
    fm: np.ndarray          # and L(M)


def _check_grid(exact, system, check_points):
    q = collocation_data(system, check_points)
    if len(q) == 0:
        raise ValueError("empty check grid")
    m = np.asarray(exact.value(q.points), dtype=float)
    fm = apply_operator(m, exact.gradient(q.points), q.f_values, q.jacobians)
    return _CheckGrid(system, q.points, q.f_values, q.jacobians, m, fm)


def error_report(solution, exact, check_points):
    """Max-norm errors of S and L(S) against an exact metric.

    Returns (e, e_s): the componentwise maximum of |S - M| and of
    |L(S) - L(M)| over the check points, with L(M) evaluated through
    apply_operator from the exact value/gradient callables.  check_points may
    also be the _CheckGrid that convergence_study computes once per study.
    """
    if not isinstance(check_points, _CheckGrid):
        check_points = _check_grid(exact, solution.collocation.system, check_points)
    s_all, fs_all = _fields_batch(solution, check_points)
    return (float(np.max(np.abs(s_all - check_points.m))),
            float(np.max(np.abs(fs_all - check_points.fm))))


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
                      equilibria=()):
    """Solve on the grid family X_alpha and tabulate errors and ratios."""
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
        cset, gram = assemble(system, kernel, make_grid(specs[alpha]))
        try:
            solution = solve(gram, rhs, cset, kernel)
        except FactorizationError as err:
            raise FactorizationError(f"alpha={alpha}: {err}", pivot=err.pivot) from err
        del gram        # the error evaluation does not need it
        errors[alpha] = error_report(solution, exact, check)
    first = errors[alphas[0]]
    rows = [ConvergenceRow(alphas[0], first[1], None, first[0], None)]
    for coarse, fine in zip(alphas, alphas[1:]):
        (e0, s0), (e1, s1) = errors[coarse], errors[fine]
        rows.append(ConvergenceRow(fine, s1, s0 / s1, e1, e0 / e1))
    reference = 2.0 ** (kernel.sigma - 1.0 - system.dim / 2.0)
    return ConvergenceReport(rows=tuple(rows), reference_ratio=reference)


def ellipse_points(x, s_x, level, count):
    """Points v on the metric ellipse (v - x)^T S(x) (v - x) = level.

    Parametrised through the eigendecomposition of the positive definite
    2 x 2 matrix s_x; raises ValueError otherwise or for non-finite x or
    level, FloatingPointError when a sample overflows.
    """
    x = np.asarray(x, dtype=float)
    s_x = np.asarray(s_x, dtype=float)
    if s_x.shape != (2, 2):
        raise ValueError(f"ellipse sampling is two-dimensional, got shape {s_x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"anchor must be finite, got {x.tolist()}")
    if not 0.0 < level < np.inf:
        raise ValueError(f"level must be positive and finite, got {level}")
    if count < 1:
        raise ValueError(f"need at least one sample, got {count}")
    eigenvalues, eigenvectors = np.linalg.eigh(0.5 * (s_x + s_x.T))
    if eigenvalues[0] <= 0.0:
        raise ValueError(f"matrix is not positive definite (eigenvalues {eigenvalues.tolist()})")
    angles = 2.0 * np.pi * np.arange(count) / count
    with np.errstate(over="raise"):      # FloatingPointError; then x + v cannot overflow
        radial = np.sqrt(level / eigenvalues)
    local = np.stack([radial[0] * np.cos(angles), radial[1] * np.sin(angles)])
    return x + (eigenvectors @ local).T
