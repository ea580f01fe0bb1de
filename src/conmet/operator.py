"""The first-order matrix PDE operator and its action on the tensor kernel.

The operator acting on a symmetric matrix field M is

    (L M)(x) = Df(x)^T M(x) + M(x) Df(x) + M'(x),
    (M'(x))_ij = grad M_ij(x) . f(x),

and the collocation functionals pick single entries of L M at the collocation
points.  This module owns the two pieces every Gram entry and every value of
S and L(S) are built from:

- the batched operator application, operator_image, which is the one place
  the zero-order part Df^T M + M Df is formed; apply_operator validates
  user-supplied fields and feeds it, and the coordinate matrices of the
  assembly and the coefficient images of the evaluation reuse it;
- the pairwise engine, pairwise_scalars, which for row points x_l and column
  points x_k returns the four kernel quantities

      psi   = psi(r),                     r = |x_k - x_l|,
      theta = psi1(r) <x_k - x_l, f_k>,
      g2    = -psi1(r) <x_k - x_l, f_l>,
      h     = -psi2(r) <x_k - x_l, f_k> <x_k - x_l, f_l> - psi1(r) <f_l, f_k>.

With Q_ij the symmetrised unit matrix (E_ij + E_ji)/2 for i != j and E_ii on
the diagonal, the Riesz representer of the (k, i, j) functional at x_l is
psi (J_k Q_ij + Q_ij J_k^T) + theta Q_ij, and applying the row functional
(l, p, q) to it adds g2 (J_k Q_ij + Q_ij J_k^T) + h Q_ij to the zero-order
image of that value under J_l.  Assembly uses rows = columns = nodes;
evaluation uses rows = query points, where the same four numbers give S and
L(S) as sums over the nodes.  All four vanish once r >= 1/c, and near_box is
the one test both callers use to leave such pairs out of the engine: it keeps
the points within the support radius of a box around a group of rows.

Both also cut their work by one rule, block_rows, and run the blocks with
run_blocks on a pool of block_workers threads, each writing into a workspace
it keeps for that call only; the cuts ignore the worker count and each block
writes only its own output, so the results do not depend on it.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.spatial.distance import cdist

__all__ = [
    "operator_image",
    "apply_operator",
    "pairwise_scalars",
    "near_box",
    "coordinate_matrices",
]

_SYMMETRY_TOL = 1e-12
_SUPPORT_MARGIN = 1e-12
_BLOCK_BYTES = 1 << 20          # one (rows, columns) float64 array of a block
PAIRWISE_SLOTS = 6              # rows of pairwise_scalars' work: profile_values' six


def operator_image(values, orbital, jacobians):
    """Df^T M + M Df + orbital over stacks of (n, n) matrices.

    values and jacobians broadcast against each other in their leading axes;
    orbital is the first-order part M' (an array, or 0.0 for none).
    """
    half = np.matmul(np.swapaxes(jacobians, -1, -2), values)
    out = half + np.swapaxes(half, -1, -2)
    out += orbital
    return out


def apply_operator(values, gradients, f_values, jacobians):
    """Apply the PDE operator to explicitly given matrix fields at E points.

    Parameters
    ----------
    values : (E, n, n) array
        Field values M(x_e), each symmetric within 1e-12.
    gradients : (E, n, n, n) array
        gradients[e, i, j] = grad M_ij(x_e), symmetric in (i, j) within 1e-12.
    f_values, jacobians : (E, n) and (E, n, n) arrays
        f(x_e) and Df(x_e).

    Returns the (E, n, n) stack Df^T M + M Df + (grad M . f).
    """
    values = np.asarray(values, dtype=float)
    gradients = np.asarray(gradients, dtype=float)
    f_values = np.asarray(f_values, dtype=float)
    jacobians = np.asarray(jacobians, dtype=float)
    e, n = f_values.shape
    if (values.shape != (e, n, n) or gradients.shape != (e, n, n, n)
            or jacobians.shape != (e, n, n)):
        raise ValueError(f"field data has wrong shape for {e} points in dimension {n}: "
                         f"{values.shape}, {gradients.shape}, {jacobians.shape}")
    if np.any(np.abs(values - values.transpose(0, 2, 1)) > _SYMMETRY_TOL):
        raise ValueError("field value is not symmetric")
    if np.any(np.abs(gradients - gradients.transpose(0, 2, 1, 3)) > _SYMMETRY_TOL):
        raise ValueError("field gradients are not symmetric in the component pair")
    values = 0.5 * (values + values.transpose(0, 2, 1))
    gradients = 0.5 * (gradients + gradients.transpose(0, 2, 1, 3))
    orbital = np.einsum("eijd,ed->eij", gradients, f_values)
    return operator_image(values, orbital, jacobians)


def pairwise_scalars(kernel, centre, rows, row_f, cols, col_f, work=None):
    """(psi, theta, g2, h) for every (row point, column point) pair.

    rows, cols are (L, d) and (K, d) point arrays with f values row_f, col_f;
    each result is an (L, K) array, exactly zero outside the kernel support.
    They are views into rows 0-3 of work, as in RadialKernel.profile_values
    but (PAIRWISE_SLOTS, >= L K).
    The inner products come from GEMMs, <x_k - c, f_k> - <x_l - c, f_k>, so
    no (L, K, d) difference array is formed.  With the centre c in the
    points' bounding box (callers pass CollocationSet.centre) both terms are
    at most its diameter times |f_k|, however far the box lies from the
    origin, so a translated point set loses no digits to cancellation.  The
    results depend on c only through rounding; c = 0 reproduces the plain
    GEMM form bit for bit.
    """
    rows = rows - centre
    cols = cols - centre
    work = np.empty((PAIRWISE_SLOTS, len(rows) * len(cols))) if work is None else work
    slot = [row[:len(rows) * len(cols)].reshape(len(rows), len(cols)) for row in work]
    # r becomes psi in place; dot_k, dot_l and f_dot reuse profile_values' scratch
    psi, psi1, psi2 = kernel.profile_values(cdist(rows, cols, out=slot[0]), work)
    dot_k = np.subtract(np.einsum("kd,kd->k", cols, col_f)[None, :],     # <x_k - x_l, f_k>
                        np.matmul(rows, col_f.T, out=slot[3]), out=slot[3])
    dot_l = np.matmul(row_f, cols.T, out=slot[4])                        # <x_k - x_l, f_l>
    dot_l -= np.einsum("ld,ld->l", rows, row_f)[:, None]
    # in place; -(a b) == (-a) b in round-to-nearest: the docstring's values, bit for bit
    psi2 *= dot_k
    psi2 *= dot_l
    h = np.negative(psi2, out=psi2)
    f_dot = np.matmul(row_f, col_f.T, out=slot[5])                       # <f_l, f_k>
    h -= np.multiply(f_dot, psi1, out=f_dot)
    dot_k *= psi1                                                        # theta
    g2 = np.multiply(dot_l, psi1, out=psi1)
    return psi, dot_k, np.negative(g2, out=g2), h


def near_box(points, box, radius):
    """Mask of the points that may lie within radius of a point of the box.

    box is the pair (lo, hi) of an axis-aligned box's corners.  A point is
    dropped only when its distance to the box exceeds radius (1 + 1e-12), so
    for radius = kernel.support_radius every dropped pair has t = c r >= 1
    however the distances round, and the kernel maps it to exactly 0.
    """
    lo, hi = box
    gap = np.maximum(lo - points, 0.0) + np.maximum(points - hi, 0.0)
    return ~(np.sqrt(np.einsum("kd,kd->k", gap, gap)) > radius * (1.0 + _SUPPORT_MARGIN))


def block_rows(columns):
    """Rows of a block whose (rows, columns) float64 arrays take _BLOCK_BYTES each."""
    return max(1, _BLOCK_BYTES // (8 * max(columns, 1)))


def block_workers(blocks):
    """Threads for the blocks: one per usable CPU and block, at most OMP_NUM_THREADS >= 1."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cap = os.environ.get("OMP_NUM_THREADS", "").strip()
    cap = int(cap) if cap.isdecimal() and int(cap) >= 1 else blocks
    return max(1, min(cpus or 1, cap, blocks))


def workspace_shape(blocks, slots, columns):
    """(workers, slots, length) of run_blocks' workspaces; a row fits blocks <= columns wide."""
    return block_workers(blocks), slots, max(_BLOCK_BYTES // 8, columns)


def run_blocks(work, blocks, slots, columns):
    """Call work(block, workspace) for every block on a pool of block_workers
    threads; a worker allocates its workspace at its first block."""
    blocks = list(blocks)
    workers, *shape = workspace_shape(len(blocks), slots, columns)
    local = threading.local()

    def task(block):
        if not hasattr(local, "workspace"):
            local.workspace = np.empty(shape)
        return work(block, local.workspace)

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(task, blocks))          # re-raises a block's error


def coordinate_matrices(jacobians):
    """Per-point matrices of the zero-order operator parts in triangle coordinates.

    Symmetric matrices are identified with their entries at np.triu_indices(n),
    the pairs (i, j), i <= j, in lexicographic order.
    For each Jacobian J_k (jacobians is (N, n, n)) returns

    - row[k], (m, m): maps the coordinates of W to those of J_k^T W + W J_k;
    - col[k], (m, m): column b holds the coordinates of J_k Q_b + Q_b J_k^T;

    plus scale, (m,), the coordinates of Q_b at b: 1 on a diagonal pair and
    1/2 off it.
    """
    jacobians = np.asarray(jacobians, dtype=float)
    n = jacobians.shape[-1]
    i, j = np.triu_indices(n)
    m = len(i)
    basis = np.zeros((m, n, n))              # E_ij + E_ji, or E_ii
    basis[np.arange(m), i, j] = 1.0
    basis[np.arange(m), j, i] = 1.0
    scale = np.where(i == j, 1.0, 0.5)
    jac = jacobians[:, None]
    row = operator_image(basis, 0.0, jac)[..., i, j]                     # [k, b, a]
    col = operator_image(scale[:, None, None] * basis, 0.0, np.swapaxes(jac, -1, -2))[..., i, j]
    return (np.ascontiguousarray(row.transpose(0, 2, 1)),
            np.ascontiguousarray(col.transpose(0, 2, 1)), scale)
