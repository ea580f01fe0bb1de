"""Operator action on fields and kernel representers vs independent oracles.

The closed forms under test are checked against finite-difference application
of the raw operator  J^T M + M J + (grad M . f)  to explicitly evaluated
matrix fields.  The oracle applies the raw formula directly (the kernel
columns E_mu_nu are not symmetric, so the symmetric-field entry point with
its symmetry contract cannot serve as the oracle here).
"""

import itertools

import numpy as np
import pytest

import conmet
from conmet import linear_example, wendland_c8
from conmet.operator import apply_operator, coordinate_matrices, pairwise_scalars
from oracles import (
    CollocationPointData,
    FunctionalIndex,
    column_representer_matrix,
    gram_entry,
    pairwise_scalars_by_expression,
    phi,
    representer_column,
    riesz_representer,
    row_operator_matrix,
    triangle_indices,
)

FD_STEP = 1e-6


def _point_data(system, x):
    x = np.asarray(x, dtype=float)
    return CollocationPointData(x, np.asarray(system.f(x[None])[0], float),
                                np.asarray(system.jacobian(x[None])[0], float))


def _raw_operator(jac, value, orbital):
    return jac.T @ value + value @ jac + orbital


def _fd_gradient(field, x, h=FD_STEP):
    """Componentwise central differences of a matrix field R^d -> R^{nxn}."""
    x = np.asarray(x, dtype=float)
    first = np.asarray(field(x), float)
    grad = np.empty(first.shape + (x.size,))
    for a in range(x.size):
        e = np.zeros_like(x)
        e[a] = h
        grad[..., a] = (np.asarray(field(x + e), float)
                        - np.asarray(field(x - e), float)) / (2.0 * h)
    return grad


def _fd_apply(system, field, x):
    """Operator applied to a matrix field with finite-difference gradients."""
    x = np.asarray(x, dtype=float)
    jac = np.asarray(system.jacobian(x[None])[0], float)
    fx = np.asarray(system.f(x[None])[0], float)
    return _raw_operator(jac, np.asarray(field(x), float), _fd_gradient(field, x) @ fx)


def _apply_at(system, value, gradients, x):
    """apply_operator on a stack of one point."""
    x = np.asarray(x, dtype=float)
    return apply_operator(np.asarray(value)[None], np.asarray(gradients)[None],
                          system.f(x[None]), system.jacobian(x[None]))[0]


# -- apply_operator -----------------------------------------------------------

def test_apply_operator_zero_field():
    system, _, _ = linear_example()
    out = _apply_at(system, np.zeros((2, 2)), np.zeros((2, 2, 2)), np.zeros(2))
    assert np.array_equal(out, np.zeros((2, 2)))


def test_apply_operator_constant_metric_gives_minus_identity():
    system, exact, _ = linear_example()
    x = np.array([0.3, 0.8])
    out = _apply_at(system, exact.value(x[None])[0], exact.gradient(x[None])[0], x)
    assert np.allclose(out, -np.eye(2), rtol=0, atol=1e-14)


def test_apply_operator_scalar_profile_field():
    # M(x) = g(x) I with quadratic g: closed form and orbital finite
    # differences of t -> M(x + t f(x)) must both match
    system, _, _ = linear_example()
    rng = np.random.default_rng(2)

    def g(x):
        return 1.0 + x[0] ** 2 + 0.5 * x[0] * x[1]

    def grad_g(x):
        return np.array([2.0 * x[0] + 0.5 * x[1], 0.5 * x[0]])

    for _ in range(10):
        x = rng.uniform(-1, 1, 2)
        jac = system.jacobian(x[None])[0]
        fx = system.f(x[None])[0]
        gradients = np.einsum("ij,d->ijd", np.eye(2), grad_g(x))
        out = _apply_at(system, g(x) * np.eye(2), gradients, x)
        expected = g(x) * (jac.T + jac) + (grad_g(x) @ fx) * np.eye(2)
        assert np.allclose(out, expected, rtol=1e-13, atol=1e-13)
        t = 1e-6
        orbital_fd = (g(x + t * fx) - g(x - t * fx)) / (2.0 * t) * np.eye(2)
        assert np.allclose(out, g(x) * (jac.T + jac) + orbital_fd,
                           rtol=1e-6, atol=1e-8)


def test_apply_operator_linearity():
    system, _, _ = linear_example()
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, 2)
    a, b = 1.7, -0.4
    val1, val2 = (rng.random((2, 2)) for _ in range(2))
    val1, val2 = val1 + val1.T, val2 + val2.T
    grad1, grad2 = (rng.random((2, 2, 2)) for _ in range(2))
    grad1 = grad1 + grad1.transpose(1, 0, 2)
    grad2 = grad2 + grad2.transpose(1, 0, 2)
    combined = _apply_at(system, a * val1 + b * val2, a * grad1 + b * grad2, x)
    separate = (a * _apply_at(system, val1, grad1, x)
                + b * _apply_at(system, val2, grad2, x))
    assert np.allclose(combined, separate, rtol=1e-13, atol=1e-13)


def test_apply_operator_rejects_asymmetric_input():
    system, _, _ = linear_example()
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        _apply_at(system, bad, np.zeros((2, 2, 2)), np.zeros(2))
    bad_grad = np.zeros((2, 2, 2))
    bad_grad[0, 1, 0] = 1.0
    with pytest.raises(ValueError, match="gradients"):
        _apply_at(system, np.eye(2), bad_grad, np.zeros(2))


def test_apply_operator_stack_matches_pointwise_formula():
    # every slice of a stacked call is J^T M + M J + (grad M . f) at its point
    system, _, _ = linear_example()
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, (7, 2))
    values = rng.random((7, 2, 2))
    values = values + values.transpose(0, 2, 1)
    grads = rng.random((7, 2, 2, 2))
    grads = grads + grads.transpose(0, 2, 1, 3)
    f_values, jacobians = system.f(pts), system.jacobian(pts)
    out = apply_operator(values, grads, f_values, jacobians)
    for e in range(7):
        expected = _raw_operator(jacobians[e], values[e], grads[e] @ f_values[e])
        assert np.allclose(out[e], expected, rtol=1e-14, atol=1e-14)
    bad = values.copy()
    bad[4, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="not symmetric"):
        apply_operator(bad, grads, f_values, jacobians)
    with pytest.raises(ValueError, match="wrong shape"):
        apply_operator(values[:6], grads, f_values, jacobians)


@pytest.mark.parametrize("n", [2, 3])
def test_coordinate_matrices_match_loop_oracle(n):
    rng = np.random.default_rng(7 + n)
    jacobians = rng.normal(size=(20, n, n))
    row, col, scale = coordinate_matrices(jacobians)
    pairs = triangle_indices(n)
    assert np.array_equal(scale, [1.0 if i == j else 0.5 for i, j in pairs])
    for k, jac in enumerate(jacobians):
        assert np.array_equal(row[k], row_operator_matrix(jac, pairs))
        assert np.array_equal(col[k], column_representer_matrix(jac, pairs))


def test_functional_index_validation():
    FunctionalIndex(0, 0, 1)
    with pytest.raises(ValueError):
        FunctionalIndex(0, 1, 0)
    with pytest.raises(ValueError):
        FunctionalIndex(-1, 0, 0)


def test_triangle_indices_order():
    # the oracles' functional order is the order of np.triu_indices, which
    # the Gram, solve's beta and the beta.csv columns use
    assert triangle_indices(2) == ((0, 0), (0, 1), (1, 1))
    assert triangle_indices(3) == ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    for n in range(1, 5):
        assert tuple(zip(*(idx.tolist() for idx in np.triu_indices(n)))) == triangle_indices(n)


# -- representer column -------------------------------------------------------

def test_representer_column_outside_support():
    system, _, _ = linear_example()
    kern = wendland_c8(0.9)
    data = _point_data(system, [0.2, -0.1])
    far = data.x + np.array([kern.support_radius + 0.01, 0.0])
    for mu, nu in itertools.product(range(2), range(2)):
        assert np.array_equal(representer_column(kern, data, far, mu, nu),
                              np.zeros((2, 2)))


def test_representer_column_index_range():
    system, _, _ = linear_example()
    kern = wendland_c8(0.9)
    data = _point_data(system, [0.0, 0.0])
    with pytest.raises(ValueError):
        representer_column(kern, data, np.zeros(2), 0, 2)
    with pytest.raises(ValueError):
        representer_column(kern, data, np.zeros(2), -1, 0)


def test_representer_column_symmetry_pairing():
    # H^(mu,nu)[i, j] == H^(nu,mu)[j, i] for all index combinations
    system, _, _ = linear_example()
    kern = wendland_c8(0.9)
    rng = np.random.default_rng(4)
    for _ in range(100):
        data = _point_data(system, rng.uniform(-1, 1, 2))
        x = data.x + rng.uniform(-0.9, 0.9, 2)
        columns = {(mu, nu): representer_column(kern, data, x, mu, nu)
                   for mu, nu in itertools.product(range(2), range(2))}
        for mu, nu, i, j in itertools.product(range(2), repeat=4):
            assert columns[(mu, nu)][i, j] == pytest.approx(
                columns[(nu, mu)][j, i], abs=1e-13)


def test_representer_column_vs_bruteforce_operator():
    system, _, _ = linear_example()
    kern = wendland_c8(0.9)
    rng = np.random.default_rng(6)
    for _ in range(25):
        data = _point_data(system, rng.uniform(-1, 1, 2))
        x = data.x + rng.uniform(-0.7, 0.7, 2)
        for mu, nu in itertools.product(range(2), range(2)):
            basis = np.zeros((2, 2))
            basis[mu, nu] = 1.0
            oracle = _fd_apply(system, lambda y: phi(kern, y, x) * basis, data.x)
            ours = representer_column(kern, data, x, mu, nu)
            assert np.allclose(ours, oracle, rtol=1e-6, atol=1e-6)


# -- Riesz representer --------------------------------------------------------

def test_riesz_representer_outside_support():
    system, _, _ = linear_example()
    kern = wendland_c8(0.9)
    data = _point_data(system, [0.5, 0.5])
    far = data.x + np.array([0.0, 2.0])
    out = riesz_representer(kern, data, FunctionalIndex(0, 0, 1), far)
    assert np.array_equal(out, np.zeros((2, 2)))


def test_riesz_representer_is_exactly_symmetric():
    system, _, _ = linear_example()
    kern = wendland_c8(0.9)
    rng = np.random.default_rng(9)
    for _ in range(20):
        data = _point_data(system, rng.uniform(-1, 1, 2))
        x = data.x + rng.uniform(-0.8, 0.8, 2)
        for i, j in triangle_indices(2):
            v = riesz_representer(kern, data, FunctionalIndex(0, i, j), x)
            assert np.array_equal(v, v.T)


def test_riesz_representer_matches_column_expansion():
    # v = sum_mu H^(mu,mu)_ij E_mu_mu + 1/2 sum_{mu != nu} [H^(mu,nu)_ij +
    # H^(nu,mu)_ij] E_mu_nu, the expansion over the symmetric basis
    system, _, _ = linear_example()
    kern = wendland_c8(0.9)
    rng = np.random.default_rng(10)
    for _ in range(30):
        data = _point_data(system, rng.uniform(-1, 1, 2))
        x = data.x + rng.uniform(-0.8, 0.8, 2)
        for i, j in triangle_indices(2):
            expansion = np.zeros((2, 2))
            for mu, nu in itertools.product(range(2), range(2)):
                h_ij = representer_column(kern, data, x, mu, nu)[i, j]
                if mu == nu:
                    expansion[mu, mu] += h_ij
                else:
                    expansion[mu, nu] += 0.5 * h_ij
                    expansion[nu, mu] += 0.5 * h_ij
            v = riesz_representer(kern, data, FunctionalIndex(0, i, j), x)
            assert np.allclose(v, expansion, rtol=0, atol=1e-13)


def test_riesz_representer_zero_for_zero_field_data():
    # linearity: a point with f = 0 and J = 0 has a pure-value representer
    kern = wendland_c8(0.9)
    data = CollocationPointData(np.zeros(2), np.zeros(2), np.zeros((2, 2)))
    out = riesz_representer(kern, data, FunctionalIndex(0, 0, 0), np.array([0.3, 0.0]))
    assert np.array_equal(out, np.zeros((2, 2)))


# -- Gram entries -------------------------------------------------------------

def test_gram_entry_swap_symmetry():
    system, _, _ = linear_example()
    kern = wendland_c8(0.9)
    rng = np.random.default_rng(12)
    pairs = triangle_indices(2)
    for _ in range(40):
        data_l = _point_data(system, rng.uniform(-1, 1, 2))
        data_k = _point_data(system, data_l.x + rng.uniform(-0.8, 0.8, 2))
        il = FunctionalIndex(0, *pairs[rng.integers(3)])
        ik = FunctionalIndex(1, *pairs[rng.integers(3)])
        a = gram_entry(kern, data_l, il, data_k, ik)
        b = gram_entry(kern, data_k, ik, data_l, il)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_gram_entry_outside_support_is_zero():
    system, _, _ = linear_example()
    kern = wendland_c8(0.9)
    data_l = _point_data(system, [0.0, 0.0])
    data_k = _point_data(system, [kern.support_radius + 1e-9, 0.0])
    idx = FunctionalIndex(0, 0, 1)
    assert gram_entry(kern, data_l, idx, data_k, idx) == 0.0


def test_gram_entry_diagonal_positive():
    # diagonal entries are squared representer norms
    system, _, _ = linear_example()
    kern = wendland_c8(0.9)
    rng = np.random.default_rng(14)
    for _ in range(10):
        data = _point_data(system, rng.uniform(-1, 1, 2))
        for i, j in triangle_indices(2):
            idx = FunctionalIndex(0, i, j)
            assert gram_entry(kern, data, idx, data, idx) > 0.0


def test_gram_entry_vs_fd_double_application():
    # row functional applied with finite differences to the representer field
    system, _, _ = linear_example()
    kern = wendland_c8(0.9)
    rng = np.random.default_rng(16)
    pairs = triangle_indices(2)
    for _ in range(15):
        data_l = _point_data(system, rng.uniform(-1, 1, 2))
        data_k = _point_data(system, data_l.x + rng.uniform(-0.7, 0.7, 2))
        for pl, pk in itertools.product(pairs, pairs):
            il = FunctionalIndex(0, *pl)
            ik = FunctionalIndex(1, *pk)
            field = lambda y: riesz_representer(kern, data_k, ik, y)
            oracle = _fd_apply(system, field, data_l.x)[il.i, il.j]
            ours = gram_entry(kern, data_l, il, data_k, ik)
            assert ours == pytest.approx(oracle, rel=1e-5, abs=1e-5)


def test_gram_entry_coincident_points_uses_origin_limits():
    # l == k with f != 0 exercises the psi1(0), psi2(0) extensions
    system, _, _ = linear_example()
    kern = wendland_c8(0.9)
    data = _point_data(system, [0.4, -0.3])
    idx = FunctionalIndex(0, 0, 0)
    value = gram_entry(kern, data, idx, data, idx)
    oracle = _fd_apply(system, lambda y: riesz_representer(kern, data, idx, y),
                       data.x)[0, 0]
    assert value == pytest.approx(oracle, rel=1e-5)


def test_representer_machinery_generalizes_to_3d():
    rng = np.random.default_rng(18)
    a = np.array([[-1.0, 0.5, 0.0], [0.0, -2.0, 0.3], [0.2, 0.0, -1.5]])
    system = conmet.DynamicalSystem(3, lambda x: x @ a.T, lambda x: np.tile(a, (len(x), 1, 1)))
    kern = wendland_c8(0.9)
    data = _point_data(system, rng.uniform(-0.5, 0.5, 3))
    x = data.x + rng.uniform(-0.5, 0.5, 3)
    for mu, nu in itertools.product(range(3), range(3)):
        basis = np.zeros((3, 3))
        basis[mu, nu] = 1.0
        oracle = _fd_apply(system, lambda y: phi(kern, y, x) * basis, data.x)
        ours = representer_column(kern, data, x, mu, nu)
        assert np.allclose(ours, oracle, rtol=1e-6, atol=1e-6)


def test_pairwise_scalars_translation_invariant_far_from_origin():
    # the h = 1/8 grid shifted by 2^12: the four quantities depend only on
    # the point differences and the given f values, so they must not move
    kernel = wendland_c8(0.9)
    pts = conmet.make_grid(conmet.GridSpec(((-1.0, 1.0), (-1.0, 1.0)), 0.125))
    f = np.random.default_rng(5).standard_normal(pts.shape)
    near, far = (pairwise_scalars(kernel, 0.5 * (p.min(axis=0) + p.max(axis=0)), p, f, p, f)
                 for p in (pts, pts + 2.0 ** 12))           # centred on the grid's midpoint
    for name, a, b in zip(("psi", "theta", "g2", "h"), near, far):
        assert np.max(np.abs(b - a)) <= 1e-14 * np.max(np.abs(a)), name


@pytest.mark.parametrize("shift", [(0.0, 0.0), (3.7, -1.3), (-1000.1, 2.0 ** 12 + 0.3)])
def test_pairwise_scalars_equal_expression_oracle_bit_for_bit(shift):
    # the in-place forms of h, theta and g2 round exactly like the expressions;
    # random, non-dyadic point sets, shifted, with pairs around the support edge
    kernel = wendland_c8(0.9)
    rng = np.random.default_rng(41)
    rows = rng.uniform(-1.3, 1.3, (37, 2))
    cols = np.concatenate([rng.uniform(-1.7, 1.7, (53, 2)),
                           rows[:5] + kernel.support_radius * np.array([[0.6, 0.8]])])
    rows, cols = rows + shift, cols + shift
    row_f, col_f = rng.standard_normal(rows.shape), rng.standard_normal(cols.shape)
    centre = 0.5 * (cols.min(axis=0) + cols.max(axis=0))
    ours = pairwise_scalars(kernel, centre, rows, row_f, cols, col_f)
    oracle = pairwise_scalars_by_expression(kernel, centre, rows, row_f, cols, col_f)
    assert np.count_nonzero(ours[0]) not in (0, ours[0].size)
    for name, a, b in zip(("psi", "theta", "g2", "h"), ours, oracle):
        assert np.array_equal(a, b), name
