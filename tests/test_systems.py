"""Built-in linear system, equilibrium checks, and the registry."""

import numpy as np
import pytest

import conmet
from conmet import (
    DynamicalSystem,
    check_equilibrium_condition,
    get_system,
    linear_example,
    register_system,
    systems,
)
from conmet.operator import apply_operator
from conmet.systems import jacobian_consistency

# roots of lambda^2 + 3 lambda + 1, the characteristic polynomial of
# [[-1, 1], [1, -2]]
EIG_SLOW = (-3.0 + np.sqrt(5.0)) / 2.0
EIG_FAST = (-3.0 - np.sqrt(5.0)) / 2.0


def test_linear_example_rhs_and_metric():
    system, exact, rhs = linear_example()
    assert system.dim == 2
    assert np.array_equal(rhs, np.eye(2))
    x = np.array([[0.7, -0.2], [0.1, 0.3], [-2.0, 5.0]])
    assert np.array_equal(exact.value(x), [[[1.0, 0.5], [0.5, 0.5]]] * 3)
    assert np.array_equal(exact.gradient(x), np.zeros((3, 2, 2, 2)))


def test_linear_example_field_values():
    system, _, _ = linear_example()
    assert np.array_equal(system.f(np.zeros(2)[None])[0], np.zeros(2))
    assert np.array_equal(system.f(np.array([1.0, 1.0])[None])[0], np.array([0.0, -1.0]))
    assert np.array_equal(system.jacobian(np.zeros(2)[None])[0], [[-1.0, 1.0], [1.0, -2.0]])


def test_linear_example_lyapunov_identity():
    # Df^T M + M Df = -I for the stated constant metric (direct product)
    system, exact, _ = linear_example()
    jac = system.jacobian(np.zeros(2)[None])[0]
    m = exact.value(np.zeros((1, 2)))[0]
    assert np.allclose(jac.T @ m + m @ jac, -np.eye(2), rtol=0, atol=1e-15)


def test_linear_example_operator_identity_random_points():
    # the full operator on the exact metric gives -I everywhere
    system, exact, rhs = linear_example()
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, (50, 2))
    images = apply_operator(exact.value(pts), exact.gradient(pts),
                            system.f(pts), system.jacobian(pts))
    for image in images:
        assert np.allclose(image, -rhs, rtol=0, atol=1e-14)


def test_jacobian_consistency_builtin():
    system, _, _ = linear_example()
    rng = np.random.default_rng(1)
    assert jacobian_consistency(system, rng.uniform(-1, 1, (5, 2))) < 1e-6


def test_jacobian_consistency_rejects_wrong_jacobian():
    wrong = DynamicalSystem(
        2,
        f=lambda x: np.column_stack([np.sin(x[:, 0]), x[:, 0] * x[:, 1]]),
        jacobian=lambda x: np.tile(np.eye(2), (len(x), 1, 1)),
        label="broken",
    )
    with pytest.raises(ValueError, match="deviates"):
        jacobian_consistency(wrong, [np.array([0.4, 0.8])])


def test_check_equilibrium_linear_example():
    system, _, _ = linear_example()
    eigs = sorted(np.real(check_equilibrium_condition(system, np.zeros(2), "stable")))
    assert eigs[0] == pytest.approx(EIG_FAST, rel=1e-12)
    assert eigs[1] == pytest.approx(EIG_SLOW, rel=1e-12)


def _constant_system(matrix):
    matrix = np.asarray(matrix, dtype=float)
    return DynamicalSystem(
        len(matrix),
        f=lambda x, a=matrix: x @ a.T,
        jacobian=lambda x, a=matrix: np.tile(a, (len(x), 1, 1)),
    )


def test_check_equilibrium_identity_jacobian_not_stable():
    system = _constant_system(np.eye(2))
    with pytest.raises(ValueError, match=r"^equilibrium \[0\.0, 0\.0\] fails the stable "
                                         r"eigenvalue condition: \[1\.0, 1\.0\]$"):
        check_equilibrium_condition(system, np.zeros(2), "stable")
    assert np.array_equal(check_equilibrium_condition(system, np.zeros(2), "unstable"),
                          [1.0, 1.0])


def test_check_equilibrium_minus_identity_stable():
    system = _constant_system(-np.eye(2))
    assert np.array_equal(check_equilibrium_condition(system, np.zeros(2), "stable"),
                          [-1.0, -1.0])
    with pytest.raises(ValueError, match="fails the unstable eigenvalue condition"):
        check_equilibrium_condition(system, np.zeros(2), "unstable")


def test_check_equilibrium_rejects_non_equilibrium():
    system, _, _ = linear_example()
    with pytest.raises(ValueError, match="not an equilibrium"):
        check_equilibrium_condition(system, np.array([1.0, 0.0]))


def test_check_equilibrium_indeterminate_flagged():
    # real parts within 1e-12 of zero fail either sign: purely imaginary
    # eigenvalues, and a real pair inside the tolerance
    for matrix in ([[0.0, 1.0], [-1.0, 0.0]], np.diag([-1.0, -1e-13]), np.diag([1.0, 1e-13])):
        for sign in ("stable", "unstable"):
            with pytest.raises(ValueError, match="eigenvalue condition"):
                check_equilibrium_condition(_constant_system(matrix), np.zeros(2), sign)


def test_check_equilibrium_rejects_unknown_sign():
    system, _, _ = linear_example()
    with pytest.raises(ValueError, match="stability_sign"):
        check_equilibrium_condition(system, np.zeros(2), "oscillatory")


def test_registry_builtin_present():
    assert "linear-example" in systems._REGISTRY
    bundle = get_system("linear-example")
    assert bundle.exact is not None
    assert np.array_equal(bundle.rhs, np.eye(2))
    (x0, sign), = bundle.equilibria
    assert np.array_equal(x0, np.zeros(2)) and sign == "stable"


def test_registry_unknown_name_lists_known():
    with pytest.raises(ValueError, match="linear-example"):
        get_system("no-such-system")


def test_registry_rejects_duplicates_and_bad_jacobians():
    system, _, _ = linear_example()
    with pytest.raises(ValueError, match="already registered"):
        register_system("linear-example", system)
    wrong = DynamicalSystem(
        2,
        f=lambda x: np.column_stack([np.sin(x[:, 0]), x[:, 1] ** 2]),
        jacobian=lambda x: np.zeros((len(x), 2, 2)),
    )
    with pytest.raises(ValueError, match="deviates"):
        register_system("broken-system", wrong)
    assert "broken-system" not in systems._REGISTRY


def _per_point_linear_example():
    """The built-in system with callbacks written for one point x of shape
    (2,); on a batch they index its first two rows."""
    a = np.array([[-1.0, 1.0], [1.0, -2.0]])
    return DynamicalSystem(2, f=lambda x: np.array([-x[0] + x[1], x[0] - 2.0 * x[1]]),
                           jacobian=lambda x: a.copy(), label="per-point")


def test_per_point_callbacks_are_rejected_with_their_shapes():
    per_point = _per_point_linear_example()
    with pytest.raises(ValueError, match=r"f of shape \(2, 2\) and Df of shape \(2, 2\) "
                                         r"at 5 points, expected \(5, 2\) and \(5, 2, 2\)"):
        register_system("per-point", per_point)
    assert "per-point" not in systems._REGISTRY
    with pytest.raises(ValueError, match=r"expected \(3, 2\) and \(3, 2, 2\)"):
        conmet.collocation_data(per_point, np.zeros((3, 2)))
    with pytest.raises(ValueError, match=r"points have shape \(3, 3\), system dimension is 2"):
        conmet.collocation_data(linear_example()[0], np.zeros((3, 3)))


def test_callbacks_are_called_once_per_point_set():
    system, _, _ = linear_example()
    calls = []

    def counted(name, fn):
        def wrapper(points):
            calls.append((name, points.shape))
            return fn(points)
        return wrapper

    counted_system = DynamicalSystem(2, counted("f", system.f),
                                     counted("jacobian", system.jacobian))
    conmet.collocation_data(counted_system, np.zeros((7, 2)))
    assert calls == [("f", (7, 2)), ("jacobian", (7, 2))]
    calls.clear()
    # the points, then their 2 * dim shifted copies
    jacobian_consistency(counted_system, np.zeros((5, 2)))
    assert calls == [("f", (5, 2)), ("jacobian", (5, 2)), ("f", (20, 2)), ("jacobian", (20, 2))]
    calls.clear()
    check_equilibrium_condition(counted_system, np.zeros(2))
    assert calls == [("f", (1, 2)), ("jacobian", (1, 2))]


def test_register_and_lookup_roundtrip():
    a = np.array([[-2.0, 0.0], [0.0, -3.0]])
    name = "test-diagonal-system"
    if name not in systems._REGISTRY:
        register_system(name, _constant_system(a), equilibria=((np.zeros(2), "stable"),))
    bundle = get_system(name)
    assert np.array_equal(bundle.system.jacobian(np.zeros(2)[None])[0], a)
    assert bundle.exact is None and bundle.rhs is None


def test_system_dimension_validation():
    with pytest.raises(ValueError):
        DynamicalSystem(0, f=lambda x: x, jacobian=lambda x: x)
