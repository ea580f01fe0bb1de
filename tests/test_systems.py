"""Built-in linear system, equilibrium checks, and the registry."""

import numpy as np
import pytest

import conmet
from conmet import (
    DynamicalSystem,
    apply_operator,
    check_equilibrium_condition,
    get_system,
    jacobian_consistency,
    linear_example,
    register_system,
    registered_systems,
)

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
    assert np.array_equal(system.f(np.zeros(2)), np.zeros(2))
    assert np.array_equal(system.f(np.array([1.0, 1.0])), np.array([0.0, -1.0]))
    assert np.array_equal(system.jacobian(np.zeros(2)), [[-1.0, 1.0], [1.0, -2.0]])


def test_linear_example_lyapunov_identity():
    # Df^T M + M Df = -I for the stated constant metric (direct product)
    system, exact, _ = linear_example()
    jac = system.jacobian(np.zeros(2))
    m = exact.value(np.zeros((1, 2)))[0]
    assert np.allclose(jac.T @ m + m @ jac, -np.eye(2), rtol=0, atol=1e-15)


def test_linear_example_operator_identity_random_points():
    # the full operator on the exact metric gives -I everywhere
    system, exact, rhs = linear_example()
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, (50, 2))
    images = apply_operator(exact.value(pts), exact.gradient(pts),
                            [system.f(x) for x in pts], [system.jacobian(x) for x in pts])
    for image in images:
        assert np.allclose(image, -rhs, rtol=0, atol=1e-14)


def test_jacobian_consistency_builtin():
    system, _, _ = linear_example()
    rng = np.random.default_rng(1)
    assert jacobian_consistency(system, rng.uniform(-1, 1, (5, 2))) < 1e-6


def test_jacobian_consistency_rejects_wrong_jacobian():
    wrong = DynamicalSystem(
        2,
        f=lambda x: np.array([np.sin(x[0]), x[0] * x[1]]),
        jacobian=lambda x: np.eye(2),
        label="broken",
    )
    with pytest.raises(ValueError, match="deviates"):
        jacobian_consistency(wrong, [np.array([0.4, 0.8])])


def test_check_equilibrium_linear_example():
    system, _, _ = linear_example()
    result = check_equilibrium_condition(system, np.zeros(2), "stable")
    assert result.satisfied and not result.indeterminate
    eigs = sorted(np.real(result.eigenvalues))
    assert eigs[0] == pytest.approx(EIG_FAST, rel=1e-12)
    assert eigs[1] == pytest.approx(EIG_SLOW, rel=1e-12)


def _constant_system(matrix):
    matrix = np.asarray(matrix, dtype=float)
    return DynamicalSystem(
        len(matrix),
        f=lambda x, a=matrix: a @ x,
        jacobian=lambda x, a=matrix: a.copy(),
    )


def test_check_equilibrium_identity_jacobian_not_stable():
    system = _constant_system(np.eye(2))
    result = check_equilibrium_condition(system, np.zeros(2), "stable")
    assert not result.satisfied
    assert check_equilibrium_condition(system, np.zeros(2), "unstable").satisfied


def test_check_equilibrium_minus_identity_stable():
    system = _constant_system(-np.eye(2))
    assert check_equilibrium_condition(system, np.zeros(2), "stable").satisfied


def test_check_equilibrium_rejects_non_equilibrium():
    system, _, _ = linear_example()
    with pytest.raises(ValueError, match="not an equilibrium"):
        check_equilibrium_condition(system, np.array([1.0, 0.0]))


def test_check_equilibrium_indeterminate_flagged():
    # purely imaginary eigenvalues: real parts within tolerance of zero
    system = _constant_system([[0.0, 1.0], [-1.0, 0.0]])
    result = check_equilibrium_condition(system, np.zeros(2), "stable")
    assert result.indeterminate and not result.satisfied


def test_check_equilibrium_rejects_unknown_sign():
    system, _, _ = linear_example()
    with pytest.raises(ValueError, match="stability_sign"):
        check_equilibrium_condition(system, np.zeros(2), "oscillatory")


def test_registry_builtin_present():
    assert "linear-example" in registered_systems()
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
        f=lambda x: np.array([np.sin(x[0]), x[1] ** 2]),
        jacobian=lambda x: np.zeros((2, 2)),
    )
    with pytest.raises(ValueError, match="deviates"):
        register_system("broken-system", wrong)
    assert "broken-system" not in registered_systems()


def test_register_and_lookup_roundtrip():
    a = np.array([[-2.0, 0.0], [0.0, -3.0]])
    name = "test-diagonal-system"
    if name not in registered_systems():
        register_system(name, _constant_system(a), equilibria=((np.zeros(2), "stable"),))
    bundle = get_system(name)
    assert np.array_equal(bundle.system.jacobian(np.zeros(2)), a)
    assert bundle.exact is None and bundle.rhs is None


def test_system_dimension_validation():
    with pytest.raises(ValueError):
        DynamicalSystem(0, f=lambda x: x, jacobian=lambda x: x)
