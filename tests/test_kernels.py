"""Kernel profile, derivative helpers, and their finite-difference oracles."""

import numpy as np
import pytest

from conmet import RadialKernel, wendland_c8
from oracles import grad1_phi, hess12_phi, phi, profile_values_by_helper

# Exact-rational evaluations of the printed C^8 profile at c = 0.9,
# computed offline with fractions.Fraction.
PSI_HALF = 1.6289783111603915      # psi(0.5)
PSI_03 = 9.6581043559154871        # psi(0.3)
PSI1_ZERO = -526.5                 # lim psi'(r)/r = -650 c^2
PSI1_04 = -99.747318115105415      # psi1(0.4)
PSI2_ZERO = 11258.676              # lim (psi'' - psi'/r)/r^2 = 17160 c^4
PSI2_07 = 56.84678997582683        # psi2(0.7)


@pytest.fixture(scope="module")
def kern():
    return wendland_c8(0.9)


def test_psi_at_zero_is_25_for_any_c():
    for c in (0.3, 0.9, 2.0, 11.0):
        assert wendland_c8(c).profile_values(0.0)[0] == 25.0


def test_psi_vanishes_at_and_beyond_support(kern):
    c = kern.shape_parameter
    assert kern.profile_values(1.0 / c)[0] == 0.0
    assert kern.profile_values(2.0 / c)[0] == 0.0


def test_psi_frozen_values(kern):
    assert kern.profile_values(0.5)[0] == pytest.approx(PSI_HALF, rel=1e-14)
    assert kern.profile_values(0.3)[0] == pytest.approx(PSI_03, rel=1e-14)


def test_invalid_shape_parameter():
    with pytest.raises(ValueError):
        wendland_c8(0.0)
    with pytest.raises(ValueError):
        wendland_c8(-1.2)


@pytest.mark.parametrize("c", [float("inf"), float("nan")])
def test_non_finite_shape_parameter_rejected(c):
    with pytest.raises(ValueError, match="positive and finite"):
        wendland_c8(c)


def test_shape_parameter_keeps_the_radial_quotients_finite():
    # psi2 = c^4 w(c r): c = 1e308 made c ** 4 raise OverflowError, and
    # c = 1e77 overflowed in profile_values
    for c in (1e308, 1e77, 1.31e75):
        with pytest.raises(ValueError, match="positive and finite, and below 1.305e"):
            wendland_c8(c)
    kern = wendland_c8(1.3e75)
    r = kern.support_radius * np.linspace(0.0, 1.0, 101)
    assert all(np.all(np.isfinite(values)) for values in kern.profile_values(r))


def test_sigma_and_support(kern):
    assert kern.sigma == 5.5
    assert kern.support_radius == pytest.approx(1.0 / 0.9)


def test_helpers_exactly_zero_outside_support(kern):
    rng = np.random.default_rng(7)
    r = kern.support_radius * (1.0 + 10.0 * rng.random(100))
    for values in kern.profile_values(r):
        assert np.all(values == 0.0)


def test_psi_positive_inside_support(kern):
    rng = np.random.default_rng(8)
    r = kern.support_radius * rng.random(200)
    assert np.all(kern.profile_values(r)[0] > 0.0)


def test_psi1_origin_limit():
    for c in (0.5, 0.9, 1.7):
        assert wendland_c8(c).profile_values(0.0)[1] == pytest.approx(-650.0 * c * c, rel=1e-14)
    assert wendland_c8(0.9).profile_values(0.0)[1] == pytest.approx(PSI1_ZERO, rel=1e-14)


def test_psi2_origin_limit():
    for c in (0.5, 0.9, 1.7):
        assert wendland_c8(c).profile_values(0.0)[2] == pytest.approx(17160.0 * c ** 4, rel=1e-13)
    assert wendland_c8(0.9).profile_values(0.0)[2] == pytest.approx(PSI2_ZERO, rel=1e-13)


def test_smoothness_at_origin(kern):
    # C^8 kernel: one-sided difference quotients of psi tend to psi'(0) = 0
    steps = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    quotients = np.abs((kern.profile_values(steps)[0] - kern.profile_values(0.0)[0]) / steps)
    assert np.all(np.diff(quotients) < 0)
    assert quotients[-1] < 1e-2


def test_psi1_frozen_and_fd(kern):
    assert kern.profile_values(0.4)[1] == pytest.approx(PSI1_04, rel=1e-13)
    h = 1e-6
    r = 0.4
    lo, hi = kern.profile_values(np.array([r - h, r + h]))[0]
    assert kern.profile_values(r)[1] == pytest.approx((hi - lo) / (2.0 * h * r), rel=1e-6)


def test_psi2_frozen_and_fd(kern):
    assert kern.profile_values(0.7)[2] == pytest.approx(PSI2_07, rel=1e-13)
    h = 1e-4
    r = 0.7
    lo, mid, hi = kern.profile_values(np.array([r - h, r, r + h]))[0]
    d2 = (hi - 2.0 * mid + lo) / h ** 2
    d1 = (hi - lo) / (2.0 * h)
    fd = (d2 - d1 / r) / r ** 2
    assert kern.profile_values(r)[2] == pytest.approx(fd, rel=1e-5)


def test_radial_helpers_fd_consistency_random(kern):
    rng = np.random.default_rng(21)
    radii = 0.05 + 0.85 * rng.random(100) * kern.support_radius
    h = 1e-6
    for r in radii:
        lo, hi = kern.profile_values(np.array([r - h, r + h]))[0]
        fd1 = (hi - lo) / (2.0 * h * r)
        assert kern.profile_values(r)[1] == pytest.approx(fd1, rel=1e-6, abs=1e-8)
    h = 1e-4
    for r in radii:
        lo, mid, hi = kern.profile_values(np.array([r - h, r, r + h]))[0]
        d2 = (hi - 2.0 * mid + lo) / h ** 2
        d1 = (hi - lo) / (2.0 * h)
        fd2 = (d2 - d1 / r) / r ** 2
        assert kern.profile_values(r)[2] == pytest.approx(fd2, rel=1e-5, abs=1e-6)


def test_profile_values_match_individual_helpers(kern):
    # each of psi, psi1, psi2 evaluated on its own over a 2-D radius array
    rng = np.random.default_rng(3)
    r = 2.0 * rng.random((40, 7))
    psi, psi1, psi2 = kern.profile_values(r)
    one_psi, one_psi1, one_psi2 = profile_values_by_helper(kern, r)
    assert np.array_equal(psi, one_psi)
    assert np.array_equal(psi1, one_psi1)
    assert np.array_equal(psi2, one_psi2)


@pytest.mark.parametrize("c", [0.9, 1.0 / 3.0, 7.3])
def test_profile_values_equal_per_helper_oracle_bit_for_bit(c):
    # powers of 1 - t formed in place must not change a single bit of psi, psi1, psi2;
    # radii on both sides of the support edge, some within rounding of it
    kern = wendland_c8(c)
    rng = np.random.default_rng(31)
    edge = kern.support_radius * (1.0 + np.arange(-6, 7) * np.finfo(float).eps)
    r = np.concatenate([1.5 * kern.support_radius * rng.random(500), edge,
                        np.nextafter(kern.support_radius, [0.0, np.inf]), [0.0]])
    assert np.any(kern.shape_parameter * r >= 1.0) and np.any(kern.shape_parameter * r < 1.0)
    for shape in ((r.size,), (1, r.size), (r.size, 1)):
        ours = kern.profile_values(r.reshape(shape))
        oracle = profile_values_by_helper(kern, r.reshape(shape))
        for name, a, b in zip(("psi", "psi1", "psi2"), ours, oracle):
            assert a.shape == shape and np.array_equal(a, b), name


def test_profile_values_read_nothing_from_their_work_array(kern):
    # a work array full of NaN, with r given as its row 0 or apart, yields the
    # bits of a fresh one and +0.0 outside the support
    r = np.linspace(0.0, 2.0 * kern.support_radius, 60).reshape(12, 5)
    outside = kern.shape_parameter * r >= 1.0
    assert np.any(outside) and not np.all(outside)
    fresh = kern.profile_values(r)
    for alias in (False, True):
        work = np.full((6, r.size + 3), np.nan)
        if alias:
            work[0, :r.size] = r.ravel()
        given = work[0, :r.size].reshape(r.shape) if alias else r
        for name, ours, ref in zip(("psi", "psi1", "psi2"), kern.profile_values(given, work), fresh):
            assert ours.shape == r.shape and ours.tobytes() == ref.tobytes(), name
            assert np.all(ours[outside] == 0.0) and not np.any(np.signbit(ours[outside])), name


def test_phi_diagonal_and_symmetry(kern):
    rng = np.random.default_rng(11)
    for _ in range(20):
        x, y = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        assert phi(kern, x, x) == 25.0
        assert phi(kern, x, y) == phi(kern, y, x)
    assert phi(kern, np.zeros(2), np.array([0.5, 0.0])) == pytest.approx(PSI_HALF, rel=1e-14)


def test_phi_dimension_mismatch(kern):
    with pytest.raises(ValueError):
        phi(kern, np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        grad1_phi(kern, np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        hess12_phi(kern, np.zeros(2), np.zeros(3))


def test_grad1_phi_coincident_and_antisymmetric(kern):
    rng = np.random.default_rng(13)
    x = rng.uniform(-1, 1, 2)
    assert np.all(grad1_phi(kern, x, x) == 0.0)
    for _ in range(20):
        x, y = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        assert np.array_equal(grad1_phi(kern, x, y), -grad1_phi(kern, y, x))


def _random_pair_inside(rng, kern):
    # pair with separation well inside the support, away from the boundary
    x = rng.uniform(-1, 1, 2)
    direction = rng.normal(size=2)
    direction /= np.linalg.norm(direction)
    r = (0.05 + 0.85 * rng.random()) * kern.support_radius
    return x, x + r * direction


def test_grad1_phi_matches_finite_differences(kern):
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(100):
        x, y = _random_pair_inside(rng, kern)
        fd = np.empty(2)
        for a in range(2):
            e = np.zeros(2)
            e[a] = h
            fd[a] = (phi(kern, x + e, y) - phi(kern, x - e, y)) / (2.0 * h)
        assert np.allclose(grad1_phi(kern, x, y), fd, rtol=1e-6, atol=1e-7)


def test_hess12_phi_coincident_value(kern):
    x = np.array([0.3, -0.4])
    expected = -kern.profile_values(0.0)[1] * np.eye(2)
    assert np.allclose(hess12_phi(kern, x, x), expected, rtol=0, atol=1e-12)
    # finite differences confirm the sign convention at coincident points
    h = 1e-4
    fd = np.empty((2, 2))
    for a in range(2):
        for b in range(2):
            ea, eb = np.zeros(2), np.zeros(2)
            ea[a] = h
            eb[b] = h
            fd[a, b] = (phi(kern, x + ea, x + eb) - phi(kern, x + ea, x - eb)
                        - phi(kern, x - ea, x + eb) + phi(kern, x - ea, x - eb)) / (4 * h * h)
    assert np.allclose(hess12_phi(kern, x, x), fd, rtol=1e-5, atol=1e-3)


def test_hess12_phi_transpose_pairing(kern):
    rng = np.random.default_rng(19)
    for _ in range(20):
        x, y = _random_pair_inside(rng, kern)
        assert np.allclose(hess12_phi(kern, x, y), hess12_phi(kern, y, x).T,
                           rtol=0, atol=1e-13)
        assert np.allclose(hess12_phi(kern, x, y), hess12_phi(kern, x, y).T,
                           rtol=0, atol=1e-13)


def test_hess12_phi_matches_finite_differences(kern):
    rng = np.random.default_rng(23)
    h = 1e-4
    for _ in range(100):
        x, y = _random_pair_inside(rng, kern)
        fd = np.empty((2, 2))
        for a in range(2):
            for b in range(2):
                ea, eb = np.zeros(2), np.zeros(2)
                ea[a] = h
                eb[b] = h
                fd[a, b] = (phi(kern, x + ea, y + eb) - phi(kern, x + ea, y - eb)
                            - phi(kern, x - ea, y + eb) + phi(kern, x - ea, y - eb)) / (4 * h * h)
        assert np.allclose(hess12_phi(kern, x, y), fd, rtol=1e-5, atol=1e-2)


def test_scalar_positive_definiteness(kern):
    rng = np.random.default_rng(29)
    for _ in range(20):
        count = rng.integers(2, 16)
        pts = rng.uniform(-1, 1, (count, 2))
        gram = np.empty((count, count))
        for i in range(count):
            for j in range(count):
                gram[i, j] = phi(kern, pts[i], pts[j])
        assert np.min(np.linalg.eigvalsh(gram)) > 0.0


def test_vectorized_matches_scalar(kern):
    # arrays of any shape give the values of their entries taken one by one
    rng = np.random.default_rng(31)
    r = 2.0 * rng.random((10, 7))
    single = np.array([kern.profile_values(v) for v in r.ravel()])
    for index, batch in enumerate(kern.profile_values(r)):
        assert batch.shape == r.shape
        assert np.array_equal(batch.ravel(), single[:, index])


# expansion of (1-t)^6 (35 t^2 + 18 t + 3), the C^4 profile for up to three
# space dimensions
WENDLAND_C4 = (3, 0, -28, 0, 210, -448, 420, -192, 35)


def test_interface_admits_other_profile_orders():
    kern = RadialKernel(1.3, 3.5, WENDLAND_C4, label="wendland-c4")
    assert kern.profile_values(0.0)[0] == 3.0
    assert kern.profile_values(1.0 / 1.3)[0] == 0.0
    # psi1(0) = 2 p_2 c^2 from the quadratic term of the profile
    assert kern.profile_values(0.0)[1] == pytest.approx(-56.0 * 1.3 ** 2, rel=1e-13)
    h, r = 1e-6, 0.3
    lo, hi = kern.profile_values(np.array([r - h, r + h]))[0]
    assert kern.profile_values(r)[1] == pytest.approx((hi - lo) / (2.0 * h * r), rel=1e-6)
    h = 1e-4
    lo, mid, hi = kern.profile_values(np.array([r - h, r, r + h]))[0]
    d2 = (hi - 2.0 * mid + lo) / h ** 2
    d1 = (hi - lo) / (2.0 * h)
    assert kern.profile_values(r)[2] == pytest.approx((d2 - d1 / r) / r ** 2, rel=1e-5)


def test_profile_values_clip_t_at_the_support_edge(kern):
    # t = c r is clipped to 1, where every helper's (1 - t)^e factor is 0: a
    # profile whose psi1 does not vanish there is refused, and NaN stays NaN
    with pytest.raises(ValueError, match="vanish at t = 1"):
        RadialKernel(1.0, 1.0, (1, 0, -1))      # psi1 = -2 c^2 everywhere
    assert all(np.isnan(value) for value in kern.profile_values(np.nan))


def test_rejects_profiles_too_rough_for_derivative_quotients():
    with pytest.raises(ValueError, match="divisible"):
        RadialKernel(1.0, 1.5, (1, -2, 1))       # psi'(0) != 0
    with pytest.raises(ValueError, match="divisible"):
        RadialKernel(1.0, 2.5, (1, 0, -2, 1))    # second quotient fails
