"""Compactly supported radial kernels with analytic derivative helpers.

Besides the kernel profile psi(r) itself, applying a first-order operator to
both arguments of phi(x, y) = psi(|x - y|) needs the two radial quotients

    psi1(r) = psi'(r) / r
    psi2(r) = (psi''(r) - psi'(r)/r) / r**2

which stay finite at r = 0 for sufficiently smooth kernels.  Both are derived
here symbolically at construction time: the profile is kept as an integer
coefficient list in t = c*r, differentiation and the divisions by t happen on
that list, so no numerical division by r ever takes place.  Each helper is
then stored in the factored form

    (1 - t)**e * cofactor(t),    t = c*r in [0, 1],

which for the Wendland family has a nonnegative cofactor and therefore
evaluates without cancellation on the whole support.  Outside the support all
helpers are exactly zero.  RadialKernel.profile_values evaluates all three
into a work array, such as the workspace an engine worker keeps for one call.
"""

import math

import numpy as np

__all__ = ["RadialKernel", "wendland_c8"]


def _poly_diff(coeffs):
    """Derivative of an integer coefficient list (ascending powers)."""
    return [m * a for m, a in enumerate(coeffs)][1:]


def _poly_div_t(coeffs):
    """Exact division by t; requires a vanishing constant term."""
    if coeffs and coeffs[0] != 0:
        raise ValueError("polynomial has a nonzero constant term, not divisible by t")
    return list(coeffs[1:])


def _factor_support(coeffs):
    """Split p(t) = (1 - t)**e * cofactor(t) with the maximal exponent e.

    Division by (1 - t) is the exact prefix-sum recursion on the integer
    coefficients; p is divisible exactly when p(1) = 0.
    """
    coeffs = list(coeffs)
    exponent = 0
    while len(coeffs) > 1 and sum(coeffs) == 0:
        quotient = []
        acc = 0
        for a in coeffs[:-1]:
            acc += a
            quotient.append(acc)
        coeffs = quotient
        exponent += 1
    return exponent, coeffs


def _int_power(x, e, out):
    """x**e into out by repeated squaring: (x**(e // 2))**2, times x for odd e."""
    if e < 2:
        out[...] = x if e else 1.0
        return out
    half = x if e < 4 else _int_power(x, e // 2, out)
    np.multiply(half, half, out=out)
    if e % 2:
        out *= x
    return out


class _FactoredRadial:
    """One radial helper: outer * (1 - t)**e * cofactor(t) on t <= 1, else 0."""

    def __init__(self, outer, exponent, cofactor):
        self.outer = float(outer)
        self.exponent = int(exponent)
        self.cofactor = tuple(float(a) for a in cofactor)

    def eval_unit(self, t, x, power, acc):
        """Horner evaluation into acc on t in [0, 1], times x**e, x = 1 - t, formed in power."""
        acc[...] = self.cofactor[-1]
        for a in self.cofactor[-2::-1]:
            acc *= t
            acc += a
        acc *= _int_power(x, self.exponent, power)
        if self.outer != 1.0:
            acc *= self.outer
        return acc


class RadialKernel:
    """Scalar compactly supported radial kernel phi(x, y) = psi(|x - y|).

    Parameters
    ----------
    shape_parameter : float
        Positive inverse support radius c; the kernel vanishes for r >= 1/c.
        It must be small enough that psi1 and psi2 stay finite.
    sigma : float
        Sobolev smoothness order of the reproduced space.
    psi_coefficients : sequence of int
        Integer coefficients (ascending powers) of the profile polynomial in
        t = c*r, valid on [0, 1].  The polynomial must have vanishing t**1
        and t**3 terms so that psi1 and psi2 remain polynomial; this holds
        for any radial profile that is at least C^4.  It and both quotients
        must vanish at t = 1, where profile_values clips t.
    label : str
        Free-text name.

    Instances are immutable after construction and safe to share between
    threads; profile_values is pure and accepts scalars or arrays of radii.
    """

    def __init__(self, shape_parameter, sigma, psi_coefficients, label=""):
        self.psi_coefficients = tuple(int(a) for a in psi_coefficients)
        p = list(self.psi_coefficients)
        u = _poly_div_t(_poly_diff(p))       # psi'(r)/r      = c^2 * u(c r)
        w = _poly_div_t(_poly_diff(u))       # psi1'(r)/r     = c^4 * w(c r)
        # |u| and |w| are at most the sums of their |coefficients| on [0, 1]
        c_max = min((np.finfo(float).max / max(1, sum(map(abs, q)))) ** (1 / k)
                    for k, q in ((2, u), (4, w)))
        c = float(shape_parameter)
        if not 0.0 < c < c_max:
            raise ValueError(f"shape parameter must be positive and finite, and below {c_max:.4g} "
                             f"for psi1 and psi2 to stay finite, got {shape_parameter}")
        if not sigma > 0.0:
            raise ValueError(f"smoothness order must be positive, got {sigma}")
        self.shape_parameter = c
        self.sigma = float(sigma)
        self.label = label

        self._psi = _FactoredRadial(1.0, *_factor_support(p))
        self._psi1 = _FactoredRadial(c ** 2, *_factor_support(u))
        self._psi2 = _FactoredRadial(c ** 4, *_factor_support(w))
        if min(self._psi.exponent, self._psi1.exponent, self._psi2.exponent) < 1:
            raise ValueError("the profile and its two radial quotients must vanish at t = 1")

    @property
    def support_radius(self):
        return 1.0 / self.shape_parameter

    def __repr__(self):
        return (f"RadialKernel(label={self.label!r}, c={self.shape_parameter}, "
                f"sigma={self.sigma})")

    def profile_values(self, r, work=None):
        """(psi, psi1, psi2) shaped like r, 0-d for a scalar r, in rows 0-2 of work.

        work is a C-ordered float64 (6, >= r.size) array, allocated when None,
        whose rows 3-5 are scratch; nothing in it is read, and r may be row 0.
        t = c r is clipped to 1, where every helper's (1 - t)^e factor is 0,
        so no mask is formed; adding +0.0 turns psi1's -0.0 there into +0.0.
        A NaN radius gives NaN.
        """
        r = np.asarray(r, dtype=float)
        work = np.empty((6, r.size)) if work is None else work
        t, x, acc = work[3:6, :r.size]
        np.minimum(np.multiply(self.shape_parameter, r.ravel(), out=t), 1.0, out=t)
        np.subtract(1.0, t, out=x)
        for flat, helper in zip(work[:3, :r.size], (self._psi, self._psi1, self._psi2)):
            np.add(helper.eval_unit(t, x, flat, acc), 0.0, out=flat)
        return tuple(flat.reshape(r.shape) for flat in work[:3, :r.size])


# Profile of Wendland's C^8 function for up to two space dimensions,
# (1-t)^10 (2145 t^4 + 2250 t^3 + 1050 t^2 + 250 t + 25),  t = c*r.
_WENDLAND_C8_FACTOR = [25, 250, 1050, 2250, 2145]


def wendland_c8(c):
    """Wendland's C^8 kernel on R^2 with inverse support radius c.

    Reproduces the Sobolev space of order sigma = 5.5 in two dimensions.
    Raises ValueError unless 0 < c < 1.3e75, which keeps psi1 and psi2 finite.
    """
    one_minus_t_10 = [(-1) ** m * math.comb(10, m) for m in range(11)]
    coeffs = np.convolve(one_minus_t_10, _WENDLAND_C8_FACTOR)      # exact in int64
    return RadialKernel(c, 5.5, coeffs, label="wendland-c8")
