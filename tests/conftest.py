import numpy as np
import pytest

import conmet
from conmet.operator import pairwise_scalars

BOUNDS = ((-1.0, 1.0), (-1.0, 1.0))


@pytest.fixture(scope="session")
def linear():
    """Built-in linear system with its exact metric and rhs matrix."""
    return conmet.linear_example()


@pytest.fixture(scope="session")
def kernel():
    return conmet.wendland_c8(0.9)


def _solve_on(system, kernel, spacing, rhs):
    points = conmet.make_grid(conmet.GridSpec(BOUNDS, spacing))
    cset, gram = conmet.assemble(system, kernel, points)
    return conmet.solve(gram, rhs, cset)


@pytest.fixture(scope="session")
def solved_quarter(linear, kernel):
    """Linear example solved on the alpha = 1/4 grid (81 points)."""
    system, _, rhs = linear
    return _solve_on(system, kernel, 0.25, rhs)


@pytest.fixture(scope="session")
def solved_eighth(linear, kernel):
    """Linear example solved on the alpha = 1/8 grid (289 points)."""
    system, _, rhs = linear
    return _solve_on(system, kernel, 0.125, rhs)


def straddling_pairs(kernel, centre, rng, low, high, count, attempts=5000):
    """Up to count point pairs (p, q) that only the margin of near_box keeps.

    |q - p| exceeds the kernel's support radius, yet the pairwise engine,
    which measures distances between the points taken relative to centre,
    rounds it below the radius and gives psi != 0.  About one random pair at
    the radius in a hundred is one; p is drawn uniformly from the box
    [low, high] of the plane.
    """
    radius = kernel.support_radius
    zero_f = np.zeros((1, 2))
    pairs = []
    for _ in range(attempts):
        p = rng.uniform(low, high)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        q = p + radius * np.array([np.cos(angle), np.sin(angle)])
        psi = pairwise_scalars(kernel, centre, p[None], zero_f, q[None], zero_f)[0]
        if np.sqrt(np.sum((q - p) ** 2)) > radius and psi[0, 0] != 0.0:
            pairs.append((p, q))
            if len(pairs) == count:
                break
    return pairs
