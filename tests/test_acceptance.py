"""Acceptance criteria, one test per criterion, run at stated tolerances.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS/FAIL lines.  The error-table criteria share one module-scoped study over
the full spacing list; the finest grid is a dense 12675-unknown solve, so the
module takes a couple of minutes.
"""

import csv
import itertools
import json
import time

import numpy as np
import pytest

import conmet
import conmet.cli as cli
from conmet import (
    GridSpec,
    assemble,
    eval_metric_batch,
    eval_operator_batch,
    make_grid,
    solve,
    triangle_indices,
)
from conftest import BOUNDS
from oracles import (
    CollocationPointData,
    FunctionalIndex,
    gram_entry,
    phi,
    point_data,
    representer_column,
    riesz_representer,
)

ALPHAS = (1 / 2, 1 / 4, 1 / 8, 1 / 16, 1 / 32)
TABLE_E_S = (2.5724, 1.2833, 0.3516, 0.0329, 0.0025)
TABLE_E = (1.2334, 0.9169, 0.0124, 5.6040e-4, 1.6311e-5)
TABLE_TOL = 0.10


def _check(label, ok, detail=""):
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{label} failed: {detail}"


@pytest.fixture(scope="module")
def reference_study(tmp_path_factory):
    """Full error study through the CLI: all spacings, staggered check grid.

    The config relies on the documented defaults (spacings 1/2 .. 1/32,
    check grid 1/64 staggered by 1/128, kernel c = 0.9, identity rhs).
    """
    out = tmp_path_factory.mktemp("study")
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps({"output_dir": str(out)}))
    assert cli.main(["convergence", str(cfg)]) == 0
    with open(out / "convergence.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["alpha", "e_s", "ratio_s", "e", "ratio"]
    assert rows[-1][0] == "reference"
    data = [(float(r[0]), float(r[1]),
             float(r[2]) if r[2] else None,
             float(r[3]),
             float(r[4]) if r[4] else None) for r in rows[1:-1]]
    assert [row[0] for row in data] == list(ALPHAS)
    return data


def test_criterion_1_table_reproduction(reference_study):
    dev_s = [abs(e_s - ref) / ref
             for (_, e_s, _, _, _), ref in zip(reference_study, TABLE_E_S)]
    dev = [abs(e - ref) / ref
           for (_, _, _, e, _), ref in zip(reference_study, TABLE_E)]
    ok = max(dev_s) <= TABLE_TOL and max(dev) <= TABLE_TOL
    _check("1 (error table)", ok,
           f"max rel deviation e_s={max(dev_s):.3f}, e={max(dev):.3f}")


def test_criterion_2_convergence_rate(reference_study):
    ratios = [row[2] for row in reference_study[1:]]
    half_reference = 2.0 ** 3.5 / 2.0
    ok = (ratios[-1] >= 8.0
          and all(a < b for a, b in zip(ratios, ratios[1:]))
          and all(r > half_reference for r in ratios[-2:]))
    _check("2 (convergence rate)", ok,
           f"e_s ratios {['%.4f' % r for r in ratios]}, final >= 8 "
           f"and increasing past {half_reference:.3f}")


def test_criterion_3_interpolation_exactness(linear, kernel, solved_eighth):
    system, _, rhs = linear
    worst = 0.0
    # the alpha = 1/8 grid solve plus the single-point equilibrium solve
    images = eval_operator_batch(solved_eighth, solved_eighth.collocation.points)
    worst = max(worst, np.max(np.abs(images + rhs)))
    cset, gram = assemble(system, kernel, np.zeros((1, 2)))
    single = solve(gram, rhs, cset, kernel)
    images = eval_operator_batch(single, single.collocation.points)
    worst = max(worst, np.max(np.abs(images + rhs)))
    bound = 1e-8 * np.max(np.abs(rhs))
    _check("3 (interpolation exactness)", worst <= bound,
           f"max |L(S) + C| = {worst:.3e} <= {bound:.1e}")


def test_criterion_4_oracle_equivalence(linear, kernel, solved_eighth):
    system, _, _ = linear
    rng = np.random.default_rng(101)
    failures = []

    # (a) radial derivative helpers vs central finite differences
    radii = (0.05 + 0.85 * rng.random(100)) * kernel.support_radius
    for r in radii:
        _, psi1, psi2 = kernel.profile_values(r)
        h = 1e-6
        lo, hi = kernel.profile_values(np.array([r - h, r + h]))[0]
        fd1 = (hi - lo) / (2.0 * h * r)
        if abs(psi1 - fd1) > 1e-6 * max(abs(fd1), 1e-3):
            failures.append(f"psi1({r:.3f})")
        h = 1e-4
        lo, mid, hi = kernel.profile_values(np.array([r - h, r, r + h]))[0]
        d2 = (hi - 2 * mid + lo) / h ** 2
        d1 = (hi - lo) / (2 * h)
        fd2 = (d2 - d1 / r) / r ** 2
        if abs(psi2 - fd2) > 1e-5 * max(abs(fd2), 1e-2):
            failures.append(f"psi2({r:.3f})")

    def fd_apply(field, data):
        h = 1e-6
        grad = np.empty((2, 2, 2))
        for a in range(2):
            e = np.zeros(2)
            e[a] = h
            grad[..., a] = (field(data.x + e) - field(data.x - e)) / (2 * h)
        value = field(data.x)
        return data.jac.T @ value + value @ data.jac + grad @ data.f

    def data_at(x):
        x = np.asarray(x, float)
        return CollocationPointData(x, system.f(x[None])[0], system.jacobian(x[None])[0])

    # (b) operator on kernel columns vs brute-force application
    for _ in range(10):
        data = data_at(rng.uniform(-1, 1, 2))
        x = data.x + rng.uniform(-0.7, 0.7, 2)
        for mu, nu in itertools.product(range(2), range(2)):
            basis = np.zeros((2, 2))
            basis[mu, nu] = 1.0
            oracle = fd_apply(lambda y: phi(kernel, y, x) * basis, data)
            ours = representer_column(kernel, data, x, mu, nu)
            if not np.allclose(ours, oracle, rtol=1e-6, atol=1e-6):
                failures.append(f"column({mu},{nu})")

    # (c) Gram entries vs finite-difference double application
    pairs = triangle_indices(2)
    for _ in range(10):
        data_l = data_at(rng.uniform(-1, 1, 2))
        data_k = data_at(data_l.x + rng.uniform(-0.7, 0.7, 2))
        il = FunctionalIndex(0, *pairs[rng.integers(3)])
        ik = FunctionalIndex(1, *pairs[rng.integers(3)])
        oracle = fd_apply(
            lambda y: riesz_representer(kernel, data_k, ik, y), data_l)[il.i, il.j]
        ours = gram_entry(kernel, data_l, il, data_k, ik)
        if abs(ours - oracle) > 1e-5 * max(abs(oracle), 1e-3):
            failures.append("gram")

    # (d) orbital part of L(S) vs finite differences of S along f
    t = 1e-6
    for x in rng.uniform(-0.9, 0.9, (20, 2)):
        jac = system.jacobian(x[None])[0]
        fx = system.f(x[None])[0]
        s_here = eval_metric_batch(solved_eighth, x[None])[0]
        orbital = (conmet.eval_operator_batch(solved_eighth, x[None])[0]
                   - jac.T @ s_here - s_here @ jac)
        fd = (eval_metric_batch(solved_eighth, (x + t * fx)[None])[0]
              - eval_metric_batch(solved_eighth, (x - t * fx)[None])[0]) / (2 * t)
        if not np.allclose(orbital, fd, rtol=1e-5, atol=1e-7):
            failures.append("orbital")

    _check("4 (oracle equivalence)", not failures, f"failures: {failures or 'none'}")


def test_criterion_5_structural_invariants(linear, kernel, solved_quarter):
    system, _, rhs = linear
    rng = np.random.default_rng(102)
    issues = []

    # Gram symmetry to round-off and positive definiteness on random sets
    for _ in range(20):
        pts = rng.uniform(-1, 1, (int(rng.integers(2, 16)), 2))
        _, gram = assemble(system, kernel, pts)
        scale = np.max(np.abs(gram))
        if not np.allclose(gram, gram.T, rtol=1e-12, atol=1e-12 * scale):
            issues.append("gram-symmetry")
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            issues.append("gram-spd")

    # index-pair symmetry of the operator on kernel columns, 1e-13
    for _ in range(100):
        x_k = rng.uniform(-1, 1, 2)
        data = CollocationPointData(x_k, system.f(x_k[None])[0], system.jacobian(x_k[None])[0])
        x = x_k + rng.uniform(-0.9, 0.9, 2)
        cols = {(mu, nu): representer_column(kernel, data, x, mu, nu)
                for mu, nu in itertools.product(range(2), range(2))}
        for mu, nu, i, j in itertools.product(range(2), repeat=4):
            if abs(cols[(mu, nu)][i, j] - cols[(nu, mu)][j, i]) > 1e-13:
                issues.append("column-pairing")

    # representer-sum form vs coefficient form of S, 1e-10
    cset = solved_quarter.collocation
    for x in rng.uniform(-1, 1, (10, 2)):
        expansion = np.zeros((2, 2))
        for k in range(len(cset)):
            data = point_data(cset, k)
            for i, j in triangle_indices(2):
                gamma = (solved_quarter.beta[k, i, j] if i == j
                         else 2.0 * solved_quarter.beta[k, i, j])
                expansion += gamma * riesz_representer(
                    kernel, data, FunctionalIndex(k, i, j), x)
        if not np.allclose(eval_metric_batch(solved_quarter, x[None])[0], expansion,
                           rtol=0, atol=1e-10):
            issues.append("form-equivalence")

    # permutation invariance of the recovered metric, 1e-10
    pts = make_grid(GridSpec(BOUNDS, 0.5))
    perm = rng.permutation(len(pts))
    cset_a, gram_a = assemble(system, kernel, pts)
    cset_b, gram_b = assemble(system, kernel, pts[perm])
    sol_a = solve(gram_a, rhs, cset_a, kernel)
    sol_b = solve(gram_b, rhs, cset_b, kernel)
    for x in rng.uniform(-1, 1, (20, 2)):
        if not np.allclose(eval_metric_batch(sol_a, x[None])[0],
                           eval_metric_batch(sol_b, x[None])[0],
                           rtol=0, atol=1e-10):
            issues.append("permutation")

    _check("5 (structural invariants)", not issues, f"issues: {sorted(set(issues)) or 'none'}")


def test_criterion_6_contraction_certificate(tmp_path):
    config = {
        "system": "linear-example",
        "grid": {"bounds": [[-1.0, 1.0], [-1.0, 1.0]], "spacing": 0.125},
        "check_grid": {"bounds": [[-1.0, 1.0], [-1.0, 1.0]],
                       "spacing": 1.0 / 64.0, "offset": 1.0 / 128.0},
        "output_dir": str(tmp_path / "out"),
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = cli.main(["fields", str(cfg)])
    summary = json.loads((tmp_path / "out" / "fields_summary.json").read_text())
    ok = code == 0 and summary["failures"] == 0 and summary["n_points"] == 128 * 128
    _check("6 (contraction certificate)", ok,
           f"exit {code}, {summary['failures']} definiteness failures "
           f"on {summary['n_points']} check points")


def test_criterion_7_large_domain_scale(tmp_path):
    config = {
        "system": "linear-example",
        "grid": {"bounds": [[-4.0, 4.0], [-4.0, 4.0]], "spacing": 0.2},
        "check_grid": {"bounds": [[-4.0, 4.0], [-4.0, 4.0]],
                       "spacing": 0.1, "offset": 0.05},
        "output_dir": str(tmp_path / "out"),
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    start = time.perf_counter()
    code_solve = cli.main(["solve", str(cfg)])
    code_fields = cli.main(["fields", str(cfg)])
    elapsed = time.perf_counter() - start
    meta = json.loads((tmp_path / "out" / "solution.json").read_text())
    fields_csv = tmp_path / "out" / "fields.csv"
    ok = (code_solve == 0 and code_fields == 0
          and meta["n_points"] == 1681 and meta["n_unknowns"] == 5043
          and fields_csv.exists() and elapsed < 120.0)
    _check("7 (large-domain scale)", ok,
           f"{meta['n_points']} points, {meta['n_unknowns']} unknowns, "
           f"{elapsed:.1f} s (< 120 s)")
