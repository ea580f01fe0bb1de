"""Metric evaluation, field export, errors, and the study harness."""

import os
import sys
import threading

import numpy as np
import pytest

import conmet
from conmet import (
    DynamicalSystem,
    ExactMetric,
    GridSpec,
    RecoverySolution,
    SolveDiagnostics,
    assemble,
    convergence_study,
    ellipse_points,
    error_report,
    eval_metric_batch,
    eval_operator_batch,
    field_export,
    linear_example,
    make_grid,
    solve,
)
from conmet import evaluate, operator
from conmet.collocation import FactorizationError
from conmet.operator import pairwise_scalars
from conftest import BOUNDS, straddling_pairs
from oracles import (CollocationPointData, FunctionalIndex, gram_entry, point_data,
                     riesz_representer, triangle_indices)


def _zero_solution(linear, kernel, n_points=4):
    system, _, rhs = linear
    pts = make_grid(GridSpec(BOUNDS, 1.0))[:n_points]
    cset = conmet.collocation_data(system, pts)
    diag = SolveDiagnostics(dimension=3 * n_points, relative_residual=0.0,
                            factorization="cholesky", regularized=False)
    beta = np.zeros((n_points, 2, 2))
    return RecoverySolution(cset, kernel, beta, rhs, diag)


# -- metric and operator evaluation ---------------------------------------------

def test_eval_metric_zero_coefficients(linear, kernel):
    solution = _zero_solution(linear, kernel)
    x = np.array([[0.1, 0.2]])
    assert np.array_equal(eval_metric_batch(solution, x), np.zeros((1, 2, 2)))
    assert np.array_equal(eval_operator_batch(solution, x), np.zeros((1, 2, 2)))


def test_eval_metric_outside_support_is_zero(solved_quarter, kernel):
    far = np.array([[1.0 + kernel.support_radius + 0.05, 0.0]])
    assert np.array_equal(eval_metric_batch(solved_quarter, far), np.zeros((1, 2, 2)))
    assert np.array_equal(eval_operator_batch(solved_quarter, far), np.zeros((1, 2, 2)))


def test_eval_metric_exactly_symmetric(solved_quarter):
    rng = np.random.default_rng(50)
    values = eval_metric_batch(solved_quarter, rng.uniform(-1, 1, (30, 2)))
    assert np.array_equal(values, values.transpose(0, 2, 1))
    images = eval_operator_batch(solved_quarter, rng.uniform(-1, 1, (30, 2)))
    assert np.array_equal(images, images.transpose(0, 2, 1))


def test_eval_batch_matches_single(solved_quarter):
    rng = np.random.default_rng(51)
    pts = rng.uniform(-1, 1, (10, 2))
    batch_s = eval_metric_batch(solved_quarter, pts)
    batch_fs = eval_operator_batch(solved_quarter, pts)
    # identical calls are bitwise deterministic; a batch of one point may
    # differ in the last units because BLAS kernels depend on matrix shape
    assert np.array_equal(batch_s, eval_metric_batch(solved_quarter, pts))
    assert np.array_equal(batch_fs, eval_operator_batch(solved_quarter, pts))
    for e, x in enumerate(pts):
        assert np.allclose(batch_s[e], eval_metric_batch(solved_quarter, x[None])[0],
                           rtol=1e-13, atol=1e-14)
        assert np.allclose(batch_fs[e], eval_operator_batch(solved_quarter, x[None])[0],
                           rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("solved, half_edge", [("solved_quarter", 1.0), ("solved_3d", 0.75)],
                         ids=["n=2", "n=3"])
def test_form1_equals_form2(solved, half_edge, kernel, request):
    # expansion over representers with the raw coefficients gamma agrees with
    # the closed-form evaluation from the symmetric beta matrices, off the nodes
    solution = request.getfixturevalue(solved)
    cset = solution.collocation
    beta = solution.beta
    n = cset.system.dim
    pairs = triangle_indices(n)
    rng = np.random.default_rng(52)
    xs = rng.uniform(-half_edge, half_edge, (50, n))
    for x, s_x in zip(xs, eval_metric_batch(solution, xs)):
        form1 = np.zeros((n, n))
        for k in range(len(cset)):
            data = point_data(cset, k)
            for i, j in pairs:
                gamma = beta[k, i, j] if i == j else 2.0 * beta[k, i, j]
                form1 += gamma * riesz_representer(kernel, data, FunctionalIndex(k, i, j), x)
        assert np.allclose(s_x, form1, rtol=0, atol=1e-10)


def _all_node_sums(solution, kernel, x):
    """S(x) and L(S)(x) summed over the representers of every node in reach;
    the other terms are exactly 0 (r >= R) and left out."""
    cset = solution.collocation
    data_x = CollocationPointData(x, cset.system.f(x[None])[0], cset.system.jacobian(x[None])[0])
    pairs = triangle_indices(2)
    s, fs = np.zeros((2, 2)), np.zeros((2, 2))
    for k in np.flatnonzero(np.linalg.norm(cset.points - x, axis=1)
                            < 1.01 * kernel.support_radius):
        data = point_data(cset, k)
        for i, j in pairs:
            gamma = solution.beta[k, i, j] * (1.0 if i == j else 2.0)
            index = FunctionalIndex(k, i, j)
            s += gamma * riesz_representer(kernel, data, index, x)
            for p, q in pairs:
                fs[p, q] += gamma * gram_entry(kernel, data_x, FunctionalIndex(0, p, q),
                                               data, index)
    fs[1, 0] = fs[0, 1]
    return s, fs


def _lone_pairs(kernel, rng, taken):
    """(node, query) pairs with the node right of x = 1, at R (1 -+ 1e-9) and
    at R to within rounding; no node of taken or of another pair is in reach
    of a query."""
    radius = kernel.support_radius
    straddling = straddling_pairs(kernel, 0.5 * (taken[0] + taken[1]), rng,
                                  (1.0, -3.5), (3.5, 3.0), 10)
    candidates = []
    for pair in straddling:
        for scale in (1.0 - 1e-9, 1.0 + 1e-9):
            p = rng.uniform((1.0, -3.5), (3.5, 3.0))
            angle = rng.uniform(0.0, 2.0 * np.pi)
            candidates.append((p, p + radius * scale * np.array([np.cos(angle), np.sin(angle)])))
        candidates.append(pair)
    nodes, queries = list(taken), []
    for p, q in candidates:
        if (min(np.linalg.norm(np.array(nodes) - q, axis=1)) > 1.05 * radius
                and all(np.linalg.norm(p - other) > 1.05 * radius for other in queries)
                and min(np.linalg.norm(np.array(nodes) - p, axis=1)) > 0.3):
            nodes.append(p)
            queries.append(q)
    return np.array(nodes[len(taken):]), np.array(queries)


def test_fields_batch_matches_all_node_sum(linear, kernel, monkeypatch):
    # shuffled nodes on [-4, 4]^2: the bulk left of x = -2.2, lone nodes right
    # of x = 1; two corners fix the centre at (-0.05, 0.15), where the
    # engine's centred distances round differently from the plain ones
    system, _, rhs = linear
    rng = np.random.default_rng(72)
    corners = np.array([[-4.0, -3.7], [3.9, 4.0]])
    bulk = []
    for x in rng.uniform((-4.0, -3.7), (-2.2, 4.0), (200, 2)):
        if all(np.linalg.norm(x - y) > 0.35 for y in bulk) and len(bulk) < 30:
            bulk.append(x)
    lone, lone_queries = _lone_pairs(kernel, rng, corners)
    nodes = np.concatenate([corners, bulk, lone])
    nodes = nodes[rng.permutation(len(nodes))]
    cset, gram = assemble(system, kernel, nodes)
    solution = solve(gram, rhs, cset)

    empty = np.array([[-0.6, -3.0], [-0.6, 0.0], [-0.6, 3.0]])    # cells no node reaches
    batch = np.concatenate([rng.uniform(-4.0, 4.0, (40, 2)), empty, lone_queries])
    points = np.concatenate([batch, lone_queries])
    oracle_s, oracle_fs = map(np.array, zip(*(_all_node_sums(solution, kernel, x)
                                              for x in points)))
    query = conmet.collocation_data(system, points)
    psi = pairwise_scalars(kernel, cset.centre, query.points, query.f_values,
                           cset.points, cset.f_values)[0]
    reach = np.any(psi != 0.0, axis=1)
    assert not np.any(reach[40:43])

    # blocks of one row each and of the default budget, on one and two threads
    for budget in (1, operator._BLOCK_BYTES):
        monkeypatch.setattr(operator, "_BLOCK_BYTES", budget)
        by_workers = []
        for workers in (1, 2):
            monkeypatch.setattr(operator, "block_workers", lambda blocks, w=workers: min(w, blocks))
            # a point alone has a one-point box, so only the margin of near_box
            # keeps the node of a pair at R to within rounding
            s = np.concatenate([eval_metric_batch(solution, batch)]
                               + [eval_metric_batch(solution, q[None]) for q in lone_queries])
            fs = np.concatenate([eval_operator_batch(solution, batch)]
                                + [eval_operator_batch(solution, q[None]) for q in lone_queries])
            for values, oracle in ((s, oracle_s), (fs, oracle_fs)):
                assert np.allclose(values, oracle, rtol=0,
                                   atol=1e-12 * max(np.max(np.abs(oracle)), 1.0))
            assert np.array_equal(np.any(s != 0.0, axis=(1, 2)), reach)
            assert np.array_equal(np.any(fs != 0.0, axis=(1, 2)), reach)
            by_workers.append((s.tobytes(), fs.tobytes()))
        assert by_workers[0] == by_workers[1]


def test_fields_batch_threads_stress(solved_quarter, linear, monkeypatch):
    # more workers than cores, one-row blocks and a short switch interval:
    # a block writing rows that are not its own would change the bytes
    system, _, _ = linear
    query = conmet.collocation_data(system, make_grid(GridSpec(BOUNDS, 0.05, offset=0.025)))
    monkeypatch.setattr(operator, "_BLOCK_BYTES", 1)
    results = []
    for workers in (1, 8):
        monkeypatch.setattr(operator, "block_workers", lambda blocks, w=workers: min(w, blocks))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results.append([a.tobytes() for a in evaluate._fields_batch(solved_quarter, query)])
        finally:
            sys.setswitchinterval(interval)
    assert results[0] == results[1]


def test_callers_share_no_workspace(solved_quarter, linear, kernel, monkeypatch):
    # two threads evaluate one solution while a third assembles, each call on
    # two workers of small blocks: a workspace that outlived its call or was
    # shared between calls would mix their arrays and change the bytes
    system, _, _ = linear
    points = make_grid(GridSpec(BOUNDS, 0.05, offset=0.025))
    nodes = make_grid(GridSpec(BOUNDS, 0.125))
    monkeypatch.setattr(operator, "_BLOCK_BYTES", 8 * 64)
    monkeypatch.setattr(operator, "block_workers", lambda blocks: min(2, blocks))
    jobs = (lambda: eval_metric_batch(solved_quarter, points),
            lambda: eval_metric_batch(solved_quarter, points[::-1]),
            lambda: assemble(system, kernel, nodes)[1])
    serial = [job().tobytes() for job in jobs]
    results = [None] * len(jobs)

    def run(index):
        results[index] = jobs[index]().tobytes()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert results == serial


def test_stale_workspace_contents_never_leak(solved_quarter, linear, monkeypatch):
    # one worker reuses its workspace for blocks of uneven sizes, the last a
    # query no node reaches (K = 0): each block gives the bits that it gives
    # alone, in a call of its own on a fresh workspace
    system, _, _ = linear
    cset, radius = solved_quarter.collocation, solved_quarter.kernel.support_radius
    points = np.concatenate([make_grid(GridSpec(BOUNDS, 0.1, offset=0.05)), [[9.0, 9.0]]])
    query = conmet.collocation_data(system, points)
    monkeypatch.setattr(operator, "_BLOCK_BYTES", 8 * 1000)
    monkeypatch.setattr(operator, "block_workers", lambda blocks: 1)
    blocks = list(evaluate._cell_blocks(query.points, cset.points, radius))
    assert len({len(block) for block in blocks}) > 2 and list(blocks[-1]) == [len(points) - 1]
    whole = evaluate._fields_batch(solved_quarter, query)
    assert not np.any(whole[0][-1]) and not np.any(whole[1][-1])
    for block in blocks:
        alone = evaluate._fields_batch(solved_quarter, conmet.collocation_data(system, points[block]))
        for ours, ref in zip(whole, alone):
            assert ours[block].tobytes() == ref.tobytes()


def test_eval_operator_at_collocation_points(solved_quarter, linear):
    _, _, rhs = linear
    images = eval_operator_batch(solved_quarter, solved_quarter.collocation.points)
    assert np.max(np.abs(images + rhs)) <= 1e-8


def test_eval_operator_orbital_fd(solved_quarter, linear):
    # subtract the zero-order part; the rest is the orbital derivative of S
    system, _, _ = linear
    rng = np.random.default_rng(53)
    t = 1e-6
    xs = rng.uniform(-0.9, 0.9, (50, 2))
    data = conmet.collocation_data(system, xs)
    jac, step = data.jacobians, t * data.f_values
    s_here = eval_metric_batch(solved_quarter, xs)
    orbital = (eval_operator_batch(solved_quarter, xs)
               - jac.transpose(0, 2, 1) @ s_here - s_here @ jac)
    fd = (eval_metric_batch(solved_quarter, xs + step)
          - eval_metric_batch(solved_quarter, xs - step)) / (2.0 * t)
    assert np.allclose(orbital, fd, rtol=1e-5, atol=1e-7)


# -- error metrics and the study harness -----------------------------------------

def test_error_report_zero_solution_and_zero_metric(linear, kernel):
    # feeding back an exact metric identical to the recovered one gives (0, 0)
    solution = _zero_solution(linear, kernel)
    zero_exact = ExactMetric(lambda x: np.zeros((len(x), 2, 2)),
                             lambda x: np.zeros((len(x), 2, 2, 2)))
    check = make_grid(GridSpec(BOUNDS, 0.5))
    assert error_report(solution, zero_exact, check) == (0.0, 0.0)


def test_error_report_rejects_empty_grid(solved_quarter, linear):
    _, exact, _ = linear
    with pytest.raises(ValueError, match="empty"):
        error_report(solved_quarter, exact, np.empty((0, 2)))


def test_convergence_study_two_alphas(linear, kernel):
    system, exact, rhs = linear
    check = GridSpec(BOUNDS, 1.0 / 64.0, offset=1.0 / 128.0)
    report = convergence_study(system, exact, rhs, kernel, [0.5, 0.25], BOUNDS, check)
    assert len(report.rows) == 2
    first, second = report.rows
    assert first.ratio_s is None and first.ratio is None
    assert second.ratio_s == pytest.approx(2.0045, rel=0.05)
    assert first.e_s == pytest.approx(2.5724, rel=0.05)
    assert report.reference_ratio == pytest.approx(2.0 ** 3.5, rel=1e-12)


def test_convergence_study_single_alpha(linear, kernel):
    system, exact, rhs = linear
    check = GridSpec(BOUNDS, 0.25, offset=0.125)
    report = convergence_study(system, exact, rhs, kernel, [0.5], BOUNDS, check)
    assert len(report.rows) == 1
    assert report.rows[0].ratio_s is None and report.rows[0].ratio is None


def test_convergence_study_rows_equal_error_reports_in_given_order(linear, kernel):
    # the study solves finest first; its rows must not depend on that order
    system, exact, rhs = linear
    alphas = [0.5, 0.25, 0.125]
    check = GridSpec(BOUNDS, 1.0 / 32.0, offset=1.0 / 64.0)
    report = convergence_study(system, exact, rhs, kernel, alphas, BOUNDS, check)
    prev = None
    for alpha, row in zip(alphas, report.rows):
        cset, gram = assemble(system, kernel, make_grid(GridSpec(BOUNDS, alpha)))
        e, e_s = error_report(solve(gram, rhs, cset), exact, make_grid(check))
        assert (row.alpha, row.e, row.e_s) == (alpha, e, e_s)
        assert (row.ratio, row.ratio_s) == ((None, None) if prev is None
                                            else (prev[0] / e, prev[1] / e_s))
        prev = (e, e_s)


def test_convergence_study_computes_check_grid_data_once(linear, kernel, monkeypatch):
    # f, Df, M and grad M at the check points are computed once per study,
    # M and grad M in one batched call each; every spacing still measures its
    # errors on the whole check grid
    system, exact, rhs = linear
    check = GridSpec(BOUNDS, 0.125, offset=0.0625)         # apart from every node
    check_points = {tuple(x) for x in make_grid(check)}
    calls = {name: [] for name in ("f", "jacobian", "value", "gradient")}

    def counted(name, fn):
        def wrapper(x):
            calls[name].append(np.array(x, dtype=float))
            return fn(x)
        return wrapper

    counted_system = DynamicalSystem(2, counted("f", system.f),
                                     counted("jacobian", system.jacobian))
    counted_exact = ExactMetric(counted("value", exact.value), counted("gradient", exact.gradient))
    reports = []
    original = evaluate._errors

    def recorded(solution, query, m, fm):
        reports.append(len(query))
        return original(solution, query, m, fm)

    monkeypatch.setattr(evaluate, "_errors", recorded)
    alphas = [0.5, 0.25, 0.125]
    report = convergence_study(counted_system, counted_exact, rhs, kernel, alphas, BOUNDS, check)
    assert reports == [len(check_points)] * len(alphas)
    for name in ("f", "jacobian"):
        at_check = [tuple(x) for batch in calls[name] for x in batch if tuple(x) in check_points]
        assert sorted(at_check) == sorted(check_points), name
    for name in ("value", "gradient"):
        assert len(calls[name]) == 1, name
        assert sorted(map(tuple, calls[name][0])) == sorted(check_points), name
    # the same rows as a study that evaluates each spacing from scratch
    for alpha, row in zip(alphas, report.rows):
        cset, gram = assemble(system, kernel, make_grid(GridSpec(BOUNDS, alpha)))
        solution = solve(gram, rhs, cset)
        assert (row.e, row.e_s) == error_report(solution, exact, make_grid(check))


def test_convergence_study_failure_at_coarse_spacing_names_it(linear, kernel, monkeypatch):
    system, exact, rhs = linear
    reached = []

    def failing_solve(gram, rhs, cset):
        reached.append(len(cset))
        if len(cset) == 25:                     # the alpha = 0.5 grid
            raise FactorizationError("not positive definite", pivot=7)
        return solve(gram, rhs, cset)

    monkeypatch.setattr(evaluate, "solve", failing_solve)
    check = GridSpec(BOUNDS, 0.25, offset=0.125)
    with pytest.raises(FactorizationError, match=r"^alpha=0\.5: not positive definite") as info:
        convergence_study(system, exact, rhs, kernel, [0.5, 0.25], BOUNDS, check)
    assert info.value.pivot == 7
    assert reached == [81, 25]


def test_convergence_study_checks_rhs_before_any_assembly(linear, kernel, monkeypatch):
    system, exact, _ = linear

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled despite a bad right-hand side")

    monkeypatch.setattr(evaluate, "assemble", no_assembly)
    check = GridSpec(BOUNDS, 0.25, offset=0.125)
    with pytest.raises(ValueError, match="right-hand-side matrix must be positive definite"):
        convergence_study(system, exact, -np.eye(2), kernel, [0.5, 0.25], BOUNDS, check)


def test_convergence_study_checks_each_equilibrium_once(linear, kernel, monkeypatch):
    # one f and one Df call for the declared equilibrium, before the first
    # assembly, which gets none: besides the check grid's call, each spacing
    # calls f and Df once, for its nodes
    system, exact, rhs = linear
    calls = {"f": 0, "jacobian": 0}

    def counted(name, fn):
        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    counted_system = DynamicalSystem(2, counted("f", system.f),
                                     counted("jacobian", system.jacobian))
    assembled = []
    original = evaluate.assemble

    def recorded(system, kernel, points, equilibria=()):
        assembled.append(equilibria)
        return original(system, kernel, points, equilibria)

    monkeypatch.setattr(evaluate, "assemble", recorded)
    check = GridSpec(BOUNDS, 0.25, offset=0.125)
    alphas = [0.5, 0.25, 0.125]
    convergence_study(counted_system, exact, rhs, kernel, alphas, BOUNDS, check,
                      equilibria=((np.zeros(2), "stable"),))
    assert calls == {"f": 2 + len(alphas), "jacobian": 2 + len(alphas)}
    assert assembled == [()] * len(alphas)

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled despite a bad equilibrium")

    monkeypatch.setattr(evaluate, "assemble", no_assembly)
    with pytest.raises(ValueError, match="fails the unstable eigenvalue condition"):
        convergence_study(system, exact, rhs, kernel, alphas, BOUNDS, check,
                          equilibria=((np.zeros(2), "unstable"),))


def test_eval_workers_capped_by_cpus_and_blocks(monkeypatch):
    # counted, not started: the helper only decides how many threads to use
    cpus = len(os.sched_getaffinity(0))
    for cap, expected in (("100000", cpus), ("1", 1), ("0", cpus), ("-3", cpus),
                          ("two", cpus), ("", cpus)):
        monkeypatch.setenv("OMP_NUM_THREADS", cap)
        assert operator.block_workers(10 ** 6) == expected, cap
        assert operator.block_workers(1) == 1
        assert operator.block_workers(0) == 1
    monkeypatch.delenv("OMP_NUM_THREADS")
    assert operator.block_workers(10 ** 6) == cpus


def test_convergence_study_requires_decreasing_alphas(linear, kernel):
    system, exact, rhs = linear
    check = GridSpec(BOUNDS, 0.25, offset=0.125)
    with pytest.raises(ValueError, match="decreasing"):
        convergence_study(system, exact, rhs, kernel, [0.25, 0.5], BOUNDS, check)


# -- field export -----------------------------------------------------------------

def test_field_export_shapes_and_collocation_values(solved_quarter, linear):
    system, _, _ = linear
    pts = solved_quarter.collocation.points
    fields = field_export(solved_quarter, pts)
    assert fields["s"].shape == fields["fs"].shape == (len(pts), 2, 2)
    assert np.array_equal(fields["x"], pts)
    for e in range(len(pts)):
        # interpolation conditions: L(S) = -I at the collocation points
        assert fields["trace_fs"][e] == pytest.approx(-2.0, abs=1e-6)
        assert fields["neg_det_fs"][e] == pytest.approx(-1.0, abs=1e-6)
        assert fields["max_eig_fs"][e] == pytest.approx(-1.0, abs=1e-6)


def test_field_export_single_point(solved_quarter, linear):
    system, _, _ = linear
    fields = field_export(solved_quarter, [[0.1, -0.2]])
    assert len(fields["x"]) == 1
    assert fields["s"][0].shape == (2, 2)


@pytest.mark.parametrize("call", [
    lambda solution, system, kernel, x: eval_metric_batch(solution, x),
    lambda solution, system, kernel, x: field_export(solution, x),
    lambda solution, system, kernel, x: assemble(system, kernel, x),
], ids=["eval_metric_batch", "field_export", "assemble"])
def test_a_single_point_is_refused_unless_given_as_a_batch(solved_quarter, linear, kernel,
                                                           call):
    # evaluation and assembly take (E, dim) arrays only: x[None] is the batch
    # of one point x, and x itself is not read as one
    with pytest.raises(ValueError, match=r"points have shape \(2,\)"):
        call(solved_quarter, linear[0], kernel, np.array([0.1, -0.2]))


def test_empty_batches_give_empty_arrays(solved_quarter):
    empty = np.empty((0, 2))
    assert eval_metric_batch(solved_quarter, empty).shape == (0, 2, 2)
    assert eval_operator_batch(solved_quarter, empty).shape == (0, 2, 2)
    fields = field_export(solved_quarter, empty)
    assert fields["x"].shape == (0, 2)
    assert fields["s"].shape == fields["fs"].shape == (0, 2, 2)
    for key in ("trace_s", "det_s", "trace_fs", "neg_det_fs", "min_eig_s", "max_eig_fs"):
        assert fields[key].shape == (0,), key


def test_field_export_scalars_match_pointwise(solved_quarter, linear):
    # the batched trace, det and eigenvalue columns agree with per-point
    # calls; each det is the product of the per-point eigenvalues, bit for bit
    system, _, _ = linear
    rng = np.random.default_rng(57)
    fields = field_export(solved_quarter, rng.uniform(-1.2, 1.2, (200, 2)))
    for e in range(200):
        s_e, fs_e = fields["s"][e], fields["fs"][e]
        assert fields["trace_s"][e] == np.trace(s_e)
        assert fields["det_s"][e] == np.prod(np.linalg.eigvalsh(s_e))
        assert fields["trace_fs"][e] == np.trace(fs_e)
        assert fields["neg_det_fs"][e] == -np.prod(np.linalg.eigvalsh(fs_e))
        assert fields["min_eig_s"][e] == pytest.approx(np.linalg.eigvalsh(s_e)[0],
                                                    rel=1e-13, abs=1e-13)
        assert fields["max_eig_fs"][e] == pytest.approx(np.linalg.eigvalsh(fs_e)[-1],
                                                     rel=1e-13, abs=1e-13)


def test_field_export_contraction_region(solved_eighth, linear):
    # on the solved alpha = 1/8 grid the metric is positive definite and the
    # operator image negative definite across the whole check region
    system, _, _ = linear
    check = make_grid(GridSpec(BOUNDS, 1.0 / 16.0, offset=1.0 / 32.0))
    fields = field_export(solved_eighth, check)
    assert np.all(fields["trace_s"] > 0.0) and np.all(fields["det_s"] > 0.0)
    assert np.all(fields["trace_fs"] < 0.0) and np.all(fields["neg_det_fs"] < 0.0)
    assert np.all(fields["min_eig_s"] > 0.0) and np.all(fields["max_eig_fs"] < 0.0)


# -- ellipses ----------------------------------------------------------------------

def _one_ellipse(anchor, s_x, level, count):
    """The samples of one anchor's ellipse, from a one-row batch."""
    positive, samples = ellipse_points(np.asarray(anchor, dtype=float)[None],
                                       np.asarray(s_x, dtype=float)[None], level, count)
    assert positive.tolist() == [True] and samples.shape == (1, count, 2)
    return samples[0]


def _ellipse_by_formula(x, s_x, level, count):
    """x + V diag(sqrt(level / lambda)) (cos t, sin t) for S = V diag(lambda) V^T."""
    eigenvalues, eigenvectors = np.linalg.eigh(s_x)
    angles = 2.0 * np.pi * np.arange(count) / count
    radial = np.sqrt(level / eigenvalues)
    local = np.stack([radial[0] * np.cos(angles), radial[1] * np.sin(angles)])
    return x + (eigenvectors @ local).T


def test_ellipse_unit_circle():
    pts = _one_ellipse(np.zeros(2), np.eye(2), 1.0, 16)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=0, atol=1e-12)


def test_ellipse_diagonal_semi_axes():
    pts = _one_ellipse(np.zeros(2), np.diag([4.0, 1.0]), 1.0, 8)
    assert np.max(np.abs(pts[:, 0])) == pytest.approx(0.5, rel=1e-12)
    assert np.max(np.abs(pts[:, 1])) == pytest.approx(1.0, rel=1e-12)


def test_ellipse_residual_random_spd():
    rng = np.random.default_rng(55)
    for _ in range(10):
        a = rng.normal(size=(2, 2))
        s = a @ a.T + 0.1 * np.eye(2)
        center = rng.uniform(-1, 1, 2)
        level = 0.3 + rng.random()
        pts = _one_ellipse(center, s, level, 32)
        for v in pts:
            res = (v - center) @ s @ (v - center)
            assert res == pytest.approx(level, rel=1e-10)


def test_ellipse_batch_masks_and_samples_like_one_anchor_at_a_time(solved_quarter):
    # positive definite, indefinite and negative definite metrics, and the
    # zero metric of an anchor outside every node's support
    rng = np.random.default_rng(56)
    a = rng.normal(size=(6, 2, 2))
    spd = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(2)
    anchors = np.array([[0.0, 0.0], [0.3, -0.2], [9.0, 9.0]])
    metrics = np.concatenate([eval_metric_batch(solved_quarter, anchors), spd[:3],
                              [np.diag([1.0, -0.5]), -spd[3], np.zeros((2, 2))], spd[3:]])
    anchors = np.concatenate([anchors, rng.uniform(-1, 1, (len(metrics) - 3, 2))])
    positive, samples = ellipse_points(anchors, metrics, 0.7, 12)
    assert np.array_equal(positive, np.linalg.eigvalsh(metrics)[:, 0] > 0.0)
    assert positive.tolist() == [True, True, False, True, True, True,
                                 False, False, False, True, True, True]
    assert samples.shape == (np.count_nonzero(positive), 12, 2)
    for got, x, s_x in zip(samples, anchors[positive], metrics[positive]):
        assert np.array_equal(got, _ellipse_by_formula(x, s_x, 0.7, 12))
    none, empty = ellipse_points(anchors[2:3], metrics[2:3], 0.7, 12)
    assert none.tolist() == [False] and empty.shape == (0, 12, 2)


def test_ellipse_rejects_bad_input():
    with pytest.raises(ValueError, match="level"):
        ellipse_points(np.zeros((1, 2)), np.eye(2)[None], 0.0, 8)
    with pytest.raises(ValueError, match="at least one sample"):
        ellipse_points(np.zeros((1, 2)), np.eye(2)[None], 1.0, 0)
    for anchors, metrics in ((np.zeros((1, 3)), np.eye(3)[None]),      # three-dimensional
                             (np.zeros(2), np.eye(2)),                 # not a batch
                             (np.zeros((2, 2)), np.eye(2)[None])):     # one metric short
        with pytest.raises(ValueError, match=r"\(A, 2\) anchors and \(A, 2, 2\) metrics"):
            ellipse_points(anchors, metrics, 1.0, 8)
    for level in (np.nan, np.inf):
        with pytest.raises(ValueError, match="level must be positive and finite"):
            ellipse_points(np.zeros((1, 2)), np.eye(2)[None], level, 8)
    for anchor in ((np.inf, 0.0), (0.0, np.nan)):
        with pytest.raises(ValueError, match="anchors must be finite"):
            ellipse_points(np.array([anchor]), np.eye(2)[None], 1.0, 8)


@pytest.mark.parametrize("level, s_x", [(1e308, np.diag([0.25, 1.0])),
                                        (1.0, np.diag([1e-320, 1.0]))],
                         ids=["large-level", "tiny-eigenvalue"])
def test_ellipse_overflowing_samples_raise(level, s_x):
    with pytest.raises(FloatingPointError, match="overflow"):
        ellipse_points(np.zeros((2, 2)), np.stack([np.eye(2), s_x]), level, 8)


# -- a three-dimensional system end to end ------------------------------------------

def _three_dimensional():
    """x' = A x in dimension 3, with its 27 nodes {-1/2, 0, 1/2}^3."""
    a = np.array([[-1.0, 0.5, 0.0], [0.0, -2.0, 0.3], [0.2, 0.0, -1.5]])
    system = DynamicalSystem(3, lambda x: x @ a.T, lambda x: np.tile(a, (len(x), 1, 1)),
                             label="3d")
    axis = (-0.5, 0.0, 0.5)
    return system, np.array([(x, y, z) for x in axis for y in axis for z in axis])


@pytest.fixture(scope="module")
def solved_3d(kernel):
    """The system of _three_dimensional solved for C = I on its nodes."""
    system, pts = _three_dimensional()
    cset, gram = assemble(system, kernel, pts)
    return solve(gram, np.eye(3), cset)


def test_three_dimensional_recovery(kernel):
    system, pts = _three_dimensional()
    cset, gram = assemble(system, kernel, pts)
    assert gram.shape == (27 * 6, 27 * 6)
    rhs = np.eye(3)
    solution = solve(gram, rhs, cset)
    images = eval_operator_batch(solution, pts)
    assert np.max(np.abs(images + rhs)) <= 1e-8
    values = eval_metric_batch(solution, pts)
    assert np.array_equal(values, values.transpose(0, 2, 1))
    assert np.linalg.eigvalsh(values[13])[0] > 0.0
