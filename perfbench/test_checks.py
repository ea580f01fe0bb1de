"""The benchmark's output checks accept good outputs and reject corrupted ones.

Run with `python3 -m pytest perfbench`; no conmet solve is needed.
"""

import json
import math
import time

import pytest

import run
import tracer
import workloads
from workloads import CheckFailed

# convergence.csv as conmet writes it for the default config
SEED_TABLE = """alpha,e_s,ratio_s,e,ratio
0.5,2.5724135634599836,,1.2333728757555176,
0.25,1.2833359000277742,2.0044740924058235,0.91690495030187691,1.3451480170866659
0.125,0.35161098507461741,3.6498743057058642,0.01243244556997114,73.750972416604384
0.0625,0.032910674507341975,10.683797592667911,0.00056039889348857841,22.184993072661246
0.03125,0.0024947841529001646,13.191792351688465,1.6311077176922595e-05,34.356951868356539
reference,,11.313708498984761,,11.313708498984761
"""


def _table(tmp_path, edit=None):
    rows = [line.split(",") for line in SEED_TABLE.strip().splitlines()]
    if edit:
        edit(rows)
    (tmp_path / "convergence.csv").write_text("\n".join(",".join(r) for r in rows) + "\n")
    return tmp_path


def test_convergence_accepts_seed_table(tmp_path):
    values = workloads.check_convergence(_table(tmp_path))
    assert values == {"err_S": 1.6311077176922595e-05, "err_LS": 0.0024947841529001646}


@pytest.mark.parametrize("row, col, factor", [(5, 1, 1.2), (5, 3, 0.8), (1, 1, 1.2)])
def test_convergence_rejects_error_off_by_20_percent(tmp_path, row, col, factor):
    def edit(rows):
        rows[row][col] = repr(float(rows[row][col]) * factor)
    with pytest.raises(CheckFailed, match="table"):
        workloads.check_convergence(_table(tmp_path, edit))


def test_convergence_rejects_broken_rate(tmp_path):
    def edit(rows):
        rows[4][2], rows[5][2] = rows[5][2], rows[4][2]
    with pytest.raises(CheckFailed, match="increasing"):
        workloads.check_convergence(_table(tmp_path, edit))


def test_convergence_rejects_missing_spacing(tmp_path):
    with pytest.raises(CheckFailed, match="rows"):
        workloads.check_convergence(_table(tmp_path, lambda rows: rows.pop(5)))


def _fields(tmp_path, n, scale=1.0, bad_fs=0, summary_edit=None, drop=0):
    """Fields of the exact metric s M, with L(S) = -s I except at bad_fs points."""
    low = workloads.EXACT_EIGS_S[0]
    good_fs = (-2.0 * scale, -scale ** 2, -scale)      # trace, -det, max eigenvalue
    bad = (0.5 * scale, scale ** 2, scale)             # indefinite
    rows = [",".join(workloads.FIELDS_HEADER)]
    for e in range(n - drop):
        tr_fs, neg_det_fs, max_fs = bad if e < bad_fs else good_fs
        rows.append(",".join(repr(v) for v in (
            0.0, 0.0, 1.5 * scale, 0.25 * scale ** 2, tr_fs, neg_det_fs, low * scale, max_fs)))
    (tmp_path / "fields.csv").write_text("\n".join(rows) + "\n")
    summary = {"n_points": n, "metric_not_positive_definite": 0,
               "operator_not_negative_definite": bad_fs, "failures": bad_fs}
    if summary_edit:
        summary_edit(summary)
    (tmp_path / "fields_summary.json").write_text(json.dumps(summary))
    return tmp_path


def test_fields_accepts_exact_outputs_and_divides_out_scale(tmp_path):
    values = workloads.check_fields(_fields(tmp_path, 8, scale=4.0), 8, 4.0)
    assert values["defin_failures"] == 0
    assert values["err_S"] < 1e-15 and values["err_LS"] < 1e-15


def test_fields_rejects_missing_point(tmp_path):
    with pytest.raises(CheckFailed, match="rows"):
        workloads.check_fields(_fields(tmp_path, 6400, drop=1), 6400, 1.0)


def test_large_domain_accepts_6400_points_with_definiteness_failures(tmp_path):
    workload = workloads.WORKLOADS["large-domain"]
    _fields(tmp_path, workload.check_points, bad_fs=40)
    _solution(tmp_path, workload.nodes, workload.unknowns, workload.nodes)
    assert workloads.check_outputs(workload, tmp_path, 1.0)["defin_failures"] == 40


def test_fields_rejects_summary_that_disagrees_with_csv(tmp_path):
    def edit(summary):
        summary["failures"] = summary["operator_not_negative_definite"] = 0
    with pytest.raises(CheckFailed, match="disagree"):
        workloads.check_fields(_fields(tmp_path, 8, bad_fs=2, summary_edit=edit), 8, 1.0)


def _solution(tmp_path, n_points, n_unknowns, beta_rows):
    (tmp_path / "solution.json").write_text(json.dumps({
        "n_points": n_points, "n_unknowns": n_unknowns, "factorization": "cholesky",
        "regularized": False}))
    lines = ["k,x0,x1,beta_00,beta_01,beta_11"] + ["0,0,0,1,0,1"] * beta_rows
    (tmp_path / "beta.csv").write_text("\n".join(lines) + "\n")
    return tmp_path


def test_solution_accepts_large_domain_size(tmp_path):
    assert workloads.check_solution(_solution(tmp_path, 1681, 5043, 1681), 1681, 5043) == {}


@pytest.mark.parametrize("points, unknowns, rows", [(1681, 5042, 1681), (1680, 5043, 1681),
                                                    (1681, 5043, 1680)])
def test_solution_rejects_wrong_size(tmp_path, points, unknowns, rows):
    with pytest.raises(CheckFailed):
        workloads.check_solution(_solution(tmp_path, points, unknowns, rows), 1681, 5043)


def test_residual_bound():
    assert workloads.check_residual(4e-13) == {"interp_residual": 4e-13}
    for bad in (2e-8, math.nan):
        with pytest.raises(CheckFailed, match="residual"):
            workloads.check_residual(bad)


def test_seed_keeps_workload_size_and_changes_only_scale_and_layout():
    workload = workloads.WORKLOADS["large-domain"]
    configs = [workloads.make_config(workload, seed) for seed in range(20)]
    assert workloads.make_config(workload, 3) == configs[3]
    assert {c["grid"]["spacing"] for c, _ in configs} == {0.2}
    assert {c["check_grid"]["offset"] for c, _ in configs} == {0.05}
    assert {s for _, s in configs} <= {0.25, 0.5, 1.0, 2.0, 4.0}
    assert len({s for _, s in configs}) > 1
    reference = workloads.WORKLOADS["reference-study"]
    assert workloads.make_config(reference, 5) == ({"output_dir": "out-5"}, 1.0)


def test_digest_ignores_timing_only(tmp_path):
    (tmp_path / "beta.csv").write_text("a\n")
    (tmp_path / "timing.json").write_text("1\n")
    first = workloads.artifact_digest(tmp_path)
    (tmp_path / "timing.json").write_text("2\n")
    assert workloads.artifact_digest(tmp_path) == first
    (tmp_path / "beta.csv").write_text("b\n")
    assert workloads.artifact_digest(tmp_path) != first


def test_tracer_self_time_excludes_children_and_folds_leaves():
    trace = tracer.Tracer(run_id="t")

    def leaf():
        time.sleep(0.01)

    def stage():
        time.sleep(0.02)
        for _ in range(3):
            leaf_traced()

    leaf_traced = trace.wrap(leaf, "systems.f", fold=True)
    trace.wrap(stage, "collocation.assemble")()
    dump = trace.dump()
    (span,) = dump["spans"]
    (folded,) = dump["folded"]
    assert folded["count"] == 3 and folded["ancestor"] == span["id"]
    assert span["self_s"] == pytest.approx(0.02, abs=0.01)
    assert span["end"] - span["start"] == pytest.approx(
        span["self_s"] + folded["total_s"], abs=1e-3)


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in spec[key]} == units
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
