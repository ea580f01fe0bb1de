"""CLI contract: config handling, artifacts, exit codes, determinism."""

import csv
import gc
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

import conmet.cli as cli
from conftest import in_fresh_process


def _write_config(path, **overrides):
    config = {
        "system": "linear-example",
        "grid": {"bounds": [[-1.0, 1.0], [-1.0, 1.0]], "spacing": 1.0},
        "check_grid": {"bounds": [[-1.0, 1.0], [-1.0, 1.0]],
                       "spacing": 0.25, "offset": 0.125},
        "alphas": [0.5],
        "output_dir": os.path.join(os.path.dirname(path), "out"),
    }
    config.update(overrides)
    with open(path, "w") as handle:
        json.dump(config, handle)
    return config


def _read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def test_solve_artifacts_smallest_grid(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg))
    assert cli.main(["solve", str(cfg)]) == 0
    meta = json.loads((tmp_path / "out" / "solution.json").read_text())
    assert meta["n_points"] == 9
    assert meta["n_unknowns"] == 27
    assert meta["interp_residual"] < 1e-10
    assert "relative_residual" not in meta
    assert meta["separation_distance"] == 1.0
    timing = json.loads((tmp_path / "out" / "timing.json").read_text())
    assert timing["assemble_seconds"] > 0.0 and timing["residual_seconds"] > 0.0
    header, rows = _read_csv(tmp_path / "out" / "beta.csv")
    assert header == ["k", "x0", "x1", "beta_00", "beta_01", "beta_11"]
    assert len(rows) == 9


def test_missing_config_exits_2(tmp_path, capsys):
    path = tmp_path / "nope.json"
    assert cli.main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: [Errno 2] No such file or directory: '{path}'" in err
    assert "usage" in err.lower()


def test_unknown_keys_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), extra_knob=1)
    assert cli.main(["solve", str(cfg)]) == 2
    assert "extra_knob" in capsys.readouterr().err

    _write_config(str(cfg), grid={"bounds": [[-1, 1], [-1, 1]],
                                  "spacing": 1.0, "rotation": 0.3})
    assert cli.main(["solve", str(cfg)]) == 2
    assert "rotation" in capsys.readouterr().err


def test_config_nested_past_the_recursion_limit_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[" * 100000 + "]" * 100000)
    assert cli.main(["solve", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"config error: config file {cfg} is not valid JSON: maximum recursion depth exceeded "
        "while decoding a JSON array from a unicode string"]
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_invalid_json_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert cli.main(["solve", str(cfg)]) == 2
    assert "valid JSON" in capsys.readouterr().err


def test_unknown_system_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), system="does-not-exist")
    assert cli.main(["solve", str(cfg)]) == 2
    assert "linear-example" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    {"alphas": 0.5},
    {"kernel": {"c": [1]}},
    {"rhs_matrix": 5},
    {"probe_spacing": None},
    {"grid": {"spacing": [1]}},
    {"probe_spacing": float("nan")},
    {"alphas": []},
    {"kernel": {"c": float("inf")}},
    {"kernel": {"c": 1e308}},
], ids=repr)
def test_wrong_value_types_exit_2(tmp_path, capsys, override):
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), **override)
    assert cli.main(["convergence", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


_BOUNDS = [[-1, 1], [-1, 1]]


@pytest.mark.parametrize("override, message", [
    pytest.param({"output_dir": None}, "output_dir must be", id="output_dir"),
    pytest.param({"system": 5}, "system must be", id="system"),
    pytest.param({"kernel": {"c": True}}, "kernel c must be", id="kernel-c"),
    pytest.param({"alphas": ["0.5"]}, "alphas entry must be", id="alphas-string"),
    pytest.param({"alphas": [0.5, None]}, "alphas entry must be", id="alphas-null"),
    pytest.param({"probe_spacing": True}, "unknown config keys: probe_spacing",
                 id="probe_spacing"),
    pytest.param({"grid": {"bounds": _BOUNDS, "spacing": "0.5"}}, "grid spacing must be",
                 id="grid-spacing"),
    pytest.param({"grid": {"bounds": _BOUNDS, "spacing": 0.5, "offset": False}},
                 "grid offset must be", id="grid-offset"),
    pytest.param({"grid": {"bounds": [[-1, True], [-1, 1]], "spacing": 0.5}},
                 "grid bounds entry must be", id="grid-bounds"),
    pytest.param({"check_grid": {"bounds": _BOUNDS, "spacing": None}},
                 "check_grid spacing must be", id="check_grid-spacing"),
    pytest.param({"check_grid": {"bounds": _BOUNDS, "spacing": 0.5, "offset": "0"}},
                 "check_grid offset must be", id="check_grid-offset"),
    pytest.param({"check_grid": {"bounds": [["-1", 1], [-1, 1]], "spacing": 0.5}},
                 "check_grid bounds entry must be", id="check_grid-bounds"),
    pytest.param({"rhs_matrix": [[True, 0], [0, 1]]}, "rhs_matrix entry must be", id="rhs-bool"),
    pytest.param({"rhs_matrix": [[1, 0], [0, "1"]]}, "rhs_matrix entry must be", id="rhs-string"),
    # a value of another JSON type at a list key, and an integer beyond the float range
    pytest.param({"alphas": 1e308}, "alphas must be a list, got 1e+308", id="alphas-number"),
    pytest.param({"rhs_matrix": float("inf")}, "rhs_matrix must be a list, got Infinity",
                 id="rhs-number"),
    pytest.param({"grid": {"bounds": float("nan")}}, "grid bounds must be a list, got NaN",
                 id="grid-bounds-number"),
    pytest.param({"check_grid": {"bounds": "c"}}, 'check_grid bounds must be a list, got "c"',
                 id="check_grid-bounds-string"),
    pytest.param({"kernel": {"c": 10 ** 400}},
                 "kernel c must be a number within the float range, got a 401-digit integer",
                 id="kernel-c-huge-integer"),
])
def test_wrong_json_types_exit_2_before_any_work(tmp_path, capsys, monkeypatch, override,
                                                 message):
    # str(None) is "None", str(5) is "5", float(True) is 1.0 and
    # float("0.5") is 0.5: each is rejected
    import conmet.evaluate

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled despite a config error")

    for module in (cli, conmet.evaluate):       # solve and fields, convergence
        monkeypatch.setattr(module, "assemble", no_assembly)
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), **override)
    for command in ("solve", "convergence", "fields"):
        assert cli.main([command, str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {message}" in err
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_csv_values_are_format_17g(tmp_path):
    values = [-0.0, float("inf"), -float("inf"), float("nan"), 5e-324,
              1.7976931348623157e308, 0.1, -3.0, 1681.0]
    table = np.array([values, values[::-1]])
    lines = list(cli._float_lines(table))
    assert lines == [",".join(format(v, ".17g") for v in row) for row in table.tolist()]
    cli._write_csv(tmp_path / "t.csv", ["a"] * len(values), lines)
    with open(tmp_path / "ref.csv", "w", newline="") as handle:
        csv.writer(handle).writerows([["a"] * len(values)] + [line.split(",") for line in lines])
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_convergence_single_alpha_csv(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg))
    assert cli.main(["convergence", str(cfg)]) == 0
    header, rows = _read_csv(tmp_path / "out" / "convergence.csv")
    assert header == ["alpha", "e_s", "ratio_s", "e", "ratio"]
    assert len(rows) == 2
    assert rows[0][0] == "0.5" and rows[0][2] == "" and rows[0][4] == ""
    assert rows[1][0] == "reference"
    assert float(rows[1][2]) == pytest.approx(2.0 ** 3.5)


def test_convergence_reports_each_spacing_as_it_finishes(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), alphas=[1.0, 0.5])
    assert cli.main(["convergence", str(cfg)]) == 0
    out, err = capsys.readouterr()
    spacings = json.loads((tmp_path / "out" / "timing.json").read_text())["spacings"]
    assert [(entry["alpha"], entry["nodes"]) for entry in spacings] == [(0.5, 25), (1.0, 9)]
    for entry in spacings:
        assert all(entry[key] > 0.0
                   for key in ("assemble_seconds", "solve_seconds", "error_seconds"))
    assert [line.split()[:2] for line in err.splitlines()] == [
        ["alpha=0.5", "nodes=25"], ["alpha=1", "nodes=9"]]
    # stdout is the table as before: one line per row, then the reference ratio
    assert [line.split()[0] for line in out.splitlines()] == ["alpha=1", "alpha=0.5",
                                                              "reference"]

    # a spacing's line is on stderr before the next spacing fails
    import conmet.collocation
    import conmet.evaluate

    solve = conmet.evaluate.solve

    def second_fails(gram, rhs, cset):
        if len(cset) == 9:
            raise conmet.collocation.FactorizationError("synthetic failure", pivot=7)
        return solve(gram, rhs, cset)

    monkeypatch.setattr(conmet.evaluate, "solve", second_fails)
    assert cli.main(["convergence", str(cfg), "--output-dir", str(tmp_path / "b")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("alpha=0.5 nodes=25 ") and "pivot 7" in err[1]
    assert not (tmp_path / "b" / "timing.json").exists()


def test_fields_artifacts_and_interpolation_rows(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # evaluate on the collocation grid itself: interpolation rows are exact
    _write_config(str(cfg), grid={"bounds": [[-1, 1], [-1, 1]], "spacing": 0.25},
                  check_grid={"bounds": [[-1, 1], [-1, 1]], "spacing": 0.25,
                              "offset": 0.0})
    assert cli.main(["fields", str(cfg)]) == 0
    header, rows = _read_csv(tmp_path / "out" / "fields.csv")
    assert header == ["x", "y", "trace_S", "det_S", "trace_FS", "neg_det_FS",
                      "min_eig_S", "max_eig_FS"]
    assert len(rows) == 81
    for row in rows:
        assert float(row[4]) == pytest.approx(-2.0, abs=1e-6)   # trace_FS
        assert float(row[5]) == pytest.approx(-1.0, abs=1e-6)   # neg_det_FS
    summary = json.loads((tmp_path / "out" / "fields_summary.json").read_text())
    assert summary["n_points"] == 81
    assert set(summary) == {"n_points", "metric_not_positive_definite",
                            "operator_not_negative_definite", "failures"}
    assert summary["failures"] == (summary["metric_not_positive_definite"]
                                   + summary["operator_not_negative_definite"])


def test_fields_summary_matches_csv_recount(tmp_path, capsys):
    # a coarse grid leaves both kinds of failure; the summary counts must
    # equal a recount of the written min_eig_S and max_eig_FS columns
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), grid={"bounds": [[-1, 1], [-1, 1]], "spacing": 0.5},
                  check_grid={"bounds": [[-1, 1], [-1, 1]], "spacing": 0.125,
                              "offset": 0.0625})
    assert cli.main(["fields", str(cfg)]) == 0
    _, rows = _read_csv(tmp_path / "out" / "fields.csv")
    bad_s = bad_fs = 0
    for row in rows:
        min_eig_s, max_eig_fs = map(float, row[6:])
        bad_s += not min_eig_s > 0.0
        bad_fs += not max_eig_fs < 0.0
    summary = json.loads((tmp_path / "out" / "fields_summary.json").read_text())
    assert bad_s > 0 and bad_fs > 0
    assert summary == {"n_points": len(rows), "metric_not_positive_definite": bad_s,
                       "operator_not_negative_definite": bad_fs,
                       "failures": bad_s + bad_fs}


def test_fields_counts_singular_and_non_finite_metrics_as_failures(tmp_path, capsys,
                                                                   monkeypatch):
    # S = [[a, a], [a, a]] is singular, and its det_S, the product of its
    # eigenvalues, is 0 (an LU rounds it to +5.3e-15); an all-NaN S and an S
    # with one NaN entry, which eigvalsh does not read, decide nothing.  All
    # three rows fail, as their min_eig_S and det_S show, the trace and
    # determinant recount agrees with the summary, and no warning is raised
    import conmet.evaluate

    a = 5.940812679889744
    original = conmet.evaluate._fields_batch

    def stubbed(solution, query):
        s, fs = original(solution, query)
        s[3] = a
        s[5] = np.nan
        s[7, 0, 1] = np.nan
        return s, fs

    monkeypatch.setattr(conmet.evaluate, "_fields_batch", stubbed)
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), grid={"bounds": [[-1, 1], [-1, 1]], "spacing": 0.25},
                  check_grid={"bounds": [[-1, 1], [-1, 1]], "spacing": 0.25,
                              "offset": 0.0})
    assert cli.main(["fields", str(cfg)]) == 0
    _, rows = _read_csv(tmp_path / "out" / "fields.csv")
    assert float(rows[3][3]) == 0.0                     # det_S
    assert float(rows[3][6]) == 0.0 and np.isnan(float(rows[5][6]))     # min_eig_S
    assert np.isnan(float(rows[7][6])) and np.isnan(float(rows[7][3]))
    summary = json.loads((tmp_path / "out" / "fields_summary.json").read_text())
    recount = sum(not float(row[6]) > 0.0 for row in rows)
    assert summary["metric_not_positive_definite"] == recount == 3
    # check_fields' rule: S positive definite where det_S > 0 and trace_S > 0
    assert sum(not (float(row[3]) > 0.0 and float(row[2]) > 0.0) for row in rows) == recount


def test_ellipses_good_and_flagged_anchors(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), grid={"bounds": [[-1, 1], [-1, 1]], "spacing": 0.25})
    # second anchor far outside the kernel support of every node: S = 0 there
    assert cli.main(["ellipses", str(cfg), "--anchor", "0,0",
                     "--anchor", "9,9", "--level", "0.5", "--count", "4"]) == 0
    header, rows = _read_csv(tmp_path / "out" / "ellipses.csv")
    assert header == ["anchor_id", "x", "y"]
    assert len(rows) == 4 and all(r[0] == "0" for r in rows)
    summary = json.loads((tmp_path / "out" / "ellipses_summary.json").read_text())
    assert summary["n_failed"] == 1
    assert summary["anchors"][0]["ok"] and not summary["anchors"][1]["ok"]


def test_ellipses_flag_anchors_by_the_eigenvalue_test_of_the_sampling(tmp_path, capsys,
                                                                      monkeypatch):
    # S = [[a, a], [a, a]] is singular, but its LU determinant can round to
    # a tiny positive value; the anchor is flagged, not sampled
    a = 5.940812679889744
    original = cli.eval_metric_batch

    def stubbed(solution, points):
        metrics = original(solution, points)
        metrics[1] = a
        return metrics

    monkeypatch.setattr(cli, "eval_metric_batch", stubbed)
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), grid={"bounds": [[-1, 1], [-1, 1]], "spacing": 0.25})
    assert cli.main(["ellipses", str(cfg), "--anchor", "0,0", "--anchor", "0.3,-0.2",
                     "--count", "4"]) == 0
    _, rows = _read_csv(tmp_path / "out" / "ellipses.csv")
    assert len(rows) == 4 and all(r[0] == "0" for r in rows)
    summary = json.loads((tmp_path / "out" / "ellipses_summary.json").read_text())
    assert summary["n_failed"] == 1
    assert summary["anchors"][1] == {"id": 1, "anchor": [0.3, -0.2], "ok": False,
                                     "reason": "metric not positive definite here"}


def test_ellipses_all_anchors_failing_exits_3(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), grid={"bounds": [[-1, 1], [-1, 1]], "spacing": 0.25})
    assert cli.main(["ellipses", str(cfg), "--anchor", "9,9"]) == 3
    assert "not positive definite" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--anchor", "0,0", "--level", "nan"], "level must be positive and finite"),
    (["--anchor", "0,0", "--level", "inf"], "level must be positive and finite"),
    (["--anchor", "inf,0"], "anchors are finite 'x,y' pairs, got 'inf,0'"),
    (["--anchor", "0,0", "--anchor", "0,nan"], "anchors are finite 'x,y' pairs, got '0,nan'"),
    (["--anchor", "1,2,3"], "anchors are finite 'x,y' pairs, got '1,2,3'"),
], ids=["level-nan", "level-inf", "anchor-inf", "anchor-nan", "anchor-three"])
def test_ellipses_non_finite_input_exits_2(tmp_path, capsys, args, message):
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), grid={"bounds": [[-1, 1], [-1, 1]], "spacing": 0.25})
    assert cli.main(["ellipses", str(cfg), *args]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "ellipses.csv").exists()
    assert not (tmp_path / "out" / "ellipses_summary.json").exists()


def test_ellipses_overflowing_sample_exits_3_and_writes_nothing(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), grid={"bounds": [[-1, 1], [-1, 1]], "spacing": 0.25})
    assert cli.main(["ellipses", str(cfg), "--anchor", "0,0", "--level", "1e308"]) == 3
    assert "numerical failure: overflow encountered in divide" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


def test_ellipses_require_anchor(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg))
    assert cli.main(["ellipses", str(cfg)]) == 2
    assert "--anchor" in capsys.readouterr().err


def test_exact_metric_of_the_wrong_shape_exits_2(tmp_path, capsys, monkeypatch,
                                                assemble_calls):
    # the exact metric is called on the whole check grid; one (n, n) matrix
    # for all points fails apply_operator's shape check before any assembly
    from conmet import ExactMetric, linear_example, register_system, systems

    monkeypatch.setattr(systems, "_REGISTRY", dict(systems._REGISTRY))
    system, _, rhs = linear_example()
    unbatched = ExactMetric(lambda points: np.array([[1.0, 0.5], [0.5, 0.5]]),
                            lambda points: np.zeros((2, 2, 2)))
    register_system("unbatched-exact", system, exact=unbatched, rhs=rhs)
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), system="unbatched-exact")
    assert cli.main(["convergence", str(cfg)]) == 2
    assert "field data has wrong shape" in capsys.readouterr().err
    assert not (tmp_path / "out" / "convergence.csv").exists()
    assert assemble_calls == []


def test_per_point_system_exits_2(tmp_path, capsys, monkeypatch):
    # callbacks written for one point: register_system rejects them, so the
    # bundle goes into the registry directly; the first call on the grid
    # names the shapes
    from conmet import systems

    monkeypatch.setattr(systems, "_REGISTRY", dict(systems._REGISTRY))
    a = np.array([[-1.0, 1.0], [1.0, -2.0]])
    per_point = systems.DynamicalSystem(
        2, lambda x: np.array([-x[0] + x[1], x[0] - 2.0 * x[1]]), lambda x: a.copy())
    systems._REGISTRY["per-point"] = systems.SystemBundle(per_point)
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), system="per-point")
    assert cli.main(["solve", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "expected (9, 2) and (9, 2, 2)" in err
    assert not (tmp_path / "out" / "beta.csv").exists()


def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    import conmet.collocation
    import conmet.evaluate

    def broken_solve(*args, **kwargs):
        raise conmet.collocation.FactorizationError("synthetic failure", pivot=7)

    for module in (cli, conmet.evaluate):     # solve, convergence
        monkeypatch.setattr(module, "solve", broken_solve)
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg))
    for command in ("solve", "convergence"):
        assert cli.main([command, str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: factorization failed (pivot 7)" in err
        assert not (tmp_path / "out" / "solution.json").exists()
        assert not (tmp_path / "out" / "convergence.csv").exists()


def test_insufficient_memory_exits_3(tmp_path, capsys, monkeypatch):
    import conmet.collocation

    monkeypatch.setattr(conmet.collocation, "_available_memory_bytes", lambda: 10 ** 6)
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg))
    assert cli.main(["solve", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "insufficient memory" in err and "only 1 MB" in err
    assert not (tmp_path / "out" / "solution.json").exists()


def test_failed_mapping_exits_3(tmp_path, capsys, monkeypatch):
    import mmap

    def refuse(*args, **kwargs):
        raise OSError(12, "Cannot allocate memory")

    monkeypatch.setattr(mmap, "mmap", refuse)
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg))
    assert cli.main(["solve", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "insufficient memory: cannot map the 27-unknown Gram matrix" in err
    assert not (tmp_path / "out" / "solution.json").exists()


def test_solution_reports_min_pivot(tmp_path, capsys):
    import numpy as np

    import conmet

    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), grid={"bounds": [[-1, 1], [-1, 1]], "spacing": 0.5})
    assert cli.main(["solve", str(cfg)]) == 0
    meta = json.loads((tmp_path / "out" / "solution.json").read_text())
    system, _, _ = conmet.linear_example()
    points = conmet.make_grid(conmet.GridSpec(((-1.0, 1.0), (-1.0, 1.0)), 0.5))
    _, gram = conmet.assemble(system, conmet.wendland_c8(0.9), points)
    expected = np.min(np.diag(np.linalg.cholesky(gram)))
    assert 0.0 < meta["min_pivot"] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("bounds, spacing, offset", [
    ([[-4, 4], [-4, 4]], 0.2, 0.0),
    ([[-1, 1], [-1, 1]], 0.5, 0.25),
    ([[-1, 1], [-1, 1]], 0.5, 0.5),
    ([[-1, 1], [-0.5, 0.5]], 0.5, 0.5),
], ids=["large-domain", "offset-half-spacing", "offset-past-half-spacing", "single-node-axis"])
def test_solution_reports_the_grids_separation_and_fill_distance(tmp_path, capsys, bounds,
                                                                 spacing, offset):
    # the closed forms, bit for bit, and the brute-force minimum over node
    # pairs and maximum over probes at the box's corners and cells' centres
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), grid={"bounds": bounds, "spacing": spacing, "offset": offset})
    assert cli.main(["solve", str(cfg)]) == 0
    meta = json.loads((tmp_path / "out" / "solution.json").read_text())
    assert meta["separation_distance"] == spacing
    assert meta["fill_distance_estimate"] == np.sqrt(2) * max(offset, spacing / 2)
    _, rows = _read_csv(tmp_path / "out" / "beta.csv")
    nodes = np.array([[float(v) for v in row[1:3]] for row in rows])
    axes = [np.unique(nodes[:, a]) for a in range(2)]
    probes = np.stack(np.meshgrid(*[np.concatenate([edge, (axis[1:] + axis[:-1]) / 2])
                                    for edge, axis in zip(bounds, axes)]), axis=-1)
    fill = np.max(np.min(cdist(probes.reshape(-1, 2), nodes), axis=1))
    assert meta["separation_distance"] == pytest.approx(np.min(pdist(nodes)), rel=1e-12)
    assert meta["fill_distance_estimate"] == pytest.approx(fill, rel=1e-12)


def test_solve_calls_each_system_callback_once(tmp_path, capsys, monkeypatch):
    # the node residual reuses the f and Df values that assembly cached, and
    # equals bit for bit the one evaluated from the bare nodes
    import dataclasses

    import conmet
    from conmet import systems

    monkeypatch.setattr(systems, "_REGISTRY", dict(systems._REGISTRY))
    system, exact, rhs = conmet.linear_example()
    calls = {"f": 0, "jacobian": 0}

    def counted(name):
        callback = getattr(system, name)

        def wrapper(x):
            calls[name] += 1
            return callback(x)
        return wrapper

    conmet.register_system("counted", dataclasses.replace(
        system, f=counted("f"), jacobian=counted("jacobian")), exact=exact, rhs=rhs)
    calls.update(f=0, jacobian=0)
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), system="counted",
                  grid={"bounds": [[-1, 1], [-1, 1]], "spacing": 0.5})
    assert cli.main(["solve", str(cfg)]) == 0
    assert calls == {"f": 1, "jacobian": 1}
    meta = json.loads((tmp_path / "out" / "solution.json").read_text())
    points = conmet.make_grid(conmet.GridSpec(((-1.0, 1.0), (-1.0, 1.0)), 0.5))
    kernel = conmet.wendland_c8(0.9)
    cset, gram = conmet.assemble(system, kernel, points)
    solution = conmet.solve(gram, rhs, cset)
    residual = np.max(np.abs(conmet.eval_operator_batch(solution, points) + rhs))
    assert meta["interp_residual"] == float(residual / np.max(np.abs(rhs)))


def test_output_dir_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg))
    target = tmp_path / "elsewhere"
    assert cli.main(["solve", str(cfg), "--output-dir", str(target)]) == 0
    assert (target / "solution.json").exists()


def test_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), grid={"bounds": [[-1, 1], [-1, 1]], "spacing": 0.25},
                  check_grid={"bounds": [[-1, 1], [-1, 1]],
                              "spacing": 0.125, "offset": 0.0625})
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        for command in ("solve", "fields"):
            result = subprocess.run(
                [sys.executable, "-m", "conmet.cli", command, str(cfg),
                 "--output-dir", str(out)],
                capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
        outputs.append({name: (out / name).read_bytes()
                        for name in ("solution.json", "beta.csv",
                                     "fields.csv", "fields_summary.json")})
    assert outputs[0] == outputs[1]


_COARSE = {"grid": {"bounds": [[-1, 1], [-1, 1]], "spacing": 0.5},
           "check_grid": {"bounds": [[-1, 1], [-1, 1]], "spacing": 0.25, "offset": 0.125}}
# each command with the extra arguments it needs and the artifacts it writes
_CONSUMERS = {
    "fields": ([], ("fields.csv", "fields_summary.json")),
    "ellipses": (["--anchor", "0,0", "--anchor", "0.3,-0.2", "--count", "8"],
                 ("ellipses.csv", "ellipses_summary.json")),
}


@pytest.fixture
def assemble_calls(monkeypatch):
    """A list that grows by one entry per assemble call, from the CLI's
    commands and from the convergence study."""
    import conmet.evaluate

    calls = []
    original = cli.assemble

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "assemble", counted)
    monkeypatch.setattr(conmet.evaluate, "assemble", counted)
    return calls


def _run(command, cfg, out, *extra):
    args, _ = _CONSUMERS.get(command, ([], ()))
    return cli.main([command, str(cfg), "--output-dir", str(out), *args, *extra])


def _artifacts(command, out):
    return {name: (out / name).read_bytes() for name in _CONSUMERS[command][1]}


@pytest.mark.parametrize("command", sorted(_CONSUMERS))
def test_consumers_reuse_the_solve(tmp_path, capsys, assemble_calls, command):
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), **_COARSE)
    assert _run("solve", cfg, tmp_path / "a") == 0
    capsys.readouterr()
    assert _run(command, cfg, tmp_path / "a") == 0
    assert len(assemble_calls) == 1
    assert "reused" in capsys.readouterr().err
    timing = json.loads((tmp_path / "a" / "timing.json").read_text())
    assert timing["beta_source"] == "beta.csv" and "assemble_seconds" not in timing
    assert timing["evaluate_seconds"] > 0.0 and timing["write_seconds"] > 0.0

    # the same command alone in a fresh directory solves and writes the same bytes
    assert _run(command, cfg, tmp_path / "b") == 0
    assert len(assemble_calls) == 2
    assert "reused" not in capsys.readouterr().err
    timing = json.loads((tmp_path / "b" / "timing.json").read_text())
    assert timing["beta_source"] == "solved" and timing["assemble_seconds"] > 0.0
    assert _artifacts(command, tmp_path / "a") == _artifacts(command, tmp_path / "b")


def _edit_beta(out, edit, update_digest):
    """Apply edit to the cells of the first data row of beta.csv and, if
    asked, write the edited file's digest into solution.json."""
    import hashlib

    path = out / "beta.csv"
    rows = path.read_bytes().decode().split("\r\n")
    rows[1] = ",".join(edit(rows[1].split(",")))
    path.write_bytes("\r\n".join(rows).encode())
    if update_digest:
        meta = json.loads((out / "solution.json").read_text())
        meta["beta_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        (out / "solution.json").write_text(json.dumps(meta))


def _one_digit(cells):
    last = cells[-1]
    return cells[:-1] + [last[:-1] + str((int(last[-1]) + 1) % 10)]


@pytest.mark.parametrize("stale", [
    "grid", "rhs_matrix", "kernel", "beta digit", "no solution.json",
    "beta NaN, digest updated", "node moved, digest updated",
])
def test_stale_inputs_solve_again(tmp_path, capsys, assemble_calls, stale):
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), **_COARSE)
    out = tmp_path / "out"
    assert _run("solve", cfg, out) == 0
    if stale == "grid":
        _write_config(str(cfg), **dict(_COARSE, grid={"bounds": [[-1, 1], [-1, 1]],
                                                      "spacing": 1.0}))
    elif stale == "rhs_matrix":
        _write_config(str(cfg), rhs_matrix=[[2.0, 0.0], [0.0, 1.0]], **_COARSE)
    elif stale == "kernel":
        _write_config(str(cfg), kernel={"c": 0.8}, **_COARSE)
    elif stale == "beta digit":
        _edit_beta(out, _one_digit, update_digest=False)
    elif stale == "no solution.json":
        (out / "solution.json").unlink()
    elif stale == "beta NaN, digest updated":
        _edit_beta(out, lambda cells: cells[:-1] + ["nan"], update_digest=True)
    else:
        _edit_beta(out, lambda cells: [cells[0], "-0.75"] + cells[2:], update_digest=True)
    capsys.readouterr()
    assert _run("fields", cfg, out) == 0
    assert len(assemble_calls) == 2
    assert "reused" not in capsys.readouterr().err
    assert json.loads((out / "timing.json").read_text())["beta_source"] == "solved"
    assert _run("fields", cfg, tmp_path / "fresh") == 0
    assert _artifacts("fields", out) == _artifacts("fields", tmp_path / "fresh")


@pytest.mark.parametrize("rhs, code, message", [
    ([[float("inf"), 0.0], [0.0, 1.0]], 2, "config error: right-hand-side matrix must be finite"),
    ([[1e308, 0.0], [0.0, 1e308]], 3, "numerical failure: the solution of the collocation"),
], ids=["infinite", "overflowing"])
def test_non_finite_rhs_or_solution_writes_nothing(tmp_path, capsys, rhs, code, message):
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), rhs_matrix=rhs)
    for command in ("solve", "fields"):
        assert cli.main([command, str(cfg)]) == code
        assert message in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []


def test_fields_writes_overflowing_determinants_as_inf(tmp_path, capsys):
    # C = 1e200 I: S and L(S) are finite near 1e200, their determinants lie
    # beyond the float range and are written as +-inf, without the overflow
    # warning that the suite would turn into an error
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), rhs_matrix=[[1e200, 0.0], [0.0, 1e200]],
                  grid={"bounds": _BOUNDS, "spacing": 0.5})
    assert cli.main(["fields", str(cfg)]) == 0
    _, rows = _read_csv(tmp_path / "out" / "fields.csv")
    table = np.array(rows, dtype=float)
    assert len(table) == 64 and np.all(np.isfinite(table[:, [2, 4, 6, 7]]))
    assert np.all(np.isinf(table[:, 3])) and np.all(np.isinf(table[:, 5]))
    assert np.all(table[table[:, 6] > 0.0, 3] == np.inf)       # S positive definite there


@pytest.mark.parametrize("source", ["config", "bundle"])
@pytest.mark.parametrize("rhs, message", [
    ([[1.0, 0.0], [0.0, -1.0]], "must be positive definite"),
    ([[1.0, 0.5], [0.0, 1.0]], "must be symmetric"),
    ([[float("nan"), 0.0], [0.0, 1.0]], "must be finite"),     # json reads NaN
], ids=["indefinite", "asymmetric", "nan"])
def test_bad_rhs_exits_2_before_assembly(tmp_path, capsys, monkeypatch, assemble_calls,
                                         rhs, message, source):
    # from the config or as the registered system's own C
    cfg = tmp_path / "cfg.json"
    if source == "config":
        _write_config(str(cfg), rhs_matrix=rhs, alphas=[0.5, 0.25])
    else:
        from conmet import linear_example, register_system, systems

        monkeypatch.setattr(systems, "_REGISTRY", dict(systems._REGISTRY))
        system, exact, _ = linear_example()
        register_system("bad-rhs", system, exact=exact, rhs=rhs)
        _write_config(str(cfg), system="bad-rhs", alphas=[0.5, 0.25])
    for command in ("solve", "convergence", "fields"):
        assert cli.main([command, str(cfg)]) == 2
        assert f"config error: right-hand-side matrix {message}" in capsys.readouterr().err
    assert assemble_calls == []
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("where", ["flag", "config"])
def test_output_dir_naming_a_file_exits_2_before_assembly(tmp_path, capsys, assemble_calls,
                                                          where):
    cfg = tmp_path / "cfg.json"
    target = tmp_path / "taken"
    target.write_text("")
    _write_config(str(cfg), output_dir=str(target))
    args = ["--output-dir", str(target)] if where == "flag" else []
    for command in ("solve", "convergence", "fields"):
        assert cli.main([command, str(cfg), *args]) == 2
        err = capsys.readouterr().err
        assert "config error: [Errno 17] File exists" in err and str(target) in err
    assert assemble_calls == []


# each command with the extra arguments it needs and the first artifact it writes
_WRITERS = {
    "solve": ([], "beta.csv"),
    "convergence": ([], "convergence.csv"),
    "fields": ([], "fields.csv"),
    "ellipses": (["--anchor", "0,0"], "ellipses.csv"),
}


@pytest.mark.parametrize("command", sorted(_WRITERS))
def test_config_path_naming_a_directory_exits_2(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert cli.main([command, str(tmp_path), *_WRITERS[command][0]]) == 2
    err = capsys.readouterr().err
    assert f"config error: [Errno 21] Is a directory: '{tmp_path}'" in err
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", sorted(_WRITERS))
def test_output_file_naming_a_directory_exits_2_and_writes_nothing_later(tmp_path, capsys,
                                                                         command):
    # the write fails after the work is done; no artifact after it is written
    args, first = _WRITERS[command]
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg))
    taken = tmp_path / "out" / first
    taken.mkdir(parents=True)
    assert cli.main([command, str(cfg), *args]) == 2
    err = capsys.readouterr().err
    assert f"config error: [Errno 21] Is a directory: '{taken}'" in err
    assert "Traceback" not in err
    assert os.listdir(tmp_path / "out") == [first]


@pytest.mark.parametrize("spacing", [1e-308, 5e-324])
@pytest.mark.parametrize("key", ["grid", "check_grid", "alphas"])
def test_spacing_too_small_for_the_edge_exits_2_before_assembly(tmp_path, capsys,
                                                                assemble_calls, key, spacing):
    # 2 / spacing overflows to inf, which round() cannot take
    cfg = tmp_path / "cfg.json"
    if key == "alphas":
        _write_config(str(cfg), alphas=[0.5, spacing])
    else:
        _write_config(str(cfg), **{key: {"bounds": _BOUNDS, "spacing": spacing}})
    commands = ["convergence"] if key == "alphas" else sorted(_WRITERS)
    for command in commands:
        assert cli.main([command, str(cfg), *_WRITERS[command][0]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert f"spacing {spacing!r} is too small for the edge [-1.0, 1.0]" in err
    assert assemble_calls == []


@pytest.mark.parametrize("key", ["grid", "check_grid"])
@pytest.mark.parametrize("bounds", [[], [[1, 2], [3]], [[-1, 1, 2]]],
                         ids=["empty", "short-row", "long-row"])
def test_bounds_that_are_not_pairs_exit_2_before_assembly(tmp_path, capsys, assemble_calls,
                                                          key, bounds):
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), **{key: {"bounds": bounds, "spacing": 0.5}})
    for command in sorted(_WRITERS):
        assert cli.main([command, str(cfg), *_WRITERS[command][0]]) == 2
        err = capsys.readouterr().err
        assert f"config error: invalid {key}: bounds must be one [lo, hi] pair per axis" in err
    assert assemble_calls == []


@pytest.mark.parametrize("command, override, args, what", [
    ("solve", {"grid": {"bounds": _BOUNDS, "spacing": 1 / 256}}, [],
     "the 513 x 513 points of a grid need about 4 MB"),
    ("fields", {"check_grid": {"bounds": _BOUNDS, "spacing": 1 / 256}}, [],   # staggered
     "the 512 x 512 points of a grid need about 4 MB"),
    ("ellipses", {}, ["--anchor", "0,0", "--anchor", "0.5,0", "--count", "10000"],
     "10000 samples around each of 2 anchors need about 6 MB"),
], ids=["solve-grid", "fields-check-grid", "ellipses-samples"])
def test_grids_and_samples_too_large_exit_3_before_any_solve(tmp_path, capsys, monkeypatch,
                                                             command, override, args, what):
    import conmet.collocation

    def no_assembly(*args, **kwargs):       # fails at once, where a 513^2-node one would not
        raise AssertionError("assembled despite too little memory")

    monkeypatch.setattr(cli, "assemble", no_assembly)
    monkeypatch.setattr(conmet.collocation, "_available_memory_bytes", lambda: 10 ** 6)
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), **override)
    assert cli.main([command, str(cfg), *args]) == 3
    assert f"insufficient memory: {what}, but only 1 MB are available" in capsys.readouterr().err


def test_fields_export_too_large_exits_3_before_any_solve(tmp_path, capsys, monkeypatch,
                                                         assemble_calls):
    # the 128 x 128 check points take 262 kB, the export about 16 MB
    import conmet.collocation

    monkeypatch.setattr(conmet.collocation, "_available_memory_bytes", lambda: 10 ** 6)
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), check_grid={"bounds": _BOUNDS, "spacing": 1 / 64, "offset": 1 / 128})
    assert cli.main(["fields", str(cfg)]) == 3
    assert ("insufficient memory: the fields of 16384 check points need about 16 MB, "
            "but only 1 MB are available") in capsys.readouterr().err
    assert assemble_calls == []
    assert not (tmp_path / "out" / "fields.csv").exists()


_FIELDS_ASKED_AND_USED = """
import sys
import conmet.cli as cli

assert cli.main(["solve", sys.argv[1]]) == 0
asks = []
check = cli._check_memory

def recorded(what, needed):
    asks.append(needed)
    check(what, needed)

cli._check_memory = recorded
before = status("VmRSS:")
assert cli.main(["fields", sys.argv[1]]) == 0
print(max(asks), status("VmHWM:") - before)
"""


def test_fields_memory_check_asks_for_no_less_than_fields_uses(tmp_path):
    # fields on the 256 x 256 check grid after a solve on 5 x 5 nodes, in a
    # fresh process: the resident memory it adds at its peak stays within
    # its memory check plus 16 MB for the allocator, as in test_collocation
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), grid={"bounds": _BOUNDS, "spacing": 0.5},
                  check_grid={"bounds": _BOUNDS, "spacing": 1 / 128})     # staggered
    asked, used = map(int, in_fresh_process(_FIELDS_ASKED_AND_USED, str(cfg)).split()[-2:])
    assert asked == 1000 * 256 * 256
    assert used <= asked + 16 * 10 ** 6


@pytest.mark.parametrize("args", [["--level", "nan"], ["--level", "0"], ["--level", "-1"],
                                  ["--count", "0"]],
                         ids=["level-nan", "level-zero", "level-negative", "count-zero"])
def test_ellipses_bad_level_or_count_exits_2_before_assembly(tmp_path, capsys, assemble_calls,
                                                             args):
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg))
    assert cli.main(["ellipses", str(cfg), "--anchor", "0,0", *args]) == 2
    assert "--level must be positive and finite and --count at least 1" in \
        capsys.readouterr().err
    assert assemble_calls == []
    assert not (tmp_path / "out").exists()


def test_bad_spacing_anywhere_in_alphas_exits_2_before_assembly(tmp_path, capsys,
                                                                assemble_calls):
    # 0.125 alone would assemble and solve; 0.3 does not divide [-1, 1]
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), alphas=[0.3, 0.125])
    assert cli.main(["convergence", str(cfg)]) == 2
    assert "spacing 0.3 does not divide the edge" in capsys.readouterr().err
    assert assemble_calls == []


def test_removed_regularize_key_exits_2_before_any_work(tmp_path, capsys, assemble_calls):
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), regularize=False)
    for command in ("solve", "convergence", "fields"):
        assert cli.main([command, str(cfg)]) == 2
        assert "unknown config keys: regularize" in capsys.readouterr().err
    assert assemble_calls == []
    assert not (tmp_path / "out").exists()


def test_removed_regularize_flag_exits_2(tmp_path, capsys):
    # so do --threads: OMP_NUM_THREADS at launch caps the workers
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg))
    for args in (["--regularize"], ["--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", str(cfg), *args])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(args)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg))
    enabled = gc.isenabled()
    for command in ("solve", "fields", "convergence"):
        assert cli.main([command, str(cfg)]) == 0
        assert gc.isenabled() == enabled and gc.get_freeze_count() == 0


def test_main_registers_the_exit_hook_once(tmp_path, capsys, monkeypatch):
    import atexit

    registered = []
    monkeypatch.setattr(atexit, "register", lambda *args: registered.append(args))
    cli._freeze_at_exit.cache_clear()        # as in a fresh process
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg))
    assert cli.main(["solve", str(cfg)]) == 0
    assert cli.main(["solve", str(cfg)]) == 0
    assert registered == [(gc.freeze,)]


def _exit_freeze_count(code, *args):
    """Run code in a fresh interpreter with a first atexit handler, which
    runs last (atexit is LIFO); return the gc.get_freeze_count() it sees."""
    first = "import atexit, gc\natexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
    result = subprocess.run([sys.executable, "-c", first + code, *args],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return int(result.stdout.split("frozen")[-1])


def test_cli_process_freezes_the_collector_only_at_exit(tmp_path):
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg))
    assert _exit_freeze_count(
        "import conmet.cli, sys\n"
        "assert conmet.cli.main(['solve', sys.argv[1]]) == 0\n"
        "assert gc.isenabled() and gc.get_freeze_count() == 0\n", str(cfg)) > 0


def test_import_freezes_nothing_at_exit():
    assert _exit_freeze_count("import conmet, conmet.cli\n") == 0


def test_cli_process_writes_the_bytes_of_an_in_process_run(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    _write_config(str(cfg), grid={"bounds": [[-1, 1], [-1, 1]], "spacing": 0.25})
    assert cli.main(["solve", str(cfg), "--output-dir", str(tmp_path / "a")]) == 0
    result = subprocess.run([sys.executable, "-m", "conmet.cli", "solve", str(cfg),
                             "--output-dir", str(tmp_path / "b")],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    for name in ("beta.csv", "solution.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
