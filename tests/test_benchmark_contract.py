"""What the benchmark's child process reaches into the package for.

perfbench/child.py runs conmet in fresh processes and calls some of its
names directly: cmd_residual rebuilds a solution from beta.csv, cmd_blas
hands the large-domain Gram to scipy's Cholesky, and the tracer wraps
private functions by name and skips a missing one without a word.  Each case
here runs child.py through one of its documented modes, as perfbench/run.py
does: a fresh interpreter with src/ first on PYTHONPATH, in a temporary
working directory, so a change to the package that breaks the benchmark
fails here.  Nothing under perfbench/ is written.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"

# the spans the tracer wraps in the package, scipy and the system bundle
TRACED_SPANS = {
    "cli.main", "cli.cmd_solve", "cli.cmd_convergence", "cli.cmd_fields",
    "collocation.make_grid", "collocation.assemble", "collocation.solve",
    "evaluate.convergence_study", "evaluate.error_report", "evaluate.field_export",
    "evaluate.fields_batch", "operator.apply_operator", "linalg.cho_factor",
    "linalg.cho_solve", "kernels.profile_values", "systems.get_system",
}


def _child(tmp_path, mode, *args):
    """The record that `child.py mode RECORD args` writes, run in tmp_path."""
    record = tmp_path / f"{mode}-record.json"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, str(BENCH / "child.py"), mode, str(record), *args],
                         cwd=tmp_path, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    return json.loads(record.read_text())


@pytest.fixture
def config(tmp_path):
    """A CLI config of the linear example on the 81 nodes of spacing 1/4."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"grid": {"bounds": [[-1, 1], [-1, 1]], "spacing": 0.25},
                                "output_dir": "out"}))
    return str(path)


def test_residual_mode_rebuilds_the_solution_from_beta_csv(tmp_path, config):
    assert _child(tmp_path, "cli", "solve", config)["command"] == "solve"
    record = _child(tmp_path, "residual", str(tmp_path / "out"), config)
    assert record["interp_residual"] <= 1e-8          # acceptance criterion 3


def test_traced_cli_mode_wraps_every_span(tmp_path, config):
    if not (BENCH / "tracer.py").exists():
        pytest.skip("perfbench/tracer.py is gone (ROADMAP item 7): no span is wrapped")
    record = _child(tmp_path, "cli", "--trace", "solve", config)
    assert TRACED_SPANS <= set(record["trace"]["wrapped"])


def test_blas_mode_factors_the_large_domain_gram(tmp_path):
    record = _child(tmp_path, "blas")
    assert record["dim"] == 5043
    assert record["factor_s"] > 0.0
