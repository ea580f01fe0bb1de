"""The benchmark workloads: CLI configs made from a seed, and output checks.

Every workload runs the built-in linear example x' = -x + y, y' = x - 2y
with the Wendland C^8 kernel at c = 0.9 on the paper's fixed grids, so a
seed cannot vary the grids without changing the workload's size and checks.
What it varies:

- the right-hand-side matrix C = s I with s = 2^k, k in -2..2, on
  large-domain.  Scaling by a power of two is exact in floating point,
  so every output scales by s (or s^2) and every check and error metric is
  seed-independent after dividing s out, while the program sees other
  numbers;
- the order of the config keys and the output directory name.

reference-study keeps C = I because its error table is measured against the
exact metric for C = I.
"""

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass


class CheckFailed(Exception):
    """An output of the program is missing, malformed or wrong."""


# Error table of the paper (acceptance criterion 1) and its tolerance.
ALPHAS = (0.5, 0.25, 0.125, 0.0625, 0.03125)
TABLE_E_S = (2.5724, 1.2833, 0.3516, 0.0329, 0.0025)
TABLE_E = (1.2334, 0.9169, 0.0124, 5.6040e-4, 1.6311e-5)
TABLE_TOL = 0.10
REFERENCE_RATIO = 2.0 ** (5.5 - 1.0 - 2 / 2.0)   # 2^(sigma - 1 - n/2)
INTERP_BOUND = 1e-8                              # acceptance criterion 3

# Exact metric of the linear example for C = I: M = [[1, 1/2], [1/2, 1/2]],
# with L(M) = -I.  Its eigenvalues are (3/2 -+ sqrt(5/4)) / 2.
EXACT_EIGS_S = ((1.5 - math.sqrt(1.25)) / 2.0, (1.5 + math.sqrt(1.25)) / 2.0)
EXACT_EIGS_LS = (-1.0, -1.0)

FIELDS_HEADER = ["x", "y", "trace_S", "det_S", "trace_FS", "neg_det_FS",
                 "min_eig_S", "max_eig_FS"]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple         # conmet subcommands, run in order, one process each
    bounds: tuple           # collocation and check-grid box; None = CLI default
    spacing: float
    check_spacing: float
    check_points: int
    nodes: int
    unknowns: int


WORKLOADS = {
    w.name: w for w in (
        Workload("reference-study", ("convergence",), None, 0.0, 1 / 64, 128 * 128,
                 65 * 65, 3 * 65 * 65),
        Workload("large-domain", ("solve", "fields"), ((-4.0, 4.0), (-4.0, 4.0)), 0.2, 0.1,
                 80 * 80, 41 * 41, 3 * 41 * 41),
    )
}


def make_config(workload, seed):
    """(config dict, rhs scale s) for one run; the same seed gives the same config."""
    rng = random.Random(f"{workload.name}:{seed}")
    if workload.bounds is None:
        # the CLI defaults are the paper's table configuration
        return {"output_dir": f"out-{seed}"}, 1.0
    scale = 2.0 ** rng.randint(-2, 2)
    bounds = [list(b) for b in workload.bounds]
    config = {
        "system": "linear-example",
        "kernel": {"c": 0.9},
        "rhs_matrix": [[scale, 0.0], [0.0, scale]],
        "grid": {"bounds": bounds, "spacing": workload.spacing, "offset": 0.0},
        "check_grid": {"bounds": bounds, "spacing": workload.check_spacing,
                       "offset": workload.check_spacing / 2.0},
        "output_dir": f"out-{seed}",
    }
    keys = list(config)
    rng.shuffle(keys)
    return {k: config[k] for k in keys}, scale


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _read_csv(path):
    try:
        with open(path, newline="") as handle:
            return list(csv.reader(handle))
    except OSError as err:
        raise CheckFailed(f"cannot read {os.path.basename(path)}: {err}") from err


def _read_json(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as err:
        raise CheckFailed(f"cannot read {os.path.basename(path)}: {err}") from err


def check_convergence(outdir):
    """The error table within 10% of the paper's and the rate conditions
    (acceptance criteria 1 and 2).  Returns the finest row's errors."""
    rows = _read_csv(os.path.join(outdir, "convergence.csv"))
    _require(rows and rows[0] == ["alpha", "e_s", "ratio_s", "e", "ratio"],
             "convergence.csv header")
    _require(len(rows) == len(ALPHAS) + 2 and rows[-1][0] == "reference",
             f"convergence.csv has {len(rows)} rows, expected {len(ALPHAS) + 2}")
    try:
        table = [[float(v) if v else None for v in row] for row in rows[1:-1]]
        reference = float(rows[-1][2])
    except ValueError as err:
        raise CheckFailed(f"convergence.csv: {err}") from err
    _require([r[0] for r in table] == list(ALPHAS), "convergence.csv spacings")
    for (alpha, e_s, _, e, _), ref_s, ref in zip(table, TABLE_E_S, TABLE_E):
        _require(abs(e_s - ref_s) <= TABLE_TOL * ref_s,
                 f"e_s at alpha={alpha} is {e_s:.5g}, table {ref_s} +-10%")
        _require(abs(e - ref) <= TABLE_TOL * ref,
                 f"e at alpha={alpha} is {e:.5g}, table {ref} +-10%")
    ratios = [r[2] for r in table[1:]]
    _require(all(r is not None for r in ratios), "missing ratio_s")
    _require(ratios[-1] >= 8.0, f"final ratio_s {ratios[-1]:.3f} < 8")
    _require(all(a < b for a, b in zip(ratios, ratios[1:])), f"ratio_s not increasing: {ratios}")
    _require(all(r > REFERENCE_RATIO / 2.0 for r in ratios[-2:]),
             f"last ratio_s not above {REFERENCE_RATIO / 2:.3f}: {ratios[-2:]}")
    _require(abs(reference - REFERENCE_RATIO) <= 1e-12 * REFERENCE_RATIO,
             f"reference ratio {reference}")
    return {"err_S": table[-1][3], "err_LS": table[-1][1]}


def _eig_error(values, exact):
    return max(abs(v - x) for v, x in zip(sorted(values), exact))


def check_fields(outdir, n_points, scale):
    """fields.csv and fields_summary.json agree with each other and have
    n_points rows.

    Returns the definiteness failures and the largest eigenvalue errors of
    S and L(S) against the exact metric, with the rhs scale divided out.
    """
    summary = _read_json(os.path.join(outdir, "fields_summary.json"))
    _require(summary.get("n_points") == n_points,
             f"fields_summary n_points {summary.get('n_points')}, expected {n_points}")
    rows = _read_csv(os.path.join(outdir, "fields.csv"))
    _require(rows and rows[0] == FIELDS_HEADER, "fields.csv header")
    _require(len(rows) - 1 == n_points,
             f"fields.csv has {len(rows) - 1} rows, expected {n_points}")
    bad_s = bad_fs = 0
    err_s = err_ls = 0.0
    try:
        for row in rows[1:]:
            _, _, tr_s, det_s, tr_fs, neg_det_fs, min_s, max_fs = map(float, row)
            # the CLI's trace/determinant criterion, recounted from the CSV
            bad_s += not (det_s > 0.0 and tr_s > 0.0)
            bad_fs += not (-neg_det_fs > 0.0 and tr_fs < 0.0)
            err_s = max(err_s, _eig_error((min_s / scale, (tr_s - min_s) / scale),
                                          EXACT_EIGS_S))
            err_ls = max(err_ls, _eig_error(((tr_fs - max_fs) / scale, max_fs / scale),
                                            EXACT_EIGS_LS))
    except ValueError as err:
        raise CheckFailed(f"fields.csv: {err}") from err
    _require(summary.get("metric_not_positive_definite") == bad_s
             and summary.get("operator_not_negative_definite") == bad_fs
             and summary.get("failures") == bad_s + bad_fs,
             f"fields_summary counts {summary} disagree with fields.csv ({bad_s}, {bad_fs})")
    return {"defin_failures": bad_s + bad_fs, "err_S": err_s, "err_LS": err_ls}


def check_solution(outdir, n_points, n_unknowns):
    """solution.json and beta.csv describe an unregularized Cholesky solve
    of the expected size."""
    meta = _read_json(os.path.join(outdir, "solution.json"))
    _require(meta.get("n_points") == n_points and meta.get("n_unknowns") == n_unknowns,
             f"solution.json has {meta.get('n_points')} points, {meta.get('n_unknowns')} "
             f"unknowns, expected {n_points}, {n_unknowns}")
    _require(meta.get("factorization") == "cholesky" and meta.get("regularized") is False,
             f"factorization {meta.get('factorization')}, regularized {meta.get('regularized')}")
    rows = _read_csv(os.path.join(outdir, "beta.csv"))
    _require(rows and rows[0] == ["k", "x0", "x1", "beta_00", "beta_01", "beta_11"],
             "beta.csv header")
    _require(len(rows) - 1 == n_points, f"beta.csv has {len(rows) - 1} rows")
    return {}


def check_residual(residual):
    """max |L(S)(x_k) + C| / max |C| over the nodes (acceptance criterion 3)."""
    _require(math.isfinite(residual) and residual <= INTERP_BOUND,
             f"interpolation residual {residual:.3e} > {INTERP_BOUND:.0e}")
    return {"interp_residual": residual}


def check_outputs(workload, outdir, scale):
    """All cheap checks of one iteration's outputs; raises CheckFailed."""
    values = {}
    if workload.name == "reference-study":
        values.update(check_convergence(outdir))
    if "solve" in workload.commands:
        values.update(check_solution(outdir, workload.nodes, workload.unknowns))
    if "fields" in workload.commands:
        values.update(check_fields(outdir, workload.check_points, scale))
    return values


def artifact_digest(outdir):
    """Digest of every artifact except timing.json, which holds wall times."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        if name == "timing.json":
            continue
        digest.update(name.encode())
        with open(os.path.join(outdir, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()
