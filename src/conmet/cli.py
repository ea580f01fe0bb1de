"""Command-line front end: solve, convergence, fields, ellipses.

Configuration comes from a JSON file; every key has a documented default and
unknown keys are rejected.  Outputs are CSV (full-precision floats, header
row) and JSON for scalar metadata, written into the configured output
directory.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure or a problem too large for the available memory.  fields and
ellipses reuse the beta.csv that solve wrote from the same inputs.

Heavy imports happen inside the command handlers.  --threads sets
OMP_NUM_THREADS, the cap on the assembly and evaluation worker threads.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import astuple, dataclass

__all__ = ["RunConfig", "ConfigError", "NumericalError", "main",
           "cmd_solve", "cmd_convergence", "cmd_fields", "cmd_ellipses"]


class ConfigError(Exception):
    pass


class NumericalError(Exception):
    pass


_DEFAULT_ALPHAS = (0.5, 0.25, 0.125, 0.0625, 0.03125)
_TOP_KEYS = {"system", "kernel", "rhs_matrix", "grid", "check_grid", "alphas",
             "output_dir"}
_GRID_KEYS = {"bounds", "spacing", "offset"}
_KERNEL_KEYS = {"c"}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with all defaults resolved."""

    system: str
    kernel_c: float
    rhs_matrix: object          # None -> identity for the system dimension
    grid: object                # GridSpec
    check_grid: object          # GridSpec
    alphas: tuple
    output_dir: str


def _reject_unknown(mapping, allowed, context):
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown {context} keys: {', '.join(unknown)}")


def _number(value, name):
    """A JSON number as float; true, false, strings and null are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {json.dumps(value)}")
    return float(value)


def _parse_grid(raw, name, default_bounds, default_spacing, default_offset=None):
    """Parse one grid object; default_offset None means half the spacing
    (the staggered check-grid convention)."""
    from .collocation import GridSpec

    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be an object")
    _reject_unknown(raw, _GRID_KEYS, name)
    spacing = _number(raw.get("spacing", default_spacing), f"{name} spacing")
    if default_offset is None:
        default_offset = spacing / 2.0
    try:
        spec = GridSpec(
            bounds=tuple(tuple(_number(v, f"{name} bounds entry") for v in b)
                         for b in raw.get("bounds", default_bounds)),
            spacing=spacing,
            offset=_number(raw.get("offset", default_offset), f"{name} offset"),
        )
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid {name}: {err}") from err
    return spec


def load_config(path, output_dir=None):
    """Read and validate a JSON config file; --output-dir overrides the file's."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")
    for key in ("system", "output_dir"):
        if key in raw and not isinstance(raw[key], str):
            raise ConfigError(f"{key} must be a string, got {json.dumps(raw[key])}")

    kernel_raw = raw.get("kernel", {})
    if not isinstance(kernel_raw, dict):
        raise ConfigError("kernel must be an object")
    _reject_unknown(kernel_raw, _KERNEL_KEYS, "kernel")

    default_bounds = ((-1.0, 1.0), (-1.0, 1.0))
    try:         # a value of the wrong JSON type, such as a number for a list
        grid = _parse_grid(raw.get("grid", {}), "grid", default_bounds, 0.125,
                           default_offset=0.0)
        check = _parse_grid(raw.get("check_grid", {}), "check_grid",
                            grid.bounds, 1.0 / 64.0)
        alphas = tuple(_number(a, "alphas entry") for a in raw.get("alphas", _DEFAULT_ALPHAS))

        rhs = raw.get("rhs_matrix")
        config = RunConfig(
            system=raw.get("system", "linear-example"),
            kernel_c=_number(kernel_raw.get("c", 0.9), "kernel c"),
            rhs_matrix=None if rhs is None else [[_number(v, "rhs_matrix entry") for v in row]
                                                 for row in rhs],
            grid=grid,
            check_grid=check,
            alphas=alphas,
            output_dir=str(output_dir if output_dir is not None
                           else raw.get("output_dir", "out")),
        )
    except TypeError as err:
        raise ConfigError(f"config value of the wrong type: {err}") from err
    if not 0.0 < config.kernel_c < math.inf:
        raise ConfigError("kernel shape parameter must be positive and finite, "
                          f"got {config.kernel_c}")
    return config


def _setup(config):
    """Resolve the system bundle, kernel and right-hand side, and create the
    output directory, so that a bad path or C fails before any work."""
    import numpy as np

    from .collocation import check_rhs
    from .kernels import wendland_c8
    from .systems import get_system

    bundle = get_system(config.system)        # ValueError: exit 2
    kernel = wendland_c8(config.kernel_c)
    if config.rhs_matrix is not None:
        rhs = config.rhs_matrix
    elif bundle.rhs is not None:
        rhs = bundle.rhs
    else:
        rhs = np.eye(bundle.system.dim)
    try:
        os.makedirs(config.output_dir, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot use output directory {config.output_dir}: {err}") from err
    return bundle, kernel, check_rhs(rhs, bundle.system.dim)      # ValueError: exit 2


def _float_lines(table):
    """Each row of a float table as one CSV line; "%.17g" % v == format(v, ".17g")."""
    line = ",".join(["%.17g"] * table.shape[1])       # integral values print as integers
    return (line % row for row in map(tuple, table.tolist()))


def _write_csv(path, header, lines):
    """Header and lines, whose fields need no quoting, ended by \r\n as csv.writer ends them."""
    with open(path, "w", newline="") as handle:
        handle.writelines(line + "\r\n" for line in [",".join(header), *lines])


def _write_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _solve_on_grid(bundle, kernel, rhs, points):
    """Assemble and solve; return the solution and its timing.json entries."""
    from .collocation import assemble, solve

    t0 = time.perf_counter()
    cset, gram = assemble(bundle.system, kernel, points, equilibria=bundle.equilibria)
    t1 = time.perf_counter()
    solution = solve(gram, rhs, cset, kernel)
    return solution, {"beta_source": "solved", "assemble_seconds": t1 - t0,
                      "solve_seconds": time.perf_counter() - t1}


def _beta_columns(dim):
    """The beta.csv header and the (i, j) component pairs of its beta columns."""
    import numpy as np

    from .operator import triangle_indices

    i, j = np.transpose(triangle_indices(dim))
    return (["k"] + [f"x{a}" for a in range(dim)]
            + [f"beta_{p}{q}" for p, q in zip(i, j)]), i, j


def _solve_key(config, rhs):
    """Digest of the inputs that determine beta.csv."""
    from . import __version__

    inputs = {"system": config.system, "c": config.kernel_c, "rhs": rhs.tolist(),
              "grid": astuple(config.grid),          # bounds, spacing, offset
              "version": __version__}
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


def _file_sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def cmd_solve(config):
    """Solve once on the configured grid; write solution.json and beta.csv."""
    import numpy as np

    from .collocation import fill_distance_estimate, make_grid, separation_distance
    from .evaluate import eval_operator_batch

    bundle, kernel, rhs = _setup(config)
    points = make_grid(config.grid)
    solution, timing = _solve_on_grid(bundle, kernel, rhs, points)
    t0 = time.perf_counter()            # max |L(S)(x_k) + C| / max |C| over the nodes
    residual = float(np.max(np.abs(eval_operator_batch(solution, points) + rhs))
                     / np.max(np.abs(rhs)))
    timing["residual_seconds"] = time.perf_counter() - t0

    header, i, j = _beta_columns(bundle.system.dim)
    beta_path = os.path.join(config.output_dir, "beta.csv")
    table = np.column_stack([np.arange(len(points)), points, solution.beta[:, i, j]])
    _write_csv(beta_path, header, _float_lines(table))
    diag = solution.diagnostics
    _write_json(os.path.join(config.output_dir, "solution.json"), {
        "system": config.system,
        "kernel": {"c": kernel.shape_parameter, "sigma": kernel.sigma},
        "n_points": len(points),
        "n_unknowns": diag.dimension,
        "interp_residual": residual,
        "factorization": diag.factorization,
        "regularized": diag.regularized,
        "min_pivot": diag.min_pivot,
        "separation_distance": separation_distance(points) if len(points) > 1 else None,
        # probes a quarter spacing apart hit the cell centres of a grid with offset 0
        "fill_distance_estimate": fill_distance_estimate(
            points, config.grid.bounds, config.grid.spacing / 4),
        "solve_key": _solve_key(config, rhs),
        "beta_sha256": _file_sha256(beta_path),
    })
    # wall-clock values live apart so the data artifacts stay byte-identical
    # across reruns of the same config
    _write_json(os.path.join(config.output_dir, "timing.json"), timing)
    print(f"solved {len(points)} points, {diag.dimension} unknowns, "
          f"residual {residual:.3e} -> {config.output_dir}")
    return 0


def _stored_or_solved(config, bundle, kernel, rhs):
    """The solution for config and its timing.json entries: read back from
    the output directory when cmd_solve wrote it there from the same inputs
    (solve_key, beta_sha256, finite values at the grid's nodes), else solved."""
    import numpy as np

    from .collocation import RecoverySolution, SolveDiagnostics, collocation_data, make_grid

    points = make_grid(config.grid)
    n = bundle.system.dim
    header, i, j = _beta_columns(n)
    beta_path = os.path.join(config.output_dir, "beta.csv")
    try:
        with open(os.path.join(config.output_dir, "solution.json")) as handle:
            meta = json.load(handle)
        with open(beta_path, newline="") as handle:
            rows = list(csv.reader(handle))
        table = np.array([[float(v) for v in row] for row in rows[1:]])
        matches = (meta["solve_key"] == _solve_key(config, rhs)
                   and meta["beta_sha256"] == _file_sha256(beta_path)
                   and rows[0] == header and table.shape == (len(points), len(header))
                   and np.all(np.isfinite(table)) and np.array_equal(table[:, 1:n + 1], points))
        diagnostics = SolveDiagnostics(meta["n_unknowns"], min_pivot=meta["min_pivot"])
    except (OSError, ValueError, LookupError, TypeError):
        matches = False
    if not matches:
        return _solve_on_grid(bundle, kernel, rhs, points)
    print(f"reused {beta_path}, solved from the same inputs", file=sys.stderr)
    beta = np.zeros((len(points), n, n))
    beta[:, i, j] = beta[:, j, i] = table[:, n + 1:]
    return (RecoverySolution(collocation_data(bundle.system, points), kernel, beta, rhs,
                             diagnostics), {"beta_source": "beta.csv"})


def cmd_convergence(config):
    """Run the error study over the configured spacings; write convergence.csv."""
    from .evaluate import convergence_study

    bundle, kernel, rhs = _setup(config)
    if bundle.exact is None:
        raise ConfigError(f"system {config.system!r} has no exact metric; "
                          "the convergence study needs one")
    report = convergence_study(
        bundle.system, bundle.exact, rhs, kernel, config.alphas,
        config.grid.bounds, config.check_grid,
        equilibria=bundle.equilibria)

    lines = [",".join("" if v is None else "%.17g" % v for v in astuple(row))
             for row in report.rows]
    lines.append("reference,,%.17g,,%.17g" % ((report.reference_ratio,) * 2))
    _write_csv(os.path.join(config.output_dir, "convergence.csv"),
               ["alpha", "e_s", "ratio_s", "e", "ratio"], lines)
    for row in report.rows:
        print(f"alpha={row.alpha:<10g} e_s={row.e_s:<12.4e} e={row.e:.4e}")
    print(f"reference ratio {report.reference_ratio:.4f} -> {config.output_dir}")
    return 0


def cmd_fields(config):
    """Sample S and L(S) of the solve on the evaluation grid; write CSV + summary."""
    import numpy as np

    from .collocation import make_grid
    from .evaluate import field_export

    bundle, kernel, rhs = _setup(config)
    solution, timing = _stored_or_solved(config, bundle, kernel, rhs)
    t0 = time.perf_counter()
    fields = field_export(solution, make_grid(config.check_grid))
    dim = bundle.system.dim
    coord_names = ["x", "y"] if dim == 2 else [f"x{a}" for a in range(dim)]
    header = coord_names + ["trace_S", "det_S", "trace_FS", "neg_det_FS",
                            "min_eig_S", "max_eig_FS"]
    table = np.column_stack([fields[key] for key in ("x", "trace_s", "det_s", "trace_fs",
                                                     "neg_det_fs", "min_eig_s", "max_eig_fs")])
    bad_s = int(np.count_nonzero(~(fields["min_eig_s"] > 0.0)))       # NaN fails
    bad_fs = int(np.count_nonzero(~(fields["max_eig_fs"] < 0.0)))
    t1 = time.perf_counter()
    _write_csv(os.path.join(config.output_dir, "fields.csv"), header, _float_lines(table))
    _write_json(os.path.join(config.output_dir, "fields_summary.json"), {
        "n_points": len(table),
        "metric_not_positive_definite": bad_s,
        "operator_not_negative_definite": bad_fs,
        "failures": bad_s + bad_fs,
    })
    _write_json(os.path.join(config.output_dir, "timing.json"), dict(
        timing, evaluate_seconds=t1 - t0, write_seconds=time.perf_counter() - t1))
    print(f"{len(table)} field samples, {bad_s + bad_fs} definiteness "
          f"failures -> {config.output_dir}")
    return 0


def cmd_ellipses(config, anchors, level, count):
    """Sample metric ellipses of the solve around anchor points; write ellipses.csv."""
    import numpy as np

    from .evaluate import ellipse_points, eval_metric_batch

    if not (0.0 < level < math.inf and count >= 1):     # before any solve
        raise ConfigError("--level must be positive and finite and --count at least 1, "
                          f"got {level} and {count}")
    bundle, kernel, rhs = _setup(config)
    if bundle.system.dim != 2:
        raise ConfigError("ellipse export requires a two-dimensional system")
    solution, timing = _stored_or_solved(config, bundle, kernel, rhs)

    t0 = time.perf_counter()
    metrics = eval_metric_batch(solution, np.array(anchors, dtype=float))
    positive = np.linalg.eigvalsh(metrics)[:, 0] > 0.0       # the test of ellipse_points
    failed = int(np.count_nonzero(~positive))
    rows = []
    report = []
    for anchor_id, (anchor, s_x, ok) in enumerate(zip(anchors, metrics, positive)):
        report.append({"id": anchor_id, "anchor": list(anchor), "ok": bool(ok)})
        if not ok:
            report[-1]["reason"] = "metric not positive definite here"
            continue
        rows.extend("%d,%.17g,%.17g" % (anchor_id, *v)
                    for v in ellipse_points(anchor, s_x, level, count))
    t1 = time.perf_counter()
    _write_csv(os.path.join(config.output_dir, "ellipses.csv"),
               ["anchor_id", "x", "y"], rows)
    _write_json(os.path.join(config.output_dir, "ellipses_summary.json"), {
        "level": level, "points_per_ellipse": count,
        "anchors": report, "n_failed": failed,
    })
    _write_json(os.path.join(config.output_dir, "timing.json"), dict(
        timing, evaluate_seconds=t1 - t0, write_seconds=time.perf_counter() - t1))
    print(f"{len(rows)} ellipse samples for {len(anchors) - failed}/{len(anchors)} "
          f"anchors -> {config.output_dir}")
    if failed == len(anchors):
        raise NumericalError("metric is not positive definite at any anchor")
    return 0


def _parse_anchor(text):
    try:
        anchor = tuple(float(v) for v in text.split(","))
    except ValueError as err:
        raise ConfigError(f"invalid anchor {text!r}: {err}") from err
    if len(anchor) != 2 or not all(map(math.isfinite, anchor)):
        raise ConfigError(f"anchors are finite 'x,y' pairs, got {text!r}")
    return anchor


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="conmet",
        description="Meshfree construction of contraction metrics by kernel collocation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("solve", "solve on the configured grid and export coefficients"),
            ("convergence", "reproduce the error table over the alpha list"),
            ("fields", "export definiteness fields of S and L(S)"),
            ("ellipses", "export metric ellipses around anchor points")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="path to the JSON config file")
        cmd.add_argument("--output-dir", help="override the configured output directory")
        cmd.add_argument("--threads", type=int,
                         help="cap the assembly and evaluation worker threads "
                              "(default: one per CPU) by setting OMP_NUM_THREADS")
        if name == "ellipses":
            cmd.add_argument("--anchor", action="append", default=[],
                             help="ellipse anchor 'x,y' (repeatable)")
            cmd.add_argument("--level", type=float, default=1.0,
                             help="ellipse level constant (default 1.0)")
            cmd.add_argument("--count", type=int, default=64,
                             help="samples per ellipse (default 64)")
    return parser


def _limit_threads(threads):
    if threads is None:
        return
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    os.environ["OMP_NUM_THREADS"] = str(threads)      # read by operator.block_workers


def main(argv=None):
    from .collocation import FactorizationError

    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _limit_threads(args.threads)
        config = load_config(args.config, output_dir=args.output_dir)
        if args.command == "solve":
            return cmd_solve(config)
        if args.command == "convergence":
            return cmd_convergence(config)
        if args.command == "fields":
            return cmd_fields(config)
        anchors = [_parse_anchor(a) for a in args.anchor]
        if not anchors:
            raise ConfigError("ellipses needs at least one --anchor 'x,y'")
        return cmd_ellipses(config, anchors, args.level, args.count)
    except (ConfigError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return 2
    except (NumericalError, FloatingPointError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except FactorizationError as err:
        print(f"numerical failure: factorization failed (pivot {err.pivot}): {err}",
              file=sys.stderr)
        return 3
    except MemoryError as err:
        print(f"insufficient memory: {err}", file=sys.stderr)
        return 3


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
