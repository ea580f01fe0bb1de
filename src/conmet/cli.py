"""Command-line front end: solve, convergence, fields, ellipses.

Configuration comes from a JSON file.  _KINDS says what each key holds and
_checked reads the file against it, so an unknown key, a value of another JSON
type or an integer beyond the float range is refused by its key path; every
key has a documented default.  Outputs are CSV (full-precision floats, header
row) and JSON for scalar metadata, written into the configured output
directory.  Exit codes: 0 success, 2 configuration error or a path that
cannot be read or written (an OSError; a write can fail after the work is
done), 3 numerical failure or a problem too large for the available memory.
solve reads the node grid's separation and fill distance off its GridSpec,
exact for a tensor grid, and fields and ellipses reuse the beta.csv that
solve wrote from the same inputs.

The module imports numpy and its conmet names at the top: importing it runs
conmet/__init__, which loads numpy, scipy and every conmet module anyway.
OMP_NUM_THREADS at launch caps the worker threads, and the BLAS threads
unless OPENBLAS_NUM_THREADS is set.  Wall-clock values go to timing.json;
convergence writes one entry per spacing there, finest first (alpha, nodes,
assemble_, solve_ and error_seconds), and prints each to stderr as it
finishes.  main registers gc.freeze with atexit, once per process, so that
shutdown skips the cyclic collector's walk over the objects that the numpy and
scipy imports leave.  This is safe: conmet closes every file and thread pool
it opens with `with`, refcount deallocation and atexit handlers registered
before main still run, and only cyclic garbage that is alive at exit is left
to the operating system.
"""

import argparse
import atexit
import csv
import functools
import gc
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import astuple, dataclass

import numpy as np

from . import __version__
from .collocation import (FactorizationError, GridSpec, RecoverySolution, SolveDiagnostics,
                          _check_memory, assemble, check_rhs, collocation_data, make_grid, solve)
from .evaluate import (convergence_study, ellipse_points, eval_metric_batch, eval_operator_batch,
                       field_export)
from .kernels import wendland_c8
from .systems import get_system

__all__ = ["RunConfig", "ConfigError", "NumericalError", "main",
           "cmd_solve", "cmd_convergence", "cmd_fields", "cmd_ellipses"]


class ConfigError(Exception):
    pass


class NumericalError(Exception):
    pass


_DEFAULT_ALPHAS = (0.5, 0.25, 0.125, 0.0625, 0.03125)
# What each key holds: float (a JSON number), str, [kind] (a list of one kind) or
# {key: kind} (an object with those keys only).  rhs_matrix may also be null.
_GRID_KINDS = {"bounds": [[float]], "spacing": float, "offset": float}
_KINDS = {"system": str, "kernel": {"c": float}, "rhs_matrix": [[float]], "grid": _GRID_KINDS,
          "check_grid": _GRID_KINDS, "alphas": [float], "output_dir": str}
_JSON_TYPES = {float: (int, float), str: str, list: list, dict: dict}
_KIND_NAMES = {float: "a number", str: "a string", list: "a list", dict: "an object"}


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


def _checked(value, kind, name="", entry=False):
    """value read against kind, with numbers as floats; a refusal names the
    key path, as in "grid bounds must be a list, got NaN"."""
    where = f"{name} entry" if entry else name or "config"
    shape = type(kind) if isinstance(kind, (dict, list)) else kind
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[shape]):
        shown = _KIND_NAMES[type(value)] if isinstance(value, (dict, list)) else json.dumps(value)
        raise ConfigError(f"{where} must be {_KIND_NAMES[shape]}, got {shown}")
    if shape is dict:
        unknown = sorted(set(value) - set(kind))
        if unknown:
            raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")
        return {key: None if key == "rhs_matrix" and item is None    # the system's own C
                else _checked(item, kind[key], f"{name} {key}".lstrip())
                for key, item in value.items()}
    if shape is list:
        return [_checked(item, kind[0], name, entry=True) for item in value]
    if shape is str:
        return value
    try:
        return float(value)
    except OverflowError:           # a JSON integer beyond the float range
        raise ConfigError(f"{where} must be a number within the float range, "
                          f"got a {len(str(abs(value)))}-digit integer") from None


def _parse_grid(raw, name, default_bounds, default_spacing, default_offset=None):
    """One GridSpec from a checked grid object; default_offset None means half
    the spacing (the staggered check-grid convention)."""
    spacing = raw.get("spacing", default_spacing)
    offset = raw.get("offset", spacing / 2.0 if default_offset is None else default_offset)
    try:
        return GridSpec(bounds=raw.get("bounds", default_bounds), spacing=spacing, offset=offset)
    except ValueError as err:
        raise ConfigError(f"invalid {name}: {err}") from err


def load_config(path, output_dir=None):
    """Read and check a JSON config file; --output-dir overrides the file's."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except (ValueError, RecursionError) as err:     # also nested past the recursion limit
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
    raw = _checked(raw, _KINDS)
    grid = _parse_grid(raw.get("grid", {}), "grid", ((-1.0, 1.0), (-1.0, 1.0)), 0.125, 0.0)
    return RunConfig(
        system=raw.get("system", "linear-example"),
        kernel_c=raw.get("kernel", {}).get("c", 0.9),
        rhs_matrix=raw.get("rhs_matrix"),
        grid=grid,
        check_grid=_parse_grid(raw.get("check_grid", {}), "check_grid", grid.bounds, 1.0 / 64.0),
        alphas=tuple(raw.get("alphas", _DEFAULT_ALPHAS)),
        output_dir=raw.get("output_dir", "out") if output_dir is None else output_dir,
    )


def _setup(config):
    """Resolve the system bundle, kernel and right-hand side, and create the
    output directory, so that a bad path, c or C fails before any work."""
    bundle = get_system(config.system)        # ValueError: exit 2
    kernel = wendland_c8(config.kernel_c)     # ValueError: exit 2
    rhs = bundle.rhs if config.rhs_matrix is None else config.rhs_matrix
    os.makedirs(config.output_dir, exist_ok=True)        # OSError: exit 2
    n = bundle.system.dim
    return bundle, kernel, check_rhs(np.eye(n) if rhs is None else rhs, n)    # ValueError: exit 2


def _float_lines(table):
    """Each row of a float table as one CSV line; "%.17g" % v == format(v, ".17g")."""
    line = ",".join(["%.17g"] * table.shape[1])       # integral values print as integers
    for r0 in range(0, len(table), 4096):       # never a list of every row's Python floats
        yield from (line % row for row in map(tuple, table[r0:r0 + 4096].tolist()))


def _write_csv(path, header, lines):
    """Header, then lines as they come, ended by \r\n as csv.writer ends them (no quoting)."""
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.writelines(line + "\r\n" for line in lines)


def _write_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _solve_on_grid(bundle, kernel, rhs, points):
    """Assemble and solve; return the solution and its timing.json entries."""
    t0 = time.perf_counter()
    cset, gram = assemble(bundle.system, kernel, points, equilibria=bundle.equilibria)
    t1 = time.perf_counter()
    solution = solve(gram, rhs, cset)
    return solution, {"beta_source": "solved", "assemble_seconds": t1 - t0,
                      "solve_seconds": time.perf_counter() - t1}


def _beta_columns(dim):
    """The beta.csv header and the (i, j) component pairs of its beta columns."""
    i, j = np.triu_indices(dim)
    return (["k"] + [f"x{a}" for a in range(dim)]
            + [f"beta_{p}{q}" for p, q in zip(i, j)]), i, j


def _solve_key(config, rhs):
    """Digest of the inputs that determine beta.csv."""
    inputs = {"system": config.system, "c": config.kernel_c, "rhs": rhs.tolist(),
              "grid": astuple(config.grid),          # bounds, spacing, offset
              "version": __version__}
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


def _file_sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def cmd_solve(config):
    """Solve once on the configured grid; write solution.json and beta.csv."""
    bundle, kernel, rhs = _setup(config)
    points = make_grid(config.grid)
    solution, timing = _solve_on_grid(bundle, kernel, rhs, points)
    t0 = time.perf_counter()            # max |L(S)(x_k) + C| / max |C| over the nodes
    residual = float(np.max(np.abs(eval_operator_batch(solution, solution.collocation) + rhs))
                     / np.max(np.abs(rhs)))
    timing["residual_seconds"] = time.perf_counter() - t0

    header, i, j = _beta_columns(bundle.system.dim)
    beta_path = os.path.join(config.output_dir, "beta.csv")
    table = np.column_stack([np.arange(len(points)), points, solution.beta[:, i, j]])
    _write_csv(beta_path, header, _float_lines(table))
    diag, grid = solution.diagnostics, config.grid
    _write_json(os.path.join(config.output_dir, "solution.json"), {
        "system": config.system,
        "kernel": {"c": kernel.shape_parameter, "sigma": kernel.sigma},
        "n_points": len(points),
        "n_unknowns": diag.dimension,
        "interp_residual": residual,
        "factorization": diag.factorization,
        "regularized": diag.regularized,
        "min_pivot": diag.min_pivot,
        # exact on the tensor grid: along each axis the box point farthest from the
        # nodes lies offset from an end node or spacing / 2 from an interior one
        "separation_distance": grid.spacing if len(points) > 1 else None,
        "fill_distance_estimate": math.sqrt(len(grid.bounds)) * max(grid.offset, grid.spacing / 2),
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
    bundle, kernel, rhs = _setup(config)
    if bundle.exact is None:
        raise ConfigError(f"system {config.system!r} has no exact metric; "
                          "the convergence study needs one")
    timing = []

    def progress(entry):
        timing.append(entry)
        print(*(f"{key}={value:.6g}" for key, value in entry.items()), file=sys.stderr)

    report = convergence_study(
        bundle.system, bundle.exact, rhs, kernel, config.alphas,
        config.grid.bounds, config.check_grid,
        equilibria=bundle.equilibria, progress=progress)

    lines = [",".join("" if v is None else "%.17g" % v for v in astuple(row))
             for row in report.rows]
    lines.append("reference,,%.17g,,%.17g" % ((report.reference_ratio,) * 2))
    _write_csv(os.path.join(config.output_dir, "convergence.csv"),
               ["alpha", "e_s", "ratio_s", "e", "ratio"], lines)
    _write_json(os.path.join(config.output_dir, "timing.json"), {"spacings": timing})
    for row in report.rows:
        print(f"alpha={row.alpha:<10g} e_s={row.e_s:<12.4e} e={row.e:.4e}")
    print(f"reference ratio {report.reference_ratio:.4f} -> {config.output_dir}")
    return 0


def cmd_fields(config):
    """Sample S and L(S) of the solve on the evaluation grid; write CSV + summary."""
    bundle, kernel, rhs = _setup(config)
    check = make_grid(config.check_grid)        # MemoryError before any solve
    _check_memory(f"the fields of {len(check)} check points",   # VmHWM grows 380-400 B a point
                  1000 * len(check))            # at 256^2 in the plane, 590 at 128^2, 630 at 40^3
    solution, timing = _stored_or_solved(config, bundle, kernel, rhs)
    t0 = time.perf_counter()
    fields = field_export(solution, check)
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
    if not (0.0 < level < math.inf and count >= 1):     # before any solve
        raise ConfigError("--level must be positive and finite and --count at least 1, "
                          f"got {level} and {count}")
    _check_memory(f"{count} samples around each of {len(anchors)} anchors",
                  300 * count * len(anchors))     # arrays, Python floats, CSV lines
    bundle, kernel, rhs = _setup(config)
    if bundle.system.dim != 2:
        raise ConfigError("ellipse export requires a two-dimensional system")
    solution, timing = _stored_or_solved(config, bundle, kernel, rhs)

    t0 = time.perf_counter()
    points = np.array(anchors, dtype=float)
    positive, samples = ellipse_points(points, eval_metric_batch(solution, points), level, count)
    failed = int(np.count_nonzero(~positive))
    report = [{"id": anchor_id, "anchor": list(anchor), "ok": ok}
              for anchor_id, (anchor, ok) in enumerate(zip(anchors, positive.tolist()))]
    for entry in report:
        if not entry["ok"]:
            entry["reason"] = "metric not positive definite here"
    table = np.column_stack([np.repeat(np.flatnonzero(positive), count), samples.reshape(-1, 2)])
    t1 = time.perf_counter()
    _write_csv(os.path.join(config.output_dir, "ellipses.csv"),
               ["anchor_id", "x", "y"], _float_lines(table))
    _write_json(os.path.join(config.output_dir, "ellipses_summary.json"), {
        "level": level, "points_per_ellipse": count,
        "anchors": report, "n_failed": failed,
    })
    _write_json(os.path.join(config.output_dir, "timing.json"), dict(
        timing, evaluate_seconds=t1 - t0, write_seconds=time.perf_counter() - t1))
    print(f"{len(table)} ellipse samples for {len(anchors) - failed}/{len(anchors)} "
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
        if name == "ellipses":
            cmd.add_argument("--anchor", action="append", default=[],
                             help="ellipse anchor 'x,y' (repeatable)")
            cmd.add_argument("--level", type=float, default=1.0,
                             help="ellipse level constant (default 1.0)")
            cmd.add_argument("--count", type=int, default=64,
                             help="samples per ellipse (default 64)")
    return parser


@functools.cache
def _freeze_at_exit():
    atexit.register(gc.freeze)      # atexit is LIFO: the handlers registered earlier run after it


def main(argv=None):
    _freeze_at_exit()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, output_dir=args.output_dir)
        if args.command != "ellipses":
            return {"solve": cmd_solve, "convergence": cmd_convergence,
                    "fields": cmd_fields}[args.command](config)
        anchors = [_parse_anchor(a) for a in args.anchor]
        if not anchors:
            raise ConfigError("ellipses needs at least one --anchor 'x,y'")
        return cmd_ellipses(config, anchors, args.level, args.count)
    except (ConfigError, ValueError, OSError) as err:
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
