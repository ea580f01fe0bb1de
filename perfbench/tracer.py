"""In-memory span tracer installed around conmet's module attributes.

Nothing in the package is edited: the tracer replaces functions on the
modules that hold them, so every caller that looks the name up at call time
goes through a timing wrapper.  Two kinds of span are kept:

- stored spans (one record each) for the pipeline stages, which run a few
  times per command: name, start, end, parent, run id, the node count of the
  enclosing solve, self time and ru_maxrss at both ends;
- folded spans for per-point callbacks, which run up to ~10^5 times per
  command: they are summed per (stored ancestor, name) into a call count,
  total time and self time, so the trace stays small.

A span's self time is its duration minus the time covered by its children.
The tracer's own work around a call (bookkeeping, and probes such as
counting the Gram's nonzeros) is charged to the parent as child time, so it
inflates no layer's self time and shows up only in the traced wall time.

numpy, scipy and conmet are imported inside the functions that need them:
the benchmark's parent process uses this module's derivations and must stay
light.
"""

import dataclasses
import functools
import importlib
import inspect
import resource
import sys
import time

perf_counter = time.perf_counter


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclasses.dataclass
class _Frame:
    name: str
    fold: bool
    ident: int              # stored span id, or the stored ancestor's id
    nodes: int
    start: float = 0.0
    child: float = 0.0
    rss_start: float = 0.0


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.nodes = 0                 # node count of the enclosing solve
        self.spans = []                # stored span records
        self.folded = {}               # (ancestor id, name) -> aggregate
        self._stack = []

    def wrap(self, fn, name, fold=False, probe=None, nodes_from=None):
        """Timing wrapper around fn.

        probe(arguments, result) returns extra counters for the span and
        nodes_from(arguments) the node count of the solve that the call
        starts; both get the call's bound arguments by parameter name.
        """
        signature = inspect.signature(fn) if (probe or nodes_from) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = perf_counter()
            arguments = None
            if signature is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                if nodes_from is not None:
                    self.nodes = nodes_from(arguments)
            return self._call(fn, name, fold, probe, arguments, entered, args, kwargs)

        return wrapper

    def _call(self, fn, name, fold, probe, arguments, entered, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        # a folded span's children fold into the same stored ancestor
        fold = fold or (parent is not None and parent.fold)
        if fold:
            ident = parent.ident if parent is not None else -1
        else:
            ident = len(self.spans)
            self.spans.append(None)    # reserve the id; filled on exit
        frame = _Frame(name, fold, ident, self.nodes,
                       rss_start=0.0 if fold else maxrss_mb())
        self._stack.append(frame)
        frame.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(frame, parent, entered, perf_counter(), None)
            raise
        end = perf_counter()
        extra = probe(arguments, result) if probe is not None else None
        self._close(frame, parent, entered, end, extra)
        return result

    def _close(self, frame, parent, entered, end, extra):
        self._stack.pop()
        duration = end - frame.start
        self_s = duration - frame.child
        if frame.fold:
            key = (frame.ident, frame.name)
            agg = self.folded.setdefault(key, {"count": 0, "total_s": 0.0,
                                               "self_s": 0.0, "extra": {}})
            agg["count"] += 1
            agg["total_s"] += duration
            agg["self_s"] += self_s
            for k, v in (extra or {}).items():
                agg["extra"][k] = agg["extra"].get(k, 0) + v
        else:
            self.spans[frame.ident] = {
                "id": frame.ident,
                "name": frame.name,
                "parent": parent.ident if parent is not None else None,
                "run": self.run_id,
                "nodes": frame.nodes,
                "start": frame.start,
                "end": end,
                "self_s": self_s,
                "rss_start_mb": frame.rss_start,
                "rss_end_mb": maxrss_mb(),
                "extra": extra or {},
            }
        if parent is not None:
            # the parent's self time excludes this call and the tracer's own work
            parent.child += perf_counter() - entered

    def dump(self):
        folded = [{"ancestor": a, "name": n, **agg} for (a, n), agg in self.folded.items()]
        return {"run": self.run_id, "spans": [s for s in self.spans if s],
                "folded": folded}


def _replace_everywhere(original, replacement):
    """Rebind every conmet.* module attribute that is `original`."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "conmet" or name.startswith("conmet.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _gram_probe(arguments, result):
    import numpy as np

    gram = result[1]
    return {"gram_bytes": int(gram.nbytes), "gram_nnz": int(np.count_nonzero(gram)),
            "gram_entries": int(gram.size), "unknowns": int(gram.shape[0])}


def _factor_probe(arguments, result):
    return {"dim": int(arguments["a"].shape[0])}


def _profile_probe(arguments, result):
    import numpy as np

    psi = result[0]
    # the Wendland profile is strictly positive inside its support
    return {"radii": int(psi.size), "inside": int(np.count_nonzero(psi))}


def _points_probe(param):
    def probe(arguments, result):
        return {"points": len(arguments[param])}
    return probe


# (module, attribute, span name, fold, probe).  Functions that another module
# binds at import time (evaluate's `from .collocation import assemble`) are
# rebound in every conmet module that holds them.  Attributes a later
# version of the package no longer has are skipped.
_TARGETS = (
    ("conmet.cli", "main", "cli.main", False, None),
    ("conmet.cli", "cmd_solve", "cli.cmd_solve", False, None),
    ("conmet.cli", "cmd_convergence", "cli.cmd_convergence", False, None),
    ("conmet.cli", "cmd_fields", "cli.cmd_fields", False, None),
    ("conmet.collocation", "make_grid", "collocation.make_grid", False, None),
    ("conmet.collocation", "assemble", "collocation.assemble", False, _gram_probe),
    ("conmet.collocation", "solve", "collocation.solve", False, None),
    ("conmet.collocation", "separation_distance", "collocation.separation_distance",
     False, None),
    ("conmet.collocation", "fill_distance_estimate", "collocation.fill_distance_estimate",
     False, None),
    ("conmet.evaluate", "convergence_study", "evaluate.convergence_study", False, None),
    ("conmet.evaluate", "error_report", "evaluate.error_report", False,
     _points_probe("check_points")),
    ("conmet.evaluate", "field_export", "evaluate.field_export", False,
     _points_probe("grid")),
    ("conmet.evaluate", "_fields_batch", "evaluate.fields_batch", False, None),
    ("conmet.evaluate", "definiteness", "evaluate.definiteness", True, None),
    ("conmet.operator", "apply_operator", "operator.apply_operator", True, None),
    ("conmet.operator", "row_operator_matrix", "operator.block", True, None),
    ("conmet.operator", "column_representer_matrix", "operator.block", True, None),
)


def _solve_nodes(arguments):
    return len(arguments["points"])


def install(tracer):
    """Install the wrappers; return the names that were found and wrapped."""
    import scipy.linalg

    installed = []
    for module_name, attr, span, fold, probe in _TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            continue
        nodes_from = _solve_nodes if span == "collocation.assemble" else None
        wrapped = tracer.wrap(original, span, fold=fold, probe=probe, nodes_from=nodes_from)
        _replace_everywhere(original, wrapped)
        installed.append(span)

    for attr, span, probe in (("cho_factor", "linalg.cho_factor", _factor_probe),
                              ("cho_solve", "linalg.cho_solve", None)):
        setattr(scipy.linalg, attr,
                tracer.wrap(getattr(scipy.linalg, attr), span, probe=probe))
        installed.append(span)

    from conmet.kernels import RadialKernel

    RadialKernel.profile_values = tracer.wrap(
        RadialKernel.profile_values, "kernels.profile_values", fold=True,
        probe=_profile_probe)
    installed.append("kernels.profile_values")

    import conmet.systems

    get_system = conmet.systems.get_system

    def traced_get_system(name):
        bundle = get_system(name)
        system = dataclasses.replace(
            bundle.system,
            f=tracer.wrap(bundle.system.f, "systems.f", fold=True),
            jacobian=tracer.wrap(bundle.system.jacobian, "systems.jacobian", fold=True))
        return dataclasses.replace(bundle, system=system)

    _replace_everywhere(get_system,
                        tracer.wrap(traced_get_system, "systems.get_system"))
    installed.append("systems.get_system")
    return installed


def _by_name(dumps):
    """name -> list of (stored span or folded aggregate) over the dumps."""
    stored, folded = {}, {}
    for dump in dumps:
        for span in dump["spans"]:
            stored.setdefault(span["name"], []).append(span)
        for agg in dump["folded"]:
            folded.setdefault(agg["name"], []).append(agg)
    return stored, folded


def layer_metrics(dumps):
    """Per-layer metrics of one workload iteration from its traced commands."""
    stored, folded = _by_name(dumps)

    def spans(*names):
        return [s for n in names for s in stored.get(n, [])]

    def aggs(*names):
        return [a for n in names for a in folded.get(n, [])]

    def total(*names):
        return (sum(s["end"] - s["start"] for s in spans(*names))
                + sum(a["total_s"] for a in aggs(*names)))

    def self_time(*names):
        return (sum(s["self_s"] for s in spans(*names))
                + sum(a["self_s"] for a in aggs(*names)))

    def count(*names):
        return len(spans(*names)) + sum(a["count"] for a in aggs(*names))

    def extra(key, *names):
        return ([s["extra"].get(key, 0) for s in spans(*names)]
                + [a["extra"].get(key, 0) for a in aggs(*names)])

    def rss_growth(*names):
        return sum(s["rss_end_mb"] - s["rss_start_mb"] for s in spans(*names))

    radii = sum(extra("radii", "kernels.profile_values"))
    grams = spans("collocation.assemble")
    largest = max(grams, key=lambda s: s["extra"]["unknowns"], default=None)
    factor_s = total("linalg.cho_factor")
    flops = sum(d ** 3 / 3.0 for d in extra("dim", "linalg.cho_factor"))
    eval_names = ("evaluate.error_report", "evaluate.field_export")
    eval_points = sum(extra("points", *eval_names))
    eval_total = total(*eval_names)
    return {
        "systems.f_calls": count("systems.f"),
        "systems.jacobian_calls": count("systems.jacobian"),
        "systems.callback_s": total("systems.f", "systems.jacobian"),
        "kernels.profile_calls": count("kernels.profile_values"),
        "kernels.radii": radii,
        "kernels.support_fraction": (sum(extra("inside", "kernels.profile_values")) / radii
                                     if radii else 0.0),
        "kernels.profile_s": total("kernels.profile_values"),
        "operator.apply_calls": count("operator.apply_operator"),
        "operator.apply_s": self_time("operator.apply_operator"),
        "operator.block_calls": count("operator.block"),
        "operator.block_s": total("operator.block"),
        "collocation.assemble_s": self_time("collocation.assemble"),
        "collocation.assemble_rss_mb": rss_growth("collocation.assemble"),
        "collocation.factor_s": factor_s,
        "collocation.solve_s": self_time("collocation.solve") + total("linalg.cho_solve"),
        "collocation.gram_bytes": largest["extra"]["gram_bytes"] if largest else 0,
        "collocation.gram_nnz_fraction": (largest["extra"]["gram_nnz"]
                                          / largest["extra"]["gram_entries"]
                                          if largest else 0.0),
        "collocation.unknowns": largest["extra"]["unknowns"] if largest else 0,
        "collocation.cholesky_gflop_computed": flops / 1e9,
        "collocation.factor_gflop_s": flops / 1e9 / factor_s if factor_s else 0.0,
        "evaluate.eval_points": eval_points,
        "evaluate.eval_s": self_time(*eval_names),
        "evaluate.batch_s": self_time("evaluate.fields_batch"),
        "evaluate.points_per_s": eval_points / eval_total if eval_total else 0.0,
        "evaluate.definiteness_calls": count("evaluate.definiteness"),
        "evaluate.definiteness_s": total("evaluate.definiteness"),
        "evaluate.eval_rss_mb": rss_growth(*eval_names),
        "cli.self_s": self_time("cli.main", "cli.cmd_solve", "cli.cmd_convergence",
                                "cli.cmd_fields"),
    }


STAGES = (("assemble", "collocation.assemble"),
          ("cholesky", "linalg.cho_factor"),
          ("eval_S_LS", "evaluate.fields_batch"),
          ("error_report", "evaluate.error_report"),
          ("field_export", "evaluate.field_export"))


def stage_rows(dump):
    """Per-solve stage times of one traced command, keyed by node count."""
    rows = {}
    for span in dump["spans"]:
        if not span["nodes"]:
            continue
        row = rows.setdefault(span["nodes"], {"unknowns": None, "peak_rss_mb": 0.0})
        row["peak_rss_mb"] = max(row["peak_rss_mb"], span["rss_end_mb"])
        if span["name"] == "collocation.assemble":
            row["unknowns"] = span["extra"]["unknowns"]
        for stage, name in STAGES:
            if span["name"] == name:
                row[stage] = row.get(stage, 0.0) + span["end"] - span["start"]
    return rows
