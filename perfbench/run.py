"""conmet benchmark: runs one workload through the real CLI and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report        # stage table from the last traces

Load model: a closed loop with one client.  One iteration runs the
workload's conmet command(s), each in a fresh process, back to back; the
next iteration starts when the previous one has ended and its outputs are
checked.  Iterations repeat while the next one is expected to end within
--seconds (always at least one).  BLAS pools are capped at nproc through the
environment before numpy loads.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced iterations and prints the per-layer metrics
derived from the traced ones (see tracer.py).  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Everything the
benchmark writes goes under perfbench/.work/.
"""

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / ".work"
PACKAGE = ROOT / "src" / "conmet" / "cli.py"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5            # extra set-up-only processes per run, besides the iterations
CHILD_TIMEOUT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "err_S": "1", "err_LS": "1"}
LAYER_UNITS = {
    "systems.f_calls": "count", "systems.jacobian_calls": "count",
    "systems.callback_s": "s",
    "kernels.profile_calls": "count", "kernels.radii": "count",
    "kernels.support_fraction": "ratio", "kernels.profile_s": "s",
    "operator.apply_calls": "count", "operator.apply_s": "s",
    "operator.block_calls": "count", "operator.block_s": "s",
    "collocation.assemble_s": "s", "collocation.assemble_rss_mb": "MB",
    "collocation.factor_s": "s", "collocation.solve_s": "s",
    "collocation.gram_bytes": "B", "collocation.gram_nnz_fraction": "ratio",
    "collocation.unknowns": "count", "collocation.cholesky_gflop_computed": "Gflop",
    "collocation.factor_gflop_s": "Gflop/s", "collocation.blas_scaling": "ratio",
    "evaluate.eval_points": "count", "evaluate.eval_s": "s", "evaluate.batch_s": "s",
    "evaluate.points_per_s": "1/s", "evaluate.definiteness_calls": "count",
    "evaluate.definiteness_s": "s", "evaluate.eval_rss_mb": "MB",
    "cli.self_s": "s", "cli.csv_bytes": "B", "trace.overhead_s": "s",
}


class ChildFailed(Exception):
    pass


def child_env(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


def spawn(args, cwd, threads=NPROC):
    """Run child.py with args in a fresh process; return its record plus the
    spawn and exit times and its ru_maxrss, read after it has ended."""
    record = WORK / "record.json"
    record.unlink(missing_ok=True)
    log_path = WORK / "child.log"
    with open(log_path, "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), args[0],
                                 str(record), *args[1:]],
                                cwd=cwd, env=child_env(threads), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        reaped = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            timer.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
        exited = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not record.exists():
        tail = log_path.read_text()[-2000:]
        raise ChildFailed(f"{' '.join(args)} exited {proc.returncode}:\n{tail}")
    out = json.loads(record.read_text())
    out.update(spawned=spawned, exited=exited, maxrss_mb=usage.ru_maxrss / 1024.0)
    return out


def setup_probe(cwd, env=False):
    out = spawn(["setup"] + (["--env"] if env else []), cwd)
    return out["ready"] - out["spawned"], out.get("env")


class Runner:
    """Iterations of one workload for one seed, with their output checks."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.cwd = WORK / workload.name
        self.cwd.mkdir(parents=True, exist_ok=True)
        self.config, self.scale = workloads.make_config(workload, seed)
        self.config_path = self.cwd / f"config-{seed}.json"
        self.config_path.write_text(json.dumps(self.config))
        self.outdir = self.cwd / self.config["output_dir"]
        self.digest = None
        self.checked = {}
        self.csv_bytes = 0

    def iteration(self, trace=False):
        """Run the workload once and check its outputs.  Returns wall time,
        peak RSS, set-up times and (traced) the trace dumps."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        wall = 0.0
        rss = 0.0
        setups, dumps = [], []
        for command in self.workload.commands:
            out = spawn(["cli"] + (["--trace"] if trace else [])
                        + [command, str(self.config_path)], self.cwd)
            wall += out["exited"] - out["ready"]
            rss = max(rss, out["maxrss_mb"])
            setups.append(out["ready"] - out["spawned"])
            if trace:
                dumps.append(out["trace"])
        self.check()
        return {"wall_s": wall, "peak_rss_mb": rss, "setups": setups, "dumps": dumps}

    def check(self):
        values = workloads.check_outputs(self.workload, self.outdir, self.scale)
        digest = workloads.artifact_digest(self.outdir)
        if self.digest is None:
            # the first iteration gets the expensive check; later ones must
            # reproduce its artifacts byte for byte
            if "solve" in self.workload.commands:
                out = spawn(["residual", str(self.outdir), str(self.config_path)], self.cwd)
                values.update(workloads.check_residual(out["interp_residual"]))
            self.digest = digest
            self.checked = values
        elif digest != self.digest:
            raise workloads.CheckFailed("artifacts differ from the first iteration's")
        self.csv_bytes = sum(p.stat().st_size for p in self.outdir.glob("*.csv"))


def timed_loop(seconds, step):
    """Call step() back to back while the next call is expected to end within
    `seconds`; a call longer than half of `seconds` runs once."""
    results, durations = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        results.append(step())
        durations.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            return results


def attempt(step, failures):
    """step() with a failed run or check counted instead of raised."""
    def run():
        try:
            return step()
        except (ChildFailed, workloads.CheckFailed) as err:
            failures.append(str(err))
            print(f"FAILED: {err}", file=sys.stderr)
            return None
    return run


def tail_percentile(n):
    """Highest percentile with at least ten samples beyond it, or None."""
    return int(100 * (n - 10) / n) if n >= 20 else None


def measure(runner, seconds):
    failures = []
    setups = []
    for _ in range(SETUP_PROBES):
        setups.append(setup_probe(runner.cwd)[0])
    results = timed_loop(seconds, attempt(runner.iteration, failures))
    done = [r for r in results if r is not None]
    for r in done:
        setups.extend(r["setups"])
    walls = [r["wall_s"] for r in done]
    metrics = {}
    if done:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
            "err_S": runner.checked["err_S"],
            "err_LS": runner.checked["err_LS"],
        }
    extras = {"samples": len(walls), "wall_s_all": walls, "setup_s_all": setups,
              "tail_percentile": tail_percentile(len(walls)),
              "ops_failed": len(failures) / len(results), "failures": failures}
    for key in ("defin_failures", "interp_residual"):
        if key in runner.checked:
            extras[key] = runner.checked[key]
    return len(results), len(failures), metrics, extras


def blas_scaling(cwd):
    one = spawn(["blas"], cwd, threads=1)["factor_s"]
    many = spawn(["blas"], cwd, threads=NPROC)["factor_s"]
    return one / many


def measure_traced(runner, seconds):
    failures = []
    turns = itertools.count()
    blas_failed = 0

    def pair():
        # alternate which of the two runs first, so neither always runs warm
        order = (False, True) if next(turns) % 2 == 0 else (True, False)
        return {traced: runner.iteration(trace=traced) for traced in order}

    results = timed_loop(seconds, attempt(pair, failures))
    done = [r for r in results if r is not None]
    metrics = {}
    if done:
        per_iteration = [tracer.layer_metrics(r[True]["dumps"]) for r in done]
        metrics = {name: statistics.median(m[name] for m in per_iteration)
                   for name in per_iteration[0]}
        metrics["cli.csv_bytes"] = runner.csv_bytes
        metrics["trace.overhead_s"] = (statistics.median(r[True]["wall_s"] for r in done)
                                       - statistics.median(r[False]["wall_s"] for r in done))
        try:
            metrics["collocation.blas_scaling"] = blas_scaling(runner.cwd)
        except ChildFailed as err:
            blas_failed = 1
            print(f"FAILED: {err}", file=sys.stderr)
    trace_file = {
        "workload": runner.workload.name,
        "iterations": [{"wall_s": r[True]["wall_s"], "dumps": r[True]["dumps"]}
                       for r in done],
    }
    extras = {"samples": len(done), "ops_failed": len(failures) / len(results),
              "failures": failures, "trace_file": trace_file}
    return 2 * len(results), 2 * len(failures) + blas_failed, metrics, extras


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run(args):
    workload = workloads.WORKLOADS[args.workload]
    WORK.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, args.seed)
    _, env = setup_probe(runner.cwd, env=True)      # untimed: warms caches and bytecode
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        attempted, failed, metrics, extras = measure_traced(runner, args.seconds)
        units = LAYER_UNITS
    else:
        attempted, failed, metrics, extras = measure(runner, args.seconds)
        units = END_TO_END_UNITS
    correct = failed == 0 and set(metrics) == set(units)

    print(f"workload {workload.name} seed {args.seed} rhs scale {runner.scale:g} "
          f"iterations {extras['samples']} (closed loop, 1 client)")
    for name in sorted(metrics):
        print(f"  {name:<40} {fmt(metrics[name]):>14} {units[name]}")
    for name, unit in (("ops_failed", "share"), ("defin_failures", "count"),
                       ("interp_residual", "1")):
        if name in extras:
            print(f"  {name:<40} {fmt(extras[name]):>14} {unit}")
    if not args.trace:
        tail = extras["tail_percentile"]
        print(f"  wall_s tail percentile: {'p%d' % tail if tail else 'none'} "
              f"(needs >= 10 samples beyond it; {extras['samples']} samples)")

    tag = f"{workload.name}-seed{args.seed}-trace{int(args.trace)}"
    trace_file = extras.pop("trace_file", None)
    if trace_file is not None:
        trace_file.update(env=env, seed=args.seed, metrics=metrics)
        (WORK / f"trace-{workload.name}.json").write_text(json.dumps(trace_file))
    (WORK / f"result-{tag}.json").write_text(json.dumps(
        {"workload": workload.name, "seed": args.seed, "trace": args.trace, "env": env,
         "metrics": metrics, **extras}, indent=1))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0 if correct else 1


def report():
    """ROADMAP baseline table (stage wall times per solve) from the traces."""
    paths = sorted(WORK.glob("trace-*.json"))
    if not paths:
        print("no traces under perfbench/.work; run with --trace 1 first", file=sys.stderr)
        return 2
    columns = [stage for stage, _ in tracer.STAGES]
    print("| workload | command | N / unknowns | " + " | ".join(columns)
          + " | peak RSS |")
    print("|---" * (len(columns) + 4) + "|")
    for path in paths:
        trace = json.loads(path.read_text())
        cells = {}
        for iteration in trace["iterations"]:
            for dump in iteration["dumps"]:
                for nodes, row in tracer.stage_rows(dump).items():
                    key = (dump["run"], nodes)
                    cell = cells.setdefault(key, {"unknowns": row["unknowns"]})
                    for name, value in row.items():
                        if name != "unknowns":
                            cell.setdefault(name, []).append(value)
        for (command, nodes), cell in sorted(cells.items(), key=lambda kv: kv[0][1]):
            values = [f"{statistics.median(cell[c]):.2f} s" if c in cell else "-"
                      for c in columns]
            print(f"| {trace['workload']} | {command} | {nodes} / {cell['unknowns']} | "
                  + " | ".join(values)
                  + f" | {statistics.median(cell['peak_rss_mb']):.0f} MB |")
    print("\nmedians over traced iterations")
    for path in paths:
        trace = json.loads(path.read_text())
        print(f"{trace['workload']} seed {trace['seed']} env "
              f"{json.dumps(trace['env'], sort_keys=True)}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    args = parser.parse_args(argv)
    if args.report:
        return report()
    if args.workload is None:
        parser.error("--workload is required")
    if not PACKAGE.exists():
        print(f"conmet sources not found at {PACKAGE.relative_to(ROOT)}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
