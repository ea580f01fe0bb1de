"""One fresh benchmark process; run.py starts it and reads its record file.

    child.py setup RECORD [--env]       import conmet, record when ready
    child.py cli RECORD [--trace] ARGS  ... then run conmet.cli.main(ARGS)
    child.py residual RECORD OUTDIR CONFIG
                                        max |L(S)(x_k) + C| / max |C| from beta.csv
    child.py blas RECORD                Cholesky time of the large-domain Gram

The record is a JSON file.  `ready` is time.monotonic() once conmet and the
modules its config parser needs are imported; CLOCK_MONOTONIC is shared by
all processes, so the parent's spawn time and `ready` give the set-up time.
"""

import json
import sys
import time


def _write(path, record):
    with open(path, "w") as handle:
        json.dump(record, handle)


def _ready():
    import conmet          # noqa: F401  (numpy, scipy and every conmet module)
    import conmet.cli      # noqa: F401

    return time.monotonic()


def environment():
    """What makes results from two boxes incomparable."""
    import os
    import platform

    import numpy
    import scipy

    def blas(module):
        info = module.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    l3 = None
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as handle:
            l3 = handle.read().strip()
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "cpu": cpu,
        "l3_cache": l3,
    }


def cmd_setup(record, args):
    ready = _ready()
    out = {"ready": ready}
    if "--env" in args:
        out["env"] = environment()
    _write(record, out)
    return 0


def cmd_cli(record, args):
    trace = args[:1] == ["--trace"]
    if trace:
        args = args[1:]
    ready = _ready()
    import conmet.cli

    out = {"ready": ready, "command": args[0]}
    tracer = wrapped = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer(run_id=args[0])
        wrapped = tracing.install(tracer)
    try:
        code = conmet.cli.main(args)
    finally:
        if tracer is not None:
            out["trace"] = dict(tracer.dump(), wrapped=wrapped)
        _write(record, out)
    return code


def cmd_residual(record, args):
    import csv

    import numpy as np

    import conmet

    outdir, config_path = args
    with open(config_path) as handle:
        config = json.load(handle)
    bundle = conmet.get_system(config.get("system", "linear-example"))
    kernel = conmet.wendland_c8(config.get("kernel", {}).get("c", 0.9))
    rhs = np.asarray(config.get("rhs_matrix", np.eye(bundle.system.dim)), dtype=float)
    with open(f"{outdir}/beta.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    data = np.array(rows[1:], dtype=float)
    points, coeffs = data[:, 1:3], data[:, 3:6]
    beta = np.empty((len(points), 2, 2))
    beta[:, 0, 0] = coeffs[:, 0]
    beta[:, 0, 1] = beta[:, 1, 0] = coeffs[:, 1]
    beta[:, 1, 1] = coeffs[:, 2]
    cset = conmet.collocation_data(bundle.system, points)
    diagnostics = conmet.SolveDiagnostics(
        dimension=3 * len(points), relative_residual=float("nan"),
        factorization="cholesky", regularized=False)
    solution = conmet.RecoverySolution(collocation=cset, kernel=kernel, beta=beta,
                                       rhs=rhs, diagnostics=diagnostics)
    images = conmet.eval_operator_batch(solution, points)
    residual = float(np.max(np.abs(images + rhs)) / np.max(np.abs(rhs)))
    _write(record, {"interp_residual": residual})
    return 0


def cmd_blas(record, args):
    import os
    import statistics

    import scipy.linalg

    import conmet
    import workloads

    large = workloads.WORKLOADS["large-domain"]
    bundle = conmet.get_system("linear-example")
    points = conmet.make_grid(conmet.GridSpec(large.bounds, large.spacing))
    _, gram = conmet.assemble(bundle.system, conmet.wendland_c8(0.9), points,
                              equilibria=bundle.equilibria)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        scipy.linalg.cho_factor(gram, lower=True, check_finite=False)
        times.append(time.perf_counter() - start)
    _write(record, {"threads": os.environ.get("OPENBLAS_NUM_THREADS"),
                    "dim": gram.shape[0], "factor_s": statistics.median(times)})
    return 0


def main(argv):
    mode, record, args = argv[0], argv[1], argv[2:]
    handler = {"setup": cmd_setup, "cli": cmd_cli, "residual": cmd_residual,
               "blas": cmd_blas}[mode]
    return handler(record, args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
