"""The public surface: what each module exports, and the package's names."""

import importlib
import pkgutil

import conmet

PACKAGE_NAMES = [
    "RadialKernel", "wendland_c8",
    "DynamicalSystem", "ExactMetric", "check_equilibrium_condition", "linear_example",
    "register_system", "get_system",
    "GridSpec", "make_grid", "collocation_data", "assemble", "solve",
    "RecoverySolution", "SolveDiagnostics", "FactorizationError",
    "eval_metric_batch", "eval_operator_batch", "field_export",
    "error_report", "convergence_study", "ellipse_points",
]


def test_every_exported_name_resolves():
    modules = [conmet] + [importlib.import_module(f"conmet.{info.name}")
                          for info in pkgutil.iter_modules(conmet.__path__)]
    assert len(modules) > 1
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names undefined {missing}"


def test_package_surface_is_the_declared_list():
    # a name joins the package surface by being added here too
    assert conmet.__all__ == PACKAGE_NAMES
    assert len(PACKAGE_NAMES) == 22
