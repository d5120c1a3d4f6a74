"""The benchmark's tracer wraps package names given as strings; a removed or
renamed name would otherwise surface only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def jacobi_module(name):
    return importlib.import_module(f"jacobi.{name}")


def test_wrapped_functions_exist():
    missing = [f"{module}.{name}"
               for module, name, *_ in load_tracing().FUNCTIONS
               if not callable(getattr(jacobi_module(module), name, None))]
    assert missing == []


def test_wrapped_methods_exist():
    missing = [f"{module}.{cls}.{method}"
               for module, cls, method, *_ in load_tracing().METHODS
               if method not in vars(getattr(jacobi_module(module), cls))]
    assert missing == []


def test_analyze_reaches_the_traced_sampling_and_schwarzian():
    # the screen samples through sample_curve and computes the Schwarzian
    # and its spectrum through ricci and matrix_schwarzian, so none of
    # these layers reads 0 in a trace
    from jacobi.matcurve import SampleGrid, preset_curve
    from jacobi.pipeline import analyze

    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        analyze(preset_curve("paper-6.2-ex1"), SampleGrid(0.0, 1.0, 41))
    finally:
        tracer.remove()
    assert tracer.count("matcurve.sample") == 1
    assert tracer.count("curvature.schwarzian") == 1
    assert tracer.count("curvature.ricci") == 1
