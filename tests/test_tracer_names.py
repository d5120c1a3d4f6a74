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
