"""Analysis needs numpy alone: scipy is imported only by the splines of
compare and reconstruct and by random_csp, each at its first call."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
import jacobi, jacobi.cli
from jacobi.matcurve import SampleGrid, preset_curve
from jacobi.pipeline import analyze
analyze(preset_curve("paper-6.2-ex1"), SampleGrid(0.0, 1.0, 201))
print(sorted(k for k in sys.modules if k.split(".")[0] == "scipy"))
"""


def test_analysis_imports_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
