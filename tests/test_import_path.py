"""Analysis, compare, reconstruct and the round trip need numpy alone: scipy
is imported only by random_csp (scipy.linalg.expm), at its first call."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import contextlib, io, sys
import jacobi, jacobi.cli
from jacobi.matcurve import SampleGrid, preset_curve
from jacobi.pipeline import analyze
from jacobi.reconstruct import roundtrip
analyze(preset_curve("paper-6.2-ex1"), SampleGrid(0.0, 1.0, 201))
with contextlib.redirect_stdout(io.StringIO()):
    assert jacobi.cli.main(["compare", "paper-6.2-ex1", "paper-6.2-ex2",
                            "--t0", "0", "--t1", "1"]) == 3
    assert jacobi.cli.main(["reconstruct", sys.argv[1],
                            "--out", sys.argv[2]]) == 0
assert roundtrip(preset_curve("paper-6.2-ex1"),
                 SampleGrid(0.0, 1.0, 201)).equivalent
print(sorted(k for k in sys.modules if k.split(".")[0] == "scipy"))
"""


def test_analysis_imports_no_scipy(tmp_path):
    f = tmp_path / "prescription.json"
    f.write_text(json.dumps({
        "n": 2, "grid": {"t0": 0.0, "t1": 1.0, "m": 51}, "K": [0.0, -1.0],
        "F0": (np.eye(4) + np.eye(4, k=2)).tolist()}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(f), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
