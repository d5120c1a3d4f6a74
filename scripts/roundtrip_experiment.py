#!/usr/bin/env python3
"""Reconstruction roundtrip experiment.

For the presets and a corpus of random quartic curves: extract the
invariants, integrate the frame ODE from them, re-analyze the rebuilt
curve, and report how closely the invariants close the loop — alongside
how closely the integrated frames solve the frame ODE and their
symplecticity residual.  Exits 1 if a preset does not close.

    PYTHONPATH=src python3 scripts/roundtrip_experiment.py [-m M] [--seeds N]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from jacobi.errors import JacobiError
from jacobi.matcurve import SampleGrid, preset_curve
from jacobi.pipeline import analyze
from jacobi.reconstruct import roundtrip

# the test suite's random quartic, the one copy of the recipe
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.conftest import random_quartic  # noqa: E402


def report(curve, grid):
    """Print one round trip; returns whether it closed."""
    try:
        ana = analyze(curve, grid)
    except JacobiError as e:
        print(f"{curve.name:16s} inadmissible ({type(e).__name__})")
        return False
    kmax = float(np.max(np.abs(ana.reduced.Kdiag)))
    try:
        rep = roundtrip(curve, grid)
    except JacobiError as e:
        print(f"{curve.name:16s} kmax={kmax:9.2f} "
              f"roundtrip failed ({type(e).__name__})")
        return False
    verdict = "equivalent" if rep.equivalent else "NOT equivalent"
    print(f"{curve.name:16s} kmax={kmax:9.2f} k_dev={rep.k_deviation:.3e} "
          f"frame_dev={rep.frame_deviation:.3e} "
          f"resid={rep.sympl_residual:.3e}  {verdict}")
    return rep.equivalent


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("-m", type=int, default=201)
    args = ap.parse_args()
    grid = SampleGrid(0.0, 1.0, args.m)
    closed = [report(preset_curve(name), grid)
              for name in ("paper-6.2-ex1", "paper-6.2-ex2")]
    for seed in range(args.seeds):
        report(random_quartic(seed), grid)
    return 0 if all(closed) else 1


if __name__ == "__main__":
    sys.exit(main())
