#!/usr/bin/env python3
"""Reproduce the two closed-form worked examples end to end.

Analyzes both built-in non-flat presets on [0, 1], prints the deviation of
the computed invariants from their closed forms, and optionally writes the
invariant tables as CSV.
"""

import argparse
from pathlib import Path

import numpy as np

from jacobi.cli import _invariant_csv
from jacobi.matcurve import SampleGrid, preset_curve
from jacobi.pipeline import analyze

CLOSED_FORMS = {
    "paper-6.2-ex1": {
        "k": np.array([-2.0, 0.0]),
        "M": lambda t: np.diag([np.cosh(t) + np.sinh(t), 1.0 + t]),
    },
    "paper-6.2-ex2": {
        "k": np.array([0.0, 2.0]),
        "M": lambda t: np.diag([1.0 + t, np.cos(t) + np.sin(t)]),
    },
}


def run(name, grid, out_dir=None):
    ana = analyze(preset_curve(name), grid)
    ref = CLOSED_FORMS[name]
    k_dev = float(np.max(np.abs(ana.reduced.curvatures() - ref["k"])))
    sig_dev = float(np.max(np.abs(ana.reduced.Sigma)))
    zeta_dev = float(np.max(np.abs(ana.reduced.zeta - 1.0)))
    m_dev = max(
        float(np.max(np.abs(m - ref["M"](t))))
        for t, m in zip(ana.arc.ts, ana.frame[:, :2, :2])
    )
    print(f"{name}:")
    print(f"  |k - closed form|        = {k_dev:.3e}")
    print(f"  |Sigma|                  = {sig_dev:.3e}")
    print(f"  |zeta - 1|               = {zeta_dev:.3e}")
    print(f"  |frame - closed form|    = {m_dev:.3e}")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        _invariant_csv(ana.reduced, out_dir / f"{name}.csv")
        print(f"  wrote {out_dir / (name + '.csv')}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t0", type=float, default=0.0)
    ap.add_argument("--t1", type=float, default=1.0)
    ap.add_argument("-m", type=int, default=201)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()
    grid = SampleGrid(args.t0, args.t1, args.m)
    for name in CLOSED_FORMS:
        run(name, grid, args.out)


if __name__ == "__main__":
    main()
