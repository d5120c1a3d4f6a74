"""A fixed reference computation that measures the machine's current speed.

On a shared machine the speed of one core swings by a third within seconds,
and every call of the pipeline slows with it.  The benchmark times this loop
before and after each call and reports speed in units of the loop's
duration, which cancels most of that swing.  The loop does what the
pipeline does per sample: it builds small matrices afresh and runs dense
solves, symmetric eigenproblems, condition numbers and Python-level
arithmetic on them, at n = 2 to 6.  It never calls the package, so a change
to the package cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

SIZES = (2, 3, 4, 6)
REPS = 60


def reference_seconds():
    """Wall time of one pass of the loop."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    acc = 0.0
    for _ in range(REPS):
        for n in SIZES:
            a = rng.normal(size=(n, n))
            a = a @ a.T + n * np.eye(n)
            x = np.linalg.solve(a, rng.normal(size=(n, n)))
            w, v = np.linalg.eigh(a)
            acc += float(np.linalg.cond(a)) + float(np.max(np.abs(x @ v)))
            acc += sum(float(y) for y in w)
    if not np.isfinite(acc):
        raise RuntimeError("reference loop produced a non-finite value")
    return time.perf_counter() - t0
