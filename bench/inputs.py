"""Seeded benchmark inputs: the closed-form family, random quartics, presets.

Every input is made from the run's seed alone, so the same seed gives the
same inputs.  Nothing here looks at how the pipeline fares on an input: no
draw is ever skipped because an analysis fails.

Closed-form family: S(t) = diag(tan(a_i t) / a_i) moved by a seeded
`random_csp` map g.  Each entry has constant Schwarzian 2 a_i^2, so the
curvature spectrum is {2 a_i^2}, the arc element is constant, Sigma = 0 and
k_i = 2 a_i^2 / zeta^2 at every sample.  Conformal symplectic maps leave all
of this unchanged, so the exact invariants are known at every n.

Quartic family: the random monotone quartic of the test suite's fixtures
(generic Sigma != 0, no closed form).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from jacobi.matcurve import (
    curve_from_scalars,
    polynomial_curve,
    preset_curve,
    transformed_curve,
)
from jacobi.symspace import random_csp

# tan(a t) stays inside its first branch on [0, 1] for a < pi / 2.
A_RANGE = (0.2, 1.3)
# Minimum relative gap between consecutive a_i, so the closed-form spectrum
# {2 a_i^2} is distinct by a known margin.
A_MIN_REL_GAP = 0.08
# The transform draw of the test suite's group-invariance check.
CSP_SCALE = 0.5
CSP_HAM_SCALE = 0.2
# Grid on which the chart margin and eigen gap of an input are recorded.
WINDOW = (0.0, 1.0)

PRESET_K = {
    "paper-6.2-ex1": np.array([-2.0, 0.0]),
    "paper-6.2-ex2": np.array([0.0, 2.0]),
}


@dataclass
class Case:
    """One benchmark input.

    `k_exact` is the exact sorted curvature vector for closed-form inputs
    (Sigma is then exactly 0) and None otherwise.  `curve` is the image of
    `base` under `transform` (None: untransformed); `transforms` lists every
    map the input is used with, for the chart margin.
    """

    label: str
    family: str
    n: int
    curve: object
    base: object
    k_exact: np.ndarray | None = None
    transform: np.ndarray | None = None
    transforms: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def _tan_entry(a):
    def entry(t):
        c = np.cos(a * t)
        sec2 = c**-2
        tn = np.tan(a * t)
        return (tn / a, sec2, 2.0 * a * sec2 * tn,
                2.0 * a * a * sec2 * (sec2 + 2.0 * tn**2))

    return entry


def tan_base(a):
    """Untransformed closed-form curve diag(tan(a_i t) / a_i)."""
    dom = 0.99 * np.pi / (2.0 * max(a))
    return curve_from_scalars([_tan_entry(x) for x in a], domain=(-dom, dom),
                              kind="analytic", name=f"tan-{len(a)}")


def closed_form_k(a):
    """Exact sorted curvatures of any csp image of diag(tan(a_i t) / a_i)."""
    mu = np.sort(2.0 * np.asarray(a, dtype=float) ** 2)
    zeta2 = np.prod(np.abs(mu - mu.mean())) ** (1.0 / mu.size)
    return mu / zeta2


def draw_rates(rng, n):
    """Sorted a_i in A_RANGE with relative gaps of at least A_MIN_REL_GAP."""
    while True:
        a = np.sort(rng.uniform(*A_RANGE, size=n))
        if np.all(np.diff(a) >= A_MIN_REL_GAP * a[1:]):
            return a


def draw_transform(rng, n):
    return random_csp(int(rng.integers(2**31)), scale=CSP_SCALE, n=n,
                      ham_scale=CSP_HAM_SCALE)


def closed_form_case(rng, n):
    a = draw_rates(rng, n)
    g = draw_transform(rng, n)
    base = tan_base(a)
    curve = transformed_curve(base, g, name=f"closed-{n}")
    return Case(label=f"closed-{n}", family="closed", n=n, curve=curve,
                base=base, k_exact=closed_form_k(a), transform=g,
                transforms=[g], meta={"a": a.tolist()})


def quartic_coeffs(rng, n):
    """The fixture recipe: symmetric random jets, dominant linear term."""

    def sym(scale):
        a = rng.normal(size=(n, n)) * scale
        return 0.5 * (a + a.T)

    p = sym(0.3) + np.eye(n) * (1.5 + rng.uniform(0, 1))
    s0, q, r, t4 = sym(0.5), sym(0.6), sym(0.8), sym(0.8)
    return [
        [[s0[i, j], p[i, j], q[i, j] / 2, r[i, j] / 6, t4[i, j] / 24]
         for j in range(n)]
        for i in range(n)
    ]


QUARTIC_DOMAIN = (-0.5, 1.5)


def quartic_case(rng, n):
    coeffs = quartic_coeffs(np.random.default_rng(int(rng.integers(2**31))), n)
    curve = polynomial_curve(coeffs, QUARTIC_DOMAIN, name=f"quartic-{n}")
    return Case(label=f"quartic-{n}", family="quartic", n=n, curve=curve,
                base=curve, meta={"coeffs": coeffs})


def preset_case(name):
    curve = preset_curve(name)
    return Case(label=name, family="preset", n=2, curve=curve, base=curve,
                k_exact=PRESET_K.get(name))


def input_margins(case, m=51):
    """Chart margin and minimum relative eigen gap of an input on WINDOW.

    The chart margin is max cond(P + Q S) over the window for the base curve
    S and each transform [[P, Q], [R, T]] the input is given with (1 for
    untransformed inputs).  The eigen gap is min over samples of the
    smallest gap of the curvature spectrum over its diameter.
    """
    from jacobi.curvature import ricci
    from jacobi.errors import JacobiError

    ts = np.linspace(*WINDOW, m)
    n = case.n
    cond = 1.0
    base = [case.base.jet(t, check_regular=False).S for t in ts]
    for g in case.transforms:
        p, q = g[:n, :n], g[:n, n:]
        cond = max(cond, *(float(np.linalg.cond(p + q @ s)) for s in base))
    gap = np.inf
    for t in ts:
        try:
            mu = ricci(case.curve.jet(t)).eigvals
        except JacobiError as e:
            return {"n": n, "chart_cond_max": cond, "min_rel_eig_gap": None,
                    "margin_error": type(e).__name__}
        gap = min(gap, float(np.min(np.diff(mu)) / (mu[-1] - mu[0])))
    return {"n": n, "chart_cond_max": cond, "min_rel_eig_gap": gap}
