"""Conformally invariant geometry of a monotone curve: the arc element
zeta(t) dt, the Schwarzian of the arc reparametrization, the absolute
curvature operator and its eigenvalue curvatures k_i(t), and the
admissibility screen that gates the whole pipeline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .curvature import ricci
from .errors import (
    ComplexEigenvalues,
    JacobiError,
    MonotonicityFailure,
    NormalizationViolation,
    NotAdmissible,
    RegularityFailure,
    RepeatedEigenvalues,
)
from .matcurve import CurveJet, finite_diff, sample_curve

ADM_TOL = 1e-10
NORM_TOL = 1e-5
EIG_GAP_TOL = 1e-7


@dataclass(frozen=True)
class ArcData:
    """Arc element series on a uniform grid.

    zeta(t) = |det(Sch - (tr Sch / n) Id)|^(1/2n); sphi is the Schwarzian of
    the map to arc parametrization, computed from the closed form
    zeta''/zeta - 1.5 (zeta'/zeta)^2 with zeta', zeta'' by finite
    differences; arclength is the cumulative trapezoid of zeta.
    """

    ts: np.ndarray
    zeta: np.ndarray
    zeta1: np.ndarray
    zeta2: np.ndarray
    sphi: np.ndarray
    arclength: np.ndarray

    @property
    def h(self):
        return float(self.ts[1] - self.ts[0])


def centered_schwarzian_det(sch):
    """det(Sch - (tr Sch / n) Id) — the admissibility determinant."""
    n = sch.shape[0]
    return float(np.linalg.det(sch - (np.trace(sch) / n) * np.eye(n)))


def zeta_series(ricci_series, adm_tol=ADM_TOL):
    """Arc element and derived scalars from the Schwarzians of a sampled
    curve (the RicciData series of its grid)."""
    ts = np.array([rd.t for rd in ricci_series])
    h = ts[1] - ts[0]
    n = ricci_series[0].eigvals.size
    zeta = np.empty(ts.size)
    for i, rd in enumerate(ricci_series):
        det = centered_schwarzian_det(rd.schwarzian)
        if abs(det) < adm_tol:
            raise NotAdmissible(rd.t)
        zeta[i] = abs(det) ** (1.0 / (2 * n))
    zeta1 = np.array(finite_diff(list(zeta), h, 1), dtype=float)
    zeta2 = np.array(finite_diff(list(zeta), h, 2), dtype=float)
    sphi = zeta2 / zeta - 1.5 * (zeta1 / zeta) ** 2
    arclength = np.concatenate(
        [[0.0], cumulative_trapezoid(zeta, ts)]
    )
    return ArcData(ts=ts, zeta=zeta, zeta1=zeta1, zeta2=zeta2, sphi=sphi,
                   arclength=arclength)


@dataclass(frozen=True)
class AbsoluteCurvature:
    """Eigenvalue curvatures of the arc-reparametrized curve.

    k rows are ascending eigenvalues of the absolute curvature operator
    (1/zeta^2)(Sch - sphi Id), k_i = (mu_i - sphi)/zeta^2; kbar is the
    per-point mean.  sign_patterns records sign(k_i - kbar) per point (the
    centered magnitudes multiply to 1, their signs are extra data).
    """

    ts: np.ndarray
    k: np.ndarray
    kbar: np.ndarray
    sign_patterns: np.ndarray


def absolute_curvature(ricci_series, arc, norm_tol=NORM_TOL):
    """Eigenvalue curvatures of the arc-reparametrized curve.

    The centered product prod |k_i - kbar| equals
    prod |mu_i - mean mu| / zeta^(2n), which is 1 up to roundoff by the very
    definition of zeta; a violation beyond norm_tol means the eigen and
    determinant paths disagree numerically.
    """
    k = np.array([(rd.eigvals - arc.sphi[i]) / arc.zeta[i] ** 2
                  for i, rd in enumerate(ricci_series)])
    kbar = k.mean(axis=1)
    prod = np.prod(np.abs(k - kbar[:, None]), axis=1)
    worst = int(np.argmax(np.abs(prod - 1.0)))
    if abs(prod[worst] - 1.0) > norm_tol:
        raise NormalizationViolation(float(arc.ts[worst]), float(prod[worst]))
    signs = np.sign(k - kbar[:, None]).astype(int)
    return AbsoluteCurvature(ts=arc.ts, k=k, kbar=kbar, sign_patterns=signs)


# The typed errors of the screen and the step each one fails.
SCREEN_STEPS = {
    RegularityFailure: "velocity-definite",
    MonotonicityFailure: "velocity-definite",
    ComplexEigenvalues: "spectrum-distinct",
    RepeatedEigenvalues: "spectrum-distinct",
    NotAdmissible: "arc-element",
}
SCREEN_ERRORS = tuple(SCREEN_STEPS)


@dataclass
class Screen:
    """Outputs of the admissibility screen, the first stage of analyze.

    `jets` are the grid samples, negated when the velocity form is negative
    definite (`flipped`; the spectrum is unchanged, the normalization then
    well-posed).  `error` is the typed error of the first failed step; the
    fields of the later steps are then left unset.
    """

    curve: object
    grid: object
    velocity_sign: int = 0  # +1, -1, or 0 (indefinite/singular)
    flipped: bool = False
    jets: list | None = None
    ricci_series: list | None = None
    min_eig_gap: float | None = None
    arc: ArcData | None = None
    error: JacobiError | None = None


def screen(curve, grid, adm_tol=ADM_TOL):
    """Sample the curve once and run the four-step admissibility screen.

    Steps: (1) velocity form definite of constant sign, (2) curvature
    spectrum real and distinct, (3)+(4) admissibility determinant bounded
    away from zero so the arc element exists.  A spectrum is not distinct
    when its smallest gap is below EIG_GAP_TOL times its diameter; a fully
    collapsed spectrum (diameter 0, e.g. scalar multiples of the identity
    or flat curves) is left to the arc-element step, which it always fails
    with the more informative verdict.  Failures of these steps are
    recorded in `error`, not raised.
    """
    scr = Screen(curve, grid)
    try:
        jets = sample_curve(curve, grid)
        ev = np.linalg.eigvalsh(np.array([j.S1 for j in jets]))
        sign = np.where(ev[:, 0] > 0, 1, np.where(ev[:, -1] < 0, -1, 0))
        bad = np.flatnonzero((sign == 0) | (sign != sign[0]))
        if bad.size:
            raise MonotonicityFailure(jets[bad[0]].t)
        scr.velocity_sign = int(sign[0])
        if scr.velocity_sign < 0:
            scr.flipped = True
            jets = [CurveJet(j.t, -j.S, -j.S1, -j.S2, -j.S3) for j in jets]
        scr.jets = jets
        ricci_series, gaps = [], []
        for j in jets:
            rd = ricci(j)
            mu = rd.eigvals
            if mu.size > 1:
                gap = float(np.min(np.diff(mu)))
                if gap < EIG_GAP_TOL * float(mu[-1] - mu[0]):
                    scr.min_eig_gap = gap
                    raise RepeatedEigenvalues(j.t, gap)
                gaps.append(gap)
            ricci_series.append(rd)
        scr.ricci_series = ricci_series
        scr.min_eig_gap = min(gaps, default=None)
        scr.arc = zeta_series(ricci_series, adm_tol=adm_tol)
    except SCREEN_ERRORS as e:
        scr.error = e
    return scr


@dataclass
class AdmissibilityReport:
    """Result of the admissibility screen (see `screen`) over a sample grid.

    `first_failure` names the failed step: velocity-definite,
    spectrum-distinct or arc-element.  `flipped` records whether the curve
    had to be negated (negative definite velocity) before the later steps.
    """

    admissible: bool
    velocity_sign: int  # +1, -1, or 0 (indefinite/singular)
    flipped: bool
    first_failure: str | None
    failure_t: float | None
    min_eig_gap: float | None
    min_zeta: float | None
    messages: list = field(default_factory=list)

    @classmethod
    def of(cls, scr):
        """The report of a screen's outputs or of the error it recorded."""
        e = scr.error
        return cls(
            admissible=e is None,
            velocity_sign=scr.velocity_sign,
            flipped=scr.flipped,
            first_failure=None if e is None else SCREEN_STEPS[type(e)],
            failure_t=None if e is None else e.t,
            min_eig_gap=scr.min_eig_gap,
            min_zeta=None if scr.arc is None else float(np.min(scr.arc.zeta)),
            messages=[] if e is None else [str(e)],
        )

    def to_dict(self):
        return asdict(self)


def admissibility_report(curve, grid, adm_tol=ADM_TOL):
    """Run the screen without raising; failures become report content."""
    return AdmissibilityReport.of(screen(curve, grid, adm_tol=adm_tol))
