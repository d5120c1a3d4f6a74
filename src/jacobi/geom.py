"""Conformally invariant geometry of a monotone curve: the arc element
zeta(t) dt, the Schwarzian of the arc reparametrization, the absolute
curvature operator and its eigenvalue curvatures k_i(t), and the
admissibility screen that opens an Analysis and gates the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import RicciData, ricci
from .errors import (
    ComplexEigenvalues,
    DomainError,
    Gates,
    JacobiError,
    MonotonicityFailure,
    NormalizationViolation,
    NotAdmissible,
    RegularityFailure,
    RepeatedEigenvalues,
)
from .matcurve import CurveJet, finite_diff, sample_curve
from .tolerances import ADM_TOL, NORM_TOL


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


def centered_schwarzian_det(sch):
    """det(Sch - (tr Sch / n) Id) — the admissibility determinant."""
    n = sch.shape[-1]
    tr = np.trace(sch, axis1=-2, axis2=-1)
    return np.linalg.det(sch - (tr / n)[..., None, None] * np.eye(n))


def zeta_series(ricci_series, adm_tol=ADM_TOL):
    """Arc element and derived scalars from the Schwarzians of a sampled
    curve (the RicciData series of its grid).  The admissibility
    determinant, computed under np.errstate(all="ignore") as the
    Schwarzian is, must be finite (else DomainError), then at least adm_tol
    and positive, whatever adm_tol."""
    ts = ricci_series.t
    h = ts[1] - ts[0]
    n = ricci_series.eigvals.shape[-1]
    with np.errstate(all="ignore"):
        det = np.abs(centered_schwarzian_det(ricci_series.schwarzian))
    Gates().require(np.isfinite(det), lambda i: DomainError(
        f"admissibility determinant not finite at t={float(ts[i])}: the "
        "Schwarzians are out of range for the analysis")).require(
        (det >= adm_tol) & (det > 0),
        lambda i: NotAdmissible(ts[i])).raise_error()
    zeta = det ** (1.0 / (2 * n))
    zeta1 = finite_diff(zeta, h, 1)
    zeta2 = finite_diff(zeta, h, 2)
    sphi = zeta2 / zeta - 1.5 * (zeta1 / zeta) ** 2
    # cumulative trapezoid in scipy's summation order
    arclength = np.concatenate(
        [[0.0], np.cumsum(np.diff(ts) * (zeta[1:] + zeta[:-1]) / 2.0)])
    return ArcData(ts=ts, zeta=zeta, zeta1=zeta1, zeta2=zeta2, sphi=sphi,
                   arclength=arclength)


def centered_product(k):
    """prod_i |k_i - kbar| of each row of the curvatures k (m, n), which is
    1 for the curvatures of the arc parameter."""
    return np.prod(np.abs(k - k.mean(axis=1, keepdims=True)), axis=1)


def absolute_curvature(ricci_series, arc):
    """Eigenvalue curvatures k (m, n) of the arc-reparametrized curve: rows
    of ascending eigenvalues k_i = (mu_i - sphi)/zeta^2 of the absolute
    curvature operator (1/zeta^2)(Sch - sphi Id).

    The centered product prod |k_i - kbar| equals
    prod |mu_i - mean mu| / zeta^(2n), which is 1 up to roundoff by the very
    definition of zeta; a violation beyond NORM_TOL means the eigen and
    determinant paths disagree numerically.
    """
    k = ((ricci_series.eigvals - arc.sphi[:, None])
         / (arc.zeta**2)[:, None])
    prod = centered_product(k)
    Gates().require(np.abs(prod - 1.0) <= NORM_TOL, lambda i:
                    NormalizationViolation(arc.ts[i], float(prod[i]))
                    ).raise_error()
    return k


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
class Analysis:
    """Everything computed for one curve over one grid, as sample series.

    `screen` sets the fields up to `error`, `pipeline.complete` the
    (m, 2n, 2n) frame stack `frame` and the ReducedCartan `reduced`.
    `jets` is the grid's judged jet series, negated when the velocity form
    is negative definite (`flipped`: velocity_sign < 0; the spectrum is
    unchanged, the normalization then well-posed).  `error` is the typed
    error of the first failed step; the fields of the later steps are then
    left unset.
    """

    curve: object
    grid: object
    velocity_sign: int = 0  # +1, -1, or 0 (indefinite/singular)
    jets: CurveJet | None = None
    ricci_series: RicciData | None = None
    min_eig_gap: float | None = None
    arc: ArcData | None = None
    error: JacobiError | None = None
    frame: object = None
    reduced: object = None

    @property
    def flipped(self):
        return self.velocity_sign < 0

    def report(self):
        """The screen's verdict as the artifacts' `admissibility` dict.

        `first_failure` names the failed step: velocity-definite,
        spectrum-distinct or arc-element; `flipped` records whether the
        curve had to be negated before the later steps.
        """
        e, arc = self.error, self.arc
        return {
            "admissible": e is None,
            "velocity_sign": self.velocity_sign,
            "flipped": self.flipped,
            "first_failure": None if e is None else SCREEN_STEPS[type(e)],
            "failure_t": None if e is None else e.t,
            "min_eig_gap": self.min_eig_gap,
            "min_zeta": None if arc is None else float(np.min(arc.zeta)),
            "messages": [] if e is None else [str(e)],
        }


def screen(curve, grid, adm_tol=ADM_TOL):
    """Open an Analysis: sample the curve once and run the four-step screen.

    Steps: (1) velocity form definite of constant sign (sample_curve's
    velocity form; a negative definite curve is negated), (2) curvature
    spectrum real and distinct (ricci, whose RepeatedEigenvalues gives
    `min_eig_gap` on failure), (3)+(4) admissibility determinant positive
    and bounded away from zero so the arc element exists (zeta_series).
    Failures of these steps are recorded in `error`, not raised: that of
    the earliest failing sample.
    """
    ana = Analysis(curve, grid)
    try:
        # one velocity_form of S' judges regularity, sign and definiteness
        jets = sample_curve(curve, grid)
        regular, sign, factor = jets.form
        Gates().require((sign != 0) & (sign == sign[0]), lambda i:
                        MonotonicityFailure(jets.t[i])).raise_error()
        ana.velocity_sign = int(sign[0])
        if ana.flipped:
            np.negative(jets.orders, out=jets.orders)
            jets = CurveJet(jets.t, jets.orders, (regular, -sign, factor))
        ana.jets = jets
        rs = ricci(jets)
        if rs.eigvals.shape[1] > 1:
            ana.min_eig_gap = float(np.min(np.diff(rs.eigvals, axis=1)))
        ana.ricci_series = rs
        ana.arc = zeta_series(rs, adm_tol=adm_tol)
    except RepeatedEigenvalues as e:
        ana.min_eig_gap, ana.error = e.gap, e
    except SCREEN_ERRORS as e:
        ana.error = e
    return ana


def admissibility_report(curve, grid):
    """Run the screen without raising; failures become report content."""
    return screen(curve, grid).report()
