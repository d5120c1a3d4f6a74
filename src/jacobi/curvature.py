"""Curvature of symmetric-matrix curves: Schwarzian derivatives, the Ricci
operator and its spectrum, the derivative curve, and parameter-change laws.

The central object is the matrix Schwarzian

    S(S) = (S')^(-1) S''' - (3/2) ((S')^(-1) S'')^2,

whose spectrum (for monotone curves) is real: S' S(S) = S''' - (3/2) S'' (S')^(-1) S''
is symmetric whenever the jet matrices are, so the operator is self-adjoint
with respect to the velocity form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ComplexEigenvalues,
    InflectionPoint,
    MonotonicityFailure,
    RegularityFailure,
    SingularParameter,
)
from .matcurve import CurveJet
from .symspace import (
    COND_MAX,
    LagrangianChartPoint,
    _maxabs,
    chart_translate_invert,
    solve_gated,
    symmetrize,
)

RIC_SYM_TOL = 1e-8


def scalar_schwarzian(f1, f2, f3):
    """f'''/f' - (3/2)(f''/f')^2 from the first three derivative values."""
    if f1 == 0:
        raise SingularParameter("first derivative vanishes")
    return f3 / f1 - 1.5 * (f2 / f1) ** 2


def matrix_schwarzian(j: CurveJet):
    """(S')^(-1) S''' - (3/2)((S')^(-1) S'')^2.

    Not symmetric in general; it is similar to a symmetric matrix via the
    velocity form (see ricci).
    """
    try:
        a = solve_gated(j.S1, j.S3, exc=RegularityFailure, what="S'")
        b = solve_gated(j.S1, j.S2, exc=RegularityFailure, what="S'")
    except RegularityFailure:
        raise RegularityFailure(j.t)
    return a - 1.5 * b @ b


@dataclass(frozen=True)
class RicciData:
    """Spectral data of the curvature operator at one parameter value.

    `schwarzian` is the operator's matrix in the moving basis; `eigvecs` M is
    normalized against the velocity form: M^T S' M = Id, eigenvalues
    ascending.
    """

    t: float
    schwarzian: np.ndarray
    ric: float
    eigvals: np.ndarray
    eigvecs: np.ndarray


def ricci(j: CurveJet):
    """Diagonalize the curvature operator with S'-orthonormal eigenvectors.

    Requires S' positive definite (monotone curve).  A curve with negative
    definite S' should be negated first (the Schwarzian is even: the spectrum
    is unchanged, only the normalization is affected).  Whether the spectrum
    is distinct is judged by the admissibility screen (geom.screen).
    """
    sch = matrix_schwarzian(j)
    vel_eigs = np.linalg.eigvalsh(j.S1)
    if vel_eigs[0] <= 0:
        if vel_eigs[-1] < 0:
            raise MonotonicityFailure(
                j.t, f"S' negative definite at t={j.t}; negate the curve first"
            )
        raise MonotonicityFailure(j.t, f"S' indefinite or singular at t={j.t}")
    # S' * Sch = S''' - 1.5 S'' (S')^(-1) S'' is symmetric by construction;
    # asymmetry beyond roundoff means a corrupted jet.
    a = j.S1 @ sch
    asym = _maxabs(a - a.T)
    if asym > 1e-6 * max(1.0, _maxabs(a)):
        raise ComplexEigenvalues(
            j.t, f"velocity-weighted curvature asymmetric ({asym:g}) at t={j.t}"
        )
    a = 0.5 * (a + a.T)
    try:
        mu, m = scipy.linalg.eigh(a, j.S1)
    except np.linalg.LinAlgError as e:  # pragma: no cover - defensive
        raise ComplexEigenvalues(j.t, str(e))
    return RicciData(
        t=j.t,
        schwarzian=sch,
        ric=float(np.trace(sch)),
        eigvals=mu,
        eigvecs=m,
    )


def derivative_curve(j: CurveJet, zeta_ratio=None):
    """Chart coordinate of the derivative subspace at j.t.

    Default formula S0 = S - 2 S' (S'')^(-1) S' is exact in the curve's own
    parameter; with `zeta_ratio` = zeta'/zeta supplied, the corrected
    denominator S'' - (zeta'/zeta) S' yields the derivative subspace of the
    arc-reparametrized curve (what the Frenet complement spans).
    """
    corr = j.S2 if zeta_ratio is None else j.S2 - zeta_ratio * j.S1
    try:
        x = solve_gated(corr, j.S1, exc=InflectionPoint,
                        what="second-derivative correction")
    except InflectionPoint:
        raise InflectionPoint(
            f"derivative curve leaves the chart at t={j.t}"
        )
    s0 = j.S - 2.0 * j.S1 @ x
    return LagrangianChartPoint(symmetrize(s0, strict=False))


def verify_derivative_curve(curve, tau, h=1e-3, cond_max=COND_MAX):
    """Residual of the defining property of the derivative subspace.

    Re-chart the curve at its point tau with the derivative subspace at
    infinity:  St~ = ((S_t - S_tau)^(-1) - (S0 - S_tau)^(-1))^(-1).
    The re-charted curve must have vanishing second derivative at tau; the
    returned value is the max-abs second central difference of St~ over
    {tau - h, tau, tau + h} (St~(tau) = 0 by construction).
    """
    j0 = curve.jet(tau)
    s_tau = LagrangianChartPoint(j0.S)
    s0 = derivative_curve(j0)
    c0 = chart_translate_invert(s0, s_tau, cond_max=cond_max).S

    def rechart(t):
        s = LagrangianChartPoint(curve.jet(t, check_regular=False).S)
        inv = chart_translate_invert(s, s_tau, cond_max=cond_max).S
        from .symspace import inv_gated

        return inv_gated(inv - c0, cond_max=cond_max, what="re-chart")

    sm = rechart(tau - h)
    sp = rechart(tau + h)
    # St~(tau) = 0, so the central second difference reduces to (sm + sp)/h^2
    return _maxabs(sm + sp) / h**2


def schwarzian_change_of_parameter(j_original: CurveJet, psi1, psi2, psi3):
    """Predicted Schwarzian of the reparametrized curve t -> S(psi(t)).

    Transformation law:  S(Sbar) = psi'^2 S(S) o psi + S(psi) Id.
    """
    if psi1 == 0:
        raise SingularParameter("psi' = 0")
    sch = matrix_schwarzian(j_original)
    n = j_original.n
    return psi1**2 * sch + scalar_schwarzian(psi1, psi2, psi3) * np.eye(n)
