"""Curvature of symmetric-matrix curves: Schwarzian derivatives, the Ricci
operator and its spectrum, the derivative curve, and parameter-change laws.

The central object is the matrix Schwarzian

    S(S) = (S')^(-1) S''' - (3/2) ((S')^(-1) S'')^2,

whose spectrum (for monotone curves) is real: S' S(S) = S''' - (3/2) S'' (S')^(-1) S''
is symmetric whenever the jet matrices are, so the operator is self-adjoint
with respect to the velocity form.

matrix_schwarzian, ricci and derivative_curve take one jet or a jet series;
a series gives each sample's numbers, or the earliest failing sample's error.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    ComplexEigenvalues,
    DomainError,
    Gates,
    InflectionPoint,
    MonotonicityFailure,
    RegularityFailure,
    RepeatedEigenvalues,
    SingularParameter,
)
from .matcurve import CurveJet
from .symspace import (
    _entrywise,
    _matrix_maxabs,
    _maxabs,
    chart_inverse,
    chart_translate_invert,
    definite_eigh,
    symmetrize,
)
from .tolerances import EIG_GAP_TOL, RICCI_SYM_TOL

# parameter step of verify_derivative_curve's second difference
VERIFY_STEP = 1e-3


def scalar_schwarzian(f1, f2, f3):
    """f'''/f' - (3/2)(f''/f')^2 from the first three derivative values."""
    if f1 == 0:
        raise SingularParameter("first derivative vanishes")
    return f3 / f1 - 1.5 * (f2 / f1) ** 2


def matrix_schwarzian(j: CurveJet):
    """(S')^(-1) S''' - (3/2)((S')^(-1) S'')^2, where the jets' velocity
    form (judged here if not yet) finds S' regular.  Not symmetric in
    general; it is similar to a symmetric matrix via the velocity form (see
    ricci).  Computed under np.errstate(all="ignore"), as `jets` runs the
    evaluators: a Schwarzian out of float range is inf or NaN, without a
    warning, and ricci gates it."""
    ts = np.atleast_1d(j.t)
    Gates().require(j.judged().form[0],
                    lambda i: RegularityFailure(ts[i])).raise_error()
    with np.errstate(all="ignore"):
        a, b = np.split(np.linalg.solve(
            j.S1, np.concatenate([j.S3, j.S2], -1)), 2, axis=-1)
        return a - 1.5 * b @ b


@dataclass(frozen=True)
class RicciData:
    """Spectral data of the curvature operator at one parameter or a series.

    `schwarzian` is the operator's matrix in the moving basis; `eigvecs` M is
    normalized against the velocity form: M^T S' M = Id, eigenvalues
    ascending.
    """

    t: float | np.ndarray
    schwarzian: np.ndarray
    ric: float | np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray


def _not_monotone(t, sign):
    t = float(t)
    if sign < 0:
        return MonotonicityFailure(t, f"S' negative definite at t={t}; "
                                      "negate the curve first")
    return MonotonicityFailure(t, f"S' indefinite or singular at t={t}")


def ricci(j: CurveJet):
    """Diagonalize the curvature operator with S'-orthonormal eigenvectors.

    Gates each sample, in order: S' regular by the jets' velocity form,
    the Schwarzian finite (else DomainError: the jets are out of range),
    S' Sch symmetric, S' positive definite (so the one stacked eigensolve
    sees only regular, positive definite samples), and the spectrum
    distinct, its smallest gap at least EIG_GAP_TOL times its diameter
    (else RepeatedEigenvalues with that gap); raises the error of the
    earliest failing sample and its first failed gate.  A fully collapsed
    spectrum (diameter 0: multiples of Id, flat curves) passes and is left
    to the arc element.  Negate a curve with negative definite S' first
    (the Schwarzian is even: the spectrum is unchanged, only the
    normalization is affected).
    """
    if np.ndim(j.t) == 0:
        rs = ricci(j[None])
        return RicciData(*(getattr(rs, f.name)[0] for f in fields(rs)))
    gates = Gates()
    j = j.judged()
    regular, sign, l_inv = j.form
    j = j[:gates.require(regular, lambda i: RegularityFailure(j.t[i])).stop]
    sch = matrix_schwarzian(j)
    stop = gates.require(np.isfinite(_matrix_maxabs(sch)), lambda i:
                         DomainError(f"Schwarzian not finite at "
                                     f"t={float(j.t[i])}: the jets are out "
                                     "of range for the analysis")).stop
    j, sch = j[:stop], sch[:stop]
    # S' * Sch = S''' - 1.5 S'' (S')^(-1) S'' is symmetric by construction;
    # asymmetry beyond roundoff means a corrupted jet.
    a = j.S1 @ sch
    asym = _matrix_maxabs(a - a.swapaxes(-1, -2))
    gates.require(asym <= RICCI_SYM_TOL * np.maximum(1.0, _matrix_maxabs(a)),
                  lambda i: ComplexEigenvalues(
                      j.t[i], f"velocity-weighted curvature asymmetric "
                      f"({asym[i]:g}) at t={float(j.t[i])}"))
    gates.require(sign > 0, lambda i: _not_monotone(j.t[i], sign[i]))
    stop = gates.stop
    a, s1 = (0.5 * (a + a.swapaxes(-1, -2)))[:stop], j.S1[:stop]
    mu, m = definite_eigh(a, s1, None if l_inv is None else l_inv[:stop])
    if mu.shape[1] > 1:
        gap = _entrywise(np.minimum, np.diff(mu, axis=1), 1)
        gates.require(gap >= EIG_GAP_TOL * (mu[:, -1] - mu[:, 0]),
                      lambda i: RepeatedEigenvalues(j.t[i], float(gap[i])))
    gates.raise_error()
    return RicciData(
        t=j.t,
        schwarzian=sch,
        ric=np.trace(sch, axis1=-2, axis2=-1),
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
    corr = j.S2
    if zeta_ratio is not None:
        corr = j.S2 - np.asarray(zeta_ratio)[..., None, None] * j.S1
    ts = np.atleast_1d(j.t)
    corr_inv, inside = chart_inverse(corr)
    Gates().require(inside, lambda i: InflectionPoint(ts[i])).raise_error()
    s0 = j.S - 2.0 * j.S1 @ corr_inv @ j.S1
    return symmetrize(s0)


def verify_derivative_curve(curve, tau):
    """Residual of the defining property of the derivative subspace.

    Re-chart the curve at its point tau with the derivative subspace at
    infinity:  St~ = ((S_t - S_tau)^(-1) - (S0 - S_tau)^(-1))^(-1).
    The re-charted curve must have vanishing second derivative at tau; the
    returned value is the max-abs second central difference of St~ over
    {tau - h, tau, tau + h}, h = VERIFY_STEP (St~(tau) = 0 by construction).
    """
    h = VERIFY_STEP
    j0 = curve.jet(tau)
    c0 = chart_translate_invert(derivative_curve(j0), j0.S)
    s = curve.jets([tau - h, tau + h], check_regular=False).S
    sm, sp = chart_translate_invert(chart_translate_invert(s, j0.S), c0)
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
