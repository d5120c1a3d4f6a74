"""Flat curves and cycles.

A cycle is an affine line of chart coordinates together with the chart's
point at infinity; regular cycles (invertible direction) are exactly the
images of flat curves — curves whose matrix Schwarzian vanishes, which are
scalar Moebius multiples of a fixed symmetric direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import matrix_schwarzian
from .errors import Gates, NoFit, NotGeneralPosition, ZeroDirection
from .symspace import _maxabs, chart_inverse, symmetrize
from .tolerances import FIT_TOL, FLAT_TOL, MEMBER_TOL, ZERO_FLOOR

AT_INFINITY = "at-infinity"


def line_classify(direction):
    """'regular' iff the symmetric direction matrix is invertible by
    symspace.chart_inverse's rule, the scale-free gate every chart inverse
    uses.
    """
    d = symmetrize(np.asarray(direction, dtype=float))
    if _maxabs(d) < ZERO_FLOOR:
        raise ZeroDirection("direction matrix is zero")
    return "regular" if chart_inverse(d)[1] else "singular"


@dataclass(frozen=True)
class Cycle:
    """Affine line base + span(direction) in the chart at `infinity`.

    `infinity` is the chart coordinate (in the ambient chart) of the point
    adjoined at infinity; base and direction live in the chart centered
    there.
    """

    infinity: np.ndarray
    base: np.ndarray
    direction: np.ndarray
    regular: bool


def is_flat(jets, tol=FLAT_TOL):
    """True iff sup_t ||Schwarzian(S)||_inf <= tol over the sampled jets
    (matcurve.sample_curve's); mobius_fit fits only the scalar Moebius
    multiples of one direction among them."""
    # matrix_schwarzian reads the verdict on S' that sample_curve made
    return _maxabs(matrix_schwarzian(jets)) <= tol


def _lead_one(x):
    """x over its largest-magnitude entry, a zero written as +0.0."""
    return x / x.flat[np.argmax(np.abs(x))] + 0.0


def _to_zero_one_infinity(x0, x1, x2):
    """z -> ((z - x0)/(x1 - x0)) / ((z - x2)/(x1 - x2)) as a 2 x 2 matrix:
    the Moebius map taking x0, x1 and x2 to 0, 1 and infinity."""
    return np.array([[1.0, -x0], [1.0, -x2]]) / [[x1 - x0], [x1 - x2]]


@np.errstate(all="ignore")
def mobius_fit(jets):
    """Fit S(t) = ((a t + b)/(c t + d)) D to samples of a flat curve.

    D is the last sample minus the first at unit Frobenius norm, and
    lambda = <S, D> at each sample.  Three values fix a Moebius function
    (the cross-ratio; Ovsienko & Tabachnikov, Projective Differential
    Geometry Old and New, ch. 1): (a, b, c, d) takes the first, middle and
    last t to 0, 1 and infinity, then back to their lambda's by the
    adjugate of the map taking those there.  Both residuals, of S from
    lambda D and of lambda, are over max(1, max|S|).  Returns
    ((a, b, c, d), D, residual), each with its largest-magnitude entry
    positive, the coefficients at unit max-magnitude.  Computed under
    np.errstate(all="ignore"): a D or a residual that is not finite raises
    NoFit.
    """
    ts, mats = jets.t, jets.S
    if ts.size < 4:
        raise NoFit(np.inf, "need at least 4 samples")
    direction = _lead_one(mats[-1] - mats[0])
    direction = direction / np.sqrt(np.sum(direction * direction))
    if not np.isfinite(direction).all():
        raise NoFit(np.inf, "sample differences zero or out of float range")
    scale = max(1.0, _maxabs(mats))
    lam = np.sum(mats * direction, axis=(1, 2))
    proj_resid = _maxabs(mats - lam[:, None, None] * direction) / scale
    if not proj_resid <= FIT_TOL:
        raise NoFit(proj_resid, "samples are not scalar multiples of one "
                                "direction")
    ends = [0, ts.size // 2, -1]
    (p, q), (r, s) = _to_zero_one_infinity(*lam[ends])
    coeffs = np.array([[s, -q], [-r, p]]) @ _to_zero_one_infinity(*ts[ends])
    a, b, c, d = _lead_one(coeffs.ravel())
    resid = max(_maxabs((a * ts + b) / (c * ts + d) - lam) / scale,
                proj_resid)
    if not resid <= FIT_TOL:
        raise NoFit(resid)
    return (a, b, c, d), direction, resid


def cycle_through(L1, L2, L3):
    """The unique cycle through three pairwise-transverse chart points
    (symmetric n x n arrays).

    L3 plays the role of the point at infinity; L1 and L2 are re-charted
    there ((L - L3)^(-1)), giving the line's base point and direction.  The
    cycle does not depend on which point is sent to infinity (tested by
    permuting roles).
    """
    pts = np.stack([L1, L2, L3])
    i, j = np.triu_indices(3, 1)  # the pairs (1, 2), (1, 3), (2, 3)
    diff_inv, inside = chart_inverse(pts[i] - pts[j])
    Gates().require(inside, lambda k:
                    NotGeneralPosition(i[k] + 1, j[k] + 1)).raise_error()
    # (L1 - L3)^(-1) and (L2 - L3)^(-1), as chart_translate_invert gives them
    base, other = symmetrize(diff_inv[1:])
    direction = other - base
    return Cycle(
        infinity=L3,
        base=base,
        direction=direction,
        regular=line_classify(direction) == "regular",
    )


def cycle_contains(cycle, L, tol=MEMBER_TOL):
    """Membership test: infinity itself, or collinearity in the cycle chart.

    `L` is a chart point (a symmetric array) or the AT_INFINITY sentinel.
    A chart point is re-charted at the cycle's infinity; it belongs iff its
    offset from the base is a scalar multiple of the direction (least-squares
    scalar, residual below tol relative to the line scale); a point not
    transverse to infinity lies outside the line's chart.
    """
    if L is AT_INFINITY:
        return True
    if _maxabs(L - cycle.infinity) <= tol * max(1.0, _maxabs(cycle.infinity)):
        return True
    diff_inv, inside = chart_inverse(L - cycle.infinity)
    if not inside:
        return False
    offset = symmetrize(diff_inv) - cycle.base
    d = cycle.direction
    lam = float(np.sum(offset * d) / np.sum(d * d))
    resid = _maxabs(offset - lam * d)
    scale = max(1.0, _maxabs(cycle.base), _maxabs(d))
    return resid <= tol * scale
