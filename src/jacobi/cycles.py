"""Flat curves and cycles.

A cycle is an affine line of chart coordinates together with the chart's
point at infinity; regular cycles (invertible direction) are exactly the
images of flat curves — curves whose matrix Schwarzian vanishes, which are
scalar Moebius multiples of a fixed symmetric direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import _schwarzian
from .errors import Gates, NoFit, NotGeneralPosition, ZeroDirection
from .matcurve import sample_curve
from .symspace import _maxabs, chart_inverse, symmetrize
from .tolerances import (FIT_TOL, FLAT_TOL, MEMBER_TOL, MOBIUS_DEN_MIN,
                         ZERO_FLOOR)

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


def is_flat(curve, grid, tol=FLAT_TOL):
    """True iff sup_t ||Schwarzian(S)||_inf <= tol over the grid."""
    # sample_curve has judged S' regular
    return _maxabs(_schwarzian(sample_curve(curve, grid))) <= tol


def mobius_fit(jets):
    """Fit S(t) = ((a t + b)/(c t + d)) S1 to samples of a flat curve.

    The common direction S1 is the dominant rank-1 structure of the sample
    differences (SVD); the scalar factors are then least-squares fitted with
    a Moebius function of t (homogeneous linear system in a, b, c, d).
    Returns ((a, b, c, d), S1, residual); coefficients are normalized to
    unit max-magnitude with positive leading entry.
    """
    ts, mats = jets.t, jets.S
    if ts.size < 4:
        raise NoFit(np.inf, "need at least 4 samples")
    diffs = (mats[1:] - mats[0]).reshape(ts.size - 1, -1)
    _, svals, vt = np.linalg.svd(diffs, full_matrices=False)
    if svals[0] < ZERO_FLOOR:
        raise NoFit(np.inf, "samples are constant")
    direction = vt[0].reshape(mats[0].shape)
    lead = np.unravel_index(np.argmax(np.abs(direction)), direction.shape)
    if direction[lead] < 0:
        direction = -direction
    direction = symmetrize(direction)
    dnorm2 = float(np.sum(direction * direction))
    scale = _maxabs(mats)
    lam = np.sum(mats * direction, axis=(1, 2)) / dnorm2
    proj_resid = _maxabs(mats - lam[:, None, None] * direction)
    if not proj_resid <= FIT_TOL * max(1.0, scale):
        raise NoFit(proj_resid, "samples are not scalar multiples of one "
                                "direction")
    # lam(t) (c t + d) - (a t + b) = 0: homogeneous least squares in (a,b,c,d)
    rows = np.column_stack([-ts, -np.ones_like(ts), lam * ts, lam])
    _, _, vt4 = np.linalg.svd(rows, full_matrices=False)
    coeffs = vt4[-1]
    coeffs = coeffs / _maxabs(coeffs)
    if coeffs[np.argmax(np.abs(coeffs))] < 0:
        coeffs = -coeffs
    a, b, c, d = coeffs
    den = c * ts + d
    if not np.min(np.abs(den)) >= MOBIUS_DEN_MIN:
        raise NoFit(np.inf, "fitted denominator vanishes on the samples")
    resid = float(np.max(np.abs((a * ts + b) / den - lam)))
    resid = max(resid, proj_resid / max(1.0, scale))
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
