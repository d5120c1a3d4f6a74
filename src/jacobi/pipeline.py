"""End-to-end analysis: sample a curve, diagonalize its curvature, build the
arc element, the signed eigenvector bases and the reduced invariant in one
call; the moving frame is built when `Analysis.frame` is first read."""

from __future__ import annotations

from .frames import _fix_signs, reduced_invariants
from .geom import Analysis, absolute_curvature, screen


def analyze(curve, grid):
    """Run the full invariant pipeline; raises typed errors on failure.  The
    admissibility screen (geom.screen) samples the curve once and negates it
    when its velocity is negative definite (`flipped`); `complete` runs the
    frame stages on its outputs."""
    return complete(screen(curve, grid))


def complete(ana: Analysis):
    """Frame stages on a screened Analysis, filled in place and returned:
    the normalization gate, the sign-continuous bases M and M^(-1) with
    their eigenvalue-crossing gate, the reduced invariant.  Re-raises the
    error a failed screen recorded."""
    if ana.error is not None:
        raise ana.error
    k = absolute_curvature(ana.ricci_series, ana.arc)
    rs = ana.ricci_series
    ms, m_inv = _fix_signs(rs.eigvecs, rs.eigvecs_inv, ana.arc.ts)
    ana.reduced = reduced_invariants(ms, m_inv, ana.arc, k)
    return ana
