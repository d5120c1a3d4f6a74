"""End-to-end analysis: sample a curve, diagonalize its curvature, build the
arc element, the moving frame and the reduced invariant in one call."""

from __future__ import annotations

from .frames import frenet_frame, reduced_invariants
from .geom import Analysis, absolute_curvature, screen


def analyze(curve, grid):
    """Run the full invariant pipeline; raises typed errors on failure.  The
    admissibility screen (geom.screen) samples the curve once and negates it
    when its velocity is negative definite (`flipped`); `complete` runs the
    frame stages on its outputs."""
    return complete(screen(curve, grid))


def complete(ana: Analysis):
    """Frame stages on a screened Analysis, filled in place and returned:
    the normalization gate, the frame, the reduced invariant.  Re-raises
    the error a failed screen recorded."""
    if ana.error is not None:
        raise ana.error
    k = absolute_curvature(ana.ricci_series, ana.arc)
    ana.frame, m_inv = frenet_frame(ana.jets, ana.ricci_series, ana.arc)
    ana.reduced = reduced_invariants(ana.frame, m_inv, ana.arc, k)
    return ana
