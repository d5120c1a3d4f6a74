"""End-to-end analysis: sample a curve, diagonalize its curvature, build the
arc element, the moving frame and the reduced invariant in one call."""

from __future__ import annotations

from dataclasses import dataclass

from .curvature import RicciData
from .frames import FrenetFrame, ReducedCartan, frenet_frame, reduced_invariants
from .geom import AbsoluteCurvature, ArcData, absolute_curvature, screen
from .matcurve import SampleGrid


@dataclass
class Analysis:
    """Everything computed for one curve over one grid, as sample series."""

    curve: object
    grid: SampleGrid
    flipped: bool
    ricci_series: RicciData
    arc: ArcData
    abscurv: AbsoluteCurvature
    frame: FrenetFrame
    reduced: ReducedCartan


def analyze(curve, grid):
    """Run the full invariant pipeline; raises typed errors on failure.

    The first stage is the admissibility screen (geom.screen), which samples
    the curve once, negates it when its velocity is negative definite
    (`flipped`) and raises the screen's error if a step fails; `complete`
    runs the frame stages on its outputs.
    """
    return complete(screen(curve, grid))


def complete(scr):
    """Frame stages of the pipeline on the outputs of a passed screen;
    re-raises the error a failed screen recorded."""
    if scr.error is not None:
        raise scr.error
    abscurv = absolute_curvature(scr.ricci_series, scr.arc)
    frame = frenet_frame(scr.jets, scr.ricci_series, scr.arc)
    reduced = reduced_invariants(frame, scr.arc, abscurv)
    return Analysis(
        curve=scr.curve, grid=scr.grid, flipped=scr.flipped,
        ricci_series=scr.ricci_series, arc=scr.arc, abscurv=abscurv,
        frame=frame, reduced=reduced,
    )
