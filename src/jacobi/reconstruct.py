"""Reconstruction of a curve from its invariants.

Given skew Sigma(tau), diagonal K(tau) in the arc parameter (one joint
spline) and a symplectic initial basis F0, integrate the linear frame ODE

    dF/dtau = F [[Sigma, K], [Id, Sigma]]

with classical RK4 step maps F <- F + F D formed for all intervals at once,
read the curve off as S = B A^(-1) from the frame's first column block
[A; B], and close the loop: analyze -> reconstruct -> re-analyze must
reproduce the invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import GridMismatch, InvalidDimension, SymplecticityLoss
from .frames import cartan_matrix, equivalent_reduced, invariant_spline
from .geom import EIG_GAP_TOL, NORM_TOL
from .matcurve import (TABLE_TRIM, SampleGrid, json_array, json_integer,
                       json_numbers, require_keys, table_curve)
from .pipeline import analyze
from .symspace import COND_MAX, _maxabs, is_symplectic_frame, symmetrize

RESID_MAX = 1e-6
ROUNDTRIP_TOL = 1e-3


@dataclass
class InvariantPrescription:
    """Invariant data on a uniform tau grid, plus the initial frame.

    Sigma: (m, n, n) skew series; Kdiag: (m, n) diagonal entries of the
    curvature block; F0: (2n, 2n) symplectic initial frame.  Validation is
    non-fatal: hypothesis violations (repeated curvatures, centered product
    away from 1) are recorded in `warnings` and integration proceeds — the
    reconstructed curve simply will not re-analyze to the given data.
    """

    ts: np.ndarray
    Sigma: np.ndarray
    Kdiag: np.ndarray
    F0: np.ndarray
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        self.Sigma = np.asarray(self.Sigma, dtype=float)
        self.Kdiag = np.asarray(self.Kdiag, dtype=float)
        self.F0 = np.asarray(self.F0, dtype=float)
        m = self.ts.size
        n = self.Kdiag.shape[1]
        if self.Sigma.shape != (m, n, n) or self.Kdiag.shape != (m, n):
            raise GridMismatch("prescription series shapes disagree")
        if _maxabs(self.Sigma + np.transpose(self.Sigma, (0, 2, 1))) > 1e-10:
            self.warnings.append("Sigma series is not skew-symmetric")
        d = -2.0 * self.Kdiag
        dbar = d.mean(axis=1, keepdims=True)
        prod = np.prod(np.abs(d - dbar), axis=1)
        if np.max(np.abs(prod - 1.0)) > NORM_TOL:
            self.warnings.append(
                "centered curvature product deviates from 1 "
                f"(max dev {np.max(np.abs(prod - 1.0)):.3e})"
            )
        # the screen's gap rule; <= keeps a fully collapsed spectrum
        ds = np.sort(d, axis=1)
        gap = np.min(np.diff(ds, axis=1), axis=1, initial=np.inf)
        if np.any(gap <= EIG_GAP_TOL * (ds[:, -1] - ds[:, 0])):
            self.warnings.append("curvatures are not distinct everywhere")
        if self.F0.shape != (2 * n, 2 * n):
            raise InvalidDimension(
                f"expected a {2 * n}x{2 * n} F0, got {self.F0.shape}")
        ok, resid = is_symplectic_frame(self.F0)
        if not ok:
            self.warnings.append(
                f"initial frame symplecticity residual {resid:.3e}"
            )

    @property
    def n(self):
        return self.Kdiag.shape[1]

    def structure_matrix(self):
        """C(tau) interpolant (cubic in tau between the given samples); tau
        may be one value or an array of them."""
        at = invariant_spline(self.ts, self.Sigma, self.Kdiag)
        return lambda tau: cartan_matrix(*at(tau))


def prescription_from_json(obj):
    """Build a prescription from { n, grid, Sigma, K, F0 } JSON data.

    Sigma is a constant n x n matrix (broadcast over the grid) or an
    m x n x n series.  K is constant, as a diagonal vector (n) or a full
    diagonal matrix (n x n), or per sample, as diagonal vectors (m x n) or
    matrices (m x n x n); when m = n, an n x n K is the constant matrix.
    F0 is the 2n x 2n initial frame, row-major (4n^2 numbers).  Any other
    shape, a NaN or infinite entry (Python's json reads both), a non-numeric
    n or grid entry or a non-whole n or grid.m raises InvalidDimension, and
    a missing key MissingKey.
    """
    require_keys(obj, ("n", "grid.t0", "grid.t1", "grid.m", "K", "F0"),
                 "a prescription")
    n = json_integer(obj["n"], "n")
    g = obj["grid"]
    grid = SampleGrid(json_numbers(g["t0"], "grid.t0", ()),
                      json_numbers(g["t1"], "grid.t1", ()),
                      json_integer(g["m"], "grid.m"))
    ts = grid.points
    m = ts.size

    sig = json_array(obj.get("Sigma", np.zeros((n, n))), "Sigma")
    k = json_array(obj["K"], "K")
    f0 = json_array(obj["F0"], "F0").ravel()
    for name, a, shapes in (("Sigma", sig, [(n, n), (m, n, n)]),
                            ("K", k, [(n,), (n, n), (m, n), (m, n, n)]),
                            ("F0", f0, [(4 * n * n,)])):
        if a.shape not in shapes:
            raise InvalidDimension(
                f"{name} has shape {a.shape}; expected one of {shapes}")
        if not np.isfinite(a).all():
            raise InvalidDimension(f"{name} has entries that are not finite")
    if k.shape in [(n, n), (m, n, n)]:
        k = k.diagonal(axis1=-2, axis2=-1)
    return InvariantPrescription(
        ts=ts, Sigma=np.broadcast_to(sig, (m, n, n)).copy(),
        Kdiag=np.broadcast_to(k, (m, n)).copy(), F0=f0.reshape(2 * n, 2 * n))


def _rk4(f0, c_at, ts, substeps):
    """Classical RK4, `substeps` steps per grid interval, with C evaluated in
    one call at the step starts tau_k = tau_(k-1) + h and midpoints.  A step
    is linear, F <- F + F D: every interval's D is formed on the stack (its
    substeps compose as D + D' + D D'), and only the product is a loop."""
    h = (ts[1:] - ts[:-1]) / substeps
    taus = [ts[:-1]]
    for _ in range(substeps):
        taus += [taus[-1] + 0.5 * h, taus[-1] + h]
    c = c_at(np.stack(taus, axis=1)).swapaxes(0, 1)
    hs = h[:, None, None]
    eye = np.eye(f0.shape[0])
    d = None
    for c1, c2, c4 in zip(c[:-1:2], c[1::2], c[2::2]):
        q2 = (eye + 0.5 * hs * c1) @ c2
        q3 = (eye + 0.5 * hs * q2) @ c2
        q4 = (eye + hs * q3) @ c4
        step = (hs / 6.0) * (c1 + 2 * q2 + 2 * q3 + q4)
        d = step if d is None else d + step + d @ step
    frames = np.empty((ts.size,) + f0.shape)
    f = frames[0] = f0
    for i, di in enumerate(d):
        f = frames[i + 1] = f + f @ di
    _, resid = is_symplectic_frame(frames[1:])
    return frames, (max(resid) if resid.size else 0.0)


def integrate_frame(p: InvariantPrescription, resid_max=RESID_MAX):
    """RK4 integration of the frame ODE over the prescription grid.

    Returns (frames (m, 2n, 2n), max_residual).  If the symplecticity
    residual exceeds resid_max, the integration is re-run once at 4 steps
    per interval before raising SymplecticityLoss.
    """
    c_at = p.structure_matrix()
    frames, resid = _rk4(p.F0, c_at, p.ts, 1)
    if resid > resid_max:
        frames, resid = _rk4(p.F0, c_at, p.ts, 4)
        if resid > resid_max:
            raise SymplecticityLoss(resid)
    return frames, resid


def curve_from_frame(frames):
    """Chart points S = B A^(-1) along a frame stack (m, 2n, 2n).

    Returns (S, segments): S (m, n, n) is NaN at the chart exits, where the
    A block is singular; `segments` lists the maximal in-chart index ranges.
    """
    n = frames.shape[-1] // 2
    a, b = frames[:, :n, :n], frames[:, n:, :n]
    inside = ~(np.linalg.cond(a) > COND_MAX)
    S = np.full(a.shape, np.nan)
    S[inside] = symmetrize(np.linalg.solve(
        a[inside].swapaxes(-1, -2), b[inside].swapaxes(-1, -2)
    ).swapaxes(-1, -2), strict=False)
    edges = np.flatnonzero(np.diff(np.concatenate([[0], inside, [0]])))
    segments = [(int(i), int(j) - 1) for i, j in zip(edges[::2], edges[1::2])]
    return S, segments


@dataclass
class RoundtripReport:
    """Outcome of analyze -> reconstruct -> re-analyze."""

    equivalent: bool
    sign_pattern: np.ndarray | None
    k_deviation: float
    sigma_deviation: float | None
    sympl_residual: float
    warnings: list


def arc_uniform_prescription(analysis):
    """Resample an analysis onto a uniform arc-parameter grid.

    Sigma and K are spline-resampled as functions of arclength; the initial
    frame is the analysis frame at the left endpoint (arclength zero).
    """
    rc = analysis.reduced
    ell = rc.arclength
    tau = np.linspace(0.0, ell[-1], ell.size)
    sig, kd = invariant_spline(ell, rc.Sigma, rc.Kdiag)(tau)
    return InvariantPrescription(ts=tau, Sigma=sig, Kdiag=kd,
                                 F0=analysis.frame.frames[0])


def roundtrip(curve, grid):
    """Analyze, rebuild from the extracted invariants, re-analyze, compare.

    The rebuilt curve is a sampled table; its derivative stencils are
    one-sided at the first/last TABLE_TRIM nodes with markedly worse error,
    so re-analysis runs on the interior window.  Arclength alignment is exact:
    the table parameter is the original curve's arclength, so the interior
    re-analysis enters the comparison with its arclength offset by the trim.
    """
    ana = analyze(curve, grid)
    p = arc_uniform_prescription(ana)
    frames, resid = integrate_frame(p)
    S, segments = curve_from_frame(frames)
    m, trim = p.ts.size, TABLE_TRIM
    if segments != [(0, m - 1)]:
        raise GridMismatch(
            "reconstructed curve leaves the chart inside the window; "
            f"segments: {segments}"
        )
    rebuilt = table_curve(p.ts, S, name="reconstructed")
    regrid = SampleGrid(p.ts[trim], p.ts[m - 1 - trim], m - 2 * trim)
    ana2 = analyze(rebuilt, regrid)
    reduced2 = replace(
        ana2.reduced, arclength=ana2.reduced.arclength + p.ts[trim]
    )
    verdict, eps, k_dev, s_dev = equivalent_reduced(
        ana.reduced, reduced2, tol=ROUNDTRIP_TOL
    )
    return RoundtripReport(
        equivalent=verdict, sign_pattern=eps, k_deviation=k_dev,
        sigma_deviation=s_dev, sympl_residual=resid,
        warnings=list(p.warnings),
    )
