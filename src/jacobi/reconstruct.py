"""Reconstruction of a curve from its invariants.

Given skew Sigma(tau), diagonal K(tau) in the arc parameter (one joint
spline) and a symplectic initial basis F0, integrate the linear frame ODE

    dF/dtau = F [[Sigma, K], [Id, Sigma]]

with fourth-order Cayley step maps I + D formed for all intervals at once
and chained by one log-depth prefix product, read the curve off as
S = B A^(-1) from the frame's first column block [A; B], and close the
loop: analyze -> reconstruct -> re-analyze must reproduce the invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, Gates, GridMismatch, InvalidDimension,
                     NotInChart, StepTooCoarse, SymplecticityLoss)
from .frames import (cartan_matrix, equivalent_reduced, initial_frame,
                     invariant_spline)
from .geom import centered_product
from .matcurve import (SampleGrid, finite_diff, json_array, json_integer,
                       node_curve, require_keys)
from .pipeline import analyze
from .symspace import (_entrywise, _matrix_maxabs, _maxabs, chart_inverse,
                       chart_point, is_symplectic_frame)
from .tolerances import (EIG_GAP_TOL, NORM_TOL, RESID_MAX, ROUNDTRIP_TOL,
                         SKEW_TOL, STEP_MAX)


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

    # a check that overflows reads inf or NaN, which fails it, and records
    # its warning
    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        self.Sigma = np.asarray(self.Sigma, dtype=float)
        self.Kdiag = np.asarray(self.Kdiag, dtype=float)
        self.F0 = np.asarray(self.F0, dtype=float)
        m = self.ts.size
        # no n matches a Kdiag that is not 2-D
        n = self.Kdiag.shape[1] if self.Kdiag.ndim == 2 else None
        if self.Sigma.shape != (m, n, n) or self.Kdiag.shape != (m, n):
            raise GridMismatch("prescription series shapes disagree")
        if not _maxabs(self.Sigma + self.Sigma.swapaxes(-1, -2)) <= SKEW_TOL:
            self.warnings.append("Sigma series is not skew-symmetric")
        d = -2.0 * self.Kdiag
        dev = np.max(np.abs(centered_product(d) - 1.0))
        if not dev <= NORM_TOL:
            self.warnings.append("centered curvature product deviates "
                                 f"from 1 (max dev {dev:.3e})")
        # ricci's gap rule with <=: a fully collapsed spectrum is flagged
        # here, where ricci leaves it to the arc element
        ds = np.sort(d, axis=1)
        gap = np.min(np.diff(ds, axis=1), axis=1, initial=np.inf)
        if not np.all(gap > EIG_GAP_TOL * (ds[:, -1] - ds[:, 0])):
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
    F0 is the 2n x 2n initial frame, or its 4n^2 entries row-major; K's
    and F0's shapes are checked before anything of size n is built.  Any
    other shape, a NaN or infinite entry (Python's json reads both), a
    non-numeric n or grid entry or a non-whole n or grid.m raises
    InvalidDimension naming the key, and a missing key MissingKey.
    """
    require_keys(obj, ("n", "grid.t0", "grid.t1", "grid.m", "K", "F0"),
                 "a prescription")
    n = json_integer(obj["n"], "n")
    g = obj["grid"]
    grid = SampleGrid(float(json_array(g["t0"], "grid.t0", ())),
                      float(json_array(g["t1"], "grid.t1", ())),
                      json_integer(g["m"], "grid.m"))
    ts = grid.points
    m = ts.size
    k = json_array(obj["K"], "K", (n,), (n, n), (m, n), (m, n, n))
    f0 = json_array(obj["F0"], "F0", (2 * n, 2 * n), (4 * n * n,))
    sig = json_array(obj.get("Sigma", np.zeros((n, n))), "Sigma", (n, n),
                     (m, n, n))
    if k.shape in [(n, n), (m, n, n)]:
        k = k.diagonal(axis1=-2, axis2=-1)
    return InvariantPrescription(
        ts=ts, Sigma=np.broadcast_to(sig, (m, n, n)).copy(),
        Kdiag=np.broadcast_to(k, (m, n)).copy(), F0=f0.reshape(2 * n, 2 * n))


def _prefix_products(d, work):
    """Replace each d[i] of a stack (m, k, k), in place, by the Q with
    I + Q = (I + d[0]) ... (I + d[i]), using work[:m // 2] as scratch.
    Factors join as (I + A)(I + B) = I + (A + B + A B), so no I + d is
    rounded, which would cost 1 ulp of I, not of d, a step.  A pairwise
    scan: the up-sweep joins adjacent blocks of 1, 2, 4, ... factors into
    the last entry of each pair of blocks, and the down-sweep joins each
    block end still short of a full product to the full product before
    it; about 2 log2(m) levels of stacked matmuls, under 2m products.  No
    stack of m matrices is allocated: the page faults of a fresh one of a
    few MB cost about as much as the products."""
    def join(i, s):
        # d[j] <- the join of d[j - s] and d[j], for j = i, i + 2s, ...
        right = d[i::2 * s]
        left = d[i - s::2 * s][:len(right)]
        ab = np.matmul(left, right, out=work[:len(right)])
        ab += left
        right += ab

    s = 1
    while 2 * s <= len(d):
        join(2 * s - 1, s)
        s *= 2
    while s > 1:
        s //= 2
        join(3 * s - 1, s)
    return d


def integrate_frame(p: InvariantPrescription, resid_max=RESID_MAX):
    """Fourth-order Cayley integration of the frame ODE over the
    prescription grid: on each interval, Omega = h/2 (C1 + C2) +
    (sqrt(3) h^2 / 12) [C1, C2] from C at the Gauss nodes
    tau + (1/2 -+ sqrt(3)/6) h, less Omega^3 / 12, and the step
    F <- F (I + D) with D = cay(Omega) - I = (I - Omega/2)^(-1) Omega is
    exactly symplectic.  Every D comes from one stacked solve, and the
    products (I + D_0) ... (I + D_i) from one prefix scan of the D
    (_prefix_products), with no loop over steps.  Returns (frames
    (m, 2n, 2n), max_residual), the residual of a frame F being
    max|F^T J F - J| / max(1, max|F|^2): the roundoff of a product of F's
    size grows with max|F|^2, so a fast-growing frame is judged by that
    scale, and frames of size <= 1 absolutely.  The earliest step over
    STEP_MAX raises StepTooCoarse, the earliest frame whose residual is not
    finite (the frame or F^T J F out of float range) DomainError, and a
    residual above resid_max SymplecticityLoss.
    """
    ts, f0 = p.ts, p.F0
    h = np.diff(ts)
    nodes = 0.5 + np.array([[-1.0], [1.0]]) * np.sqrt(3.0) / 6.0
    c1, c2 = p.structure_matrix()(ts[:-1] + nodes * h)
    hs = h[:, None, None]
    # a step that overflows has an inf or NaN radius, which fails the gate
    with np.errstate(over="ignore", invalid="ignore"):
        omega = (0.5 * hs * (c1 + c2)
                 + (np.sqrt(3.0) / 12.0) * hs**2 * (c1 @ c2 - c2 @ c1))
        omega -= omega @ omega @ omega / 12.0
        radius = np.sqrt(_entrywise(np.maximum,
                                    np.abs(omega @ omega).sum(axis=-1), 1))
    Gates().require(radius <= STEP_MAX,
                    lambda i: StepTooCoarse(ts[i])).raise_error()
    d = np.linalg.solve(np.eye(f0.shape[0]) - 0.5 * omega, omega)
    frames = np.empty((ts.size,) + f0.shape)
    frames[0] = f0
    # a frame out of float range has an inf or NaN residual, which fails
    # the gate.  frames[1:] is the scan's scratch space until it is set to
    # F0 (I + Q) = F0 + F0 Q
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(f0, _prefix_products(d, frames[1:]), out=frames[1:])
        frames[1:] += f0
        _, resid = is_symplectic_frame(frames[1:])
        resid /= np.maximum(1.0, _matrix_maxabs(frames[1:]) ** 2)
    Gates().require(np.isfinite(resid), lambda i: DomainError(
        f"frame out of float range at t={float(ts[i + 1])}: its "
        "symplecticity residual is not finite")).raise_error()
    resid = np.max(resid, initial=0.0)
    if not resid <= resid_max:
        raise SymplecticityLoss(resid)
    return frames, resid


def curve_from_frame(frames):
    """Chart points S = B A^(-1) along a frame stack (m, 2n, 2n).

    Returns (S, segments): S (m, n, n) is NaN at the chart exits, where the
    A block is singular (symspace.chart_inverse's rule, cond(A) >
    COND_MAX), and symspace.chart_point's read-off elsewhere; `segments`
    lists the maximal in-chart index ranges.
    """
    n = frames.shape[-1] // 2
    a, b = frames[:, :n, :n], frames[:, n:, :n]
    _, inside = chart_inverse(a)
    S = np.full(a.shape, np.nan)
    S[inside] = chart_point(a[inside], b[inside], lambda i: NotInChart(
        f"the frame's A block is singular at sample {i}"))[0]
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
    frame_deviation: float
    sympl_residual: float
    warnings: list


def arc_uniform_prescription(analysis):
    """Resample an analysis onto a uniform arc-parameter grid.

    Sigma and K are spline-resampled as functions of arclength; the initial
    frame is the analysis frame at the left endpoint (arclength zero), built
    from that sample alone.
    """
    rc = analysis.reduced
    ell = rc.arclength
    tau = np.linspace(0.0, ell[-1], ell.size)
    sig, kd = invariant_spline(ell, rc.Sigma, rc.Kdiag)(tau)
    return InvariantPrescription(ts=tau, Sigma=sig, Kdiag=kd,
                                 F0=initial_frame(analysis.jets,
                                                  analysis.ricci_series,
                                                  analysis.arc))


def frame_curve(p: InvariantPrescription, frames):
    """The curve S = B A^(-1) of the frames F = [[A, Abar], [B, Bbar]]
    integrated from p, at p's nodes, with jets read off F' = F C:
    A' = A Sigma + Abar, A'' = A' Sigma + A Sigma' + A diag K + Abar Sigma
    (Sigma' by finite_diff) and, F being symplectic, S' = A^(-T) A^(-1),
    S'' = X + X^T with X = -S' A' A^(-1), S''' = Y + Y^T with
    Y = -(S'' A' + S' A'' + X A') A^(-1).  S, A^(-1) and the chart rule
    are symspace.chart_point's, as in curve_from_frame: a node outside the
    chart raises NotInChart at the earliest such node."""
    n, ts = p.n, p.ts
    a, abar = frames[:, :n, :n], frames[:, :n, n:]
    S, a_inv = chart_point(a, frames[:, n:, :n], lambda i: NotInChart(
        f"the frame's A block is singular at t={float(ts[i])!r}"))
    sig = p.Sigma
    a1 = a @ sig + abar
    a2 = (a1 @ sig + a @ finite_diff(sig, ts[1] - ts[0], 1)
          + a * p.Kdiag[:, None, :] + abar @ sig)
    s1 = a_inv.swapaxes(-1, -2) @ a_inv
    x = -s1 @ a1 @ a_inv
    s2 = x + x.swapaxes(-1, -2)
    y = -(s2 @ a1 + s1 @ a2 + x @ a1) @ a_inv
    return node_curve(ts, np.stack([S, s1, s2, y + y.swapaxes(-1, -2)]),
                      "frame", "reconstructed")


def frame_deviation(p: InvariantPrescription, frames):
    """Largest over p's nodes of max|F' - F C| / max|F C|, F' finite-
    differenced from the frames: how far they are from solving the frame
    ODE of p, which ties the points of frame_curve to its jets."""
    fc = frames @ cartan_matrix(p.Sigma, p.Kdiag)
    err = finite_diff(frames, p.ts[1] - p.ts[0], 1) - fc
    return float(np.max(_matrix_maxabs(err) / _matrix_maxabs(fc)))


def roundtrip(curve, grid):
    """Analyze, rebuild from the extracted invariants, re-analyze, compare.

    The rebuilt curve (frame_curve) is re-analyzed over the whole
    prescription grid; its parameter is the original curve's arclength, so
    the two reduced invariants compare without an offset.  Its jets are read
    off F C, so the frames must also pass frame_deviation <= ROUNDTRIP_TOL.
    """
    ana = analyze(curve, grid)
    p = arc_uniform_prescription(ana)
    frames, resid = integrate_frame(p)
    ana2 = analyze(frame_curve(p, frames),
                   SampleGrid(p.ts[0], p.ts[-1], p.ts.size))
    verdict, eps, k_dev, s_dev = equivalent_reduced(
        ana.reduced, ana2.reduced, tol=ROUNDTRIP_TOL
    )
    f_dev = frame_deviation(p, frames)
    return RoundtripReport(
        equivalent=verdict and f_dev <= ROUNDTRIP_TOL, sign_pattern=eps,
        k_deviation=k_dev, sigma_deviation=s_dev, frame_deviation=f_dev,
        sympl_residual=resid, warnings=list(p.warnings),
    )
