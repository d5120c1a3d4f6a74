"""Moving symplectic frames along a monotone curve and the reduced Cartan
matrix (Sigma, K) — the complete invariant under conformal symplectic
equivalence.

The frame columns f span the curve point with basis M (the velocity-
orthonormal curvature eigenvectors) and fbar span the derivative subspace
with the unique complementary basis; the frame evolves by F' = F C with C in
the block form [[Sigma, K], [Id, Sigma]] when the parameter is the geometric
arc.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .curvature import derivative_curve
from .errors import EigenCrossing, GridMismatch, StructureViolation
from .geom import ArcData
from .matcurve import finite_diff
from .symspace import (
    LagrangianChartPoint,
    SymplecticSpace,
    _maxabs,
    frame_from_chart_pair,
    is_symplectic_frame,
)

SIGN_TOL = 1e-6
BLOCK_TOL = 1e-6


@dataclass(frozen=True)
class FrenetFrame:
    """Sign-continuous frame series along the sample grid.

    M[i] holds the velocity-orthonormal eigenvector basis at ts[i]
    (M^T S' M = Id), Mbar[i] the complementary basis spanning the derivative
    subspace, frames[i] the assembled 2n x 2n symplectic frame, residuals[i]
    its symplecticity defect.
    """

    ts: np.ndarray
    M: list
    Mbar: list
    frames: list
    residuals: np.ndarray


def _fix_signs(ms, ts, min_overlap=0.2):
    """Make eigenvector columns continuous in t; first sample gets the
    convention that each column's largest-magnitude entry is positive."""
    fixed = []
    m0 = ms[0].copy()
    for c in range(m0.shape[1]):
        lead = np.argmax(np.abs(m0[:, c]))
        if m0[lead, c] < 0:
            m0[:, c] = -m0[:, c]
    fixed.append(m0)
    for i in range(1, len(ms)):
        mi = ms[i].copy()
        prev = fixed[-1]
        for c in range(mi.shape[1]):
            v, w = mi[:, c], prev[:, c]
            cosang = v @ w / (np.linalg.norm(v) * np.linalg.norm(w))
            if abs(cosang) < min_overlap:
                raise EigenCrossing(ts[i])
            if cosang < 0:
                mi[:, c] = -mi[:, c]
        fixed.append(mi)
    return fixed


def frenet_frame(jets, ricci_series, arc: ArcData):
    """Assemble the moving frame at every sample.

    Column order is by ascending curvature eigenvalue; the complement is
    taken against the derivative subspace of the arc-reparametrized curve
    (second-derivative correction by zeta'/zeta).
    """
    ts = arc.ts
    ms = _fix_signs([rd.eigvecs for rd in ricci_series], ts)
    space = SymplecticSpace(jets[0].n)
    mbars, frames, residuals = [], [], []
    for i, j in enumerate(jets):
        s0 = derivative_curve(j, zeta_ratio=arc.zeta1[i] / arc.zeta[i])
        s = LagrangianChartPoint(j.S)
        fr = frame_from_chart_pair(ms[i], s, s0)
        _, resid = is_symplectic_frame(space, fr)
        n = j.n
        mbars.append(fr.F[:n, n:])
        frames.append(fr)
        residuals.append(resid)
    return FrenetFrame(ts=ts, M=ms, Mbar=mbars, frames=frames,
                       residuals=np.array(residuals))


def cartan_matrix(ff: FrenetFrame, arc: ArcData, ricci_series):
    """Structure matrix series of the frame in the arc parameter.

    Blocks per sample: upper-left/lower-right (1/2zeta) skew(M^(-1) M'),
    upper-right -(1/(2 zeta^2)) (diag(mu) - sphi Id), lower-left Id.
    M' is finite-differenced from the sign-continuous M series.
    """
    ms = ff.M
    h = float(arc.ts[1] - arc.ts[0])
    mprime = finite_diff(ms, h, 1)
    out = []
    n = ms[0].shape[0]
    for i in range(len(ms)):
        a = np.linalg.solve(ms[i], mprime[i])
        sigma = (a - a.T) / (2.0 * arc.zeta[i])
        mu = ricci_series[i].eigvals
        kblock = -(np.diag(mu) - arc.sphi[i] * np.eye(n)) / (
            2.0 * arc.zeta[i] ** 2
        )
        c = np.zeros((2 * n, 2 * n))
        c[:n, :n] = sigma
        c[:n, n:] = kblock
        c[n:, :n] = np.eye(n)
        c[n:, n:] = sigma
        out.append(c)
    return out


def arc_normalized_frames(ff: FrenetFrame, arc: ArcData):
    """Frame series rescaled to the arc parametrization.

    The f columns scale by sqrt(zeta) and the fbar columns by 1/sqrt(zeta)
    (the product pairing is preserved).  This series satisfies
    dF/dt = zeta(t) F C(t) with the Cartan matrix built by cartan_matrix;
    the unscaled frames satisfy it only where zeta is constant.
    """
    out = []
    for fr, z in zip(ff.frames, arc.zeta):
        n = fr.n
        f = fr.F.copy()
        f[:, :n] *= np.sqrt(z)
        f[:, n:] /= np.sqrt(z)
        out.append(f)
    return out


@dataclass(frozen=True)
class ReducedCartan:
    """The complete invariant: skew Sigma(t), diagonal K(t), and the arc
    form zeta(t) dt carried alongside.  Kdiag rows are the diagonal entries;
    the eigenvalue curvatures are k_i = -2 Kdiag_i."""

    ts: np.ndarray
    arclength: np.ndarray
    zeta: np.ndarray
    Sigma: np.ndarray  # (m, n, n)
    Kdiag: np.ndarray  # (m, n)

    @property
    def n(self):
        return self.Kdiag.shape[1]

    def curvatures(self):
        return -2.0 * self.Kdiag


def reduced_invariants(c_series, arc: ArcData, block_tol=BLOCK_TOL,
                       sign_tol=SIGN_TOL):
    """Extract and canonicalize (Sigma, K) from a Cartan matrix series.

    Sign freedom: replacing a frame column f_i by -f_i conjugates Sigma by a
    +-1 diagonal matrix.  Canonical choice: walk pairs (i, j) in order; at
    the first sample where |Sigma_ij| exceeds sign_tol, fix the relative
    sign so the entry is >= 0 (a greedy spanning tree over the index graph;
    conflicts cannot arise because each edge is fixed at most once).
    """
    m = len(c_series)
    n = c_series[0].shape[0] // 2
    sig = np.empty((m, n, n))
    kd = np.empty((m, n))
    eye = np.eye(n)
    for i, c in enumerate(c_series):
        ul, ur = c[:n, :n], c[:n, n:]
        ll, lr = c[n:, :n], c[n:, n:]
        if _maxabs(ll - eye) > block_tol:
            raise StructureViolation(
                f"lower-left block differs from Id by {_maxabs(ll - eye):g}"
            )
        if _maxabs(ul - lr) > block_tol:
            raise StructureViolation("diagonal blocks differ")
        if _maxabs(ul + ul.T) > 1e-9 * max(1.0, _maxabs(ul)):
            raise StructureViolation("upper-left block not skew")
        offdiag = ur - np.diag(np.diag(ur))
        if _maxabs(offdiag) > block_tol:
            raise StructureViolation(
                f"curvature block not diagonal ({_maxabs(offdiag):g})"
            )
        sig[i] = 0.5 * (ul - ul.T)
        kd[i] = np.diag(ur)

    # canonical signs
    eps = np.ones(n)
    fixed = np.zeros(n, dtype=bool)
    fixed[0] = True
    for i in range(n):
        for jx in range(i + 1, n):
            if fixed[i] and not fixed[jx]:
                series = sig[:, i, jx]
                big = np.nonzero(np.abs(series) > sign_tol)[0]
                if big.size:
                    eps[jx] = eps[i] * np.sign(series[big[0]])
                fixed[jx] = True
    d = np.diag(eps)
    sig = np.einsum("ij,mjk,kl->mil", d, sig, d)
    return ReducedCartan(ts=arc.ts, arclength=arc.arclength, zeta=arc.zeta,
                         Sigma=sig, Kdiag=kd)


def _resample(rc: ReducedCartan, ell):
    """Evaluate K and Sigma as functions of arclength at the points ell."""
    kd = CubicSpline(rc.arclength, rc.Kdiag)(ell)
    sg = CubicSpline(rc.arclength, rc.Sigma.reshape(rc.ts.size, -1))(ell)
    n = rc.n
    return kd, sg.reshape(ell.size, n, n)


def equivalent_reduced(a: ReducedCartan, b: ReducedCartan, tol=1e-4):
    """Decide equivalence up to +-1 diagonal conjugation of Sigma.

    Both invariants are compared as functions of arclength (the invariant
    pairing is with the arc form, so grids need not agree); comparison is
    restricted to the overlap of the two arclength ranges.  Returns
    (verdict, sign_pattern_or_None, k_deviation, sigma_deviation).
    """
    if a.n != b.n:
        raise GridMismatch("half-dimensions differ")
    n = a.n
    ell_min = max(a.arclength[0], b.arclength[0])
    ell_max = min(a.arclength[-1], b.arclength[-1])
    mask = (a.arclength >= ell_min - 1e-12) & (a.arclength <= ell_max + 1e-12)
    ell = a.arclength[mask]
    if ell.size < 5:
        raise GridMismatch("arclength overlap too short to compare")
    ka, sa = _resample(a, ell)
    kb, sb = _resample(b, ell)
    k_dev = float(np.max(np.abs(ka - kb)))
    if k_dev > tol:
        return False, None, k_dev, None
    best = None
    best_dev = np.inf
    for bits in range(2 ** (n - 1)):
        eps = np.ones(n)
        for i in range(1, n):
            if bits >> (i - 1) & 1:
                eps[i] = -1.0
        d = np.diag(eps)
        dev = float(np.max(np.abs(sa - np.einsum("ij,mjk,kl->mil", d, sb, d))))
        if dev < best_dev:
            best_dev, best = dev, eps
    if best_dev <= tol:
        return True, best, k_dev, best_dev
    return False, None, k_dev, best_dev
