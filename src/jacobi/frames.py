"""Moving symplectic frames along a monotone curve and the reduced Cartan
matrix (Sigma, K) — the complete invariant under conformal symplectic
equivalence.

The frame columns f span the curve point with basis M (the velocity-
orthonormal curvature eigenvectors) and fbar span the derivative subspace
with the unique complementary basis; the frame evolves by F' = F C with C in
the block form [[Sigma, K], [Id, Sigma]] when the parameter is the geometric
arc.

(Sigma, K) read only M and the curvatures, so the analysis computes the
sign-continuous bases M and M^(-1) (_fix_signs) and hands them to
reduced_invariants; the whole frame stack (frenet_frame) is built only when
`Analysis.frame` is read, on each read, and a reconstruction's initial
frame from the first sample alone (initial_frame).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigenCrossing, Gates, GridMismatch
from .matcurve import finite_diff, spline
from .symspace import _entrywise
from .tolerances import EQUIV_TOL, MIN_OVERLAP, OVERLAP_SLACK, SIGN_TOL


def _fix_signs(ms, m_inv, ts):
    """Make eigenvector columns continuous in t; first sample gets the
    convention that each column's largest-magnitude entry is positive.
    The signs are cumulative products of the signs of consecutive column
    overlaps; an overlap below MIN_OVERLAP is an eigenvalue crossing.
    Returns M and M^(-1) with those signs on M's columns and on the
    matching rows of M^(-1)."""
    first = ms[0][np.argmax(np.abs(ms[0]), axis=0), np.arange(ms.shape[-1])]
    norms = np.linalg.norm(ms, axis=1)
    cosang = (np.einsum("mic,mic->mc", ms[1:], ms[:-1])
              / (norms[1:] * norms[:-1]))
    Gates().require(
        _entrywise(np.logical_and, np.abs(cosang) >= MIN_OVERLAP, 1),
        lambda i: EigenCrossing(ts[i + 1])).raise_error()
    flips = np.where(np.concatenate([first[None], cosang]) < 0, -1.0, 1.0)
    signs = np.cumprod(flips, axis=0)
    return ms * signs[:, None, :], m_inv * signs[:, :, None]


def _frame_blocks(ms, jets, rate):
    """[[M, Mbar], [S M, S Mbar + S' M]] at each sample of the signed bases
    ms and the jets, with rate = zeta'/zeta there."""
    corr = jets.S2 - rate[:, None, None] * jets.S1
    mbar = -0.5 * (ms @ (ms.swapaxes(-1, -2) @ corr @ ms))
    # filled in place: np.block would also hold its two row blocks
    n = ms.shape[-1]
    fr = np.empty(ms.shape[:-2] + (2 * n, 2 * n))
    fr[:, :n, :n] = ms
    fr[:, n:, :n] = jets.S @ ms
    fr[:, :n, n:] = mbar
    fr[:, n:, n:] = jets.S @ mbar + jets.S1 @ ms
    return fr


def frenet_frame(jets, ricci_series, arc):
    """(frame, M^(-1)): the moving frame at every sample, an (m, 2n, 2n)
    stack of symplectic frames with the sample axis first, and the inverse
    of its upper left block M, which has M^T S' M = Id.  Its upper right
    block spans the derivative subspace.

    Column order is by ascending curvature eigenvalue; the complement spans
    the derivative subspace Sbar = S - 2 S' corr^(-1) S' of the
    arc-reparametrized curve, corr = S'' - (zeta'/zeta) S'.  M^T S' M = Id
    gives M^(-T) = S' M and S'^(-1) = M M^T, so the complement
    Mbar = (Sbar - S)^(-1) M^(-T) is -1/2 M (M^T corr M) and
    Sbar Mbar = S Mbar + S' M: products, so F^T J F = J for every symmetric
    corr and no gate is needed (a singular corr only takes Sbar out of the
    chart of S; Sigma and k never read corr).  S' was gated where M was
    computed (the screen, or ricci): M^T S' M = Id makes cond(M)^2 = cond(S').
    """
    ms, m_inv = _fix_signs(ricci_series.eigvecs, ricci_series.eigvecs_inv,
                           arc.ts)
    return _frame_blocks(ms, jets, arc.zeta1 / arc.zeta), m_inv


def initial_frame(jets, ricci_series, arc):
    """frenet_frame's frame at the first sample, bit for bit, from that
    sample alone: the same sign convention and products on one-sample
    slices."""
    ms, _ = _fix_signs(ricci_series.eigvecs[:1], ricci_series.eigvecs_inv[:1],
                       arc.ts[:1])
    return _frame_blocks(ms, jets[:1], arc.zeta1[:1] / arc.zeta[:1])[0]


def cartan_matrix(Sigma, Kdiag):
    """Structure matrix C = [[Sigma, diag K], [Id, Sigma]] of the frame in
    the arc parameter, from Sigma (..., n, n) and the K diagonal (..., n)."""
    Kdiag = np.asarray(Kdiag, dtype=float)
    n = Kdiag.shape[-1]
    c = np.zeros(Kdiag.shape[:-1] + (2 * n, 2 * n))
    c[..., :n, :n] = Sigma
    c[..., n:, n:] = Sigma
    c[..., n:, :n] = np.eye(n)
    c[..., np.arange(n), n + np.arange(n)] = Kdiag
    return c


def arc_normalized_frames(frames, arc):
    """Frame series rescaled to the arc parametrization.

    The f columns scale by sqrt(zeta) and the fbar columns by 1/sqrt(zeta)
    (the product pairing is preserved).  This series satisfies
    dF/dt = zeta(t) F C(t), C = cartan_matrix of Sigma before its canonical
    signs; the unscaled frames satisfy it only where zeta is constant.
    """
    n = frames.shape[-1] // 2
    root = np.sqrt(arc.zeta)[:, None, None]
    f = frames.copy()
    f[..., :n] *= root
    f[..., n:] /= root
    return f


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


def reduced_invariants(ms, m_inv, arc, k):
    """Canonical blocks (Sigma, K) of the frame's Cartan matrix
    C = cartan_matrix(Sigma, K): Sigma = skew(M^(-1) M') / (2 zeta), with
    M = ms the sign-continuous bases (the frame's upper left blocks, as
    _fix_signs returns them), M' finite-differenced from that series and
    M^(-1) = m_inv its inverse, signed with it, and
    K = -k/2 = -(diag(mu) - sphi Id) / (2 zeta^2) from the absolute
    curvatures k.

    Sign freedom: replacing a frame column f_i by -f_i conjugates Sigma by a
    +-1 diagonal matrix.  Canonical choice: walk pairs (i, j) in order; if
    i, j are not yet joined and |Sigma_ij| exceeds SIGN_TOL somewhere, flip
    j's component so the entry at the first such sample is >= 0 and join
    them (a greedy spanning forest: no conflicts, components are disjoint).
    """
    n = ms.shape[-1]
    a = m_inv @ finite_diff(ms, arc.ts[1] - arc.ts[0], 1)
    sig = (a - a.swapaxes(-1, -2)) / (2.0 * arc.zeta)[:, None, None]
    kd = -k / 2

    # canonical signs
    eps = np.ones(n)
    comp = np.arange(n)
    for i in range(n):
        for jx in range(i + 1, n):
            if comp[i] == comp[jx]:
                continue
            big = np.flatnonzero(np.abs(sig[:, i, jx]) > SIGN_TOL)
            if big.size:
                joined = comp == comp[jx]
                eps[joined] *= eps[i] * eps[jx] * np.sign(sig[big[0], i, jx])
                comp[joined] = comp[i]
    # exact: the products are +-1; + 0.0 writes the zeros as +0.0, as the
    # sum of products of a conjugation by diag(eps) does
    sig = sig * np.outer(eps, eps) + 0.0
    return ReducedCartan(ts=arc.ts, arclength=arc.arclength, zeta=arc.zeta,
                         Sigma=sig, Kdiag=kd)


def invariant_spline(x, Sigma, Kdiag):
    """One cubic spline through the Sigma (m, n, n) and K diagonal (m, n)
    series along x, fitted on their (m, n^2 + n) column stack; returns the
    function mapping query points to (Sigma, Kdiag) there."""
    n = Kdiag.shape[-1]
    fit = spline(x, np.concatenate([Sigma.reshape(len(x), n * n), Kdiag], 1))

    def at(q):
        y = fit(q)
        return y[..., :n * n].reshape(y.shape[:-1] + (n, n)), y[..., n * n:]

    return at


def equivalent_reduced(a: ReducedCartan, b: ReducedCartan, tol=EQUIV_TOL):
    """Decide equivalence up to +-1 diagonal conjugation of Sigma.

    Both invariants are compared as functions of arclength (the invariant
    pairing is with the arc form, so grids need not agree): at a's nodes in
    the overlap of the two arclength ranges, where b is read off its
    spline.  Returns
    (verdict, sign_pattern_or_None, k_deviation, sigma_deviation).
    """
    if a.n != b.n:
        raise GridMismatch("half-dimensions differ")
    n = a.n
    ell_min = max(a.arclength[0], b.arclength[0])
    ell_max = min(a.arclength[-1], b.arclength[-1])
    mask = ((a.arclength >= ell_min - OVERLAP_SLACK)
            & (a.arclength <= ell_max + OVERLAP_SLACK))
    ell = a.arclength[mask]
    if ell.size < 5:
        raise GridMismatch("arclength overlap too short to compare")
    sa, ka = a.Sigma[mask], a.Kdiag[mask]
    sb, kb = invariant_spline(b.arclength, b.Sigma, b.Kdiag)(ell)
    k_dev = float(np.max(np.abs(ka - kb)))
    if not k_dev <= tol:
        return False, None, k_dev, None
    best, best_dev = None, np.inf
    for bits in range(2 ** (n - 1)):
        # bit i - 1 of `bits` flips column i; column 0 is never flipped
        eps = 1.0 - 2.0 * ((bits << 1) >> np.arange(n) & 1)
        dev = float(np.max(np.abs(sa - sb * np.outer(eps, eps))))
        if dev < best_dev:
            best_dev, best = dev, eps
    if best_dev <= tol:
        return True, best, k_dev, best_dev
    return False, None, k_dev, best_dev
