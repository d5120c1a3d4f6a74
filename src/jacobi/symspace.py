"""Symplectic linear algebra over R^(2n).

Everything is expressed relative to one fixed symplectic basis: the form is
J = [[0, I], [-I, 0]], a Lagrangian subspace is stored as its chart
coordinate (a symmetric n x n matrix S, the column span of [I; S]) and a
symplectic frame as its 2n x 2n coordinate matrix: plain arrays.  All
operations are pure; chart points and frames may carry a leading sample
axis, and the chart operations then judge each sample through errors.Gates,
so a failure names the earliest failing sample."""

from __future__ import annotations

import numpy as np

from .errors import (
    Gates,
    InvalidBasis,
    InvalidDimension,
    InvalidTransform,
    NotInChart,
    NotTransverse,
)
from .tolerances import COND_MAX, CSP_SCALE_MIN, FRAME_TOL


def _maxabs(a):
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _entrywise(ufunc, a, axes=2):
    """ufunc.reduce of `a` over its last `axes` axes, as one elementwise
    sweep of the leading axes per entry.  numpy's reduction instead loops
    over each sample's few entries, about ten times slower on an (m, n, n)
    stack.  Only for np.maximum, np.minimum, np.logical_and and
    np.logical_or: these are exact and order-free, so the result is
    numpy's bit for bit, except that a tie of raw +0.0 and -0.0 may return
    the other zero.  Sums, products and norms keep numpy's pairwise order."""
    entries = np.ndindex(a.shape[-axes:])
    out = a[(..., *next(entries))].copy()
    for k in entries:
        ufunc(out, a[(..., *k)], out=out)
    return out[()]


def _matrix_maxabs(a):
    """Max-abs entry of each matrix (the last two axes)."""
    return _entrywise(np.maximum, np.abs(a))


def sym_cond(a):
    """2-norm condition number of symmetric matrices (the last two axes),
    from their eigenvalues.  As with np.linalg.cond, a singular matrix gives
    inf and a matrix holding a NaN gives NaN."""
    a = np.asarray(a, dtype=float)
    return _eig_cond(a, np.linalg.eigvalsh(a))


def _eig_cond(a, ev):
    """sym_cond of the symmetric matrices a from their eigenvalues ev, for
    callers that need the spectrum too."""
    ev = np.abs(ev)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = _entrywise(np.maximum, ev, 1) / _entrywise(np.minimum, ev, 1)
    # max|a| is NaN exactly where a holds a NaN
    return np.where(np.isnan(_matrix_maxabs(a)), np.nan,
                    np.where(np.isnan(c), np.inf, c))


def definite_eigh(a, b):
    """Ascending mu and M with a M = b M diag(mu), M^T b M = Id, on stacks of
    symmetric a and positive definite b (else LinAlgError): LAPACK sygvd's
    reduction b = L L^T, (mu, V) = eigh(L^(-1) a L^(-T)), M = L^(-T) V."""
    l_inv = np.linalg.inv(np.linalg.cholesky(b))
    c = l_inv @ a @ l_inv.swapaxes(-1, -2)
    mu, v = np.linalg.eigh(0.5 * (c + c.swapaxes(-1, -2)))
    return mu, l_inv.swapaxes(-1, -2) @ v


def asymmetry_gate(gates, s, tol):
    """Add to `gates` the samples of s whose asymmetry exceeds `tol` times
    max(1, max|s|), or that are not finite."""
    resid = np.atleast_1d(_matrix_maxabs(s - s.swapaxes(-1, -2)))
    scale = np.maximum(1.0, _matrix_maxabs(s))
    ok = (resid <= tol * scale) & np.isfinite(scale)
    return gates.require(ok, lambda i: InvalidBasis(
        f"asymmetry {resid[i]:g} exceeds tolerance {tol:g}"))


def symmetrize(s):
    """Return (s + s^T)/2, without judging the asymmetry (asymmetry_gate
    does).  A stack equal to its transpose bit for bit is returned as it
    is, not copied: the mean would give the same bits, except that an
    entry above DBL_MAX/2 would overflow to inf.  A pair of -0.0 and +0.0
    differs in its bits, so it is still averaged (to +0.0)."""
    s = np.asarray(s, dtype=float)
    bits, n = s.view(np.uint64), s.shape[-1]
    if all((bits[..., i, j] == bits[..., j, i]).all()
           for i in range(n) for j in range(i + 1, n)):
        return s
    return 0.5 * (s + s.swapaxes(-1, -2))


def symplectic_form(n):
    """The standard form J = [[0, I], [-I, 0]] on R^(2n)."""
    if n < 2:
        raise InvalidDimension(
            "half-dimension must be >= 2 (the invariant theory "
            "degenerates for n = 1)"
        )
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def is_symplectic_frame(F):
    """Check F^T J F = J, with n read off F's square, even-sized last two
    axes; returns (verdict: residual <= FRAME_TOL, max-abs residual)."""
    f = np.asarray(F, dtype=float)
    if f.ndim < 2 or f.shape[-2] != f.shape[-1] or f.shape[-1] % 2:
        raise InvalidDimension(
            f"expected a square matrix of even size, got {f.shape}")
    j = symplectic_form(f.shape[-1] // 2)
    residual = _matrix_maxabs(f.swapaxes(-1, -2) @ j @ f - j)
    return residual <= FRAME_TOL, residual


def complete_symplectic_basis(M, S, Sbar):
    """Unique complement Mbar = (Sbar - S)^(-1) (M^T)^(-1), the upper right
    block of frame_from_chart_pair.

    The columns of M are a basis of the subspace with chart coordinate S;
    the returned Mbar spans the subspace at Sbar so that the combined frame
    is symplectic: M^T (Sbar - S) Mbar = Id.
    """
    n = np.shape(M)[-1]
    return frame_from_chart_pair(M, S, Sbar)[..., :n, n:]


def frame_from_chart_pair(M, S, Sbar):
    """Symplectic frame matrix (..., 2n, 2n) with f spanning S (basis M) and
    fbar spanning Sbar; a singular M or Sbar - S raises."""
    M = np.asarray(M, dtype=float)
    diff = Sbar - S
    Gates().require(np.linalg.cond(M) <= COND_MAX, lambda i: InvalidBasis(
        f"basis matrix M is singular at sample {i}")).require(
        sym_cond(diff) <= COND_MAX, lambda i: NotTransverse(
            f"Sbar - S is singular at sample {i} (condition number above "
            f"{COND_MAX:g})")).raise_error()
    Mbar = np.linalg.solve(diff, np.linalg.inv(M.swapaxes(-1, -2)))
    return np.block([[M, Mbar], [S @ M, Sbar @ Mbar]])


def chart_translate_invert(S, S_ref):
    """Coordinate (S - S_ref)^(-1) of the same subspace in the chart at S_ref,
    for one point S or a stack (NotTransverse at the earliest singular one).

    Not an involution: the inverse transform is S_ref + T^(-1).
    """
    diff = S - S_ref
    Gates().require(sym_cond(diff) <= COND_MAX, lambda i: NotTransverse(
        f"S - S_ref is singular at sample {i} (condition number above "
        f"{COND_MAX:g})")).raise_error()
    eye = np.broadcast_to(np.eye(diff.shape[-1]), diff.shape)
    return symmetrize(np.linalg.solve(diff, eye))


def conformal_symplectic(g, n):
    """g as a float array, checked to be a 2n x 2n conformal symplectic map:
    g^T J g = s J with s nonzero.  Both tests are relative to maxabs(g)^2,
    so c g passes exactly when g does."""
    g = np.asarray(g, dtype=float)
    if g.shape != (2 * n, 2 * n):
        raise InvalidDimension(f"expected {2*n}x{2*n} transform, got {g.shape}")
    j = symplectic_form(n)
    gjg = g.T @ j @ g
    scale = np.trace(gjg[:n, n:]) / n
    size = _maxabs(g) ** 2
    if not (abs(scale) > CSP_SCALE_MIN * size
            and _maxabs(gjg - scale * j) <= FRAME_TOL * size):
        raise InvalidTransform("matrix is not conformal symplectic")
    return g


def apply_symplectic(g, S):
    """Fractional-linear action of a (conformal) symplectic map on a chart.

    With g = [[P, Q], [R, T]] in n x n blocks, S maps to (R + T S)(P + Q S)^(-1).
    g may scale the form by a nonzero constant (conformal maps act on
    Lagrangian subspaces exactly like symplectic ones).  S is one point or a
    stack (NotInChart at the earliest sample where P + Q S is singular).
    """
    n = S.shape[-1]
    g = conformal_symplectic(g, n)
    P, Q = g[:n, :n], g[:n, n:]
    R, T = g[n:, :n], g[n:, n:]
    # X (P + Q S) = R + T S, solved transposed; P + Q S is not symmetric
    den_t = (P + Q @ S).swapaxes(-1, -2)
    Gates().require(np.linalg.cond(den_t) <= COND_MAX, lambda i: NotInChart(
        f"P + Q S is singular at sample {i} (condition number above "
        f"{COND_MAX:g})")).raise_error()
    num_t = (R + T @ S).swapaxes(-1, -2)
    return symmetrize(np.linalg.solve(den_t, num_t).swapaxes(-1, -2))


def random_hamiltonian(rng, n, scale=1.0):
    """Random element of sp(2n): H = [[M, N], [R, -M^T]], N and R symmetric."""
    m = rng.normal(size=(n, n)) * scale
    nn = rng.normal(size=(n, n)) * scale
    rr = rng.normal(size=(n, n)) * scale
    nn = 0.5 * (nn + nn.T)
    rr = 0.5 * (rr + rr.T)
    h = np.zeros((2 * n, 2 * n))
    h[:n, :n] = m
    h[:n, n:] = nn
    h[n:, :n] = rr
    h[n:, n:] = -m.T
    return h


def random_csp(seed, scale=1.0, n=2, ham_scale=1.0):
    """Pseudo-random conformal symplectic map g = exp(H) diag(s I, I).

    g^T J g = s J: a symplectic map composed with the scaling section of the
    conformal group.  `scale` must be nonzero.
    """
    if scale == 0:
        raise InvalidTransform("conformal scale must be nonzero")
    from scipy.linalg import expm

    rng = np.random.default_rng(seed)
    h = random_hamiltonian(rng, n, scale=ham_scale)
    g = expm(h)
    sigma = np.eye(2 * n)
    sigma[:n, :n] *= scale
    return g @ sigma
