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
from .tolerances import CERT_MARGIN, COND_MAX, CSP_SCALE_MIN, FRAME_TOL


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


def _eig_cond(a, ev):
    """2-norm condition number of the symmetric matrices a (the last two
    axes) from their eigenvalues ev.  As with np.linalg.cond, a singular
    matrix gives inf and a matrix holding a NaN gives NaN."""
    ev = np.abs(ev)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = _entrywise(np.maximum, ev, 1) / _entrywise(np.minimum, ev, 1)
    # max|a| is NaN exactly where a holds a NaN
    return np.where(np.isnan(_matrix_maxabs(a)), np.nan,
                    np.where(np.isnan(c), np.inf, c))


def cond_bound(a, a_inv):
    """(|a|_F |a_inv|_F)^2 of each matrix a (the last two axes) and its
    inverse: at least cond_2(a)^2, up to the roundoff of a_inv.  Where it
    overflows it is inf or NaN, without a warning, and so certifies
    nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.einsum("...ij,...ij->...", a, a)
                * np.einsum("...ij,...ij->...", a_inv, a_inv))


def velocity_form(s1):
    """(regular, sign, factor) of the symmetric velocity forms s1 (the last
    two axes): per sample, whether cond_2(s1) <= COND_MAX, and +1 or -1
    where s1 is definite of that sign, else 0.  The one rule behind every
    gate on S'.  If cholesky(s1) = L L^T, else cholesky(-s1) (negation is
    exact), succeeds with cond_bound(L, L^(-1)) <= COND_MAX / CERT_MARGIN
    at every sample, that certifies all of them (cond_2(s1) = cond_2(L)^2;
    the margin covers roundoff) and factor is that L; else one spectrum
    judges each sample and factor is None.  A factor that succeeds but
    fails its bound is not followed by the other sign."""
    s1 = np.asarray(s1, dtype=float)
    for sign in (1, -1):
        try:
            factor = np.linalg.cholesky(s1 if sign > 0 else -s1)
        except np.linalg.LinAlgError:
            continue
        bound = cond_bound(factor, triangular_inverse(factor))
        if (bound <= COND_MAX / CERT_MARGIN).all():
            shape = s1.shape[:-2]
            return np.ones(shape, bool), np.full(shape, sign), factor
        break
    ev = np.linalg.eigvalsh(s1)
    sign = np.where(ev[..., 0] > 0, 1, np.where(ev[..., -1] < 0, -1, 0))
    return _eig_cond(s1, ev) <= COND_MAX, sign, None


def triangular_inverse(factor):
    """L^(-1) of lower triangular matrices L (the last two axes), by
    forward substitution along the sample axis: row i is
    -L[i, :i] L^(-1)[:i, :i] / L[i, i], one stacked matmul per row.  Like
    LAPACK's inverse it does not warn: an L out of float range gives inf
    or NaN entries, which cond_bound does not certify."""
    n = factor.shape[-1]
    out = np.zeros_like(factor)
    with np.errstate(all="ignore"):
        for i in range(n):
            row = factor[..., i, None, :i] @ out[..., :i, :i]
            # + 0.0 writes a zero as +0.0, as LAPACK's inverse does
            out[..., i, :i] = -row[..., 0, :] / factor[..., i, i, None] + 0.0
            out[..., i, i] = 1.0 / factor[..., i, i]
    return out


def chart_inverse(d):
    """(d^(-1), inside) of one matrix d (n, n) or a stack (m, n, n), the one
    rule behind every matrix the package inverts or gates for
    invertibility, S' (velocity_form) aside: inside is cond_2(d) <=
    COND_MAX per sample, and a sample that is not finite is outside.  A
    sample is certified inside, without the SVD of np.linalg.cond, when
    cond_bound(d, d^(-1)) <= (COND_MAX / CERT_MARGIN)^2; cond decides the
    other finite samples.  d^(-1) is None when some sample has no LU
    inverse (cond then decides every finite sample)."""
    d = np.asarray(d, dtype=float)
    try:
        d_inv = np.linalg.inv(d)
    except np.linalg.LinAlgError:
        d_inv = None
    inside = (np.zeros(d.shape[:-2], bool) if d_inv is None else np.asarray(
        cond_bound(d, d_inv) <= (COND_MAX / CERT_MARGIN) ** 2))
    rest = ~inside & np.isfinite(_matrix_maxabs(d))
    if rest.any():
        inside[rest] = np.linalg.cond(d[rest]) <= COND_MAX
    return d_inv, inside


def definite_eigh(a, b, factor=None):
    """(mu, M, M^(-1)) with mu ascending, a M = b M diag(mu) and
    M^T b M = Id, on stacks of symmetric a and positive definite b (else
    LinAlgError): LAPACK sygvd's reduction b = L L^T, (mu, V) =
    eigh(C) of C = L^(-1) a L^(-T), M = L^(-T) V and M^(-1) = V^T L^T.
    `factor` is L when the caller has it (velocity_form's).  L^(-1) is
    triangular_inverse's; for n = 2 the eigensolve is one Schur rotation
    along the sample axis (schur2), else np.linalg.eigh.  M^(-1) is a
    product, not a solve: as accurate as a solve with M, whatever
    cond(b), where the equal M^T b loses digits as cond(b) grows."""
    if factor is None:
        factor = np.linalg.cholesky(b)
    l_inv = triangular_inverse(factor)
    c = symmetrize(l_inv @ a @ l_inv.swapaxes(-1, -2))
    mu, v = schur2(c) if c.shape[-1] == 2 else np.linalg.eigh(c)
    return (mu, l_inv.swapaxes(-1, -2) @ v,
            v.swapaxes(-1, -2) @ factor.swapaxes(-1, -2))


def schur2(c):
    """(mu, V) of symmetric 2 x 2 matrices c (the last two axes), as
    np.linalg.eigh returns them: mu ascending, c V = V diag(mu), V
    orthogonal.  One symmetric Schur rotation (Golub & Van Loan, Matrix
    Computations, Alg. 8.5.1) per sample: with tau = (c11 - c00) / 2 c01,
    t = sign(tau) / (|tau| + sqrt(1 + tau^2)), here multiplied through by
    2 |c01| so that no quotient overflows (tau = 0 takes the sign of c01),
    is the tangent of the rotation [[cs, sn], [-sn, cs]],
    cs = 1 / sqrt(1 + t^2), sn = t cs, that takes c to
    diag(c00 - t c01, c11 + t c01).  A diagonal c has t = 0: mu is its
    diagonal, exactly.  As eigh, it does not warn: a matrix whose rotation
    leaves float range (a non-finite entry, or entries near the largest
    float) gives NaN eigenvalues."""
    c00, c01, c11 = c[..., 0, 0], c[..., 0, 1], c[..., 1, 1]
    with np.errstate(all="ignore"):
        d = c11 - c00
        den = np.abs(d) + np.hypot(d, 2.0 * c01)
        # den = 0 only where c01 = 0: c is diagonal already
        t = (np.where(d < 0, -2.0, 2.0) * c01
             / np.where(den == 0, 1.0, den))
        cs = 1.0 / np.sqrt(1.0 + t * t)
        sn = t * cs
        bad = ~np.isfinite(den)
        lo = np.where(bad, np.nan, c00 - t * c01)
        hi = np.where(bad, np.nan, c11 + t * c01)
    # V's columns are (cs, -sn) for lo and (sn, cs) for hi; ascending order
    # swaps them where lo > hi
    swap = lo > hi
    mu = np.stack([np.where(swap, hi, lo), np.where(swap, lo, hi)], -1)
    v = np.stack([np.where(swap, sn, cs), np.where(swap, cs, sn),
                  np.where(swap, cs, -sn), np.where(swap, -sn, cs)], -1)
    return mu, v.reshape(v.shape[:-1] + (2, 2))


def symmetric_input(gates, s, tol, what, at):
    """The one rule for a stack s (m, n, n) of matrices from outside the
    package, which later stages take as chart points: through `gates`,
    first each sample that is not finite fails, then each whose asymmetry
    exceeds `tol` times max(1, max|s|).  Returns the samples before
    `gates.stop`: as they are if the stack equals its transpose bit for
    bit, else averaged with their transposes in place, in the caller's
    float array.  An error names `what` and the sample, `at(i)`."""
    s = np.asarray(s, dtype=float)[:gates.stop]
    # max|s| is finite exactly where every entry of s is; no arithmetic on
    # a sample that failed a gate
    scale = _matrix_maxabs(s)
    gates.require(np.isfinite(scale), lambda i: InvalidBasis(
        f"{what} not finite at {at(i)}"))
    s = s[:gates.stop]
    # a stack that is its own transpose bit for bit has asymmetry 0
    if bitwise_symmetric(s):
        return s
    # a residual that overflows is inf, and fails
    with np.errstate(over="ignore"):
        resid = _matrix_maxabs(s - s.swapaxes(-1, -2))
    ok = resid <= tol * np.maximum(1.0, scale[:len(s)])
    gates.require(ok, lambda i: InvalidBasis(
        f"asymmetry {resid[i]:g} exceeds tolerance {tol:g} in {what} at "
        f"{at(i)}"))
    s = s[:gates.stop]
    return np.add(0.5 * s, 0.5 * s.swapaxes(-1, -2), out=s)


def bitwise_symmetric(s):
    """Whether the stack s equals its transpose bit for bit."""
    bits, n = s.view(np.uint64), s.shape[-1]
    return all((bits[..., i, j] == bits[..., j, i]).all()
               for i in range(n) for j in range(i + 1, n))


def symmetrize(s):
    """Return s/2 + s^T/2 (halved first, so no sum overflows), without
    judging the asymmetry (symmetric_input does).  A stack equal to its
    transpose bit for bit is returned as it is, not copied: the mean would
    give the same bits, except where a half is subnormal.  A pair of -0.0
    and +0.0 differs in its bits, so it is still averaged (to +0.0)."""
    s = np.asarray(s, dtype=float)
    return s if bitwise_symmetric(s) else 0.5 * s + 0.5 * s.swapaxes(-1, -2)


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


def frame_from_chart_pair(M, S, Sbar):
    """Symplectic frame matrix (..., 2n, 2n) with f spanning S (basis M) and
    fbar spanning Sbar; a singular M or Sbar - S raises.  Its upper right
    block is the basis completion: the unique Mbar = (Sbar - S)^(-1) M^(-T),
    with M^T (Sbar - S) Mbar = Id."""
    M, S, Sbar = (np.asarray(a, dtype=float) for a in (M, S, Sbar))
    m_inv, m_inside = chart_inverse(M)
    diff_inv, diff_inside = chart_inverse(Sbar - S)
    Gates().require(m_inside, lambda i: InvalidBasis(
        f"basis matrix M is singular at sample {i}")).require(
        diff_inside, lambda i: NotTransverse(
            f"Sbar - S is singular at sample {i} (condition number above "
            f"{COND_MAX:g})")).raise_error()
    Mbar = diff_inv @ m_inv.swapaxes(-1, -2)
    return np.block([[M, Mbar], [S @ M, Sbar @ Mbar]])


def chart_translate_invert(S, S_ref):
    """Coordinate (S - S_ref)^(-1) of the same subspace in the chart at S_ref,
    for one point S or a stack (NotTransverse at the earliest singular one).

    Not an involution: the inverse transform is S_ref + T^(-1).
    """
    S, S_ref = np.asarray(S, dtype=float), np.asarray(S_ref, dtype=float)
    diff_inv, inside = chart_inverse(S - S_ref)
    Gates().require(inside, lambda i: NotTransverse(
        f"S - S_ref is singular at sample {i} (condition number above "
        f"{COND_MAX:g})")).raise_error()
    return symmetrize(diff_inv)


def chart_point(a, b, error):
    """(S, A^(-1)) of the span of [A; B], one basis or a stack: the one
    read-off of a chart point, S = B A^(-1).  A is judged by chart_inverse,
    and error(i) is raised at the earliest sample outside the chart."""
    a_inv, inside = chart_inverse(a)
    Gates().require(inside, error).raise_error()
    return symmetrize(b @ a_inv), a_inv


def conformal_symplectic(g, n):
    """(g, s) of a 2n x 2n conformal symplectic map g, g^T J g = s J with s
    nonzero: g as a float array scaled by the power of two that puts
    max|g| in [1/2, 1) (exact; a map acts on charts as its multiples do),
    and s = tr(P^T T - R^T Q) / n of its blocks [[P, Q], [R, T]].  Both
    tests are relative to max|g|^2, so c g passes exactly when g does."""
    g = np.asarray(g, dtype=float)
    if g.shape != (2 * n, 2 * n):
        raise InvalidDimension(f"expected {2*n}x{2*n} transform, got {g.shape}")
    size, exponent = np.frexp(_maxabs(g))  # max|g| = size 2^exponent
    if not 0 < size < np.inf:
        raise InvalidTransform("matrix is not conformal symplectic")
    g = np.ldexp(g, -exponent)
    P, Q, R, T = g[:n, :n], g[:n, n:], g[n:, :n], g[n:, n:]
    scale = np.trace(P.T @ T - R.T @ Q) / n
    j = symplectic_form(n)
    gjg = g.T @ j @ g
    if not (abs(scale) > CSP_SCALE_MIN * size**2
            and _maxabs(gjg - scale * j) <= FRAME_TOL * size**2):
        raise InvalidTransform("matrix is not conformal symplectic")
    return g, scale


def apply_symplectic(g, S):
    """Fractional-linear action of a (conformal) symplectic map on a chart.

    With g = [[P, Q], [R, T]] in n x n blocks, S maps to (R + T S)(P + Q S)^(-1).
    g may scale the form by a nonzero constant (conformal maps act on
    Lagrangian subspaces exactly like symplectic ones).  S is one point or a
    stack (NotInChart at the earliest sample where P + Q S is singular).
    """
    S = np.asarray(S, dtype=float)
    n = S.shape[-1]
    g, _ = conformal_symplectic(g, n)
    P, Q, R, T = g[:n, :n], g[:n, n:], g[n:, :n], g[n:, n:]
    return chart_point(P + Q @ S, R + T @ S, lambda i: NotInChart(
        f"P + Q S is singular at sample {i} (condition number above "
        f"{COND_MAX:g})"))[0]


def random_hamiltonian(rng, n, scale=1.0):
    """Random element of sp(2n): H = [[M, N], [R, -M^T]], N and R symmetric."""
    m = rng.normal(size=(n, n)) * scale
    nn = rng.normal(size=(n, n)) * scale
    rr = rng.normal(size=(n, n)) * scale
    nn, rr = symmetrize(nn), symmetrize(rr)
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
