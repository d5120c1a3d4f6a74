"""Symmetric-matrix curves S(t) with derivative access, sampling, stencils.

A curve is the chart-coordinate picture of a smooth curve of Lagrangian
subspaces: t maps to the span of [I; S(t)].  Evaluators map a vector of
parameters to the value and the first three derivatives; nothing in the
pipeline differentiates S beyond order 3 (higher-order quantities are reached
through scalar series that are finite-differenced on grids).  A sampled curve
is one CurveJet: its t (m,) and the stack (4, m, n, n) of S, S', S'', S'''.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import zip_longest
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    DomainError,
    Gates,
    InvalidDimension,
    MissingKey,
    NotInChart,
    RegularityFailure,
    TooFewSamples,
)
from .symspace import (_entrywise, chart_point, conformal_symplectic,
                       symmetric_input, symmetrize, velocity_form)
from .tolerances import JET_SYM_TOL, NODE_TOL

# Five-point stencil coefficients on a uniform grid, exact rationals over the
# printed denominators.  Rows: offsets / weights.  Interior rows are central;
# the two rows at each end are one-sided.
STENCILS = {
    1: {
        "central": ([-2, -1, 0, 1, 2], [1, -8, 0, 8, -1], 12.0),  # O(h^4)
        "left0": ([0, 1, 2, 3, 4], [-25, 48, -36, 16, -3], 12.0),  # O(h^4)
        "left1": ([-1, 0, 1, 2, 3], [-3, -10, 18, -6, 1], 12.0),  # O(h^4)
    },
    2: {
        "central": ([-2, -1, 0, 1, 2], [-1, 16, -30, 16, -1], 12.0),  # O(h^4)
        "left0": ([0, 1, 2, 3, 4], [35, -104, 114, -56, 11], 12.0),  # O(h^3)
        "left1": ([-1, 0, 1, 2, 3], [11, -20, 6, 4, -1], 12.0),  # O(h^3)
    },
    3: {
        "central": ([-2, -1, 0, 1, 2], [-1, 2, 0, -2, 1], 2.0),  # O(h^2)
        "left0": ([0, 1, 2, 3, 4], [-5, 18, -24, 14, -3], 2.0),  # O(h^2)
        "left1": ([-1, 0, 1, 2, 3], [-3, 10, -12, 6, -1], 2.0),  # O(h^2)
    },
}

# Seven-point central third derivative, O(h^4); used for table-kind curves
# where the stencil error propagates into twice-differentiated scalars.
STENCIL_3_WIDE = ([-3, -2, -1, 1, 2, 3], [1, -8, 13, -13, 8, -1], 8.0)

# Table curves take derivatives from one-sided (or, for the third, five-point)
# rows at this many nodes on each end, where their error is orders of
# magnitude worse than in the interior; analyses of tables skip them.
TABLE_TRIM = 3


def _stencil(values, row, start, stop, hk):
    """The stencil `row` applied at every i in [start, stop): the sum of
    w * values[i + o] in the row's order over denom * hk."""
    offsets, weights, denom = row
    return sum(w * values[start + o:stop + o]
               for o, w in zip(offsets, weights)) / (denom * hk)


def _cyclic_reduction(lo, dg, up, rhs):
    """Solve lo[i] z[i-1] + dg[i] z[i] + up[i] z[i+1] = rhs[i] (lo[0] =
    up[-1] = 0) for a diagonally dominant tridiagonal system.  Each level
    eliminates the even unknowns from the odd rows, which halves the system
    in elementwise operations; the even unknowns are then recovered level by
    level.  rhs (N, k) columns are solved independently."""
    levels = []
    while dg.size > 1:
        size = dg.size
        if size % 2 == 0:
            # an identity row z = 0 makes the size odd
            lo, dg, up = (np.append(a, v) for a, v in ((lo, 0.0), (dg, 1.0),
                                                       (up, 0.0)))
            rhs = np.concatenate([rhs, np.zeros((1,) + rhs.shape[1:])])
        levels.append((size, lo, dg, up, rhs))
        left, right = slice(0, -1, 2), slice(2, None, 2)
        alpha = -lo[1::2] / dg[left]
        gamma = -up[1::2] / dg[right]
        rhs = (rhs[1::2] + alpha[:, None] * rhs[left]
               + gamma[:, None] * rhs[right])
        dg = dg[1::2] + alpha * up[left] + gamma * lo[right]
        lo, up = alpha * lo[left], gamma * up[right]
    z = rhs / dg[:, None]
    for size, lo, dg, up, rhs in reversed(levels):
        pad = np.zeros((1,) + z.shape[1:])
        zp = np.concatenate([pad, z, pad])
        full = np.empty_like(rhs)
        full[1::2] = z
        full[::2] = (rhs[::2] - lo[::2, None] * zp[:-1]
                     - up[::2, None] * zp[1:]) / dg[::2, None]
        z = full[:size]
    return z


def spline(x, y):
    """Not-a-knot cubic spline through the samples y, whose first axis runs
    along x (m >= 4 strictly increasing finite nodes, finite y); returns the
    function mapping a query array q to the values of shape
    q.shape + y.shape[1:].  Queries outside [x[0], x[-1]] follow the end
    cubics.

    The slopes solve the tridiagonal system of scipy's CubicSpline, its two
    not-a-knot rows folded into their neighbours so the interior system is
    diagonally dominant, by cyclic reduction; the pieces are scipy's PPoly
    coefficients and are evaluated in PPoly's order,
    ((c3 + c2 s) + c1 s^2) + c0 s^3, so a query at an interior node returns
    the sample itself.  Every column of y is fitted on its own: a joint
    spline equals separate ones bit for bit.  x and the queries are scaled
    by 2^-e (e the exponent of x's span), y by 2^-f (f that of max|y|) and
    the values back by 2^f: exact, and no product leaves float range."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim != 1:
        raise ValueError("`x` must be 1-dimensional.")
    if x.size < 4:
        raise ValueError("`x` must contain at least 4 elements.")
    if y.ndim == 0 or y.shape[0] != x.size:
        raise ValueError("The length of `y` along axis 0 doesn't match the "
                         "length of `x`")
    if not np.isfinite(x).all():
        raise ValueError("`x` must contain only finite values.")
    if not np.isfinite(y).all():
        raise ValueError("`y` must contain only finite values.")
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("`x` must be strictly increasing sequence.")
    e = np.frexp(x[-1] - x[0])[1]
    f = np.frexp(np.max(np.abs(y), initial=0.0))[1]
    x, dx, y = np.ldexp(x, -e), np.ldexp(dx, -e), np.ldexp(y, -f)
    tail = y.shape[1:]
    y = y.reshape(x.size, -1)
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    # scipy's rows: i = 1..m-2 interior, 0 and m-1 not-a-knot
    b = np.empty_like(y)
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    b[0] = ((dxr[0] + 2 * d0) * dxr[1] * slope[0] + dxr[0]**2 * slope[1]) / d0
    b[-1] = (dxr[-1]**2 * slope[-2]
             + (2 * d1 + dxr[-1]) * dxr[-2] * slope[-1]) / d1
    # row 0 is dx[1] s0 + d0 s1 and row 1 starts with dx[1] s0: their
    # difference drops s0 (the same at the end with dx[-2] s[m-1])
    dg = 2 * (dx[:-1] + dx[1:])
    dg[0] -= d0
    dg[-1] -= d1
    rhs = b[1:-1].copy()
    rhs[0] -= b[0]
    rhs[-1] -= b[-1]
    s = np.empty_like(y)
    s[1:-1] = _cyclic_reduction(np.append(0.0, dx[2:]), dg,
                                np.append(dx[:-2], 0.0), rhs)
    s[0] = (b[0] - d0 * s[1]) / dx[1]
    s[-1] = (b[-1] - d1 * s[-2]) / dx[-2]
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    coef = np.stack([t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]])

    def at(q):
        shape = np.shape(q)
        q = np.ldexp(np.asarray(q, dtype=float).ravel(), -e)
        i = np.clip(np.searchsorted(x, q, side="right") - 1, 0, x.size - 2)
        c0, c1, c2, c3 = coef[:, i]
        u = (q - x[i])[:, None]
        u2 = u * u
        return np.ldexp(((c3 + c2 * u) + c1 * u2) + c0 * (u2 * u),
                        f).reshape(shape + tail)

    return at


def _edge_rows(order):
    """The one-sided rows of STENCILS[order] at nodes 0, 1, m - 1, m - 2 (the
    right rows mirror the left ones) as (offsets (4, 5), weights (4, 5),
    denominators (4,)); node p's row sums weights[:, k] * values[p +
    offsets[:, k]] over k."""
    sign = (-1.0) ** order
    left = [STENCILS[order][f"left{i}"] for i in (0, 1)]
    right = [([-o for o in offsets], [sign * w for w in weights], denom)
             for offsets, weights, denom in left]
    offsets, weights, denoms = zip(*left, *right)
    return np.array(offsets), np.array(weights, dtype=float), np.array(denoms)


EDGE_ROWS = {order: _edge_rows(order) for order in STENCILS}


def finite_diff(values, h, order=1):
    """Differentiate a uniformly sampled series of scalars or matrices.

    Five-point central stencils in the interior, one-sided five-point rows at
    the two boundary points on each end (coefficients in STENCILS).  `order`
    may be 1, 2 or 3; the classic contract is orders 1 and 2, order 3 is used
    internally for table-kind curves.  Samples run along the first axis.  A
    step h whose h**order is 0 or not finite raises DomainError.
    """
    if order not in STENCILS:
        raise ValueError(f"unsupported derivative order {order}")
    values = np.asarray(values, dtype=float)
    m = len(values)
    if m < 5:
        raise TooFewSamples(f"need >= 5 samples, got {m}")
    st = STENCILS[order]
    with np.errstate(over="ignore"):
        hk = np.float64(h) ** order
    if not 0 < abs(hk) < np.inf:
        raise DomainError(f"h**{order} = {float(hk)!r} for the step "
                          f"h={float(h)!r}: out of range for the stencils")
    out = np.empty_like(values)
    out[2:m - 2] = _stencil(values, st["central"], 2, m - 2, hk)
    # the four edge rows at once, each summed in its row's order from 0 as
    # _stencil's sum is, so every bit (and the sign of a zero) is the same
    offsets, weights, denoms = EDGE_ROWS[order]
    nodes = [0, 1, m - 1, m - 2]
    index = np.array(nodes)[:, None] + offsets
    shape = (len(nodes),) + (1,) * (values.ndim - 1)
    acc = 0
    for w, i in zip(weights.T, index.T):
        acc = acc + w.reshape(shape) * values[i]
    out[nodes] = acc / (denoms * hk).reshape(shape)
    return out


@dataclass(frozen=True)
class SampleGrid:
    """Uniform grid of m points on [t0, t1]."""

    t0: float
    t1: float
    m: int

    def __post_init__(self):
        # on Python floats, so an infinite or NaN span fails without a warning
        if not 0 < float(self.t1) - float(self.t0) < np.inf:
            raise DomainError(f"need a finite span t0 < t1, got "
                              f"[{self.t0}, {self.t1}]")
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 7):
            raise DomainError("need a whole number of at least 7 samples for "
                              "five-point stencils")

    @property
    def h(self):
        return (self.t1 - self.t0) / (self.m - 1)

    @property
    def points(self):
        # linspace's last product may round past the largest float on a
        # span near it; that node is then set to t1
        try:
            with np.errstate(over="ignore"):
                return np.linspace(self.t0, self.t1, self.m)
        except (ValueError, MemoryError, IndexError):  # a size numpy refuses
            raise DomainError(f"grid too large: m={self.m}") from None


@dataclass(frozen=True)
class CurveJet:
    """Value and first three derivatives of a curve at t as one stack
    `orders`: (4, n, n) at one sample, or (4, m, n, n) over a series with t
    of shape (m,).  S, S1, S2 and S3 are the views orders[0] to orders[3];
    indexing takes the sample axis, of `form` too.  `form` is the
    velocity_form (regular, sign, factor) of S1 once judged, else None."""

    t: float | np.ndarray
    orders: np.ndarray
    form: tuple | None = None

    S = property(lambda self: self.orders[0])
    S1 = property(lambda self: self.orders[1])
    S2 = property(lambda self: self.orders[2])
    S3 = property(lambda self: self.orders[3])

    def __getitem__(self, i):
        form = self.form and tuple(None if a is None else a[i]
                                   for a in self.form)
        return CurveJet(np.asarray(self.t)[i], self.orders[:, i], form)

    def judged(self):
        """These jets with the velocity_form of S1 set, judged only once."""
        if self.form is not None:
            return self
        return replace(self, form=velocity_form(self.S1))

    @property
    def n(self):
        return self.orders.shape[-1]


class SymmetricMatrixCurve:
    """Smooth map t -> (S, S', S'', S''') of symmetric n x n matrices.

    `kind` is one of analytic / preset / polynomial / fourier / table /
    frame; the evaluator must be pure and maps a parameter vector of shape
    (m,) to the stack (4, m, n, n) of S, S', S'', S''' (or its four
    (m, n, n) arrays), a new array on every call: `jets` symmetrizes it in
    place and hands it to its caller as the CurveJet's `orders`.  A curve
    known only at nodes (a table, a frame curve, or a transform of one)
    lists them in `table_ts`, else None.  Regularity (S' invertible, i.e.
    cond(S') at most COND_MAX: a scale-free test, so c S is regular
    wherever S is) is checked lazily at the points actually queried.
    """

    table_ts = None

    def __init__(self, n, evaluator: Callable, domain, kind="analytic", name=None):
        self.n = int(n)
        self._eval = evaluator
        self.domain = (float(domain[0]), float(domain[1]))
        self.kind = kind
        self.name = name

    def jets(self, ts, check_regular=True):
        """Jet series at the parameters `ts`, the only evaluation path.  The
        checks run in the order domain, shape, then finiteness and symmetry
        of each jet order in turn (symspace.symmetric_input, which
        symmetrizes in place), then regularity, which judges the jets; the
        earliest failing sample's error is raised, and an error of the
        evaluator comes before all of them.  The evaluator runs on float64
        under np.errstate(all="ignore"), so a jet that overflows or divides
        by zero is inf or NaN, without a warning, and fails the gate."""
        ts = np.asarray(ts, dtype=float)
        lo, hi = self.domain
        gates = Gates().require((lo <= ts) & (ts <= hi), lambda i: DomainError(
            f"t={float(ts[i])} outside domain [{lo}, {hi}]"))
        ts = ts[:gates.stop]
        with np.errstate(all="ignore"):
            out = self._eval(ts)
        if [np.shape(a) for a in out] != [(ts.size, self.n, self.n)] * 4:
            raise InvalidDimension("evaluator must return four m x n x n arrays")
        orders = np.asarray(out, dtype=float)
        for k, a in enumerate(orders):
            symmetric_input(gates, a, JET_SYM_TOL, f"jet of order {k}",
                            lambda i: f"t={float(ts[i])!r}")
        jets = CurveJet(ts, orders[:, :gates.stop])
        if check_regular:
            jets = jets.judged()
            gates.require(jets.form[0], lambda i: RegularityFailure(ts[i]))
        gates.raise_error()
        return jets

    def jet(self, t, check_regular=True):
        """The jet at one parameter: the one sample of `jets([t])`."""
        return self.jets([t], check_regular)[0]


def sample_curve(curve, grid, check_regular=True):
    """Jet series on the grid's points, as `curve.jets` checks them."""
    return curve.jets(grid.points, check_regular)


# ---------------------------------------------------------------------------
# constructors for the supported curve kinds


def curve_from_scalars(entries, domain, kind="analytic", name=None):
    """Diagonal-block curve from scalar jet functions.

    `entries` is a list of callables t -> (f, f', f'', f''') placed on the
    diagonal.  Each entry is called once on the whole parameter vector, so it
    must accept an array (numpy functions, not `math`); a scalar it returns,
    such as a constant derivative, is broadcast.
    """
    n = len(entries)

    def evaluator(ts):
        out = np.zeros((4, ts.size, n, n))
        for i, e in enumerate(entries):
            out[:, :, i, i] = np.broadcast_arrays(*e(ts), ts)[:4]
        return out

    return SymmetricMatrixCurve(n, evaluator, domain, kind=kind, name=name)


def polynomial_curve(coeffs, domain, name=None):
    """Curve with polynomial entries; coeffs[i][j] is an ascending
    coefficient list for entry (i, j).  The curve is symmetrized: its entry
    (i, j) is the mean of the polynomials given at (i, j) and (j, i), so a
    matrix given by its upper triangle alone has its off-diagonal halved."""
    n = len(coeffs)
    entries = [row[j] if j < len(row) and len(row[j]) else [0.0]
               for row in coeffs for j in range(n)]
    # entry (i, j)'s coefficients in [:, i, j]; zeros pad the shorter
    # entries and leave Horner's sums unchanged
    tensor = np.array(list(zip_longest(*entries, fillvalue=0.0)),
                      dtype=float).reshape(-1, n, n)
    length = np.array([len(c) for c in entries]).reshape(n, n)
    # a coefficient times its degree that overflows is inf, which jets gates
    with np.errstate(over="ignore"):
        tensors = [npoly.polyder(tensor, order, axis=0) for order in range(4)]
    for order, d in enumerate(tensors):
        # an entry differentiated away is polyder's c[:1] * 0, the signed
        # zero of its constant term
        d[0] = np.where(length <= order, tensor[0] * 0, d[0])

    def evaluator(ts):
        return symmetrize([npoly.polyval(ts[:, None, None], c, tensor=False)
                           for c in tensors])

    return SymmetricMatrixCurve(n, evaluator, domain, kind="polynomial",
                                name=name)


def fourier_curve(cos_coeffs, sin_coeffs, domain, omega=1.0, name=None):
    """Entries sum_k a_k cos(k w t) + b_k sin(k w t); differentiated exactly.
    The shorter of an entry's cos and sin lists is padded with zeros."""
    n = len(cos_coeffs)

    def evaluator(ts):
        mats = np.zeros((4, ts.size, n, n))
        for i, j in np.ndindex(n, n):
            for k, (a, b) in enumerate(zip_longest(
                    cos_coeffs[i][j], sin_coeffs[i][j], fillvalue=0.0)):
                w = np.float64(k * omega)
                c, s = np.cos(w * ts), np.sin(w * ts)
                mats[:, :, i, j] += (a * c + b * s, w * (-a * s + b * c),
                                     w**2 * (-a * c - b * s),
                                     w**3 * (a * s - b * c))
        return symmetrize(mats)

    return SymmetricMatrixCurve(n, evaluator, domain, kind="fourier", name=name)


def table_curve(ts, S_values, name=None):
    """Curve from uniformly spaced samples; derivatives by the stencils above.

    Evaluation is restricted to the table nodes.  Accuracy of S''' is O(h^2),
    which is what limits re-analysis of reconstructed curves.
    """
    # a copy: the curve must not see later writes to the caller's samples
    ts, values = np.asarray(ts, dtype=float), np.array(S_values, dtype=float)
    if ts.ndim != 1 or values.shape != (ts.size,) + values.shape[-1:] * 2:
        raise InvalidDimension(f"a table of {ts.size} nodes needs samples of "
                               f"shape (m, n, n); got {values.shape}")
    if ts.size < 7:
        raise TooFewSamples("table needs at least 7 samples")
    h = ts[1] - ts[0]
    if not (h > 0 and np.max(np.abs(np.diff(ts) - h))
            <= NODE_TOL * max(1.0, h)):
        raise DomainError("table nodes must be strictly increasing and "
                          "uniformly spaced")
    gates = Gates()
    values = symmetric_input(gates, values, JET_SYM_TOL, "sample",
                             lambda i: f"t={float(ts[i])!r}")
    gates.raise_error()
    # on float64, so a stencil row that overflows is inf or NaN, for jets'
    # gate at the nodes sampled
    with np.errstate(over="ignore", invalid="ignore"):
        jets = np.stack([values] + [finite_diff(values, h, k)
                                    for k in (1, 2, 3)])
        # interior third derivatives upgraded to the O(h^4) wide stencil;
        # the TABLE_TRIM rows at each end keep the five-point O(h^2) values
        jets[3, 3:-3] = _stencil(values, STENCIL_3_WIDE, 3, len(values) - 3,
                                 h**3)
    return node_curve(ts, jets, "table", name)


def node_curve(ts, jets, kind, name):
    """Curve of the given kind known only at the uniformly spaced nodes ts
    (kept as `table_ts`), by the stack (4, m, n, n) of its jets there; a
    query off the nodes raises DomainError."""
    h = ts[1] - ts[0]

    def evaluator(tq):
        i = np.clip(np.round((tq - ts[0]) / h).astype(int), 0, ts.size - 1)
        Gates().require(np.abs(ts[i] - tq) <= NODE_TOL * max(1.0, abs(h)),
                        lambda k: DomainError(f"t={float(tq[k])} is not a "
                                              "table node")).raise_error()
        return jets[:, i]

    c = SymmetricMatrixCurve(jets.shape[-1], evaluator, (ts[0], ts[-1]),
                             kind=kind, name=name)
    c.table_ts = ts
    return c


def table_json(ts, S, name):
    """Table-kind JSON object (curve_from_json's input) of the samples S
    (m, n, n) at the nodes ts, with the nodes and samples as arrays for the
    CLI's writer: S itself, or, when some sample is all NaN (a chart exit),
    the list of its samples with each such one None, written null."""
    exits = _entrywise(np.logical_and, np.isnan(S))
    return {
        "n": S.shape[-1],
        "kind": "table",
        "name": name,
        "domain": [float(ts[0]), float(ts[-1])],
        "samples": {"t": ts,
                    "S": [None if e else s for e, s in zip(exits, S)]
                    if exits.any() else S},
    }


# ---------------------------------------------------------------------------
# composition with reparametrizations and conformal symplectic maps


def reparametrized_curve(curve, psi_jet, domain, name=None):
    """Composite curve Sbar(u) = S(psi(u)).

    `psi_jet` maps u to (psi, psi', psi'', psi''').  Derivatives follow the
    chain rule:
        Sbar'   = psi' S'
        Sbar''  = psi'' S' + psi'^2 S''
        Sbar''' = psi''' S' + 3 psi' psi'' S'' + psi'^3 S'''
    `psi_jet` is called once on the whole parameter vector, as the entries
    of `curve_from_scalars` are.  Its jets overwrite the curve's stack,
    order 3 first, so each order is read before it is replaced.
    """

    def evaluator(us):
        # float arrays: a scalar psi' is raised by numpy's array power too
        p, p1, p2, p3 = np.array(np.broadcast_arrays(*psi_jet(us), us)[:4],
                                 dtype=float)
        S, S1, S2, S3 = jets = curve.jets(p, check_regular=False).orders
        p1, p2, p11, p3, p12, p111 = (
            f[:, None, None] for f in (p1, p2, p1**2, p3, 3 * p1 * p2, p1**3))
        jets[3] = p3 * S1 + p12 * S2 + p111 * S3
        jets[2] = p2 * S1 + p11 * S2
        S1 *= p1
        return jets

    return SymmetricMatrixCurve(curve.n, evaluator, domain,
                                kind="analytic", name=name)


def affine_reparam(a, b):
    """u -> a u + b as a jet function."""

    def jet(u):
        return a * u + b, a, 0.0, 0.0

    return jet


def sine_reparam(a=1.0, b=0.0, eps=0.1, omega=1.0):
    """u -> a u + b + eps sin(omega u); increasing when a > eps omega."""

    omega = np.float64(omega)  # numpy's power overflows to inf

    def jet(u):
        return (
            a * u + b + eps * np.sin(omega * u),
            a + eps * omega * np.cos(omega * u),
            -eps * omega**2 * np.sin(omega * u),
            -eps * omega**3 * np.cos(omega * u),
        )

    return jet


def transformed_curve(curve, g, name=None):
    """Image of the curve under a conformal symplectic map, in the same chart.

    With g = [[P, Q], [R, T]] and g^T J g = s J (conformal_symplectic's g
    and s), chart_point reads [P + Q S; R + T S] off as Sg = (R + T S) K,
    K = (P + Q S)^(-1).  The map acts on the velocity by congruence,
    Sg' = s K^T S' K; with U = K Q (so K' = -U S' K) and V = U + U^T,
        Sg''  = s K^T G2 K,  G2 = S'' - S' V S',
        Sg''' = s K^T (G2' - S' U^T G2 - G2 U S') K,
        G2'   = S''' - S'' V S' - S' V S'' + S' (U S' U + U^T S' U^T) S'
    (U' = -U S' U).  The bracket of Sg''' is evaluated as S''' - A - A^T,
    A = S'' (2U + U^T) S' - (2H + H^T) U S', H = S' U S'.  A g that is not
    conformal symplectic raises InvalidTransform here, before any
    evaluation; a P + Q S that is singular at a queried t (by
    chart_point's rule) raises NotInChart naming the earliest such t.  Its
    jets overwrite the curve's stack, order 3 first and order 0 last, and
    it keeps the curve's `table_ts`.
    """
    n = curve.n
    g, s = conformal_symplectic(g, n)
    P, Q, R, T = g[:n, :n], g[:n, n:], g[n:, :n], g[n:, n:]

    def evaluator(ts):
        S, S1, S2, S3 = jets = curve.jets(ts, check_regular=False).orders
        Sg, K = chart_point(P + Q @ S, R + T @ S, lambda i: NotInChart(
            f"P + Q S is singular at t={float(ts[i])!r}: the image leaves "
            "the chart"))
        Kt = K.swapaxes(-1, -2)
        U = K @ Q
        US1 = U @ S1
        H = S1 @ US1
        G2 = S2 - H - H.swapaxes(-1, -2)
        A = (S2 @ ((2 * U + U.swapaxes(-1, -2)) @ S1)
             - (2 * H + H.swapaxes(-1, -2)) @ US1)
        del U, US1, H
        jets[3] = s * symmetrize(Kt @ (S3 - A - A.swapaxes(-1, -2)) @ K)
        del A
        jets[2] = s * symmetrize(Kt @ G2 @ K)
        jets[1] = s * symmetrize(Kt @ S1 @ K)
        jets[0] = Sg
        return jets

    moved = SymmetricMatrixCurve(n, evaluator, curve.domain,
                                 kind="analytic", name=name)
    # the parameter is unchanged, so a table's image is known at its nodes
    moved.table_ts = curve.table_ts
    return moved


# ---------------------------------------------------------------------------
# presets


def _exp_decay_entry(t):
    # (1 - e^(-2t))/2 = sinh t / (cosh t + sinh t)
    e = np.exp(-2.0 * t)
    return 0.5 * (1.0 - e), e, -2.0 * e, 4.0 * e


def _mobius_entry(t):
    # t / (1 + t)
    u = 1.0 + t
    return t / u, u**-2, -2.0 * u**-3, 6.0 * u**-4


def _trig_entry(t):
    # sin t / (cos t + sin t)
    u = np.cos(t) + np.sin(t)
    du = np.cos(t) - np.sin(t)
    return np.sin(t) / u, u**-2, -2.0 * du * u**-3, 2.0 * u**-2 + 6.0 * du**2 * u**-4


def _tan_entry(t):
    c = np.cos(t)
    sec2 = c**-2
    tn = np.tan(t)
    return tn, sec2, 2 * sec2 * tn, 2 * sec2 * (sec2 + 2 * tn**2)


# the named curves of the docs, the CLI and the tests: (entries, domain)
PRESETS = {
    "paper-6.2-ex1": ([_exp_decay_entry, _mobius_entry], (-0.9, 10.0)),
    "paper-6.2-ex2": ([_mobius_entry, _trig_entry],
                      (-0.9, 3 * np.pi / 4 - 0.05)),
    "affine-line": ([lambda t: (t, 1.0, 0.0, 0.0),
                     lambda t: (2 * t, 2.0, 0.0, 0.0)], (-100.0, 100.0)),
    # tan(t) * Id: Schwarzian 2 * Id, repeated eigenvalues, inadmissible
    "scalar-tan-block": ([_tan_entry, _tan_entry], (-1.4, 1.4)),
}
PRESET_NAMES = tuple(PRESETS)


def preset_curve(name):
    """The named curve of PRESETS."""
    if not (isinstance(name, str) and name in PRESETS):
        raise DomainError(f"unknown preset {name!r}")
    entries, domain = PRESETS[name]
    return curve_from_scalars(entries, domain, kind="preset", name=name)


# ---------------------------------------------------------------------------
# JSON loading (CLI surface)


# the keys each curve kind reads; "a.b" is key b of the object at key a
REQUIRED_KEYS = {"preset": ("name",), "polynomial": ("entries", "domain"),
                 "fourier": ("entries.cos", "entries.sin", "domain"),
                 "table": ("samples.t", "samples.S")}


def require_keys(obj, paths, what):
    """Raise MissingKey naming the first of the key paths `obj` lacks."""
    for path in paths:
        node = obj
        for key in path.split("."):
            if not isinstance(node, dict) or key not in node:
                raise MissingKey(f"{what} needs the key {path!r}")
            node = node[key]


def json_array(value, key, *shapes):
    """A JSON number or array as a float array; a ragged, non-numeric or
    non-finite value, or, when `shapes` are given, a value of another
    shape, raises InvalidDimension naming its `key` first."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise InvalidDimension(
            f"{key} is not a rectangular array of numbers") from None
    if not np.isfinite(a).all():
        raise InvalidDimension(f"{key} has entries that are not finite")
    if shapes and a.shape not in shapes:
        raise InvalidDimension(
            f"{key} has shape {a.shape}; expected one of {list(shapes)}")
    return a


def json_entries(value, key):
    """A JSON n x n table of coefficient lists as lists of floats; any other
    value, or a coefficient that is not a finite number, raises
    InvalidDimension naming its `key`."""
    try:
        if value and all(len(row) == len(value) for row in value):
            return [[json_array(c, key, (len(c),)).tolist() for c in row]
                    for row in value]
    except (TypeError, InvalidDimension):
        pass
    raise InvalidDimension(
        f"{key} is not an n x n table of lists of finite numbers")


def json_integer(value, key):
    """A JSON whole number as an int; any other value raises
    InvalidDimension naming its `key`."""
    x = float(json_array(value, key, ()))
    if x != int(x):
        raise InvalidDimension(f"{key} is not a whole number")
    return int(x)


def curve_from_json(obj):
    """Load a curve from its JSON description.

    Schema: { "n": int, "kind": "preset"|"polynomial"|"fourier"|"table",
    "name"?: str, "entries"?: ..., "samples"?: {"t": [...], "S": [...]},
    "domain": [t0, t1] }; the keys each kind needs are in REQUIRED_KEYS, and
    an "n" that disagrees with the curve raises InvalidDimension.
    Optional extensions: "transform" (2n x 2n conformal symplectic matrix,
    checked when the curve is built) and "reparam"
    ({"type": "affine"|"sine", "domain": [u0, u1], ...}).
    """
    if not isinstance(obj, dict):
        raise InvalidDimension("a curve must be a JSON object")
    kind = obj.get("kind")
    if not (isinstance(kind, str) and kind in REQUIRED_KEYS):
        raise DomainError(f"unknown curve kind {kind!r}")
    require_keys(obj, REQUIRED_KEYS[kind], f"a {kind} curve")
    if kind == "preset":
        curve = preset_curve(obj["name"])
        # the preset's own domain, before any transform or reparam wraps it
        if "domain" in obj:
            curve.domain = tuple(
                json_array(obj["domain"], "domain", (2,)).tolist())
    elif kind == "polynomial":
        curve = polynomial_curve(json_entries(obj["entries"], "entries"),
                                 json_array(obj["domain"], "domain", (2,)),
                                 name=obj.get("name"))
    elif kind == "fourier":
        curve = fourier_curve(
            json_entries(obj["entries"]["cos"], "entries.cos"),
            json_entries(obj["entries"]["sin"], "entries.sin"),
            json_array(obj["domain"], "domain", (2,)),
            omega=float(json_array(obj.get("omega", 1.0), "omega", ())),
            name=obj.get("name"),
        )
    else:
        curve = table_curve(json_array(obj["samples"]["t"], "samples.t"),
                            json_array(obj["samples"]["S"], "samples.S"),
                            name=obj.get("name"))
    if obj.get("n", curve.n) != curve.n:
        raise InvalidDimension(f"n is {obj['n']!r} but the curve has "
                               f"{curve.n}x{curve.n} matrices")
    if "transform" in obj:
        curve = transformed_curve(curve, json_array(obj["transform"],
                                                    "transform"),
                                  name=curve.name)
    if "reparam" in obj:
        rp = obj["reparam"]
        require_keys(rp, ("type", "domain"), "a reparam")

        def num(key, default):
            return float(json_array(rp.get(key, default), f"reparam.{key}", ()))

        if rp["type"] == "affine":
            require_keys(rp, ("a",), "an affine reparam")
            jetf = affine_reparam(num("a", None), num("b", 0.0))
        elif rp["type"] == "sine":
            jetf = sine_reparam(num("a", 1.0), num("b", 0.0),
                                num("eps", 0.1), num("omega", 1.0))
        else:
            raise DomainError(f"unknown reparam type {rp['type']!r}")
        curve = reparametrized_curve(
            curve, jetf, json_array(rp["domain"], "reparam.domain", (2,)),
            name=curve.name)
    return curve
