import json
from itertools import zip_longest
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jacobi.cli import _json, main
from jacobi.errors import (DomainError, InvalidBasis, InvalidDimension,
                           InvalidTransform, MissingKey, NotInChart,
                           RegularityFailure, TooFewSamples)
from jacobi.matcurve import (
    PRESET_NAMES,
    STENCILS,
    SampleGrid,
    SymmetricMatrixCurve,
    affine_reparam,
    curve_from_json,
    curve_from_scalars,
    finite_diff,
    fourier_curve,
    polynomial_curve,
    preset_curve,
    reparametrized_curve,
    sample_curve,
    sine_reparam,
    spline,
    table_curve,
    table_json,
    transformed_curve,
)
from jacobi.matcurve import _exp_decay_entry, _mobius_entry
from jacobi.pipeline import analyze
from jacobi.symspace import (apply_symplectic, random_csp, symmetrize,
                             symplectic_form)

from .conftest import random_quartic


class TestFiniteDiff:
    def test_cubic_first_derivative(self):
        ts = np.arange(0.0, 2.05, 0.1)
        vals = [t**3 for t in ts]
        d = finite_diff(vals, 0.1, 1)
        i = int(round(1.0 / 0.1))
        assert d[i] == pytest.approx(3.0, abs=1e-8)

    def test_constant_series(self):
        vals = [np.full((2, 2), 4.2)] * 9
        for order in (1, 2):
            for m in finite_diff(vals, 0.3, order):
                assert np.allclose(m, 0.0, atol=1e-12)

    def test_sin_second_derivative(self):
        h = 0.01
        ts = np.arange(-0.05, 0.051, h)
        d = finite_diff([np.sin(t) for t in ts], h, 2)
        assert d[5] == pytest.approx(0.0, abs=1e-6)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            finite_diff([1.0, 2.0, 3.0], 0.1, 1)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_exact_on_low_degree_polynomials(self, order):
        # stencils of this width must differentiate degree-4 (orders 1-2)
        # and degree-3 (order 3) polynomials without truncation error,
        # including the one-sided boundary rows
        deg = 4 if order < 3 else 3
        rng = np.random.default_rng(order)
        coeffs = rng.normal(size=deg + 1)
        p = np.polynomial.Polynomial(coeffs)
        ts = np.linspace(0.3, 1.1, 9)
        d = finite_diff([p(t) for t in ts], ts[1] - ts[0], order)
        ref = p.deriv(order)
        for i, t in enumerate(ts):
            assert d[i] == pytest.approx(ref(t), abs=1e-8, rel=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_first_derivative_matches_analytic_path(self, seed):
        # cross-validation of the two derivative paths on a smooth curve
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.5, 2.0)
        grid = SampleGrid(0.0, 1.0, 41)
        cos = [[[1.0, 0.3], [0.0, 0.2]], [[0.0, 0.2], [0.5, -0.4]]]
        sin = [[[0.0, 0.5], [0.0, 0.1]], [[0.0, 0.1], [0.0, 0.6]]]
        c = fourier_curve(cos, sin, (-1.0, 2.0), omega=w)
        jets = sample_curve(c, grid, check_regular=False)
        d = finite_diff(jets.S, grid.h, 1)
        err = np.max(np.abs(d - jets.S1))
        assert err <= 50.0 * w**5 * grid.h**4

    @settings(max_examples=150, deadline=None)
    @given(st.integers(5, 12), st.sampled_from([(), (2, 2), (3, 3)]),
           st.sampled_from([1, 2, 3]), st.sampled_from([0.1, 1, 2.5e-3]),
           st.data())
    def test_edge_rows_equal_their_per_row_sums(self, m, tail, order, h,
                                                data):
        # the four one-sided rows at once give the bits of summing each
        # row on its own, as Python's sum does from 0, signed zeros too
        values = data.draw(hnp.arrays(float, (m,) + tail, elements=st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e3, 1e3))))
        got = finite_diff(values, h, order)
        assert got.tobytes() == finite_diff_reference(values, h,
                                                      order).tobytes()

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_edge_rows_keep_the_sign_of_a_zero(self, order):
        # every sign pattern of zeros on 5 and 6 nodes, among them those
        # whose edge-row terms are all -0.0: Python's sum from 0 gives
        # +0.0 there
        for m in (5, 6):
            for signs in np.ndindex((2,) * m):
                values = np.where(np.array(signs, bool), -0.0, 0.0)
                assert finite_diff(values, 0.5, order).tobytes() == (
                    finite_diff_reference(values, 0.5, order).tobytes())


def finite_diff_reference(values, h, order):
    """finite_diff with each edge row summed on its own."""
    st_, hk, sign = STENCILS[order], h**order, (-1.0) ** order
    values = np.asarray(values, dtype=float)
    m = len(values)

    def row_sum(vals, row, i):
        offsets, weights, denom = row
        return sum(w * vals[i + o] for o, w in zip(offsets, weights)) / (
            denom * hk)

    out = np.empty_like(values)
    for i in range(2, m - 2):
        out[i] = row_sum(values, st_["central"], i)
    for i in (0, 1):
        offsets, weights, denom = st_[f"left{i}"]
        out[i] = row_sum(values, (offsets, weights, denom), i)
        mirrored = (offsets, [sign * w for w in weights], denom)
        out[m - 1 - i] = row_sum(values[::-1], mirrored, i)
    return out


class TestSpline:
    """`spline` against scipy's CubicSpline, whose not-a-knot spline it
    reproduces with numpy alone."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 400), st.integers(0, 42), st.integers(0, 2**32 - 1))
    def test_matches_scipy(self, m, cols, seed):
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(seed)
        # spacings within a factor 2 of each other; 0 columns is a 1-D y
        x = rng.uniform(-5.0, 5.0) + (10.0 ** rng.uniform(-3.0, 1.0)
                                      * np.cumsum(rng.uniform(0.5, 1.0, m)))
        y = rng.normal(size=(m, cols) if cols else m) * 10.0 ** rng.uniform(
            -3.0, 3.0)
        # queries in an N-D array, up to one end interval outside each end
        q = rng.uniform(x[0], x[-1], (3, 4, 5))
        q[0, 0, :2] = x[0] - (x[1] - x[0]) * rng.uniform(0.0, 1.0, 2)
        q[0, 1, :2] = x[-1] + (x[-1] - x[-2]) * rng.uniform(0.0, 1.0, 2)
        got, want = spline(x, y)(q), CubicSpline(x, y)(q)
        assert got.shape == want.shape == q.shape + y.shape[1:]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(y))
        # a query at a node other than the last returns the sample
        assert np.array_equal(spline(x, y)(x[:-1]), y[:-1])

    @pytest.mark.parametrize("x,y", [
        (np.zeros((5, 2)), np.zeros(5)),
        (np.arange(3.0), np.zeros(3)),
        (np.arange(5.0), np.zeros(6)),
        (np.array([0.0, 1.0, np.nan, 3.0, 4.0]), np.zeros(5)),
        (np.arange(5.0), np.array([0.0, 1.0, np.inf, 3.0, 4.0])),
        (np.array([0.0, 1.0, 1.0, 3.0, 4.0]), np.zeros(5)),
        (np.array([0.0, 2.0, 1.0, 3.0, 4.0]), np.zeros((5, 2))),
    ], ids=["x-2d", "too-few", "lengths", "x-nan", "y-inf", "x-repeated",
            "x-decreasing"])
    def test_bad_input_rejected(self, x, y):
        with pytest.raises(ValueError):
            spline(x, y)


class TestSampleGrid:
    def test_bad_interval(self):
        with pytest.raises(DomainError):
            SampleGrid(1.0, 0.0, 11)

    def test_minimum_size(self):
        with pytest.raises(DomainError):
            SampleGrid(0.0, 1.0, 5)

    def test_points_and_spacing(self):
        g = SampleGrid(0.0, 1.0, 11)
        assert g.h == pytest.approx(0.1)
        assert g.points[0] == 0.0 and g.points[-1] == 1.0


class TestPresets:
    def test_names(self):
        for name in PRESET_NAMES:
            assert preset_curve(name).name == name

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            preset_curve("nope")

    def test_first_preset_velocity(self):
        # S'(t) = diag(e^(-2t), (1+t)^(-2))
        c = preset_curve("paper-6.2-ex1")
        jets = sample_curve(c, SampleGrid(0.0, 1.0, 101))
        assert jets.t.shape == (101,) and jets.S1.shape == (101, 2, 2)
        for t, s1 in zip(jets.t, jets.S1):
            ref = np.diag([np.exp(-2 * t), (1 + t) ** -2])
            assert np.allclose(s1, ref, atol=1e-12)

    def test_second_preset_velocity(self):
        c = preset_curve("paper-6.2-ex2")
        for t in (0.0, 0.4, 1.0):
            j = c.jet(t)
            ref = np.diag([(1 + t) ** -2, (np.cos(t) + np.sin(t)) ** -2])
            assert np.allclose(j.S1, ref, atol=1e-12)

    def test_preset_jets_match_finite_differences(self):
        for name in ("paper-6.2-ex1", "paper-6.2-ex2"):
            c = preset_curve(name)
            grid = SampleGrid(0.1, 0.9, 81)
            jets = sample_curve(c, grid)
            for order, attr in ((1, "S1"), (2, "S2")):
                d = finite_diff(jets.S, grid.h, order)
                err = np.max(np.abs(d - getattr(jets, attr))[2:-2])
                assert err < 1e-6, (name, order, err)

    def test_affine_line_jets(self):
        c = preset_curve("affine-line")
        j = c.jet(0.7)
        assert np.allclose(j.S, 0.7 * np.diag([1.0, 2.0]))
        assert np.allclose(j.S1, np.diag([1.0, 2.0]))
        assert np.allclose(j.S2, 0.0) and np.allclose(j.S3, 0.0)


def test_constant_curve_fails_regularity():
    c = SymmetricMatrixCurve(
        2,
        lambda ts: (np.broadcast_to(np.eye(2), (ts.size, 2, 2)),
                    *np.zeros((3, ts.size, 2, 2))),
        (0.0, 1.0),
    )
    with pytest.raises(RegularityFailure) as exc:
        sample_curve(c, SampleGrid(0.0, 1.0, 11))
    assert exc.value.t == 0.0


def test_regularity_is_scale_free(unit_grid):
    # c S is the image of S under the conformal map diag(I, c I), so a tiny
    # c must neither fail regularity (|det S'| falls below 1e-300 at
    # c = 1e-151) nor move the invariants
    k = analyze(random_quartic(0), unit_grid).reduced.curvatures()
    for c in (1e-151, 1e-160):
        k_scaled = analyze(random_quartic(0, scale=c),
                           unit_grid).reduced.curvatures()
        assert np.max(np.abs(k_scaled - k)) <= 1e-9


def test_out_of_domain():
    c = preset_curve("paper-6.2-ex1")
    with pytest.raises(DomainError):
        c.jet(100.0)
    with pytest.raises(DomainError):
        sample_curve(c, SampleGrid(0.0, 50.0, 11))


def test_jets_deterministic():
    c = preset_curve("paper-6.2-ex2")
    g = SampleGrid(0.0, 1.0, 31)
    a = sample_curve(c, g)
    b = sample_curve(c, g)
    assert np.array_equal(a.S, b.S)
    assert np.array_equal(a.S3, b.S3)


class TestPolynomialCurve:
    def test_matches_manual_evaluation(self):
        coeffs = [[[1.0, 2.0, 0.5], [0.0, 0.3]], [[0.0, 0.3], [0.0, 1.0, 0.0, 2.0]]]
        c = polynomial_curve(coeffs, (-1.0, 2.0))
        j = c.jet(0.5)
        assert j.S[0, 0] == pytest.approx(1 + 2 * 0.5 + 0.5 * 0.25)
        assert j.S1[1, 1] == pytest.approx(1.0 + 3 * 2.0 * 0.25)
        assert j.S3[1, 1] == pytest.approx(12.0)
        assert j.S2[0, 1] == pytest.approx(0.0)

    def test_entry_is_mean_of_the_two_triangles(self):
        # an upper-triangle-only matrix gets its off-diagonal halved
        c = polynomial_curve([[[0, 1], [0, 0, 1]], [[], [0, 2]]], (0.0, 2.0))
        assert c.jet(1.0).S[0, 1] == 0.5


class TestFourierCurve:
    def test_shorter_coefficient_list_is_zero_padded(self):
        cos = [[[0.0, 1.0, 0.5], [0.0]], [[0.0], [0.0]]]
        sin = [[[0.0, 0.0], [0.0]], [[0.0], [0.0]]]
        j = fourier_curve(cos, sin, (-1.0, 1.0)).jet(0.3, check_regular=False)
        assert j.S[0, 0] == pytest.approx(np.cos(0.3) + 0.5 * np.cos(0.6))
        assert j.S3[0, 0] == pytest.approx(np.sin(0.3) + 4.0 * np.sin(0.6))


class TestTableCurve:
    def test_derivatives_from_samples(self):
        ts = np.linspace(0.0, 1.0, 101)
        vals = [np.diag([np.exp(t), np.exp(2 * t)]) for t in ts]
        c = table_curve(ts, vals)
        j = c.jet(ts[50])
        assert j.S1[0, 0] == pytest.approx(np.exp(ts[50]), abs=1e-7)
        assert j.S2[1, 1] == pytest.approx(4 * np.exp(2 * ts[50]), abs=1e-4)
        assert j.S3[0, 0] == pytest.approx(np.exp(ts[50]), abs=1e-5)

    def test_only_nodes_evaluable(self):
        ts = np.linspace(0.0, 1.0, 11)
        c = table_curve(ts, [t * np.eye(2) for t in ts])
        with pytest.raises(DomainError):
            c.jet(0.123)
        # a series names its earliest query off the nodes
        with pytest.raises(DomainError, match=r"^t=0\.123 is not"):
            c.jets([0.1, 0.123, 0.5, 0.456])

    def test_asymmetric_samples_rejected(self):
        # they were once averaged: [[t, 5], [0, .]] loaded as [[t, 2.5], ...]
        ts = np.linspace(0.0, 1.0, 11)
        vals = [np.array([[t, 5.0], [0.0, 2 * t + t * t]]) for t in ts]
        with pytest.raises(InvalidBasis, match="asymmetry 5 exceeds"):
            table_curve(ts, vals)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_non_finite_sample_names_its_node(self, value, entry):
        # it once raised "asymmetry nan" after a RuntimeWarning (warnings
        # are errors here); a later asymmetric sample does not win
        ts = np.linspace(-0.05, 1.05, 221)
        S = preset_curve("paper-6.2-ex1").jets(ts).S
        S[100][entry] = value
        S[150, 0, 1] += 1.0
        with pytest.raises(InvalidBasis) as e:
            table_curve(ts, S)
        assert str(e.value) == f"sample not finite at t={float(ts[100])!r}"
        # an earlier asymmetric sample does
        S[50, 0, 1] += 1.0
        with pytest.raises(InvalidBasis, match="^asymmetry 1 exceeds"):
            table_curve(ts, S)

    def test_samples_are_copied(self):
        # symmetric samples are not averaged into a new array, so the table
        # copies them: a later write to the caller's array is not seen
        ts = np.linspace(0.0, 1.0, 11)
        vals = np.array([t * np.eye(2) for t in ts])
        c = table_curve(ts, vals)
        vals[5] = 0.0
        assert np.array_equal(c.jet(ts[5]).S, ts[5] * np.eye(2))

    def test_nonuniform_rejected(self):
        ts = np.array([0.0, 0.1, 0.25, 0.3, 0.4, 0.5, 0.6])
        with pytest.raises(DomainError):
            table_curve(ts, [t * np.eye(2) for t in ts])


class TestTransformedCurve:
    @pytest.mark.parametrize("seed", range(6))
    def test_jets_match_finite_differences(self, seed):
        base = preset_curve("paper-6.2-ex1")
        g = random_csp(seed, scale=1.0 + 0.3 * seed, n=2, ham_scale=0.3)
        tc = transformed_curve(base, g)
        grid = SampleGrid(0.2, 0.8, 61)
        jets = sample_curve(tc, grid, check_regular=False)
        # the order-3 five-point stencil is only O(h^2), hence the wider gate
        for order, attr, tol in ((1, "S1", 1e-5), (2, "S2", 1e-4),
                                 (3, "S3", 2e-2)):
            d = finite_diff(jets.S, grid.h, order)
            # skip the one-sided boundary rows; compare interior only
            err = np.max(np.abs(d - getattr(jets, attr))[2:-2])
            assert err < tol, (seed, order, err)

    def test_map_must_be_conformal_symplectic(self):
        base = preset_curve("paper-6.2-ex1")
        g = np.eye(4)
        g[0, 1] = 0.3
        with pytest.raises(InvalidTransform):
            transformed_curve(base, g)
        with pytest.raises(InvalidDimension):
            transformed_curve(base, np.eye(6))

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_apply_symplectic_gives_the_image_points(self, n):
        # one formula, (R + T S)(P + Q S)^(-1), for a point and for a curve
        base, ts = random_quartic(n, n), np.linspace(0.0, 1.0, 41)
        for seed in range(3):
            g = random_csp(seed, scale=0.7, n=n, ham_scale=0.3)
            image = transformed_curve(base, g).jets(ts, check_regular=False)
            assert np.array_equal(apply_symplectic(g, base.jets(ts).S),
                                  image.S)

    def test_leaving_the_chart_at_a_sample_is_not_in_chart(self):
        # S(0) = 0, so P + Q S = 0 at t = 0 under J: the third sample
        tc = transformed_curve(preset_curve("paper-6.2-ex1"), symplectic_form(2))
        with pytest.raises(NotInChart, match=r"at t=0\.0:"):
            tc.jets(np.linspace(-0.5, 1.0, 7))
        with pytest.raises(NotInChart, match=r"at t=0\.0:"):
            analyze(tc, SampleGrid(0.0, 1.0, 21))

    def test_an_ill_conditioned_chart_is_not_in_chart(self, tmp_path,
                                                       capsys):
        # g swaps the first coordinate pair, so P + Q S = diag(S_11, 1):
        # cond 1.0e14 at t = 1e-14, above COND_MAX but with a nonzero LU
        # pivot.  The image leaves the chart by apply_symplectic's
        # condition rule, not as a curve with an S_11 of -1e14
        g = np.block([[np.diag([0.0, 1.0]), np.diag([1.0, 0.0])],
                      [np.diag([-1.0, 0.0]), np.diag([0.0, 1.0])]])
        base = preset_curve("paper-6.2-ex1")
        with pytest.raises(NotInChart):
            apply_symplectic(g, base.jet(1e-14).S)
        tc = transformed_curve(base, g)
        for check_regular in (False, True):
            with pytest.raises(NotInChart, match=r"at t=1e-14:"):
                tc.jets([1e-14], check_regular)
        with pytest.raises(NotInChart, match=r"at t=1e-14:"):
            analyze(tc, SampleGrid(1e-14, 1.0, 21))
        f = tmp_path / "curve.json"
        f.write_text(json.dumps({"n": 2, "kind": "preset",
                                 "name": "paper-6.2-ex1",
                                 "transform": g.tolist()}))
        code = main(["analyze", str(f), "--t0", "1e-14", "--t1", "1"])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "NotInChart"

    def test_image_of_a_table_keeps_its_nodes(self):
        # the parameter is unchanged, so the image is known at the nodes
        ts = np.linspace(0.0, 1.0, 11)
        table = table_curve(ts, [np.diag([t, 2 * t + t * t]) for t in ts])
        g = random_csp(3, 0.5, 2, 0.2)
        moved = transformed_curve(table, g)
        assert moved.table_ts is table.table_ts
        assert transformed_curve(preset_curve("paper-6.2-ex1"),
                                 g).table_ts is None
        assert reparametrized_curve(table, affine_reparam(1.0, 0.0),
                                    (0.0, 1.0)).table_ts is None


class TestReparametrizedCurve:
    def test_affine(self):
        base = preset_curve("paper-6.2-ex1")
        rc = reparametrized_curve(base, affine_reparam(2.0, 0.1), (0.0, 0.4))
        j = rc.jet(0.2)
        jb = base.jet(0.5)
        assert np.allclose(j.S, jb.S)
        assert np.allclose(j.S1, 2.0 * jb.S1)
        assert np.allclose(j.S2, 4.0 * jb.S2)
        assert np.allclose(j.S3, 8.0 * jb.S3)

    def test_sine_jets_match_finite_differences(self):
        base = preset_curve("paper-6.2-ex2")
        rc = reparametrized_curve(
            base, sine_reparam(a=1.0, eps=0.05, omega=3.0), (0.1, 0.9)
        )
        grid = SampleGrid(0.15, 0.85, 71)
        jets = sample_curve(rc, grid, check_regular=False)
        d = finite_diff(jets.S, grid.h, 1)
        err = np.max(np.abs(d - jets.S1)[2:-2])
        assert err < 1e-6


class TestJsonLoading:
    def test_preset_kind(self):
        c = curve_from_json({"n": 2, "kind": "preset", "name": "affine-line",
                             "domain": [0.0, 1.0]})
        assert c.name == "affine-line"
        assert c.domain == (0.0, 1.0)

    def test_polynomial_kind(self):
        obj = {
            "n": 2,
            "kind": "polynomial",
            "entries": [[[0.0, 1.0], [0.0]], [[0.0], [0.0, 2.0]]],
            "domain": [-1.0, 1.0],
        }
        c = curve_from_json(obj)
        assert np.allclose(c.jet(0.5).S, 0.5 * np.diag([1.0, 2.0]))

    def test_table_roundtrip(self):
        c = preset_curve("paper-6.2-ex1")
        grid = SampleGrid(0.0, 1.0, 51)
        S = sample_curve(c, grid, check_regular=False).S
        obj = table_json(grid.points, S, c.name)
        c2 = curve_from_json(json.loads(_json(obj)))
        assert c2.kind == "table" and c2.name == c.name
        assert np.allclose(c2.jet(grid.points[10]).S, c.jet(grid.points[10]).S)

    def test_table_json_writes_chart_exits_as_null(self):
        ts = np.linspace(0.0, 1.0, 3)
        S = np.stack([np.eye(2), np.full((2, 2), np.nan), 2 * np.eye(2)])
        obj = json.loads(_json(table_json(ts, S, None)))
        assert obj["n"] == 2 and obj["domain"] == [0.0, 1.0]
        assert obj["samples"]["S"] == [np.eye(2).tolist(), None,
                                       (2 * np.eye(2)).tolist()]

    @pytest.mark.parametrize("exit_at", [None, 57])
    def test_table_json_bytes_equal_the_per_sample_list(self, exit_at):
        # without chart exits the samples are handed over as one array,
        # with them as the list of samples; the written bytes are those
        # of the list either way
        rng = np.random.default_rng(3)
        ts, S = np.linspace(0.0, 1.0, 201), rng.normal(size=(201, 2, 2))
        if exit_at is not None:
            S[exit_at] = np.nan
        obj = table_json(ts, S, "t")
        assert (obj["samples"]["S"] is S) == (exit_at is None)
        ref = dict(obj, samples={"t": ts, "S": [
            None if np.isnan(s).all() else s for s in S]})
        assert _json(obj) == _json(ref)

    def test_transform_extension(self):
        g = random_csp(5, scale=1.0, n=2, ham_scale=0.2)
        obj = {"n": 2, "kind": "preset", "name": "paper-6.2-ex1",
               "domain": [0.0, 1.0], "transform": g.tolist()}
        c = curve_from_json(obj)
        ref = transformed_curve(preset_curve("paper-6.2-ex1"), g)
        assert np.allclose(c.jet(0.3).S, ref.jet(0.3).S)

    def test_n_must_match_the_curve(self):
        obj = {"n": 3, "kind": "polynomial",
               "entries": [[[0.0, 1.0], [0.0]], [[0.0], [0.0, 2.0]]],
               "domain": [0.0, 1.0]}
        with pytest.raises(InvalidDimension, match="n is 3"):
            curve_from_json(obj)
        with pytest.raises(InvalidDimension, match="n is 3"):
            curve_from_json({"n": 3, "kind": "preset",
                             "name": "paper-6.2-ex1"})

    def test_n_may_be_absent(self):
        obj = {"kind": "polynomial",
               "entries": [[[0.0, 1.0], [0.0]], [[0.0], [0.0, 2.0]]],
               "domain": [0.0, 1.0]}
        assert curve_from_json(obj).n == 2

    @pytest.mark.parametrize("t,S", [
        (np.linspace(0, 1, 9), np.zeros((8, 2, 2))),
        (np.linspace(0, 1, 9), np.zeros((9, 2, 3))),
        (np.linspace(0, 1, 9), np.zeros(9)),
        (np.zeros((9, 1)), np.zeros((9, 2, 2))),
    ])
    def test_table_sample_shapes_checked(self, t, S):
        with pytest.raises(InvalidDimension, match="shape"):
            curve_from_json({"kind": "table", "samples": {
                "t": t.tolist(), "S": S.tolist()}})

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            curve_from_json({"n": 2, "kind": "mystery", "domain": [0, 1]})

    @pytest.mark.parametrize("obj,key", [
        ({"kind": "polynomial", "entries": [[[0, 1]]]}, "domain"),
        ({"kind": "preset"}, "name"),
        ({"kind": "fourier", "entries": {"cos": [[[0, 1]]]},
          "domain": [0, 1]}, "entries.sin"),
        ({"kind": "table", "samples": {"t": [0, 1]}}, "samples.S"),
        ({"kind": "preset", "name": "paper-6.2-ex1",
          "reparam": {"type": "affine", "domain": [0, 1]}}, "a"),
        ({"kind": "preset", "name": "paper-6.2-ex1",
          "reparam": {"type": "sine"}}, "domain"),
    ])
    def test_missing_key_is_named(self, obj, key):
        with pytest.raises(MissingKey, match=f"'{key}'"):
            curve_from_json(obj)

    PRESET = {"kind": "preset", "name": "paper-6.2-ex1"}
    FOURIER = {"kind": "fourier", "entries": {"cos": [[[0.0, 1.0]]],
                                              "sin": [[[0.0, 1.0]]]}}

    @pytest.mark.parametrize("obj,key", [
        ({**PRESET, "domain": [0, "b"]}, "domain"),
        ({**PRESET, "domain": [0, 1, 2]}, "domain"),
        ({**FOURIER, "domain": 1.0}, "domain"),
        ({**FOURIER, "domain": [0, 1], "omega": "fast"}, "omega"),
        ({**PRESET, "reparam": {"type": "affine", "domain": [0, 1],
                                "a": [2]}}, "reparam.a"),
        ({**PRESET, "reparam": {"type": "affine", "domain": [0, 1],
                                "a": 1, "b": None}}, "reparam.b"),
        ({**PRESET, "reparam": {"type": "sine", "domain": [0, 1],
                                "eps": "x"}}, "reparam.eps"),
        ({**PRESET, "reparam": {"type": "sine", "domain": [0, 1],
                                "omega": {}}}, "reparam.omega"),
        ({**PRESET, "reparam": {"type": "sine", "domain": ["u", 1]}},
         "reparam.domain"),
    ])
    def test_scalar_not_a_number_is_named(self, obj, key):
        with pytest.raises(InvalidDimension, match=f"^{key} "):
            curve_from_json(obj)

    def test_top_level_must_be_an_object(self):
        for obj in ([1, 2], 3.0, None):
            with pytest.raises(InvalidDimension, match="JSON object"):
                curve_from_json(obj)


def test_preset_domain_is_set_before_reparam():
    # the preset's "domain" bounds t; the reparam's "domain" bounds u
    obj = {"n": 2, "kind": "preset", "name": "paper-6.2-ex1",
           "domain": [0, 1],
           "reparam": {"type": "affine", "a": 0.5, "domain": [0, 2]}}
    c = curve_from_json(obj)
    assert c.domain == (0.0, 2.0)
    jets = sample_curve(c, SampleGrid(0.0, 2.0, 21))
    ref = sample_curve(preset_curve("paper-6.2-ex1"), SampleGrid(0.0, 1.0, 21))
    assert np.allclose(jets.S, ref.S)
    # t = 10 u leaves the preset's [0, 1] past u = 0.1
    obj["reparam"] = {"type": "affine", "a": 10, "domain": [0, 0.2]}
    c = curve_from_json(obj)
    assert c.domain == (0.0, 0.2)
    sample_curve(c, SampleGrid(0.0, 0.1, 11))
    with pytest.raises(DomainError, match="outside domain"):
        sample_curve(c, SampleGrid(0.0, 0.2, 11))


@pytest.mark.parametrize("m", [1, 2, 5])
def test_evaluator_must_return_stacked_jets(m):
    # (n, n) matrices for a vector of m parameters are rejected, also when
    # m = n and they would broadcast
    c = SymmetricMatrixCurve(2, lambda ts: (np.eye(2),) * 4, (0.0, 1.0))
    with pytest.raises(InvalidDimension):
        c.jets(np.linspace(0.0, 1.0, m))


class TestVectorisedEvaluators:
    """`jets` on a parameter vector equals, bit for bit, the jets of the
    per-t evaluators below, symmetrized one t at a time; scalar entries and
    psi are called on one-element arrays there."""

    @staticmethod
    def per_t(evaluator, ts):
        rows = [[symmetrize(np.asarray(a, dtype=float))
                 for a in evaluator(float(t))] for t in ts]
        return [np.array(mats) for mats in zip(*rows)]

    @staticmethod
    def polynomial_ref(coeffs):
        n = len(coeffs)
        polys = {}
        for i in range(n):
            for j in range(n):
                c = coeffs[i][j] if j < len(coeffs[i]) else []
                polys[(i, j)] = np.polynomial.Polynomial(c if len(c) else [0.0])
        derivs = [{k: p.deriv(m) if m else p for k, p in polys.items()}
                  for m in range(4)]

        def evaluator(t):
            out = []
            for m in range(4):
                mat = np.empty((n, n))
                for (i, j), p in derivs[m].items():
                    mat[i, j] = p(t)
                out.append(0.5 * (mat + mat.T))
            return tuple(out)

        return evaluator

    @staticmethod
    def fourier_ref(cos_coeffs, sin_coeffs, omega):
        n = len(cos_coeffs)

        def entry_jet(i, j, t):
            vals = np.zeros(4)
            # the shorter of the cos and sin lists is padded with zeros
            for k, (ak, bk) in enumerate(zip_longest(
                    cos_coeffs[i][j], sin_coeffs[i][j], fillvalue=0.0)):
                w = k * omega
                c, s = np.cos(w * t), np.sin(w * t)
                vals[0] += ak * c + bk * s
                vals[1] += w * (-ak * s + bk * c)
                vals[2] += w**2 * (-ak * c - bk * s)
                vals[3] += w**3 * (ak * s - bk * c)
            return vals

        def evaluator(t):
            mats = [np.empty((n, n)) for _ in range(4)]
            for i in range(n):
                for j in range(n):
                    vals = entry_jet(i, j, t)
                    for m in range(4):
                        mats[m][i, j] = vals[m]
            return tuple(0.5 * (m + m.T) for m in mats)

        return evaluator

    @staticmethod
    def one_element(jet, t):
        # the contract of scalar entries and psi: called on a parameter
        # array, here of one element; a scalar return is broadcast
        return [np.full(1, v, dtype=float) for v in jet(np.array([t]))]

    @classmethod
    def scalars_ref(cls, entries):
        def evaluator(t):
            jets = [cls.one_element(e, t) for e in entries]
            return tuple(np.diag([j[k][0] for j in jets]) for k in range(4))

        return evaluator

    @staticmethod
    def symmetric_jet(evaluator):
        # the inner jet of the per-t composites: the symmetrized evaluator
        return lambda t: [symmetrize(np.asarray(a, dtype=float))
                          for a in evaluator(t)]

    @classmethod
    def transformed_ref(cls, inner, g, n):
        """The congruence form of `transformed_curve`, one t at a time."""
        inner = cls.symmetric_jet(inner)
        P, Q = g[:n, :n], g[:n, n:]
        R, T = g[n:, :n], g[n:, n:]
        half_s = 0.5 * np.trace(P.T @ T - R.T @ Q) / n

        def evaluator(t):
            S, S1, S2, S3 = inner(t)
            K = np.linalg.inv(P + Q @ S)
            Sg = (R + T @ S) @ K

            def congruent(a):
                c = K.T @ a @ K
                return half_s * (c + c.T)

            U = K @ Q
            US1 = U @ S1
            H = S1 @ US1
            G2 = S2 - H - H.T
            A = S2 @ ((2 * U + U.T) @ S1) - (2 * H + H.T) @ US1
            return (0.5 * (Sg + Sg.T), congruent(S1), congruent(G2),
                    congruent(S3 - A - A.T))

        return evaluator

    @classmethod
    def product_rule_ref(cls, inner, g, n):
        """Sg = Y X^(-1) differentiated by the product rule, Z = X^(-1),
        Z' = -Z X' Z and so on: the independent reference of
        test_transformed_matches_product_rule."""
        inner = cls.symmetric_jet(inner)
        P, Q = g[:n, :n], g[:n, n:]
        R, T = g[n:, :n], g[n:, n:]

        def evaluator(t):
            S = inner(t)
            X = [P + Q @ S[0], Q @ S[1], Q @ S[2], Q @ S[3]]
            Y = [R + T @ S[0], T @ S[1], T @ S[2], T @ S[3]]
            Z0 = np.linalg.solve(X[0], np.eye(n))
            Z1 = -Z0 @ X[1] @ Z0
            Z2 = -(Z1 @ X[1] @ Z0 + Z0 @ X[2] @ Z0 + Z0 @ X[1] @ Z1)
            Z3 = -(
                Z2 @ X[1] @ Z0 + Z1 @ X[2] @ Z0 + Z1 @ X[1] @ Z1
                + Z1 @ X[2] @ Z0 + Z0 @ X[3] @ Z0 + Z0 @ X[2] @ Z1
                + Z1 @ X[1] @ Z1 + Z0 @ X[2] @ Z1 + Z0 @ X[1] @ Z2
            )
            Z = [Z0, Z1, Z2, Z3]
            out = []
            for m in range(4):
                acc = sum(comb(m, k) * Y[k] @ Z[m - k] for k in range(m + 1))
                out.append(0.5 * (acc + acc.T))
            return tuple(out)

        return evaluator

    @classmethod
    def reparametrized_ref(cls, inner, psi_jet):
        inner = cls.symmetric_jet(inner)

        def evaluator(u):
            p, p1, p2, p3 = cls.one_element(psi_jet, u)
            S, S1, S2, S3 = inner(p[0])
            return (S, p1 * S1, p2 * S1 + p1**2 * S2,
                    p3 * S1 + 3 * p1 * p2 * S2 + p1**3 * S3)

        return evaluator

    def assert_bitwise(self, curve, evaluator, ts):
        jets = curve.jets(ts, check_regular=False)
        for got, want in zip((jets.S, jets.S1, jets.S2, jets.S3),
                             self.per_t(evaluator, ts)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    coefficient = st.floats(-3.0, 3.0, allow_subnormal=False)
    entry = st.lists(coefficient, max_size=6)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3]), st.data())
    def test_polynomial_ragged_and_empty(self, n, data):
        rows = st.lists(self.entry, max_size=n)
        coeffs = data.draw(st.lists(rows, min_size=n, max_size=n))
        ts = np.linspace(data.draw(st.floats(-2.0, 0.0)),
                         data.draw(st.floats(0.1, 2.0)),
                         data.draw(st.integers(1, 30)))
        self.assert_bitwise(polynomial_curve(coeffs, (-2.0, 2.0)),
                            self.polynomial_ref(coeffs), ts)

    def test_polynomial_differentiated_away(self):
        # a derivative of an entry shorter than its order is the signed zero
        # of the entry's constant term, as for the entry on its own
        coeffs = [[[-1.5, 2.0], [0.5, -1.0, 0.25, 2.0, -0.75]],
                  [[-0.5, 1.0, 3.0, -2.0]]]
        self.assert_bitwise(polynomial_curve(coeffs, (-2.0, 2.0)),
                            self.polynomial_ref(coeffs),
                            np.linspace(-1.0, 1.0, 9))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3]), st.floats(0.3, 4.0), st.data())
    def test_fourier(self, n, omega, data):
        block = st.lists(st.lists(self.entry, min_size=n, max_size=n),
                         min_size=n, max_size=n)
        cos_c, sin_c = data.draw(block), data.draw(block)
        ts = np.linspace(-1.5, 1.5, data.draw(st.integers(1, 30)))
        self.assert_bitwise(fourier_curve(cos_c, sin_c, (-2.0, 2.0), omega),
                            self.fourier_ref(cos_c, sin_c, omega), ts)

    @classmethod
    def bases(cls, seed):
        """A random quartic and the first preset, each with its reference."""
        rng = np.random.default_rng(seed)
        coeffs = [[list(rng.normal(size=5)) for _ in range(2)]
                  for _ in range(2)]
        return [
            (polynomial_curve(coeffs, (-5.0, 5.0)), cls.polynomial_ref(coeffs)),
            (preset_curve("paper-6.2-ex1"),
             cls.scalars_ref([_exp_decay_entry, _mobius_entry])),
        ]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.3, 2.0), st.floats(0.05, 0.5))
    def test_transformed_by_random_csp(self, seed, scale, ham_scale):
        g = random_csp(seed, scale=scale, n=2, ham_scale=ham_scale)
        ts = np.linspace(0.0, 1.0, 17)
        for base, ref in self.bases(seed):
            self.assert_bitwise(transformed_curve(base, g),
                                self.transformed_ref(ref, g, 2), ts)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([2, 3, 4, 6]),
           st.floats(0.3, 2.0), st.booleans(), st.floats(0.05, 0.5))
    def test_transformed_matches_product_rule(self, seed, n, scale, negative,
                                              ham_scale):
        # a negative conformal scale makes the image's velocity negative
        # definite; the two forms agree to roundoff (worst seen 3e-15)
        g = random_csp(seed, scale=-scale if negative else scale, n=n,
                       ham_scale=ham_scale)
        base = random_quartic(seed, n=n)
        ts = np.linspace(0.0, 1.0, 17)
        jets = transformed_curve(base, g).jets(ts, check_regular=False)

        def inner(t):
            j = base.jet(t, check_regular=False)
            return j.S, j.S1, j.S2, j.S3

        want = self.per_t(self.product_rule_ref(inner, g, n), ts)
        for got, ref in zip((jets.S, jets.S1, jets.S2, jets.S3), want):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.2, 2.0), st.floats(0.4, 1.0),
           st.one_of(st.just(0), st.integers(1, 2)))
    def test_affine_reparametrized(self, seed, a, b, int_a):
        # an integer slope, as JSON may give it, scales like its float
        psi = affine_reparam(int_a or a, b)
        ts = np.linspace(0.0, 1.0, 17)
        for base, ref in self.bases(seed):
            self.assert_bitwise(reparametrized_curve(base, psi, (0.0, 1.0)),
                                self.reparametrized_ref(ref, psi), ts)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.5, 2.0), st.floats(0.4, 1.0),
           st.floats(0.0, 0.3), st.floats(0.5, 5.0))
    def test_sine_reparametrized(self, seed, a, b, eps, omega):
        psi = sine_reparam(a, b, eps, omega)
        ts = np.linspace(0.0, 1.0, 17)
        for base, ref in self.bases(seed):
            self.assert_bitwise(reparametrized_curve(base, psi, (0.0, 1.0)),
                                self.reparametrized_ref(ref, psi), ts)


def test_evaluator_error_comes_before_the_gates():
    # the constant table fails regularity at its first node, but the query
    # also holds a parameter off the nodes: the evaluator's error is raised
    ts = np.linspace(0.0, 1.0, 11)
    c = table_curve(ts, [np.eye(2)] * 11)
    with pytest.raises(RegularityFailure):
        c.jets(ts[:3])
    with pytest.raises(DomainError, match="not a table node"):
        c.jets([ts[0], 0.123])


class TestJetSymmetry:
    """jets judges each jet's asymmetry only where a stack differs from its
    transpose in its bits, and symmetrizes only such a stack."""

    @staticmethod
    def curve(order, samples, eps):
        """S = t diag(1, 2) with eps added above the diagonal of the jet of
        the given order at the given samples."""
        def evaluator(ts):
            mats = [ts[:, None, None] * np.diag([1.0, 2.0]),
                    *np.zeros((3, ts.size, 2, 2))]
            mats[1] = mats[1] + np.diag([1.0, 2.0])
            mats[order][samples, 0, 1] += eps
            return tuple(mats)

        return SymmetricMatrixCurve(2, evaluator, (0.0, 1.0))

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_asymmetric_jet_rejected_at_its_earliest_sample(self, order):
        ts = np.linspace(0.0, 1.0, 9)
        with pytest.raises(InvalidBasis, match="^asymmetry 1 exceeds"):
            self.curve(order, [3, 5], 1.0).jets(ts)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_roundoff_asymmetry_is_averaged(self, order):
        ts = np.linspace(0.0, 1.0, 9)
        c = self.curve(order, [3, 5], 1e-12)
        raw = c._eval(ts)
        j = c.jets(ts)
        for k, (got, a) in enumerate(zip((j.S, j.S1, j.S2, j.S3), raw)):
            want = 0.5 * (a + a.swapaxes(-1, -2)) if k == order else a
            assert got.tobytes() == want.tobytes()
