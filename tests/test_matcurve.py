import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobi.errors import DomainError, RegularityFailure, TooFewSamples
from jacobi.matcurve import (
    PRESET_NAMES,
    SampleGrid,
    SymmetricMatrixCurve,
    affine_reparam,
    curve_from_json,
    curve_from_scalars,
    curve_to_table_json,
    finite_diff,
    fourier_curve,
    polynomial_curve,
    preset_curve,
    reparametrized_curve,
    sample_curve,
    sine_reparam,
    table_curve,
    transformed_curve,
)
from jacobi.symspace import random_csp


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
        lambda t: (np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)),
                   np.zeros((2, 2))),
        (0.0, 1.0),
    )
    with pytest.raises(RegularityFailure) as exc:
        sample_curve(c, SampleGrid(0.0, 1.0, 11))
    assert exc.value.t == 0.0


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
        obj = curve_to_table_json(c, grid)
        c2 = curve_from_json(json.loads(json.dumps(obj)))
        assert c2.kind == "table"
        assert np.allclose(c2.jet(grid.points[10]).S, c.jet(grid.points[10]).S)

    def test_transform_extension(self):
        g = random_csp(5, scale=1.0, n=2, ham_scale=0.2)
        obj = {"n": 2, "kind": "preset", "name": "paper-6.2-ex1",
               "domain": [0.0, 1.0], "transform": g.tolist()}
        c = curve_from_json(obj)
        ref = transformed_curve(preset_curve("paper-6.2-ex1"), g)
        assert np.allclose(c.jet(0.3).S, ref.jet(0.3).S)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            curve_from_json({"n": 2, "kind": "mystery", "domain": [0, 1]})
