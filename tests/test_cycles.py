import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jacobi.cycles import (
    AT_INFINITY,
    cycle_contains,
    cycle_through,
    is_flat,
    line_classify,
    mobius_fit,
)
from jacobi.errors import (
    NoFit,
    NotAdmissible,
    NotGeneralPosition,
    ZeroDirection,
)
from jacobi.curvature import ricci
from jacobi.geom import zeta_series
from jacobi.matcurve import (
    CurveJet,
    SampleGrid,
    SymmetricMatrixCurve,
    polynomial_curve,
    preset_curve,
    sample_curve,
    table_curve,
    transformed_curve,
)
from jacobi.symspace import (_maxabs, apply_symplectic, chart_translate_invert,
                             random_csp, symmetrize)
from jacobi.tolerances import FIT_TOL


# the line t D with D = [[1, 0.3], [0.3, 2]], as polynomial_curve's entries
LINE_ENTRIES = [[[0.0, 1.0], [0.0, 0.3]], [[0.0, 0.3], [0.0, 2.0]]]


def scalar_mobius_curve(a, b, c, d, direction, domain=(0.0, 1.0)):
    """((a t + b)/(c t + d)) * direction with closed-form derivatives."""
    direction = np.asarray(direction, dtype=float)
    det = a * d - b * c

    def evaluator(ts):
        den = c * ts + d
        f = (a * ts + b) / den
        f1 = det / den**2
        f2 = -2 * det * c / den**3
        f3 = 6 * det * c**2 / den**4
        return tuple(x[:, None, None] * direction for x in (f, f1, f2, f3))

    return SymmetricMatrixCurve(direction.shape[0], evaluator, domain,
                                kind="analytic", name="scalar-mobius")


class TestLineClassify:
    def test_invertible_direction_is_regular(self):
        assert line_classify(np.diag([1.0, 2.0])) == "regular"

    def test_rank_deficient_direction_is_singular(self):
        assert line_classify(np.diag([1.0, 0.0])) == "singular"
        assert line_classify(np.ones((2, 2))) == "singular"

    def test_scale_free(self):
        assert line_classify(1e-9 * np.diag([1.0, 2.0])) == "regular"

    @pytest.mark.parametrize("diag", [[1.0, 1e-7, 1e-7],
                                      [1.0, 1e-5, 1e-5, 1e-5]])
    def test_well_conditioned_direction_is_regular(self, diag):
        # condition numbers 1e7 and 1e5, far inside COND_MAX, although the
        # determinant is below ||d||^n / COND_MAX
        assert line_classify(np.diag(diag)) == "regular"

    def test_zero_direction_rejected(self):
        with pytest.raises(ZeroDirection):
            line_classify(np.zeros((2, 2)))


class TestIsFlat:
    def test_linear_curve_is_flat(self, unit_grid):
        c = polynomial_curve(
            [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 3.0]]],
            (-1.0, 2.0),
        )
        assert is_flat(sample_curve(c, unit_grid))

    def test_mobius_multiple_is_flat(self, unit_grid):
        c = scalar_mobius_curve(2.0, 1.0, 1.0, 3.0, np.diag([1.0, -1.0]))
        assert is_flat(sample_curve(c, unit_grid))

    def test_first_preset_is_not_flat(self, unit_grid):
        assert not is_flat(sample_curve(preset_curve("paper-6.2-ex1"),
                                         unit_grid))

    def test_velocity_is_factored_once(self, unit_grid, monkeypatch):
        # sample_curve's gate on S' is the only one
        calls = []

        def cholesky(a, _fn=np.linalg.cholesky):
            calls.append(a)
            return _fn(a)

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        c = scalar_mobius_curve(2.0, 1.0, 1.0, 3.0, np.diag([1.0, 2.0]))
        for curve in (c, preset_curve("paper-6.2-ex1")):
            calls.clear()
            is_flat(sample_curve(curve, unit_grid))
            assert len(calls) == 1

    def test_flat_curve_is_inadmissible(self, unit_grid):
        # definite direction: the Ricci data needs a monotone curve
        c = scalar_mobius_curve(2.0, 1.0, 1.0, 3.0, np.diag([1.0, 2.0]))
        with pytest.raises(NotAdmissible):
            zeta_series(ricci(sample_curve(c, unit_grid)))


class TestMobiusFit:
    def test_linear_curve(self, unit_grid):
        s1 = np.array([[2.0, 0.5], [0.5, 1.0]])
        c = scalar_mobius_curve(1.0, 0.0, 0.0, 1.0, s1, domain=(0.1, 1.5))
        jets = sample_curve(c, SampleGrid(0.2, 1.2, 11))
        (a, b, cc, d), direction, resid = mobius_fit(jets)
        assert resid <= 1e-8
        # the fitted map t -> (a t + b)/(c t + d) composed with the fitted
        # direction must reproduce lambda(t) * s1 = t * s1
        for t in (0.2, 0.7, 1.2):
            lam = (a * t + b) / (cc * t + d)
            assert np.max(np.abs(lam * direction - t * s1)) <= 1e-8

    def test_synthesized_coefficients_recovered(self):
        s1 = np.diag([1.0, -1.0])
        ref = (2.0, 1.0, 1.0, 3.0)
        c = scalar_mobius_curve(*ref, s1)
        jets = sample_curve(c, SampleGrid(0.0, 1.0, 21))
        coeffs, direction, resid = mobius_fit(jets)
        assert resid <= 1e-8
        # coefficients are projective: compare the rational map values
        a, b, cc, d = coeffs
        for t in np.linspace(0.0, 1.0, 7):
            lam = (a * t + b) / (cc * t + d)
            ref_lam = (ref[0] * t + ref[1]) / (ref[2] * t + ref[3])
            assert lam * np.max(direction) == pytest.approx(ref_lam, abs=1e-8)

    def test_non_flat_curve_rejected(self, unit_grid):
        # diag(I, 1e8 I) is conformal symplectic and maps S to 1e8 S: the
        # projection residual, over max|S|, rejects that image too
        ex1 = preset_curve("paper-6.2-ex1")
        for curve in (ex1, transformed_curve(ex1, np.diag([1, 1, 1e8, 1e8]))):
            jets = sample_curve(curve, SampleGrid(0.0, 1.0, 11))
            with pytest.raises(NoFit, match="not scalar multiples"):
                mobius_fit(jets)

    def test_too_few_samples(self):
        c = scalar_mobius_curve(1.0, 0.0, 0.0, 1.0, np.diag([1.0, 2.0]))
        jets = sample_curve(c, SampleGrid(0.1, 0.3, 7))
        with pytest.raises(NoFit):
            mobius_fit(jets[:3])

    @pytest.mark.filterwarnings("error")
    def test_samples_out_of_float_range(self):
        # sample differences past the largest float are a NoFit, not a
        # numeric warning; a line whose values near it fits
        orders = np.zeros((4, 7, 1, 1))
        orders[0, :, 0, 0] = [-1e308 + k * (1e308 / 3) for k in range(7)]
        with pytest.raises(NoFit, match="sample differences"):
            mobius_fit(CurveJet(np.linspace(0.0, 1.0, 7), orders))
        line = polynomial_curve([[[0.0, 1.0]]], (0.0, 1e300))
        _, _, resid = mobius_fit(sample_curve(line,
                                              SampleGrid(0.0, 1e300, 21)))
        assert resid <= FIT_TOL

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("span", [1.0, 1e3, 1e6, 1e8, 1e10])
    def test_lines_fit_at_any_span(self, span):
        # the residuals are over max(1, max|S|): an exact line t D fits
        # on [0, span], however long
        line = polynomial_curve(LINE_ENTRIES, (0.0, span))
        jets = sample_curve(line, SampleGrid(0.0, span, 201))
        (a, b, c, d), direction, resid = mobius_fit(jets)
        assert resid <= FIT_TOL
        fit = ((a * jets.t + b) / (c * jets.t + d))[:, None, None] * direction
        assert _maxabs(fit - jets.S) <= FIT_TOL * _maxabs(jets.S)

    def test_mobius_table_reads_roundoff(self):
        # three samples fix the map, so a table of exact values fits to
        # roundoff, whatever its stencil derivatives
        ts = np.linspace(0.0, 1.0, 201)
        s1 = np.array([[1.0, 0.3], [0.3, 2.0]])
        table = table_curve(ts, ((2 * ts + 1) / (ts + 3))[:, None, None] * s1)
        (a, b, c, d), direction, resid = mobius_fit(
            sample_curve(table, SampleGrid(0.0, 1.0, 201)))
        assert resid <= 1e-15
        # lambda = |D|_F^(-1) (2 t + 1)/(t + 3) with D = s1 / |s1|_F
        assert [b / a, d / c] == pytest.approx([0.5, 3.0], rel=1e-14)
        assert _maxabs(direction - s1 / np.linalg.norm(s1)) <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(float, 4, elements=st.floats(-2.0, 2.0)),
           st.floats(-4.0, 4.0), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_scalar_mobius_multiples_fit_under_rescaling(self, ref, log_a, n,
                                                         seed):
        # lambda(u) D with the pole of lambda at least 0.5 outside the
        # window u in [0, 1], sampled in t = a u: the fit holds at every a,
        # from the curve's jets and from a table of its values
        alpha, beta, gamma, delta = ref
        assume(abs(alpha * delta - beta * gamma) >= 0.2)
        # gamma u + delta keeps its sign on [-0.5, 1.5]
        assume((delta - 0.5 * gamma) * (delta + 1.5 * gamma) > 0)
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        ev = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n)
        s1 = symmetrize(q @ np.diag(ev) @ q.T)
        span = 10.0 ** log_a
        curve = scalar_mobius_curve(alpha / span, beta, gamma / span, delta,
                                    s1, domain=(0.0, span))
        grid = SampleGrid(0.0, span, 41)
        jets = sample_curve(curve, grid)
        table = table_curve(jets.t, jets.S)
        for j in (jets, sample_curve(table, grid)):
            (a, b, c, d), direction, resid = mobius_fit(j)
            assert resid <= FIT_TOL
            fit = (((a * j.t + b) / (c * j.t + d))[:, None, None]
                   * direction)
            assert _maxabs(fit - jets.S) <= 1e-8 * _maxabs(jets.S)

    @pytest.mark.xfail(strict=True, raises=NoFit, reason=(
        "known defect, ROADMAP item 20: the fit assumes one fixed direction, "
        "which holds only for a flat curve whose cycle passes through the "
        "chart's infinity; a csp image of a line is flat but not fitted"))
    def test_csp_image_of_a_line_is_fitted(self):
        g = random_csp(101, 0.5, 2, 0.3)
        line = transformed_curve(polynomial_curve(LINE_ENTRIES, (-1.0, 2.0)),
                                 g)
        jets = sample_curve(line, SampleGrid(0.0, 1.0, 201))
        assert is_flat(jets)
        _, _, resid = mobius_fit(jets)
        assert resid <= FIT_TOL


class TestCycleThrough:
    def test_worked_example(self):
        l1 = np.zeros((2, 2))
        l2 = np.eye(2)
        l3 = 2.0 * np.eye(2)
        cyc = cycle_through(l1, l2, l3)
        assert np.allclose(cyc.base, -0.5 * np.eye(2))
        assert np.allclose(cyc.direction, -0.5 * np.eye(2))
        assert cyc.regular

    def test_general_position_required(self):
        l1 = np.zeros((2, 2))
        l2 = np.diag([1.0, 0.0])  # l2 - l1 singular
        l3 = 2.0 * np.eye(2)
        with pytest.raises(NotGeneralPosition) as exc:
            cycle_through(l1, l2, l3)
        assert (exc.value.i, exc.value.j) == (1, 2)

    @pytest.mark.parametrize("l1,l2,l3,pair", [
        # l1 - l3 and l2 - l3 singular: (1, 3) is reported before (2, 3)
        (np.eye(2), 3.0 * np.eye(2), np.diag([1.0, 3.0]), (1, 3)),
        (np.zeros((2, 2)), np.eye(2), np.diag([2.0, 1.0]), (2, 3)),
    ])
    def test_first_failing_pair_is_reported(self, l1, l2, l3, pair):
        with pytest.raises(NotGeneralPosition) as exc:
            cycle_through(l1, l2, l3)
        assert (exc.value.i, exc.value.j) == pair

    def test_base_and_direction_are_the_recharted_points(self,
                                                         monkeypatch):
        # the (1, 3) and (2, 3) pairs are judged once, without a spectrum,
        # and inverted as chart_translate_invert inverts them
        l1 = np.array([[1.0, 0.2], [0.2, -0.5]])
        l2 = np.array([[2.5, -0.1], [-0.1, 0.3]])
        l3 = np.array([[-1.0, 0.4], [0.4, 2.0]])
        base, other = chart_translate_invert(np.stack([l1, l2]), l3)
        calls = []

        def eigvalsh(a, _fn=np.linalg.eigvalsh):
            calls.append(a)
            return _fn(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        cyc = cycle_through(l1, l2, l3)
        assert calls == []
        assert np.array_equal(cyc.base, base)
        assert np.array_equal(cyc.direction, other - base)

    def test_contains_generators_and_infinity(self):
        l1 = np.array([[1.0, 0.2], [0.2, -0.5]])
        l2 = np.array([[2.5, -0.1], [-0.1, 0.3]])
        l3 = np.array([[-1.0, 0.4], [0.4, 2.0]])
        cyc = cycle_through(l1, l2, l3)
        assert cycle_contains(cyc, l1)
        assert cycle_contains(cyc, l2)
        assert cycle_contains(cyc, l3)  # equals the adjoined infinity
        assert cycle_contains(cyc, AT_INFINITY)

    def test_point_not_transverse_to_infinity_is_not_member(self):
        # outside the chart of the line, and not infinity itself
        cyc = cycle_through(np.diag([1.0, 2.0]), np.diag([2.0, 3.0]),
                            np.zeros((2, 2)))
        assert cycle_contains(cyc, np.diag([2.0 / 3.0, 1.5]))
        assert not cycle_contains(cyc, np.diag([0.0, 5.0]))

    def test_fourth_flat_sample_lies_on_cycle(self):
        s1 = np.array([[1.5, 0.3], [0.3, 0.8]])
        c = scalar_mobius_curve(1.0, 1.0, 1.0, 4.0, s1)
        ts = [0.0, 0.3, 0.6, 1.0]
        pts = [c.jet(t).S for t in ts]
        cyc = cycle_through(pts[0], pts[1], pts[2])
        assert cycle_contains(cyc, pts[3], tol=1e-8)

    def test_uniqueness_over_sample_triples(self):
        # every 3-subset of general-position samples of one flat curve
        # must contain every other sample
        s1 = np.array([[2.0, -0.4], [-0.4, 1.2]])
        c = scalar_mobius_curve(3.0, 1.0, 1.0, 5.0, s1)
        ts = np.linspace(0.0, 1.0, 6)
        pts = [c.jet(t).S for t in ts]
        for i, j, k in itertools.combinations(range(6), 3):
            cyc = cycle_through(pts[i], pts[j], pts[k])
            for l in range(6):
                assert cycle_contains(cyc, pts[l], tol=1e-7), (i, j, k, l)

    def test_role_permutation_preserves_membership(self):
        l1 = np.array([[1.0, 0.2], [0.2, -0.5]])
        l2 = np.array([[2.5, -0.1], [-0.1, 0.3]])
        l3 = np.array([[-1.0, 0.4], [0.4, 2.0]])
        probe = cycle_through(l1, l2, l3)
        # a fourth point actually on the cycle, mapped back to the ambient
        # chart: S = S_infinity + (base + lambda * direction)^(-1)
        fourth = symmetrize(
            np.linalg.inv(probe.base + 0.5 * probe.direction) + l3
        )
        for a, b, c in itertools.permutations([l1, l2, l3]):
            cyc = cycle_through(a, b, c)
            assert cycle_contains(cyc, fourth, tol=1e-8)

    def test_membership_stable_under_group_action(self):
        l1 = np.array([[1.0, 0.2], [0.2, -0.5]])
        l2 = np.array([[2.5, -0.1], [-0.1, 0.3]])
        l3 = np.array([[-1.0, 0.4], [0.4, 2.0]])
        fourth = symmetrize(
            np.linalg.inv(
                cycle_through(l1, l2, l3).base
                + 0.25 * cycle_through(l1, l2, l3).direction
            )
            + l3
        )
        assert cycle_contains(cycle_through(l1, l2, l3), fourth, tol=1e-8)
        for seed in range(5):
            g = random_csp(seed, scale=0.5, n=2, ham_scale=0.3)
            gl = apply_symplectic(g, np.stack([l1, l2, l3, fourth]))
            cyc = cycle_through(gl[0], gl[1], gl[2])
            assert cycle_contains(cyc, gl[3], tol=1e-6), seed


class TestFlatCurvesUnderTransforms:
    def test_transformed_flat_curve_stays_flat(self, unit_grid):
        c = scalar_mobius_curve(2.0, 1.0, 1.0, 3.0, np.diag([1.0, -1.0]))
        for seed in range(3):
            g = random_csp(seed, scale=0.4, n=2, ham_scale=0.2)
            assert is_flat(sample_curve(transformed_curve(c, g), unit_grid),
                           tol=1e-6)
