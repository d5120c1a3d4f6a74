import itertools

import numpy as np
import pytest

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
    SampleGrid,
    SymmetricMatrixCurve,
    polynomial_curve,
    preset_curve,
    sample_curve,
    transformed_curve,
)
from jacobi.symspace import (apply_symplectic, chart_translate_invert,
                             random_csp, symmetrize)


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
        assert is_flat(c, unit_grid)

    def test_mobius_multiple_is_flat(self, unit_grid):
        c = scalar_mobius_curve(2.0, 1.0, 1.0, 3.0, np.diag([1.0, -1.0]))
        assert is_flat(c, unit_grid)

    def test_first_preset_is_not_flat(self, unit_grid):
        assert not is_flat(preset_curve("paper-6.2-ex1"), unit_grid)

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
            is_flat(curve, unit_grid)
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
        jets = sample_curve(preset_curve("paper-6.2-ex1"),
                            SampleGrid(0.0, 1.0, 11))
        with pytest.raises(NoFit):
            mobius_fit(jets)

    def test_too_few_samples(self):
        c = scalar_mobius_curve(1.0, 0.0, 0.0, 1.0, np.diag([1.0, 2.0]))
        jets = sample_curve(c, SampleGrid(0.1, 0.3, 7))
        with pytest.raises(NoFit):
            mobius_fit(jets[:3])


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
            assert is_flat(transformed_curve(c, g), unit_grid, tol=1e-6)
