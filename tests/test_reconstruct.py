import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobi import reconstruct
from jacobi.errors import (InvalidDimension, JacobiError, MissingKey,
                           NotInChart, StepTooCoarse, SymplecticityLoss)
from jacobi.frames import cartan_matrix, equivalent_reduced
from jacobi.matcurve import (STENCIL_3_WIDE, SampleGrid, _stencil,
                             finite_diff, preset_curve)
from jacobi.pipeline import analyze
from jacobi.reconstruct import (
    InvariantPrescription,
    arc_uniform_prescription,
    curve_from_frame,
    frame_curve,
    frame_deviation,
    integrate_frame,
    prescription_from_json,
    roundtrip,
)
from jacobi.symspace import is_symplectic_frame
from jacobi.tolerances import RESID_MAX, ROUNDTRIP_TOL, STEP_MAX

from .conftest import ROUNDTRIP_SEEDS, admissible_quartics, random_quartic

F0_STANDARD = np.array([
    [1.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 1.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
])


def constant_prescription(kdiag, m=1001, t1=1.0, f0=None):
    ts = np.linspace(0.0, t1, m)
    return InvariantPrescription(
        ts=ts,
        Sigma=np.zeros((m, 2, 2)),
        Kdiag=np.broadcast_to(np.asarray(kdiag, float), (m, 2)).copy(),
        F0=F0_STANDARD if f0 is None else f0,
    )


class TestPrescriptionValidation:
    def test_clean_prescription_has_no_warnings(self):
        p = constant_prescription([1.0, 0.0], m=51)
        assert p.warnings == []

    def test_normalization_violation_warned(self):
        p = constant_prescription([1.0, 0.5], m=51)
        assert any("centered curvature product" in w for w in p.warnings)

    def test_repeated_curvature_warned(self):
        p = constant_prescription([0.3, 0.3], m=51)
        assert any("not distinct" in w for w in p.warnings)

    def test_near_gap_judged_against_the_spread(self):
        # curvatures k = -2K = (-1.2, 1.2 - 7.9e-9, 1.2): the smallest gap
        # is 7.9e-9, below the screen's EIG_GAP_TOL times the spread 2.4
        m = 51
        kd = np.tile([0.6, -0.6 + 3.95e-9, -0.6], (m, 1))
        p = InvariantPrescription(ts=np.linspace(0.0, 1.0, m),
                                  Sigma=np.zeros((m, 3, 3)), Kdiag=kd,
                                  F0=np.eye(6))
        assert any("not distinct" in w for w in p.warnings)

    def test_f0_of_another_size_rejected(self):
        with pytest.raises(InvalidDimension):
            constant_prescription([1.0, 0.0], m=51, f0=np.eye(6))

    def test_bad_initial_frame_warned(self):
        f0 = np.eye(4)
        f0[0, 0] = 2.0
        p = constant_prescription([1.0, 0.0], m=51, f0=f0)
        assert any("symplecticity" in w for w in p.warnings)

    def test_json_loading_constant_blocks(self):
        obj = {
            "n": 2,
            "grid": {"t0": 0.0, "t1": 1.0, "m": 101},
            "Sigma": [[0.0, 0.0], [0.0, 0.0]],
            "K": [1.0, 0.0],
            "F0": F0_STANDARD.tolist(),
        }
        p = prescription_from_json(obj)
        assert p.ts.size == 101
        assert np.allclose(p.Kdiag, [1.0, 0.0])
        assert p.warnings == []

    def test_json_per_sample_k_vectors(self):
        # an (m, n) series of diagonal vectors, not one n x n matrix
        k = [[-0.5 - 0.005 * i, 0.5 + 0.005 * i] for i in range(21)]
        obj = {"n": 2, "grid": {"t0": 0.0, "t1": 1.0, "m": 21}, "K": k,
               "F0": F0_STANDARD.ravel().tolist()}
        p = prescription_from_json(obj)
        assert np.array_equal(p.Kdiag, k)
        assert np.array_equal(p.Kdiag[-1], [-0.6, 0.6])

    def test_json_k_and_sigma_shapes(self):
        base = {"n": 2, "grid": {"t0": 0.0, "t1": 1.0, "m": 7},
                "F0": F0_STANDARD.tolist()}
        kd = np.array([-0.5, 0.5])
        for k in (kd, np.diag(kd), np.tile(kd, (7, 1)),
                  np.tile(np.diag(kd), (7, 1, 1))):
            p = prescription_from_json({**base, "K": k.tolist()})
            assert np.array_equal(p.Kdiag, np.tile(kd, (7, 1)))
        sig = np.array([[0.0, 0.1], [-0.1, 0.0]])
        for s in (sig, np.tile(sig, (7, 1, 1))):
            p = prescription_from_json({**base, "K": kd.tolist(),
                                        "Sigma": s.tolist()})
            assert np.array_equal(p.Sigma, np.tile(sig, (7, 1, 1)))

    def test_json_missing_key_is_named(self):
        obj = {"n": 2, "grid": {"t0": 0.0, "t1": 1.0}, "K": [-0.5, 0.5],
               "F0": F0_STANDARD.tolist()}
        with pytest.raises(MissingKey, match="'grid.m'"):
            prescription_from_json(obj)

    @pytest.mark.parametrize("path,value", [
        ("n", "two"), ("grid.t0", [0.0]), ("grid.t1", "end"),
        ("grid.m", None), ("grid.m", float("inf")), ("grid.t1", float("nan")),
    ])
    def test_json_scalar_not_a_number_is_named(self, path, value):
        obj = {"n": 2, "grid": {"t0": 0.0, "t1": 1.0, "m": 7},
               "K": [-0.5, 0.5], "F0": F0_STANDARD.tolist()}
        node, key = (obj["grid"], path[5:]) if "." in path else (obj, path)
        node[key] = value
        with pytest.raises(InvalidDimension,
                           match=f"^{path} is not a finite number"):
            prescription_from_json(obj)

    @pytest.mark.parametrize("path,value", [
        ("n", 2.5), ("n", "2.5"), ("grid.m", 21.9), ("grid.m", "21.9"),
    ], ids=["n-number", "n-string", "m-number", "m-string"])
    def test_json_integer_key_not_whole_is_named(self, path, value):
        # int() would truncate these to an n = 2 or 21-sample prescription
        obj = {"n": 2, "grid": {"t0": 0.0, "t1": 1.0, "m": 21},
               "K": [-0.5, 0.5], "F0": F0_STANDARD.tolist()}
        node, key = (obj["grid"], path[5:]) if "." in path else (obj, path)
        node[key] = value
        with pytest.raises(InvalidDimension,
                           match=f"^{path} is not a whole number"):
            prescription_from_json(obj)

    def test_json_integer_keys_accept_whole_floats(self):
        obj = {"n": 2.0, "grid": {"t0": 0.0, "t1": 1.0, "m": "21"},
               "K": [-0.5, 0.5], "F0": F0_STANDARD.tolist()}
        p = prescription_from_json(obj)
        assert p.ts.size == 21 and p.Kdiag.shape == (21, 2)

    @pytest.mark.parametrize("key,value", [
        ("K", np.zeros(3)),
        ("K", np.zeros((6, 2))),
        ("K", np.zeros((7, 3, 3))),
        ("Sigma", np.zeros(2)),
        ("Sigma", np.zeros((6, 2, 2))),
        ("F0", np.eye(3)),
        ("F0", np.zeros(17)),
    ])
    def test_json_other_shapes_rejected(self, key, value):
        obj = {"n": 2, "grid": {"t0": 0.0, "t1": 1.0, "m": 7},
               "K": [-0.5, 0.5], "F0": F0_STANDARD.tolist()}
        obj[key] = value.tolist()
        with pytest.raises(InvalidDimension, match=key):
            prescription_from_json(obj)

    @pytest.mark.parametrize("key,value", [
        ("K", [float("nan"), 1.0]),
        ("K", np.diag([1.0, float("inf")])),
        ("Sigma", [[0.0, float("-inf")], [0.0, 0.0]]),
        ("F0", np.where(np.eye(4) == 1, float("nan"), 0.0)),
    ])
    def test_json_non_finite_rejected(self, key, value):
        # the spline, or the SVD in curve_from_frame, would fail later on
        obj = {"n": 2, "grid": {"t0": 0.0, "t1": 1.0, "m": 7},
               "K": [-0.5, 0.5], "F0": F0_STANDARD.tolist()}
        obj[key] = np.asarray(value).tolist()
        with pytest.raises(InvalidDimension,
                           match=f"^{key} has entries that are not finite"):
            prescription_from_json(obj)


def cayley_per_step(p):
    """Reference Cayley integration: Omega at the two Gauss nodes of each
    interval and cay(Omega) = solve(I - Omega/2, I + Omega/2), one step at a
    time on the frame itself.  Returns (frames, None), or (None, i) for the
    first interval i where max-row-sum |Omega^2|^(1/2) exceeds STEP_MAX."""
    c_at = p.structure_matrix()
    eye = np.eye(2 * p.n)
    r = np.sqrt(3.0) / 6.0
    frames = [p.F0]
    for i, (t, h) in enumerate(zip(p.ts[:-1], np.diff(p.ts))):
        c1, c2 = c_at(np.array([t + (0.5 - r) * h, t + (0.5 + r) * h]))
        omega = (h / 2 * (c1 + c2)
                 + np.sqrt(3.0) * h**2 / 12 * (c1 @ c2 - c2 @ c1))
        omega = omega - omega @ omega @ omega / 12
        if np.sqrt(np.max(np.sum(np.abs(omega @ omega), axis=1))) > STEP_MAX:
            return None, i
        frames.append(frames[-1] @ np.linalg.solve(eye - omega / 2,
                                                   eye + omega / 2))
    return np.stack(frames), None


def smooth_prescription(seed, n, m):
    """Sigma and K as random trigonometric polynomials on a random interval,
    from a random conformal symplectic initial frame."""
    from jacobi.symspace import random_csp

    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, rng.uniform(0.5, 2.0), m)
    waves = np.stack([np.ones(m), np.sin(ts), np.cos(2.0 * ts)], axis=1)
    sig = np.einsum("mw,wij->mij", waves, rng.normal(size=(3, n, n)))
    kd = waves @ rng.normal(size=(3, n))
    return InvariantPrescription(ts=ts, Sigma=sig - sig.swapaxes(1, 2),
                                 Kdiag=kd, F0=random_csp(seed, n=n))


class TestCayleyStep:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]),
           st.integers(5, 60))
    def test_matches_per_step_cayley(self, seed, n, m):
        p = smooth_prescription(seed, n, m)
        ref, coarse = cayley_per_step(p)
        if coarse is not None:
            with pytest.raises(StepTooCoarse) as e:
                integrate_frame(p, resid_max=np.inf)
            assert e.value.t == p.ts[coarse]
            return
        frames, _ = integrate_frame(p, resid_max=np.inf)
        assert np.max(np.abs(frames - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_fourth_order_on_constant_k(self):
        # Sigma = 0, K = diag(1, -1): F(1) = exp(C) blockwise, cosh/sinh in
        # the first index pair and cos/sin in the second
        c, s = np.cosh(1.0), np.sinh(1.0)
        exact = np.array([[c, 0, s, 0], [0, np.cos(1.0), 0, -np.sin(1.0)],
                          [s, 0, c, 0], [0, np.sin(1.0), 0, np.cos(1.0)]])
        errors = []
        for m in (11, 21, 41, 81):
            p = constant_prescription([1.0, -1.0], m=m, f0=np.eye(4))
            frames, _ = integrate_frame(p)
            errors.append(np.max(np.abs(frames[-1] - exact)))
        rates = np.log2(np.array(errors[:-1]) / errors[1:])
        assert np.all((rates > 3.8) & (rates < 4.2)), rates

    @staticmethod
    def large_curvature(x, m):
        """K = diag(k, -k), k = 1.3e5 (the size the n = 3, 4 quartic arc
        prescriptions carry), on m nodes h apart with h sqrt(k) = x, and
        the exact frames exp(t C) at the nodes: cosh/sinh in the first
        index pair, cos/sin in the second."""
        k = 1.3e5
        r, ts = np.sqrt(k), np.linspace(0.0, (m - 1) * x / np.sqrt(k), m)
        u = r * ts
        exact = np.zeros((m, 4, 4))
        exact[:, 0, 0] = exact[:, 2, 2] = np.cosh(u)
        exact[:, 0, 2], exact[:, 2, 0] = r * np.sinh(u), np.sinh(u) / r
        exact[:, 1, 1] = exact[:, 3, 3] = np.cos(u)
        exact[:, 1, 3], exact[:, 3, 1] = -r * np.sin(u), np.sin(u) / r
        p = InvariantPrescription(ts=ts, Sigma=np.zeros((m, 2, 2)),
                                  Kdiag=np.tile([k, -k], (m, 1)),
                                  F0=np.eye(4))
        return p, exact

    def test_accurate_at_large_curvature(self):
        # 50 steps of h sqrt(k) = x = 0.1: the error of one step is about
        # x^5 / 120 of the frame, so the whole run keeps 1e-5
        p, exact = self.large_curvature(0.1, 51)
        frames, _ = integrate_frame(p)
        err = np.max(np.abs(frames - exact), axis=(1, 2))
        assert np.max(err / np.max(np.abs(exact), axis=(1, 2))) <= 1e-5

    def test_residual_is_relative_to_the_frame_size(self):
        # frame entries reach 4e6: the absolute roundoff of F^T J F is
        # 1.3e-6, above RESID_MAX, yet 1e-18 of max|F|^2, and the frames
        # keep 2e-4 of the closed form
        p, exact = self.large_curvature(0.2, 51)
        frames, resid = integrate_frame(p)
        assert np.max(is_symplectic_frame(frames)[1]) > RESID_MAX
        assert resid <= 1e-15
        err = np.max(np.abs(frames - exact), axis=(1, 2))
        assert np.max(err / np.max(np.abs(exact), axis=(1, 2))) <= 2e-4
        # frames of size <= 1 (here rotations by up to 1 rad) keep the
        # absolute bound
        p = constant_prescription([-1.0, -1.0], m=11, f0=np.eye(4))
        frames, resid = integrate_frame(p)
        assert np.max(np.abs(frames[1:])) < 1.0
        assert resid == np.max(is_symplectic_frame(frames[1:])[1]) > 0

    @pytest.mark.parametrize("x", [0.94, 1.8])
    def test_coarse_step_raises(self, x):
        # with Sigma = 0 the radius bound is exact: x + x^3/12 from the
        # cos/sin pair, 1.009 and 2.29 here.  Just below the cap the step
        # is taken, and frame_deviation reports how far it is from the
        # frame ODE
        with pytest.raises(StepTooCoarse) as e:
            integrate_frame(self.large_curvature(x, 11)[0])
        assert e.value.t == 0.0
        p, _ = self.large_curvature(0.93, 11)
        frames, _ = integrate_frame(p)
        assert frame_deviation(p, frames) > ROUNDTRIP_TOL


class TestIntegrateFrame:
    def test_first_example_closed_form(self):
        # Sigma = 0, K = diag(1, 0):
        # f_1 = (cosh + sinh) e_1 + sinh ebar_1,  f_2 = (1+t) e_2 + t ebar_2
        p = constant_prescription([1.0, 0.0])
        frames, resid = integrate_frame(p)
        assert frames.shape == (p.ts.size, 4, 4)
        assert resid <= 1e-6
        t = 1.0
        f = frames[-1]
        ref_f1 = np.array([np.cosh(t) + np.sinh(t), 0.0, np.sinh(t), 0.0])
        ref_f2 = np.array([0.0, 1 + t, 0.0, t])
        assert np.max(np.abs(f[:, 0] - ref_f1)) <= 1e-7
        assert np.max(np.abs(f[:, 1] - ref_f2)) <= 1e-7

    def test_second_example_closed_form(self):
        # K = diag(0, -1):  f_2 = (cos + sin) e_2 + sin ebar_2
        p = constant_prescription([0.0, -1.0])
        frames, resid = integrate_frame(p)
        t = 1.0
        f = frames[-1]
        ref_f2 = np.array([0.0, np.cos(t) + np.sin(t), 0.0, np.sin(t)])
        assert np.max(np.abs(f[:, 1] - ref_f2)) <= 1e-7

    def test_zero_curvature_linear_drift(self):
        # K = 0 decouples: f(t) = f(0) + t fbar(0), fbar constant
        p = constant_prescription([0.0, 0.0])
        assert any("not distinct" in w for w in p.warnings)
        frames, _ = integrate_frame(p)
        t = 1.0
        f0, fbar0 = F0_STANDARD[:, :2], F0_STANDARD[:, 2:]
        f = frames[-1]
        assert np.max(np.abs(f[:, :2] - (f0 + t * fbar0))) <= 1e-9
        assert np.max(np.abs(f[:, 2:] - fbar0)) <= 1e-9

    def test_symplecticity_along_trajectory(self):
        for kd in ([1.0, 0.0], [0.0, -1.0]):
            frames, resid = integrate_frame(constant_prescription(kd))
            assert resid <= 1e-6
            for fr in frames[:: 100]:
                assert is_symplectic_frame(fr)[1] <= 1e-6

    def test_residual_cap_is_inclusive(self):
        # the reported residual is that of the returned frames, and a cap
        # equal to it passes while any smaller cap raises
        p = smooth_prescription(3, 3, 41)
        frames, resid = integrate_frame(p)
        scale = np.maximum(1.0, np.max(np.abs(frames[1:]), axis=(1, 2)))**2
        assert resid == np.max(is_symplectic_frame(frames[1:])[1] / scale) > 0
        again, _ = integrate_frame(p, resid_max=resid)
        assert np.array_equal(again, frames)
        with pytest.raises(SymplecticityLoss):
            integrate_frame(p, resid_max=0.5 * resid)

    def test_residual_cap_enforced(self):
        p = constant_prescription([1.0, 0.0], m=51)
        with pytest.raises(SymplecticityLoss):
            integrate_frame(p, resid_max=1e-18)


class TestCurveFromFrame:
    def test_identity_frame(self):
        S, segments = curve_from_frame(np.stack([np.eye(4)] * 3))
        assert segments == [(0, 2)]
        assert S.shape == (3, 2, 2)
        assert np.allclose(S, 0.0)

    def test_first_example_curve(self):
        p = constant_prescription([1.0, 0.0])
        frames, _ = integrate_frame(p)
        S, segments = curve_from_frame(frames)
        assert segments == [(0, len(S) - 1)]
        for t, s in zip(p.ts[::100], S[::100]):
            ref = np.diag([np.sinh(t) / (np.cosh(t) + np.sinh(t)),
                           t / (1 + t)])
            assert np.max(np.abs(s - ref)) <= 1e-9

    def test_second_example_curve(self):
        p = constant_prescription([0.0, -1.0])
        frames, _ = integrate_frame(p)
        S, _ = curve_from_frame(frames)
        t = p.ts[-1]
        ref = np.diag([t / (1 + t),
                       np.sin(t) / (np.cos(t) + np.sin(t))])
        assert np.max(np.abs(S[-1] - ref)) <= 1e-9

    def test_chart_exit_segmentation(self):
        # a frame with singular A block in the middle splits the series
        good = np.eye(4)
        bad = np.eye(4)
        bad[0, 0] = 0.0
        bad[2, 0] = 1.0  # column moved out of the chart: A singular
        S, segments = curve_from_frame(np.stack([good, bad, good]))
        assert np.isnan(S[1]).all()
        assert np.allclose(S[[0, 2]], 0.0)
        assert segments == [(0, 0), (2, 2)]

    def test_velocity_identity_along_reconstruction(self):
        # S' = (A A^T)^(-1) along the integrated frame
        p = constant_prescription([1.0, 0.0])
        frames, _ = integrate_frame(p)
        h = p.ts[1] - p.ts[0]
        S, _ = curve_from_frame(frames)
        for i in range(100, 901, 200):
            sprime = (S[i + 1] - S[i - 1]) / (2 * h)
            a = frames[i, :2, :2]
            ref = np.linalg.inv(a @ a.T)
            assert np.max(np.abs(sprime - ref)) <= 1e-5

    def test_chart_slope_symmetry(self):
        # A^(-1) Abar stays symmetric along the trajectory
        p = constant_prescription([0.0, -1.0])
        frames, _ = integrate_frame(p)
        for fr in frames[::100]:
            x = np.linalg.solve(fr[:2, :2], fr[:2, 2:])
            assert np.max(np.abs(x - x.T)) <= 1e-7


def quotient_rule_jets(p, frames):
    """S ... S''' of S = B A^(-1) by the quotient rule of S A = B, with
    F', F'', F''' from F' = F C: F'' = F (C^2 + C') and
    F''' = F (C^3 + 2 C C' + C' C + C'').  K' and C'' are left out: they
    enter [A; B]^(k) as [A; B] X and cancel in B^(k) - S A^(k)."""
    n = p.n
    c = cartan_matrix(p.Sigma, p.Kdiag)
    c1 = np.zeros_like(c)
    c1[:, :n, :n] = c1[:, n:, n:] = finite_diff(p.Sigma, p.ts[1] - p.ts[0])
    a, b = frames[:, :n, :n], frames[:, n:, :n]
    a1, a2, a3, b1, b2, b3 = (
        f[:, rows, :n] for rows in (slice(0, n), slice(n, None))
        for f in (frames @ c, frames @ (c @ c + c1),
                  frames @ (c @ c @ c + 2 * c @ c1 + c1 @ c)))

    def right_solve(x):
        return np.linalg.solve(a.swapaxes(-1, -2),
                               x.swapaxes(-1, -2)).swapaxes(-1, -2)

    s = right_solve(b)
    s1 = right_solve(b1 - s @ a1)
    s2 = right_solve(b2 - 2 * s1 @ a1 - s @ a2)
    s3 = right_solve(b3 - 3 * s2 @ a1 - 3 * s1 @ a2 - s @ a3)
    return s, s1, s2, s3


class TestFrameCurve:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_congruence_jets_match_quotient_rule(self, n):
        p = smooth_prescription(7, n, 61)
        frames, _ = integrate_frame(p)
        jets = frame_curve(p, frames).jets(p.ts, check_regular=False)
        for got, ref in zip((jets.S, jets.S1, jets.S2, jets.S3),
                            quotient_rule_jets(p, frames)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_jets_are_derivatives_of_the_points(self):
        # finite differences of the rebuilt curve's points reproduce the
        # jets read off the frame ODE, inside, to stencil error
        grid = SampleGrid(0.0, 1.0, 801)
        p = arc_uniform_prescription(analyze(random_quartic(14), grid))
        frames, _ = integrate_frame(p)
        jets = frame_curve(p, frames).jets(p.ts, check_regular=False)
        h, m = p.ts[1] - p.ts[0], p.ts.size
        diffs = (finite_diff(jets.S, h, 1), finite_diff(jets.S, h, 2),
                 _stencil(jets.S, STENCIL_3_WIDE, 3, m - 3, h**3))
        for k, (d, ref) in enumerate(zip(diffs, (jets.S1, jets.S2, jets.S3))):
            inner = d[3:-3] if k < 2 else d
            dev = np.max(np.abs(inner - ref[3:-3])) / np.max(np.abs(ref))
            assert dev <= 1e-5, (k + 1, dev)

    def test_singular_a_block_raises_not_in_chart_at_its_node(self):
        # the first column of the A block moved out of the chart at node 3
        p = constant_prescription([1.0, 0.0], m=7)
        frames = np.stack([np.eye(4)] * 7)
        frames[3, 0, 0], frames[3, 2, 0] = 0.0, 1.0
        t3 = float(p.ts[3])
        with pytest.raises(NotInChart, match=rf"A block is singular at t={t3!r}$"):
            frame_curve(p, frames)


class TestRoundtrip:
    @pytest.mark.parametrize("name", ["paper-6.2-ex1", "paper-6.2-ex2"])
    def test_presets_close(self, name, unit_grid):
        rep = roundtrip(preset_curve(name), unit_grid)
        assert rep.equivalent
        assert rep.k_deviation <= 1e-3
        assert rep.sympl_residual <= 1e-6
        assert rep.warnings == []

    def test_random_polynomial_corpus(self, unit_grid):
        for seed in ROUNDTRIP_SEEDS:
            rep = roundtrip(random_quartic(seed), unit_grid)
            assert rep.equivalent, (seed, rep.k_deviation,
                                    rep.sigma_deviation, rep.frame_deviation)

    @pytest.mark.parametrize("m", [801, 3201])
    def test_converges_on_refinement(self, m):
        # the rebuilt curve's jets come from the frame ODE, so a finer grid
        # does not amplify roundoff as the stencils of a table did
        grid = SampleGrid(0.0, 1.0, m)
        curves = [preset_curve("paper-6.2-ex1"), preset_curve("paper-6.2-ex2")]
        curves += [random_quartic(seed) for seed in ROUNDTRIP_SEEDS]
        for c in curves:
            rep = roundtrip(c, grid)
            assert rep.equivalent and rep.k_deviation <= 1e-5, (
                c.name, rep.k_deviation)
            assert rep.sigma_deviation <= 1e-5, (c.name, rep.sigma_deviation)
            assert rep.frame_deviation <= 1e-5, (c.name, rep.frame_deviation)

    def test_varying_sigma_closes(self):
        # quartic-2-14 has |Sigma| up to 1.43, which the rebuilt curve must
        # reproduce; the presets have Sigma = 0
        grid = SampleGrid(0.0, 1.0, 801)
        curve = random_quartic(14)
        assert np.max(np.abs(analyze(curve, grid).reduced.Sigma)) > 1.0
        rep = roundtrip(curve, grid)
        assert rep.equivalent and rep.sigma_deviation <= 1e-8, rep

    @pytest.mark.parametrize("name", ["paper-6.2-ex1", "quartic-2-14"])
    @pytest.mark.parametrize("fault", ["unintegrated", "K off by 1%"])
    def test_depends_on_the_frames(self, name, fault, unit_grid, monkeypatch):
        # frames that do not solve the prescribed frame ODE fail the round
        # trip even where the invariants re-analyzed from their jets agree
        integrate = reconstruct.integrate_frame

        def faulty(p):
            if fault == "unintegrated":
                frames, resid = integrate(p)
                return np.broadcast_to(p.F0, frames.shape).copy(), resid
            return integrate(InvariantPrescription(
                ts=p.ts, Sigma=p.Sigma, Kdiag=1.01 * p.Kdiag, F0=p.F0))

        monkeypatch.setattr(reconstruct, "integrate_frame", faulty)
        curve = (preset_curve(name) if name.startswith("paper")
                 else random_quartic(14))
        rep = roundtrip(curve, unit_grid)
        assert not rep.equivalent
        assert rep.frame_deviation > ROUNDTRIP_TOL

    @pytest.mark.parametrize("n,seed", [(3, 0), (3, 4), (4, 0), (4, 3)])
    def test_large_curvature_is_too_coarse(self, n, seed, unit_grid):
        # the arc prescriptions of these quartics carry |K| up to 1.3e5,
        # too much for 200 steps: classical RK4 lost symplecticity on them,
        # the Cayley step would keep it, so the step cap has to catch them
        with pytest.raises(StepTooCoarse):
            roundtrip(random_quartic(seed, n), unit_grid)

    def test_uniqueness_up_to_group_action(self, unit_grid):
        # two integrations of the same invariants from different symplectic
        # initial frames give equivalent curves; the curves are read as
        # tables of their points, so the frames enter through the stencils
        from jacobi.matcurve import table_curve
        from jacobi.symspace import random_csp

        ana = analyze(preset_curve("paper-6.2-ex2"), unit_grid)
        p = arc_uniform_prescription(ana)
        g = random_csp(4, scale=1.0, n=2, ham_scale=0.2)
        p2 = InvariantPrescription(
            ts=p.ts, Sigma=p.Sigma, Kdiag=p.Kdiag,
            F0=g @ p.F0,
        )
        results = []
        for presc in (p, p2):
            frames, _ = integrate_frame(presc)
            S, segs = curve_from_frame(frames)
            assert len(segs) == 1
            tab = table_curve(presc.ts, S)
            grid = SampleGrid(presc.ts[3], presc.ts[-4], presc.ts.size - 6)
            results.append(analyze(tab, grid).reduced)
        verdict, _, k_dev, _ = equivalent_reduced(*results, tol=1e-3)
        assert verdict, k_dev
