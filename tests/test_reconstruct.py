import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobi.errors import (InvalidDimension, JacobiError, MissingKey,
                           SymplecticityLoss)
from jacobi.frames import equivalent_reduced
from jacobi.matcurve import SampleGrid, preset_curve
from jacobi.pipeline import analyze
from jacobi.reconstruct import (
    InvariantPrescription,
    _rk4,
    arc_uniform_prescription,
    curve_from_frame,
    integrate_frame,
    prescription_from_json,
    roundtrip,
)
from jacobi.symspace import is_symplectic_frame

from .conftest import admissible_quartics

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


def rk4_per_step(f0, c_at, ts, substeps):
    """Reference RK4: the same stage times as `_rk4`, the stages taken one
    step at a time on the frame itself."""
    h = (ts[1:] - ts[:-1]) / substeps
    taus = [ts[:-1]]
    for _ in range(substeps):
        taus += [taus[-1] + 0.5 * h, taus[-1] + h]
    c = c_at(np.stack(taus, axis=1))
    frames = np.empty((ts.size,) + f0.shape)
    f = frames[0] = f0
    for i, hi in enumerate(h):
        for c1, c2, c4 in zip(c[i, :-1:2], c[i, 1::2], c[i, 2::2]):
            k1 = f @ c1
            k2 = (f + 0.5 * hi * k1) @ c2
            k3 = (f + 0.5 * hi * k2) @ c2
            k4 = (f + hi * k3) @ c4
            f = f + (hi / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        frames[i + 1] = f
    return frames


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


class TestStackedRK4:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]),
           st.integers(5, 60), st.sampled_from([1, 4]))
    def test_matches_per_step_loop(self, seed, n, m, substeps):
        p = smooth_prescription(seed, n, m)
        c_at = p.structure_matrix()
        ref = rk4_per_step(p.F0, c_at, p.ts, substeps)
        frames, _ = _rk4(p.F0, c_at, p.ts, substeps)
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
            frames, _ = _rk4(p.F0, p.structure_matrix(), p.ts, 1)
            errors.append(np.max(np.abs(frames[-1] - exact)))
        rates = np.log2(np.array(errors[:-1]) / errors[1:])
        assert np.all((rates > 3.8) & (rates < 4.2)), rates


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
                ok, r = is_symplectic_frame(fr, tol=1e-6)
                assert ok, r

    def test_retry_at_four_substeps_succeeds(self):
        # on a coarse grid the residual is truncation error, so 4 substeps
        # lower it: a cap between the two residuals takes the retry
        p = constant_prescription([1.0, -1.0], m=11)
        c_at = p.structure_matrix()
        _, r1 = _rk4(p.F0, c_at, p.ts, 1)
        f4, r4 = _rk4(p.F0, c_at, p.ts, 4)
        assert r4 < 1e-2 * r1
        frames, resid = integrate_frame(p, resid_max=np.sqrt(r1 * r4))
        assert np.array_equal(frames, f4) and resid == r4

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


class TestRoundtrip:
    @pytest.mark.parametrize("name", ["paper-6.2-ex1", "paper-6.2-ex2"])
    def test_presets_close(self, name, unit_grid):
        rep = roundtrip(preset_curve(name), unit_grid)
        assert rep.equivalent
        assert rep.k_deviation <= 1e-3
        assert rep.sympl_residual <= 1e-6
        assert rep.warnings == []

    def test_random_polynomial_corpus(self, unit_grid):
        from .conftest import ROUNDTRIP_SEEDS, random_quartic

        for seed in ROUNDTRIP_SEEDS:
            rep = roundtrip(random_quartic(seed), unit_grid)
            assert rep.equivalent, (seed, rep.k_deviation,
                                    rep.sigma_deviation)

    def test_uniqueness_up_to_group_action(self, unit_grid):
        # two integrations of the same invariants from different symplectic
        # initial frames give equivalent curves
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
