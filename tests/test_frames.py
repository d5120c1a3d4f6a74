import itertools
import sys

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from jacobi import frames as frames_module
from jacobi.cli import main
from jacobi.curvature import derivative_curve
from jacobi.errors import EigenCrossing, GridMismatch, JacobiError
from jacobi.frames import (
    arc_normalized_frames,
    cartan_matrix,
    equivalent_reduced,
    frenet_frame,
    invariant_spline,
    reduced_invariants,
)
from jacobi.geom import ArcData, screen
from jacobi.matcurve import (SampleGrid, finite_diff, preset_curve,
                             sample_curve, spline)
from jacobi.pipeline import analyze, complete
from jacobi.reconstruct import arc_uniform_prescription, roundtrip
from jacobi.symspace import frame_from_chart_pair, is_symplectic_frame

from .conftest import admissible_quartics, random_quartic


def ode_residuals(ana, fs, h):
    """|dF/dt - zeta F C| per interior sample, C = cartan_matrix(Sigma, K)
    of the reduced invariant, for the frame series fs with its columns
    signed as the canonical Sigma needs (the sign pattern with the smallest
    residual)."""
    c = cartan_matrix(ana.reduced.Sigma, ana.reduced.Kdiag)
    zeta = ana.arc.zeta[:, None, None]
    best = None
    for eps in itertools.product((1.0, -1.0), repeat=ana.reduced.n):
        f = fs * np.concatenate([eps, eps])
        resid = np.max(np.abs(finite_diff(f, h, 1) - zeta * f @ c),
                       axis=(1, 2))[2:-2]
        if best is None or np.max(resid) < np.max(best):
            best = resid
    return best


class TestFrenetFrame:
    def test_first_preset_basis(self, unit_grid):
        ana = analyze(preset_curve("paper-6.2-ex1"), unit_grid)
        for t, m in zip(ana.arc.ts, ana.frame[:, :2, :2]):
            ref = np.diag([np.cosh(t) + np.sinh(t), 1 + t])
            assert np.max(np.abs(m - ref)) <= 1e-9

    def test_second_preset_basis(self, unit_grid):
        # valid where cos + sin > 0, i.e. the whole [0, 1] window
        ana = analyze(preset_curve("paper-6.2-ex2"), unit_grid)
        for t, m in zip(ana.arc.ts, ana.frame[:, :2, :2]):
            ref = np.diag([1 + t, np.cos(t) + np.sin(t)])
            assert np.max(np.abs(m - ref)) <= 1e-9

    def test_frames_symplectic(self, coarse_grid):
        for c in admissible_quartics(range(12), want=5):
            ana = analyze(c, coarse_grid)
            resid = is_symplectic_frame(ana.frame)[1]
            assert np.max(resid) <= 1e-7, c.name

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([2, 3, 4]))
    # max|F| of 9.1e3 and 1.4e4: absolute residuals 5.6e-9 and 1.6e-8
    @example(2863, 4)
    @example(603, 3)
    def test_equals_the_chart_pair_frame(self, seed, n):
        # the solve-free frame against the one built by solves from the
        # derivative curve (worst seen 6e-12 relative); its symplecticity
        # residual is judged relative to max(1, max|F|^2) per frame, as the
        # package judges it (worst seen 2.0e-15 over seeds 0-999 at
        # n = 2, 3, 4)
        try:
            ana = analyze(random_quartic(seed, n=n), SampleGrid(0.0, 1.0, 101))
        except JacobiError:
            assume(False)
        jets = ana.jets
        ref = frame_from_chart_pair(
            ana.frame[:, :n, :n], jets.S,
            derivative_curve(jets, ana.arc.zeta1 / ana.arc.zeta))
        assert (np.max(np.abs(ana.frame - ref))
                <= 1e-10 * np.max(np.abs(ref)))
        frames = ana.frame
        scale = np.maximum(1.0, np.max(np.abs(frames), axis=(1, 2)) ** 2)
        assert np.max(is_symplectic_frame(frames)[1] / scale) <= 1e-13

    def test_analyze_does_not_check_symplecticity(self, monkeypatch,
                                                  unit_grid):
        # the frame is symplectic by construction; the residual is for the
        # tests above, not for every analysis
        calls = []
        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "jacobi"
                    and hasattr(module, "is_symplectic_frame")):
                def counted(f, _fn=module.is_symplectic_frame):
                    calls.append(f)
                    return _fn(f)

                monkeypatch.setattr(module, "is_symplectic_frame", counted)
        ana = analyze(preset_curve("paper-6.2-ex1"), unit_grid)
        assert calls == []
        # the frame is a plain (m, 2n, 2n) float stack
        assert type(ana.frame) is np.ndarray and ana.frame.dtype == float
        assert ana.frame.shape == (unit_grid.m, 4, 4)

    def test_velocity_inverse_identity(self, coarse_grid):
        # (S')^(-1) = M M^T for the normalized eigenbasis
        for c in admissible_quartics(range(8), want=3):
            ana = analyze(c, coarse_grid)
            jets = sample_curve(c, coarse_grid)
            for s1, m in zip(jets.S1, ana.frame[:, :2, :2]):
                lhs = np.linalg.inv(s1)
                assert np.max(np.abs(lhs - m @ m.T)) <= 1e-8 * max(
                    1.0, np.max(np.abs(lhs))
                )

    def test_column_continuity(self, unit_grid):
        ana = analyze(preset_curve("paper-6.2-ex2"), unit_grid)
        ms = ana.frame[:, :2, :2]
        for i in range(1, len(ms)):
            for c in range(2):
                assert ms[i][:, c] @ ms[i - 1][:, c] > 0

    def test_eigen_crossing_message_reads_plain_float(self):
        e = EigenCrossing(np.float64(0.395))
        assert e.t == 0.395 and type(e.t) is float
        assert str(e) == "eigenvalue crossing near t=0.395"


class TestCartanMatrix:
    def test_first_preset_constant(self, unit_grid):
        ana = analyze(preset_curve("paper-6.2-ex1"), unit_grid)
        ref = np.zeros((4, 4))
        ref[:2, 2:] = np.diag([1.0, 0.0])
        ref[2:, :2] = np.eye(2)
        cm = cartan_matrix(ana.reduced.Sigma, ana.reduced.Kdiag)
        for c in cm[2:-2]:
            assert np.max(np.abs(c - ref)) <= 1e-7

    def test_second_preset_constant(self, unit_grid):
        ana = analyze(preset_curve("paper-6.2-ex2"), unit_grid)
        ref = np.zeros((4, 4))
        ref[:2, 2:] = np.diag([0.0, -1.0])
        ref[2:, :2] = np.eye(2)
        cm = cartan_matrix(ana.reduced.Sigma, ana.reduced.Kdiag)
        for c in cm[2:-2]:
            assert np.max(np.abs(c - ref)) <= 1e-7

    def test_defining_ode_residual(self, unit_grid):
        # the frame satisfies dF/dt = zeta(t) F C along the grid; check by
        # finite-differencing the frame series (interior rows only)
        for name in ("paper-6.2-ex1", "paper-6.2-ex2"):
            ana = analyze(preset_curve(name), unit_grid)
            resid = ode_residuals(ana, ana.frame, unit_grid.h)
            assert np.max(resid) <= 1e-4, (name, np.argmax(resid) + 2)

    def test_defining_ode_residual_random(self, coarse_grid):
        # general curves are not arc-parametrized: the ODE is satisfied by
        # the arc-normalized frame series
        for c in admissible_quartics(range(10), want=3):
            ana = analyze(c, coarse_grid)
            fs = arc_normalized_frames(ana.frame, ana.arc)
            resid = ode_residuals(ana, fs, coarse_grid.h)
            assert np.max(resid) <= 5e-3 * np.max(np.abs(fs)), c.name


class TestReducedInvariants:
    def test_first_preset(self, unit_grid):
        rc = analyze(preset_curve("paper-6.2-ex1"), unit_grid).reduced
        assert np.max(np.abs(rc.Sigma)) <= 1e-8
        assert np.max(np.abs(rc.Kdiag - np.array([1.0, 0.0]))) <= 1e-8
        assert np.max(np.abs(rc.zeta - 1.0)) <= 1e-10
        assert np.max(np.abs(rc.curvatures() - np.array([-2.0, 0.0]))) <= 1e-7

    def test_second_preset(self, unit_grid):
        rc = analyze(preset_curve("paper-6.2-ex2"), unit_grid).reduced
        assert np.max(np.abs(rc.Sigma)) <= 1e-8
        assert np.max(np.abs(rc.Kdiag - np.array([0.0, -1.0]))) <= 1e-8

    def test_type_invariants_on_random_corpus(self, coarse_grid):
        for c in admissible_quartics(range(10), want=4):
            rc = analyze(c, coarse_grid).reduced
            # skew
            assert np.max(np.abs(
                rc.Sigma + np.transpose(rc.Sigma, (0, 2, 1)))) <= 1e-9
            # normalization of the curvatures under arc parametrization
            d = rc.curvatures()
            prod = np.prod(np.abs(d - d.mean(axis=1, keepdims=True)), axis=1)
            assert np.max(np.abs(prod - 1.0)) <= 1e-5

    def test_sign_canonicalization(self, unit_grid):
        for c in [preset_curve("paper-6.2-ex1")] + admissible_quartics(
                range(10), n=3, want=2):
            ana = analyze(c, unit_grid)
            n = ana.reduced.n
            fr, m_inv = frenet_frame(ana.jets, ana.ricci_series, ana.arc)
            for eps in itertools.product((1.0, -1.0), repeat=n):
                # flipping columns of M, and the matching rows of M^(-1),
                # conjugates Sigma by diag(eps)
                rc = reduced_invariants(fr[:, :n, :n] * np.array(eps),
                                        m_inv * np.array(eps)[:, None],
                                        ana.arc, ana.reduced.curvatures())
                assert np.allclose(rc.Sigma, ana.reduced.Sigma, atol=1e-12)
                assert np.array_equal(rc.Kdiag, ana.reduced.Kdiag)

    def test_sign_walk_joins_only_at_nonzero_entries(self):
        # M rotates in the (1, 2) plane, so Sigma_01 = Sigma_02 = 0 and only
        # the pair (1, 2) can fix the sign of column 2: Sigma_12 = +0.5
        # whichever sign column 2 comes in with
        for s2 in (1.0, -1.0):
            rc = reduced_invariants(*synthetic_basis(rotation_m(0.5), s2))
            assert np.allclose(rc.Sigma[:, 1, 2], 0.5, atol=1e-9)
            assert np.max(np.abs(rc.Sigma[:, 0, 1:])) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.3, -0.7]), min_size=6,
                    max_size=6),
           st.lists(st.sampled_from([1.0, -1.0]), min_size=4, max_size=4))
    def test_canonical_sigma_ignores_column_signs(self, upper, eps):
        # M = exp(tW) for a skew W with some zero entries: flipping frame
        # columns leaves the canonical Sigma unchanged, whatever the pattern
        # of pairs that can fix a sign
        from scipy.linalg import expm

        w = np.zeros((4, 4))
        w[np.triu_indices(4, 1)] = upper
        w -= w.T
        ms = np.stack([expm(t * w) for t in np.linspace(0.0, 1.0, 101)])
        ref = reduced_invariants(*synthetic_basis(ms)).Sigma
        rc = reduced_invariants(*synthetic_basis(ms * np.array(eps)))
        assert np.allclose(rc.Sigma, ref, atol=1e-12)


def rotation_m(rate, m=101):
    """(m, 3, 3) series diag(1, R(rate t)) on [0, 1]."""
    th = rate * np.linspace(0.0, 1.0, m)
    ms = np.zeros((m, 3, 3))
    ms[:, 0, 0] = 1.0
    ms[:, 1, 1] = ms[:, 2, 2] = np.cos(th)
    ms[:, 2, 1] = np.sin(th)
    ms[:, 1, 2] = -np.sin(th)
    return ms


def synthetic_basis(ms, s_last=1.0):
    """reduced_invariants arguments for the eigenvector series ms on [0, 1]
    with zeta = 1 and fixed distinct curvatures: ms with its last column
    multiplied by s_last, and the inverses of its matrices."""
    m, n = ms.shape[:2]
    ms = ms.copy()
    ms[:, :, n - 1] *= s_last
    ts = np.linspace(0.0, 1.0, m)
    one, zero = np.ones(m), np.zeros(m)
    arc = ArcData(ts=ts, zeta=one, zeta1=zero, zeta2=zero, sphi=zero,
                  arclength=ts)
    k = np.tile(np.arange(n, dtype=float), (m, 1))
    return ms, np.linalg.inv(ms), arc, k


class TestInvariantSpline:
    @pytest.mark.parametrize("m,n", [(41, 2), (201, 3), (41, 4), (201, 6)])
    def test_equals_separate_splines(self, m, n):
        rng = np.random.default_rng(m * 10 + n)
        x = np.sort(rng.uniform(0.0, 2.0, m))
        sig = rng.normal(size=(m, n, n))
        sig -= sig.swapaxes(1, 2)
        kd = rng.normal(size=(m, n))
        q = rng.uniform(x[0], x[-1], (7, 3))
        s_at, k_at = invariant_spline(x, sig, kd)(q)
        assert np.array_equal(s_at, spline(x, sig)(q))
        assert np.array_equal(k_at, spline(x, kd)(q))
        assert s_at.shape == (7, 3, n, n) and k_at.shape == (7, 3, n)


class TestEquivalentReduced:
    def test_self_equivalence(self, unit_grid):
        rc = analyze(preset_curve("paper-6.2-ex1"), unit_grid).reduced
        verdict, eps, k_dev, s_dev = equivalent_reduced(rc, rc, tol=1e-10)
        assert verdict and np.array_equal(eps, [1.0, 1.0])
        assert k_dev == 0.0

    def test_sign_flip_detected(self, unit_grid):
        rc = analyze(preset_curve("paper-6.2-ex2"), unit_grid).reduced
        sig = rc.Sigma.copy()
        sig[:, 0, 1] = np.sin(rc.ts) * 1e-2
        sig[:, 1, 0] = -sig[:, 0, 1]
        a = replace(rc, Sigma=sig)
        b = replace(rc, Sigma=-sig)
        verdict, eps, _, s_dev = equivalent_reduced(a, b, tol=1e-8)
        assert verdict
        assert np.array_equal(eps, [1.0, -1.0])

    def test_distinct_presets_not_equivalent(self, unit_grid):
        a = analyze(preset_curve("paper-6.2-ex1"), unit_grid).reduced
        b = analyze(preset_curve("paper-6.2-ex2"), unit_grid).reduced
        verdict, eps, k_dev, _ = equivalent_reduced(a, b, tol=1e-4)
        assert not verdict and eps is None
        # deviation is measured on the K-block entries (-k/2): diag(1, 0)
        # against diag(0, -1) gives sup distance 1
        assert k_dev == pytest.approx(1.0, abs=1e-6)

    def test_dimension_mismatch(self, unit_grid, coarse_grid):
        a = analyze(preset_curve("paper-6.2-ex1"), unit_grid).reduced
        c3 = admissible_quartics(range(10), n=3, want=1)[0]
        b = analyze(c3, coarse_grid).reduced
        with pytest.raises(GridMismatch):
            equivalent_reduced(a, b)


def test_block_structure_everywhere(coarse_grid):
    for c in admissible_quartics(range(6), want=2):
        ana = analyze(c, coarse_grid)
        n = 2
        sig = ana.reduced.Sigma
        assert np.array_equal(sig, -np.swapaxes(sig, 1, 2))
        for cm in cartan_matrix(sig, ana.reduced.Kdiag):
            assert np.array_equal(cm[n:, :n], np.eye(n))
            assert np.array_equal(cm[:n, :n], cm[n:, n:])
            assert np.array_equal(cm[:n, n:], np.diag(np.diag(cm[:n, n:])))


def frame_builds(monkeypatch):
    """The argument tuples of every frenet_frame call from here on, through
    any jacobi module's name for it."""
    calls, build = [], frames_module.frenet_frame

    def counted(*args):
        calls.append(args)
        return build(*args)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "jacobi"
                and getattr(module, "frenet_frame", None) is build):
            monkeypatch.setattr(module, "frenet_frame", counted)
    return calls


# n = 2, 3 and 6, and a curve with negative definite velocity (flipped)
FRAME_CURVES = {
    "ex1": lambda: preset_curve("paper-6.2-ex1"),
    "quartic-3": lambda: random_quartic(0, n=3),
    "quartic-6": lambda: random_quartic(0, n=6),
    "flipped": lambda: random_quartic(0, n=2, scale=-1.0),
}


class TestFrameOnFirstRead:
    def test_analyze_compare_and_roundtrip_build_no_frame(
            self, monkeypatch, capsys, unit_grid):
        calls = frame_builds(monkeypatch)
        analyze(preset_curve("paper-6.2-ex1"), unit_grid)
        assert main(["compare", "paper-6.2-ex1", "paper-6.2-ex1",
                     "--t0", "0", "--t1", "1"]) == 0
        capsys.readouterr()
        assert roundtrip(preset_curve("paper-6.2-ex1"), unit_grid).equivalent
        assert calls == []

    def test_each_read_builds_one_frame(self, monkeypatch, unit_grid):
        ana = analyze(preset_curve("paper-6.2-ex1"), unit_grid)
        calls = frame_builds(monkeypatch)
        frame = ana.frame
        assert len(calls) == 1
        # nothing is kept: a second read builds the same bytes again
        again = ana.frame
        assert len(calls) == 2
        assert again is not frame and again.tobytes() == frame.tobytes()

    @pytest.mark.parametrize("name", FRAME_CURVES)
    def test_frame_is_frenet_frames_stack(self, name, unit_grid):
        ana = analyze(FRAME_CURVES[name](), unit_grid)
        assert ana.flipped == (name == "flipped")
        fr, m_inv = frenet_frame(ana.jets, ana.ricci_series, ana.arc)
        assert ana.frame.dtype == fr.dtype and ana.frame.shape == fr.shape
        assert ana.frame.tobytes() == fr.tobytes()
        # the analysis read its reduced invariant off the frame's bases
        n = ana.reduced.n
        rc = reduced_invariants(fr[:, :n, :n], m_inv, ana.arc,
                                ana.reduced.curvatures())
        assert rc.Sigma.tobytes() == ana.reduced.Sigma.tobytes()

    @pytest.mark.parametrize("name", FRAME_CURVES)
    def test_initial_frame_is_the_first_frame(self, name, unit_grid):
        ana = analyze(FRAME_CURVES[name](), unit_grid)
        f0 = arc_uniform_prescription(ana).F0
        assert f0.tobytes() == ana.frame[0].tobytes()

    def test_no_frame_before_complete_or_after_a_failed_screen(
            self, monkeypatch, unit_grid):
        calls = frame_builds(monkeypatch)
        failed = screen(preset_curve("affine-line"), unit_grid)
        assert failed.error is not None and failed.frame is None
        ana = screen(preset_curve("paper-6.2-ex1"), unit_grid)
        assert ana.error is None and ana.frame is None
        assert calls == []
        # the None read before complete is not kept
        complete(ana)
        assert ana.frame.shape == (unit_grid.m, 4, 4)
        assert len(calls) == 1
