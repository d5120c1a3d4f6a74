import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobi import symspace
from jacobi.cli import main
from jacobi.curvature import ricci
from jacobi.errors import (InvalidBasis, JacobiError, NotAdmissible,
                           RegularityFailure, RepeatedEigenvalues)
from jacobi.geom import (
    SCREEN_ERRORS,
    SCREEN_STEPS,
    absolute_curvature,
    admissibility_report,
    centered_schwarzian_det,
    screen,
    zeta_series,
)
from jacobi.matcurve import (
    SampleGrid,
    SymmetricMatrixCurve,
    curve_from_scalars,
    preset_curve,
    sample_curve,
    transformed_curve,
)
from jacobi.pipeline import analyze
from jacobi.reconstruct import roundtrip
from jacobi.symspace import conformal_symplectic, random_csp

from .conftest import BENCH_INPUTS, admissible_quartics, random_quartic
from .test_cli import _stable_ref


# S -> -S: a conformal symplectic map of scale -1
NEGATE = np.diag([1.0, 1.0, -1.0, -1.0])


def ricci_series(curve, grid):
    return ricci(sample_curve(curve, grid))


def tan_curve(a):
    """diag(tan(a_i t)/a_i): constant curvature spectrum 2 a_i^2."""

    def entry(ai):
        def jet(t):
            tn = np.tan(ai * t)
            s2 = 1.0 + tn**2
            return tn / ai, s2, 2 * ai * s2 * tn, 2 * ai**2 * s2 * (s2 + 2 * tn**2)

        return jet

    return curve_from_scalars([entry(ai) for ai in a], (-1.0, 1.2))


class TestZetaSeries:
    @pytest.mark.parametrize("name", ["paper-6.2-ex1", "paper-6.2-ex2"])
    def test_presets_are_arc_parametrized(self, name, unit_grid):
        arc = zeta_series(ricci_series(preset_curve(name), unit_grid))
        assert np.max(np.abs(arc.zeta - 1.0)) <= 1e-12
        assert np.max(np.abs(arc.sphi)) <= 1e-8
        assert np.all(np.diff(arc.arclength) > 0)
        assert arc.arclength[-1] == pytest.approx(1.0, abs=1e-10)

    def test_affine_line_not_admissible(self, unit_grid):
        rs = ricci_series(preset_curve("affine-line"), unit_grid)
        with pytest.raises(NotAdmissible):
            zeta_series(rs)

    def test_sphi_definition_holds_pointwise(self, unit_grid):
        curves = admissible_quartics(range(10), want=3)
        for c in curves:
            arc = zeta_series(ricci_series(c, unit_grid))
            ref = arc.zeta2 / arc.zeta - 1.5 * (arc.zeta1 / arc.zeta) ** 2
            assert np.array_equal(arc.sphi, ref)


class TestAbsoluteCurvature:
    def test_first_preset(self, unit_grid):
        rs = ricci_series(preset_curve("paper-6.2-ex1"), unit_grid)
        k = absolute_curvature(rs, zeta_series(rs))
        assert np.max(np.abs(k - np.array([-2.0, 0.0]))) <= 1e-8
        prod = np.prod(np.abs(k - k.mean(axis=1, keepdims=True)), axis=1)
        assert np.max(np.abs(prod - 1.0)) <= 1e-12

    def test_second_preset(self, unit_grid):
        rs = ricci_series(preset_curve("paper-6.2-ex2"), unit_grid)
        k = absolute_curvature(rs, zeta_series(rs))
        assert np.max(np.abs(k - np.array([0.0, 2.0]))) <= 1e-8

    def test_normalization_on_random_corpus(self, coarse_grid):
        for c in admissible_quartics(range(20), want=8):
            rs = ricci_series(c, coarse_grid)
            k = absolute_curvature(rs, zeta_series(rs))
            prod = np.prod(np.abs(k - k.mean(axis=1, keepdims=True)), axis=1)
            assert np.max(np.abs(prod - 1.0)) <= 1e-5, c.name

    def test_sign_patterns_recorded(self, unit_grid):
        rs = ricci_series(preset_curve("paper-6.2-ex1"), unit_grid)
        k = absolute_curvature(rs, zeta_series(rs))
        # the centered magnitudes multiply to 1; their signs are extra data
        signs = np.sign(k - k.mean(axis=1, keepdims=True))
        assert np.array_equal(signs[0], [-1, 1])


class TestArclength:
    def test_additivity(self):
        c = preset_curve("paper-6.2-ex2")
        whole = zeta_series(
            ricci_series(c, SampleGrid(0.0, 1.0, 201))).arclength[-1]
        first = zeta_series(
            ricci_series(c, SampleGrid(0.0, 0.5, 101))).arclength[-1]
        second = zeta_series(
            ricci_series(c, SampleGrid(0.5, 1.0, 101))).arclength[-1]
        assert first + second == pytest.approx(whole, abs=1e-8)


class TestAdmissibilityReport:
    def test_first_preset(self, unit_grid):
        rep = admissibility_report(preset_curve("paper-6.2-ex1"), unit_grid)
        assert rep["admissible"]
        assert rep["velocity_sign"] == 1 and not rep["flipped"]
        assert rep["min_eig_gap"] == pytest.approx(2.0, abs=1e-8)
        assert rep["min_zeta"] == pytest.approx(1.0, abs=1e-10)

    def test_affine_line_fails_at_arc_element(self, unit_grid):
        rep = admissibility_report(preset_curve("affine-line"), unit_grid)
        assert not rep["admissible"]
        assert rep["first_failure"] == "arc-element"

    def test_indefinite_velocity(self, unit_grid):
        c = curve_from_scalars(
            [lambda t: (t, 1.0, 0.0, 0.0), lambda t: (-t, -1.0, 0.0, 0.0)],
            (-10.0, 10.0),
        )
        rep = admissibility_report(c, unit_grid)
        assert not rep["admissible"]
        assert rep["first_failure"] == "velocity-definite"

    def test_repeated_eigenvalue_preset(self):
        # the fully collapsed spectrum (both eigenvalues equal 2) kills the
        # arc-element determinant, which is where the screen reports it
        rep = admissibility_report(
            preset_curve("scalar-tan-block"), SampleGrid(0.1, 1.0, 31)
        )
        assert not rep["admissible"]
        assert rep["first_failure"] == "arc-element"

    def test_negative_definite_curve_is_flipped_not_rejected(self, unit_grid):
        c = transformed_curve(preset_curve("paper-6.2-ex1"), NEGATE)
        rep = admissibility_report(c, unit_grid)
        assert rep["admissible"]
        assert rep["velocity_sign"] == -1 and rep["flipped"]

    def test_near_gap_spectrum_accepted_by_screen_and_pipeline(self):
        # gap 7.2e-8 against diameter 0.54: above EIG_GAP_TOL * diam, so the
        # spectrum is distinct for the screen and for analyze alike
        c, grid = tan_curve([0.3, 0.3 + 6e-8, 0.6]), SampleGrid(0.0, 1.0, 51)
        rep = admissibility_report(c, grid)
        assert rep["admissible"]
        assert rep["min_eig_gap"] == pytest.approx(7.2e-8, rel=1e-6)
        analyze(c, grid)

    def test_gap_below_tolerance_rejected_by_screen_and_pipeline(self):
        # gap 3.6e-8 < EIG_GAP_TOL * 0.54
        c, grid = tan_curve([0.3, 0.3 + 3e-8, 0.6]), SampleGrid(0.0, 1.0, 51)
        rep = admissibility_report(c, grid)
        assert rep["first_failure"] == "spectrum-distinct"
        assert rep["failure_t"] == 0.0
        with pytest.raises(RepeatedEigenvalues):
            analyze(c, grid)

    def test_report_serializes(self, unit_grid):
        rep = admissibility_report(preset_curve("affine-line"), unit_grid)
        assert rep["admissible"] is False
        assert isinstance(rep["messages"], list)
        assert list(rep) == ["admissible", "velocity_sign", "flipped",
                             "first_failure", "failure_t", "min_eig_gap",
                             "min_zeta", "messages"]

    @pytest.mark.parametrize("preset", ["paper-6.2-ex1", "affine-line"])
    def test_report_is_the_artifact_block(self, preset, unit_grid, capsys):
        # the dict is what `jacobi analyze` writes, after the fixed-format
        # float quantization every artifact goes through
        rep = admissibility_report(preset_curve(preset), unit_grid)
        main(["analyze", "--preset", preset, "--t0", "0", "--t1", "1"])
        block = json.loads(capsys.readouterr().out)["admissibility"]
        assert block == _stable_ref(rep)


def _screen_vs_pipeline(c, grid):
    rep = admissibility_report(c, grid)
    try:
        analyze(c, grid)
    except SCREEN_ERRORS as e:
        assert not rep["admissible"], c.name
        assert rep["first_failure"] == SCREEN_STEPS[type(e)], c.name
        assert rep["failure_t"] == e.t
        return
    except JacobiError:  # a later stage: the screen has passed
        pass
    assert rep["admissible"], c.name


class TestScreenMatchesPipeline:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 60), st.sampled_from([2, 3]))
    def test_random_quartics(self, seed, n):
        _screen_vs_pipeline(random_quartic(seed, n=n), SampleGrid(0.0, 1.0, 31))

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.2, 0.4), st.floats(0.5, 0.7), st.floats(-9.0, -6.0))
    def test_near_gap_tan_family(self, a1, a3, log_delta):
        c = tan_curve([a1, a1 + 10.0**log_delta, a3])
        _screen_vs_pipeline(c, SampleGrid(0.0, 1.0, 31))


class TestNonFiniteSample:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([2, 3, 4]),
           st.integers(0, 3), st.sampled_from([np.nan, np.inf, -np.inf]),
           st.integers(0, 200))
    @pytest.mark.filterwarnings("error")
    def test_analyze_raises(self, seed, n, order, value, node):
        # one jet matrix (S, S', S'' or S''') is not finite at one sample:
        # the jets' finiteness gate names that sample's t and the jet
        # order, and nothing computes on it, so no RuntimeWarning is
        # emitted (warnings are errors here)
        base, grid = random_quartic(seed, n=n), SampleGrid(0.0, 1.0, 201)
        bad = grid.points[node]

        def evaluator(ts):
            mats = base._eval(ts)
            mats[order][ts == bad] = value
            return mats

        c = SymmetricMatrixCurve(n, evaluator, base.domain)
        with pytest.raises(InvalidBasis) as e:
            analyze(c, grid)
        assert str(e.value) == (f"jet of order {order} not finite at "
                                f"t={float(bad)!r}")


class TestFlipInvariance:
    def test_negated_curve_has_identical_invariants(self, unit_grid):
        # Schwarzian is even in S, so negation only affects normalization
        a = analyze(preset_curve("paper-6.2-ex1"), unit_grid)
        negated = transformed_curve(preset_curve("paper-6.2-ex1"), NEGATE)
        b = analyze(negated, unit_grid)
        assert b.flipped and not a.flipped
        # the analysis holds exactly the negated jets of the negated curve
        jets = negated.jets(unit_grid.points)
        assert b.jets.t.tobytes() == jets.t.tobytes()
        assert b.jets.orders.tobytes() == (-jets.orders).tobytes()
        assert np.allclose(a.reduced.Kdiag, b.reduced.Kdiag, atol=1e-10)
        assert np.allclose(a.arc.zeta, b.arc.zeta, atol=1e-12)


def test_centered_det_matches_eigen_route():
    rd = ricci_series(preset_curve("paper-6.2-ex2"), SampleGrid(0.2, 0.8, 11))
    mu = rd.eigvals
    det = centered_schwarzian_det(rd.schwarzian)
    ref = np.prod(mu - mu.mean(axis=1, keepdims=True), axis=1)
    assert det == pytest.approx(ref, rel=1e-8, abs=1e-10)


class TestOneDecompositionOfVelocity:
    """The screen factors S' once: its Cholesky certificate judges
    regularity and the velocity sign, no spectrum of S' is taken, and no
    later stage decomposes S' again."""

    @staticmethod
    def count_linalg(monkeypatch):
        """Record (name, first array argument) of every call of eigvalsh,
        eigh, svd, solve, inv and cholesky, and of einsum its operand
        count."""
        calls = []
        # np.linalg.cond reaches svd through the implementation module
        impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
        for module in (np.linalg, impl):
            for name in ("eigvalsh", "eigh", "svd", "solve", "inv",
                         "cholesky"):
                def counted(a, *args, _fn=getattr(module, name), _name=name,
                            **kwargs):
                    calls.append((_name, np.array(a)))
                    return _fn(a, *args, **kwargs)

                monkeypatch.setattr(module, name, counted)

        def einsum(subscripts, *operands, _fn=np.einsum, **kwargs):
            calls.append(("einsum", len(operands)))
            return _fn(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", einsum)
        return calls

    def test_analyze_counts_eigvalsh_and_svd(self, monkeypatch):
        calls = self.count_linalg(monkeypatch)
        ana = analyze(preset_curve("paper-6.2-ex1"), SampleGrid(0, 1, 201))
        # no spectrum: S' has its certificate, every other gate chart_inverse
        assert [name for name, _ in calls if name == "eigvalsh"] == []
        chol = [a for name, a in calls if name == "cholesky"]
        assert len(chol) == 1 and np.array_equal(chol[0], ana.jets.S1)
        assert [name for name, _ in calls if name == "svd"] == []
        # the Schwarzian's; Sigma is read off with M^(-1), a product
        assert [name for name, _ in calls if name == "solve"] == ["solve"]
        # n = 2: the eigensolve is a Schur rotation on the sample axis, and
        # nothing is inverted: the frame is a product in corr
        assert [name for name, _ in calls if name == "eigh"] == []
        assert [name for name, _ in calls if name == "inv"] == []
        assert ("einsum", 3) not in calls

    def test_n3_analysis_calls_eigh_once(self, monkeypatch):
        # above n = 2 the eigensolve of C = L^(-1) A L^(-T) is LAPACK's
        c = admissible_quartics(range(10), n=3, want=1)[0]
        calls = self.count_linalg(monkeypatch)
        analyze(c, SampleGrid(0, 1, 201))
        assert [name for name, _ in calls].count("eigh") == 1
        assert [name for name, _ in calls].count("solve") == 1
        assert [name for name, _ in calls].count("inv") == 0

    def test_roundtrip_takes_no_svd(self, monkeypatch):
        # the chart exits of the rebuilt curve are cleared from A^(-1)
        calls = self.count_linalg(monkeypatch)
        rep = roundtrip(preset_curve("paper-6.2-ex1"), SampleGrid(0, 1, 201))
        assert rep.equivalent
        assert [name for name, _ in calls if name == "svd"] == []
        # one certificate of S' per analysis
        assert [name for name, _ in calls].count("cholesky") == 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_analyze_inverts_the_factor_once(self, monkeypatch, n):
        # velocity_form's L^(-1) rides in the jets' form to definite_eigh
        curve = (preset_curve("paper-6.2-ex1") if n == 2 else
                 admissible_quartics(range(10), n=3, want=1)[0])
        calls = []

        def counted(factor, _fn=symspace.triangular_inverse):
            calls.append(factor)
            return _fn(factor)

        monkeypatch.setattr(symspace, "triangular_inverse", counted)
        ana = analyze(curve, SampleGrid(0, 1, 201))
        assert len(calls) == 1
        assert np.array_equal(calls[0], ana.jets.form[2][:, 0])

    def test_roundtrip_solves_three_times(self, monkeypatch):
        # the Schwarzian of each analysis, and the Cayley steps; the
        # rebuilt curve is read off by the inverse that judges its A blocks,
        # not by a solve of its own, and Sigma by M^(-1), a product
        calls = self.count_linalg(monkeypatch)
        roundtrip(preset_curve("paper-6.2-ex1"), SampleGrid(0, 1, 201))
        assert [name for name, _ in calls].count("solve") == 3

    def test_transformed_curve_inverts_its_chart_once(self, monkeypatch):
        g = random_csp(5, scale=0.7, n=2, ham_scale=0.3)
        grid = SampleGrid(0, 1, 201)
        base = preset_curve("paper-6.2-ex1")
        S = sample_curve(base, grid).S
        # the matrix inverted is P + Q S of the normalized map
        gn, _ = conformal_symplectic(g, 2)
        chart = gn[:2, :2] + gn[:2, 2:] @ S
        calls = self.count_linalg(monkeypatch)
        analyze(transformed_curve(base, g), grid)
        assert sum(name in ("solve", "inv") and np.array_equal(a, chart)
                   for name, a in calls) == 1

    @pytest.mark.parametrize("seed,n", [(1, 2), (2, 3), (3, 4), (4, 6)])
    def test_closed_form_image_takes_no_svd(self, monkeypatch, seed, n):
        # the benchmark's closed-form family: a tan base moved by a
        # random_csp map; its chart gate is certified from the one inverse
        # of P + Q S, so no sample needs an SVD
        rng = np.random.default_rng(seed)
        a = np.sort(rng.uniform(0.2, 1.3, size=n))
        base = BENCH_INPUTS.tan_base(a)
        g = random_csp(seed, 0.5, n, 0.2)
        gn, _ = conformal_symplectic(g, n)
        grid = SampleGrid(0, 1, 201)
        chart = gn[:n, :n] + gn[:n, n:] @ sample_curve(base, grid).S
        calls = self.count_linalg(monkeypatch)
        analyze(transformed_curve(base, g), grid)
        assert [name for name, _ in calls if name == "svd"] == []
        assert sum(name == "inv" and np.array_equal(x, chart)
                   for name, x in calls) == 1

    def test_screen_keeps_the_earliest_failing_sample(self):
        # S' is singular at sample 3 and S'' asymmetric at sample 5: the
        # regularity failure at t[3] comes first, as in `jets`
        grid = SampleGrid(0.0, 1.0, 11)
        t3, t5 = grid.points[3], grid.points[5]

        def evaluator(ts):
            m = ts.size
            s = ts[:, None, None] * np.diag([1.0, 2.0])
            s1 = np.broadcast_to(np.diag([1.0, 2.0]), (m, 2, 2)).copy()
            s1[ts == t3] = 0.0
            s2 = np.zeros((m, 2, 2))
            s2[ts == t5, 0, 1] = 1.0
            return s, s1, s2, np.zeros((m, 2, 2))

        c = SymmetricMatrixCurve(2, evaluator, (0.0, 1.0))
        with pytest.raises(RegularityFailure) as e:
            c.jets(grid.points)
        assert e.value.t == t3
        ana = screen(c, grid)
        assert isinstance(ana.error, RegularityFailure)
        assert ana.error.t == t3
        assert ana.report()["first_failure"] == "velocity-definite"


def analysis_record(curve, grid):
    """Every array and verdict of analyze(curve, grid) as bytes, or its
    error's type and message."""
    try:
        ana = analyze(curve, grid)
    except JacobiError as e:
        return [type(e).__name__, str(e)]
    record = [ana.velocity_sign, ana.min_eig_gap, ana.frame.tobytes()]
    for part in (ana.jets, ana.ricci_series, ana.arc, ana.reduced):
        record += [np.asarray(getattr(part, f.name)).tobytes()
                   for f in dataclasses.fields(part) if f.name != "form"]
    # the jets' verdict on S': factor is None on the spectral path by design
    # and is no output
    regular, sign, _ = ana.jets.form
    return record + [regular.tobytes(), sign.tobytes()]


def conditioned_curve(rng, n, log_cond, sign):
    """S(t) = t A + t^2/2 B + t^3/6 C with cond(A) = 10^log_cond and A of
    the given sign; B and C are random at a third of the scale of A's
    smallest eigenvalue, so cond(S') stays near cond(A) on [0, 1]."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    d = sign * np.logspace(0.0, -log_cond, n)
    a = (q * d) @ q.T
    b, c = (0.15 * (x + x.T) * d[-1] for x in rng.normal(size=(2, n, n)))
    a = 0.5 * (a + a.T)

    def evaluator(ts):
        t = ts[:, None, None]
        return (t * a + t * t / 2 * b + t**3 / 6 * c,
                a + t * b + t * t / 2 * c, b + t * c,
                np.broadcast_to(c, (ts.size, n, n)))

    return SymmetricMatrixCurve(n, evaluator, (-1.0, 2.0))


def roundtrip_record(curve, grid):
    """Every field of roundtrip(curve, grid) as bytes, or its error's type
    and message."""
    try:
        rep = roundtrip(curve, grid)
    except JacobiError as e:
        return [type(e).__name__, str(e)]
    return [np.asarray(getattr(rep, f.name)).tobytes()
            for f in dataclasses.fields(rep)]


class TestCertifiedVelocity:
    """analyze and roundtrip give the same bits, verdicts and errors
    whether S' and the chart denominators are cleared by their
    certificates or judged by their spectra and SVDs."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["quartic", "negated", "csp", "conditioned",
                            "roundtrip"]),
           st.integers(0, 2**16), st.sampled_from([2, 3, 4]),
           st.floats(0.0, 16.0), st.sampled_from([1.0, -1.0]))
    def test_equals_the_spectral_rule(self, kind, seed, n, log_cond, sign):
        record = analysis_record
        if kind == "conditioned":
            curve = conditioned_curve(np.random.default_rng(seed), n,
                                      log_cond, sign)
        else:
            curve = random_quartic(seed, n,
                                   scale=-1.0 if kind == "negated" else 1.0)
            if kind in ("csp", "roundtrip"):
                curve = transformed_curve(
                    curve, random_csp(seed + 1, sign * 0.5, n, 0.2))
            if kind == "roundtrip":
                record = roundtrip_record
        grid = SampleGrid(0.0, 1.0, 41)
        certified = record(curve, grid)
        with pytest.MonkeyPatch.context() as mp:
            # a bound of inf certifies nothing: every gate takes its
            # spectrum or SVD
            mp.setattr(symspace, "cond_bound",
                       lambda a, a_inv: np.full(np.shape(a)[:-2], np.inf))
            assert record(curve, grid) == certified


def test_untransformed_tan_base_through_t0():
    # draw_rates(default_rng(12), 3) of the benchmark inputs
    a = np.array([0.40825242299373743, 0.47590690391929075,
                  1.241428237145367])
    k = analyze(BENCH_INPUTS.tan_base(a),
                SampleGrid(0.0, 1.0, 201)).reduced.curvatures()
    mu = np.sort(2.0 * a**2)
    k_exact = mu / np.prod(np.abs(mu - mu.mean())) ** (1.0 / a.size)
    # relative: at t = 0, S''(0) = 0 and the stencil zeta'(0) rounds to
    # exactly 0, so corr = S'' - (zeta'/zeta) S' vanishes there, which the
    # frame, a product in corr, does not mind; this draw reads 1.9e-9
    # against max k = 2.73
    assert np.max(np.abs(k - k_exact)) <= 1e-9 * np.max(k_exact)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_untransformed_tan_bases_through_the_window_middle(n):
    # the benchmark's rates at seeds 0-39 on a window centred at t = 0,
    # where corr = S'' - (zeta'/zeta) S' can be singular: every draw is
    # analyzed and reads back its exact curvatures
    grid = SampleGrid(-0.5, 0.5, 201)
    worst = {}
    for seed in range(40):
        a = BENCH_INPUTS.draw_rates(np.random.default_rng(seed), n)
        k = analyze(BENCH_INPUTS.tan_base(a), grid).reduced.curvatures()
        k_exact = BENCH_INPUTS.closed_form_k(a)
        worst[seed] = np.max(np.abs(k - k_exact)) / np.max(k_exact)
    assert max(worst.values()) <= 1e-8, worst
