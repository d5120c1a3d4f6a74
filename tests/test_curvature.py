import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobi.curvature import (
    derivative_curve,
    matrix_schwarzian,
    ricci,
    scalar_schwarzian,
    schwarzian_change_of_parameter,
    verify_derivative_curve,
)
from jacobi.errors import (
    ComplexEigenvalues,
    Gates,
    InflectionPoint,
    JacobiError,
    MonotonicityFailure,
    RegularityFailure,
    RepeatedEigenvalues,
    SingularParameter,
)
from jacobi.geom import screen
from jacobi.matcurve import (
    CurveJet,
    SampleGrid,
    SymmetricMatrixCurve,
    curve_from_scalars,
    preset_curve,
    reparametrized_curve,
    sample_curve,
)
from jacobi.pipeline import analyze

from .conftest import admissible_quartics, random_quartic


def scalar_jet(t, f, f1, f2, f3):
    """1x1 jet from scalar derivative values (internal tests only)."""
    one = np.ones((1, 1))
    return CurveJet(t, np.array([f * one, f1 * one, f2 * one, f3 * one]))


class TestScalarSchwarzian:
    def test_affine_is_zero(self):
        assert scalar_schwarzian(1.0, 0.0, 0.0) == 0.0

    def test_exponential(self):
        # f = e^t has f3/f1 = 1 and (f2/f1)^2 = 1 at every t
        e = np.exp(0.7)
        assert scalar_schwarzian(e, e, e) == pytest.approx(-0.5)

    def test_tangent_at_zero(self):
        assert scalar_schwarzian(1.0, 0.0, 2.0) == pytest.approx(2.0)

    def test_singular(self):
        with pytest.raises(SingularParameter):
            scalar_schwarzian(0.0, 1.0, 1.0)

    def test_inverse_pair_law(self):
        # for inverse functions phi, psi:  S(psi) = -(psi')^2 S(phi) o psi
        pairs = [
            (np.exp, lambda y: np.log(y),
             lambda t: (np.exp(t),) * 3,
             lambda y: (1 / y, -1 / y**2, 2 / y**3)),
            (np.tan, np.arctan,
             lambda t: (1 / np.cos(t) ** 2,
                        2 * np.tan(t) / np.cos(t) ** 2,
                        2 / np.cos(t) ** 4 + 4 * np.tan(t) ** 2
                        / np.cos(t) ** 2),
             lambda y: (1 / (1 + y**2),
                        -2 * y / (1 + y**2) ** 2,
                        (6 * y**2 - 2) / (1 + y**2) ** 3)),
        ]
        for phi, psi, dphi, dpsi in pairs:
            for t in (0.2, 0.5, 0.9):
                y = phi(t)
                s_psi = scalar_schwarzian(*dpsi(y))
                s_phi = scalar_schwarzian(*dphi(t))
                psi1 = dpsi(y)[0]
                assert s_psi == pytest.approx(-(psi1**2) * s_phi, abs=1e-9)


class TestMatrixSchwarzian:
    def test_affine_line_is_flat(self):
        j = CurveJet(0.0, np.array([np.zeros((2, 2)), np.diag([1.0, 3.0]),
                                    np.zeros((2, 2)), np.zeros((2, 2))]))
        assert np.allclose(matrix_schwarzian(j), 0.0)

    def test_diagonal_curve_reduces_to_scalars(self):
        # S = diag(e^t, tan t) at t = 0
        j = CurveJet(0.0, np.array([np.diag([1.0, 0.0]), np.diag([1.0, 1.0]),
                                    np.diag([1.0, 0.0]), np.diag([1.0, 2.0])]))
        assert np.allclose(matrix_schwarzian(j), np.diag([-0.5, 2.0]))

    def test_first_preset_constant_spectrum(self):
        c = preset_curve("paper-6.2-ex1")
        for t in (0.0, 0.3, 0.8):
            sch = matrix_schwarzian(c.jet(t))
            assert np.allclose(sch, np.diag([-2.0, 0.0]), atol=1e-9)

    def test_mobius_annihilation(self):
        # S(t) = ((a t + b)/(c t + d)) S1 has vanishing Schwarzian
        a, b, c_, d = 2.0, 1.0, 1.0, 3.0
        s1 = np.array([[1.0, 0.4], [0.4, -2.0]])

        def lam(t):
            u = c_ * t + d
            l0 = (a * t + b) / u
            l1 = (a * d - b * c_) / u**2
            l2 = -2 * c_ * l1 / u
            l3 = -3 * c_ * l2 / u
            return l0, l1, l2, l3

        for t in (0.0, 0.5, 1.5):
            l0, l1, l2, l3 = lam(t)
            j = CurveJet(t, np.array([l0 * s1, l1 * s1, l2 * s1, l3 * s1]))
            assert np.max(np.abs(matrix_schwarzian(j))) <= 1e-8

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_velocity_weighted_symmetry(self, seed):
        # S' Sch(S) is symmetric for every regular monotone jet
        c = random_quartic(seed)
        j = c.jet(0.5, check_regular=False)
        a = j.S1 @ matrix_schwarzian(j)
        assert np.max(np.abs(a - a.T)) <= 1e-8 * max(1.0, np.max(np.abs(a))) \
            + 1e-12


class TestRicci:
    def test_first_preset(self):
        c = preset_curve("paper-6.2-ex1")
        for t in (0.0, 0.5, 1.0):
            rd = ricci(c.jet(t))
            assert np.allclose(rd.eigvals, [-2.0, 0.0], atol=1e-9)
            assert rd.ric == pytest.approx(-2.0, abs=1e-9)
            ref = np.diag([np.cosh(t) + np.sinh(t), 1 + t])
            for col in range(2):
                dev = min(
                    np.max(np.abs(rd.eigvecs[:, col] - ref[:, col])),
                    np.max(np.abs(rd.eigvecs[:, col] + ref[:, col])),
                )
                assert dev <= 1e-9

    def test_second_preset(self):
        c = preset_curve("paper-6.2-ex2")
        rd = ricci(c.jet(0.4))
        assert np.allclose(rd.eigvals, [0.0, 2.0], atol=1e-9)
        assert rd.ric == pytest.approx(2.0, abs=1e-9)

    def test_affine_line_zero_spectrum(self):
        c = preset_curve("affine-line")
        rd = ricci(c.jet(0.5))
        assert np.allclose(rd.eigvals, 0.0)
        assert rd.ric == 0.0

    def test_velocity_normalization(self):
        for seed in range(10):
            c = random_quartic(seed, n=3)
            j = c.jet(0.5, check_regular=False)
            rd = ricci(j)
            gram = rd.eigvecs.T @ j.S1 @ rd.eigvecs
            assert np.max(np.abs(gram - np.eye(3))) <= 1e-8

    def test_indefinite_velocity_rejected(self):
        j = CurveJet(0.0, np.array([np.zeros((2, 2)), np.diag([1.0, -1.0]),
                                    np.diag([0.1, 0.1]), np.diag([0.2, 0.3])]))
        with pytest.raises(MonotonicityFailure):
            ricci(j)

    def test_negative_definite_velocity_rejected(self):
        j = CurveJet(0.0, np.array([np.zeros((2, 2)), -np.eye(2),
                                    np.diag([0.1, 0.1]), np.diag([0.2, 0.3])]))
        with pytest.raises(MonotonicityFailure):
            ricci(j)

    def test_earliest_non_monotone_sample_of_a_series(self):
        # indefinite S' at sample 2, negative definite at sample 4: the
        # failed Cholesky factor names sample 2, as its single jet does
        ts = np.linspace(0.0, 1.0, 6)
        s1 = np.tile(np.eye(2), (6, 1, 1))
        s1[2], s1[4] = np.diag([1.0, -1.0]), -np.eye(2)
        jets = CurveJet(ts, np.array([
            np.zeros((6, 2, 2)), s1, np.tile(np.diag([0.1, 0.1]), (6, 1, 1)),
            np.tile(np.diag([0.2, 0.3]), (6, 1, 1))]))
        with pytest.raises(MonotonicityFailure) as exc:
            ricci(jets)
        with pytest.raises(MonotonicityFailure) as single:
            ricci(jets[2])
        assert exc.value.t == ts[2]
        assert str(exc.value) == str(single.value)
        assert "indefinite or singular" in str(exc.value)
        with pytest.raises(MonotonicityFailure, match="negative definite"):
            ricci(jets[4])

    def test_repeated_eigenvalues_left_to_the_screen(self):
        # a fully collapsed spectrum passes ricci's gap gate and is left to
        # the arc element, which rejects it (see test_geom)
        rd = ricci(preset_curve("scalar-tan-block").jet(0.2))
        assert rd.eigvals[0] == rd.eigvals[1]

    @staticmethod
    def near_gap_jets(ts, k, spoil=None):
        """Jets with S' = Id, S'' = 0 and Sch = S''' = diag(0, 1, 2) before
        sample k, diag(0, 1, 1 + 1e-9) (a relative gap below EIG_GAP_TOL)
        from k on; `spoil` makes sample 2 asymmetric or sample 3
        indefinite."""
        m = ts.size
        s1 = np.tile(np.eye(3), (m, 1, 1))
        s3 = np.tile(np.diag([0.0, 1.0, 2.0]), (m, 1, 1))
        s3[k:, 2, 2] = 1.0 + 1e-9
        if spoil == "asymmetric":
            s3[2, 0, 1] = 1.0
        elif spoil == "indefinite":
            s1[3, 1, 1] = -1.0
        zero = np.zeros((m, 3, 3))
        return CurveJet(ts, np.array([zero, s1, zero, s3]))

    def test_near_repeated_spectrum_of_a_series(self):
        # ricci judges the gap: the series' error is that of its earliest
        # near-repeated sample, as that sample's single jet reports it, and
        # the screen records the same verdict
        grid, k = SampleGrid(0.0, 1.0, 8), 5
        jets = self.near_gap_jets(grid.points, k)
        with pytest.raises(RepeatedEigenvalues) as exc:
            ricci(jets)
        with pytest.raises(RepeatedEigenvalues) as single:
            ricci(jets[k])
        assert exc.value.t == grid.points[k]
        assert str(exc.value) == str(single.value)
        assert exc.value.gap == pytest.approx(1e-9, rel=1e-6)
        c = SymmetricMatrixCurve(
            3, lambda ts: self.near_gap_jets(ts, k).orders, (0.0, 1.0))
        report = screen(c, grid).report()
        assert report["first_failure"] == "spectrum-distinct"
        assert report["failure_t"] == exc.value.t
        assert report["min_eig_gap"] == exc.value.gap
        assert report["messages"] == [str(exc.value)]

    @pytest.mark.parametrize("spoil,error,stop", [
        ("asymmetric", ComplexEigenvalues, 2),
        ("indefinite", MonotonicityFailure, 3)])
    def test_an_earlier_failed_gate_wins_over_the_gap(self, spoil, error,
                                                      stop):
        ts = np.linspace(0.0, 1.0, 8)
        with pytest.raises(error) as exc:
            ricci(self.near_gap_jets(ts, 5, spoil))
        assert exc.value.t == ts[stop]


class TestDerivativeCurve:
    def test_scalar_tangent(self):
        # S = tan t  ->  S0 = -cot t
        t = 0.4
        sec2 = 1 / np.cos(t) ** 2
        j = scalar_jet(t, np.tan(t), sec2, 2 * sec2 * np.tan(t),
                       2 * sec2 * (sec2 + 2 * np.tan(t) ** 2))
        s0 = derivative_curve(j)
        assert s0[0, 0] == pytest.approx(-1 / np.tan(t))

    def test_scalar_exponential(self):
        # S = e^t  ->  S0 = -e^t
        t = 0.3
        e = np.exp(t)
        j = scalar_jet(t, e, e, e, e)
        assert derivative_curve(j)[0, 0] == pytest.approx(-e)

    def test_first_preset_closed_form(self):
        # S0(t) = diag((1 + e^(-2t))/2, 1)
        c = preset_curve("paper-6.2-ex1")
        for t in (0.0, 0.6, 1.0):
            s0 = derivative_curve(c.jet(t))
            ref = np.diag([(1 + np.exp(-2 * t)) / 2, 1.0])
            assert np.allclose(s0, ref, atol=1e-9)

    def test_affine_line_inflection(self):
        j = CurveJet(0.0, np.array([np.zeros((2, 2)), np.diag([1.0, 2.0]),
                                    np.zeros((2, 2)), np.zeros((2, 2))]))
        with pytest.raises(InflectionPoint):
            derivative_curve(j)


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except JacobiError as e:
        return None, e


class TestSeriesMatchesSamples:
    """On a jet series the curvature functions give, sample by sample, the
    single-jet results bit for bit, or the error of the earliest failing
    sample."""

    CASES = (
        (matrix_schwarzian, lambda r: [r]),
        (ricci, lambda r: [r.schwarzian, r.ric, r.eigvals, r.eigvecs]),
        (derivative_curve, lambda r: [r]),
        (lambda j, ratio: derivative_curve(j, ratio), lambda r: [r]),
    )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([2, 3, 4]))
    def test_random_quartics(self, seed, n):
        c = random_quartic(seed, n=n)
        grid = SampleGrid(0.0, 1.0, 21)
        jets = sample_curve(c, grid)
        ratio = np.sin(7.0 * grid.points + seed)
        for fn, arrays in self.CASES:
            extra = (ratio,) if fn.__name__ == "<lambda>" else ()
            series, err = _outcome(fn, jets, *extra)
            singles = [_outcome(fn, c.jet(t), *(r[i] for r in extra))
                       for i, t in enumerate(grid.points)]
            first = next((e for _, e in singles if e is not None), None)
            if first is not None:
                assert type(err) is type(first)
                assert (err.t, str(err)) == (first.t, str(first))
                continue
            assert err is None
            for i, (single, _) in enumerate(singles):
                for a, b in zip(arrays(series), arrays(single)):
                    assert np.array_equal(a[i], b)


class TestGates:
    def test_earliest_sample_wins_then_first_gate(self):
        ts = np.linspace(0.0, 1.0, 6)
        gates = Gates()
        gates.require(np.arange(6) < 3, lambda i: RegularityFailure(ts[i]))
        # a later gate sees only samples 0-2; its failure at 1 wins
        gates.require(np.arange(6) < 1, lambda i: ComplexEigenvalues(ts[i]))
        # a gate failing at the same sample loses to the earlier gate
        gates.require(np.arange(6) < 1, lambda i: MonotonicityFailure(ts[i]))
        assert gates.stop == 1
        with pytest.raises(ComplexEigenvalues) as exc:
            gates.raise_error()
        assert exc.value.t == ts[1]

    def test_a_gate_every_sample_passes_keeps_the_error(self):
        # a passing gate returns at once; one that fails only after `stop`
        # passes too, as its failure is later than the one kept
        ts = np.linspace(0.0, 1.0, 6)
        gates = Gates().require(np.ones(6, bool), None)
        assert gates.stop is None and gates.error is None
        gates.require(np.arange(6) != 3, lambda i: RegularityFailure(ts[i]))
        gates.require(np.ones(6, bool), None)
        gates.require(np.arange(6) != 4, None)
        assert gates.stop == 3 and type(gates.error) is RegularityFailure
        assert gates.error.t == ts[3]

    def test_nan_fails_a_gate(self):
        # a gate states what passes, and every comparison with NaN is false
        x = np.array([0.5, 0.2, np.nan, 2.0])
        gates = Gates().require(x <= 1.0, lambda i: RegularityFailure(i))
        assert gates.stop == 2 and gates.error.t == 2.0
        assert Gates().require(x[:2] <= 1.0, None).error is None

    def test_velocity_is_factored_once_per_stack(self, monkeypatch):
        # checked jets carry their velocity form, which ricci and
        # matrix_schwarzian read instead of factoring S' again; unchecked
        # jets are judged once, by the call that needs the form
        calls = []

        def cholesky(a, _fn=np.linalg.cholesky):
            calls.append(a)
            return _fn(a)

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        c = random_quartic(0, 2)
        ts = np.linspace(0.0, 1.0, 11)
        for run in (lambda: ricci(c.jet(0.5)),
                    lambda: matrix_schwarzian(c.jets(ts)),
                    lambda: ricci(c.jets(ts, check_regular=False))):
            calls.clear()
            run()
            assert len(calls) == 1


class TestNonFinite:
    NAN_S1 = CurveJet(0.0, np.array([
        np.zeros((2, 2)), [[np.nan, 0.0], [0.0, 1.0]], np.diag([0.1, 0.1]),
        np.diag([0.2, 0.3])]))

    def test_ricci_of_a_nan_velocity_is_a_typed_error(self):
        # it once returned NaN eigendata while the screen rejected the jet
        with pytest.raises(RegularityFailure):
            ricci(self.NAN_S1)
        c = SymmetricMatrixCurve(2, lambda ts: tuple(
            np.broadcast_to(a, (ts.size, 2, 2)) for a in (
                self.NAN_S1.S, self.NAN_S1.S1, self.NAN_S1.S2,
                self.NAN_S1.S3)), (0.0, 1.0))
        # the jet gates of the screen's sampling reject it first
        with pytest.raises(JacobiError):
            analyze(c, SampleGrid(0.0, 1.0, 7))

    @pytest.mark.parametrize("asymmetric,error,stop", [
        (True, ComplexEigenvalues, 2), (False, MonotonicityFailure, 4)])
    def test_failing_series_runs_the_eigensolve_once(
            self, monkeypatch, asymmetric, error, stop):
        # the gates judge every sample before the one stacked eigensolve,
        # which sees only the samples before the earliest failure; nothing
        # is re-run to find that sample
        from jacobi import curvature

        seen = []
        real = curvature.definite_eigh

        def counted(a, b, l_inv=None):
            seen.append(len(b))
            return real(a, b, l_inv)

        monkeypatch.setattr(curvature, "definite_eigh", counted)
        ts = np.linspace(0.0, 1.0, 6)
        s1 = np.tile(np.eye(2), (6, 1, 1))
        s1[4] = np.diag([1.0, -1.0])
        s3 = np.tile(np.diag([0.2, 0.3]), (6, 1, 1))
        s3[2, 0, 1] = 1.0 if asymmetric else 0.0
        jets = CurveJet(ts, np.array([np.zeros((6, 2, 2)), s1,
                                      np.tile(np.diag([0.1, 0.1]), (6, 1, 1)),
                                      s3]))
        with pytest.raises(error) as exc:
            ricci(jets)
        assert exc.value.t == ts[stop] and seen == [stop]


class TestVerifyDerivativeCurve:
    def test_first_preset(self):
        c = preset_curve("paper-6.2-ex1")
        assert verify_derivative_curve(c, 0.5) <= 1e-5

    def test_scalar_tangent(self):
        sec2 = lambda t: 1 / np.cos(t) ** 2

        def entry(t):
            return (np.tan(t), sec2(t), 2 * sec2(t) * np.tan(t),
                    2 * sec2(t) * (sec2(t) + 2 * np.tan(t) ** 2))

        c = curve_from_scalars([entry], (-1.0, 1.0))
        assert verify_derivative_curve(c, 0.3) <= 1e-6

    @pytest.mark.parametrize("n", [2, 3])
    def test_random_quartics(self, n):
        curves = admissible_quartics(range(40), n=n, want=20)
        assert len(curves) == 20
        for c in curves:
            assert verify_derivative_curve(c, 0.5) <= 1e-4, c.name


class TestChangeOfParameter:
    def test_identity(self):
        c = preset_curve("paper-6.2-ex1")
        j = c.jet(0.5)
        pred = schwarzian_change_of_parameter(j, 1.0, 0.0, 0.0)
        assert np.allclose(pred, matrix_schwarzian(j))

    def test_affine_doubling(self):
        c = random_quartic(3)
        rc = reparametrized_curve(
            c, lambda u: (2 * u, 2.0, 0.0, 0.0), (0.0, 0.5)
        )
        for u in (0.1, 0.25, 0.4):
            pred = schwarzian_change_of_parameter(c.jet(2 * u), 2.0, 0.0, 0.0)
            direct = matrix_schwarzian(rc.jet(u))
            assert np.max(np.abs(pred - direct)) <= 1e-7

    def test_tangent_substitution_on_first_preset(self):
        # psi = tan:  prediction sec^4 diag(-2, 0) + 2 Id
        c = preset_curve("paper-6.2-ex1")

        def psi(u):
            s2 = 1 / np.cos(u) ** 2
            return (np.tan(u), s2, 2 * s2 * np.tan(u),
                    2 * s2 * (s2 + 2 * np.tan(u) ** 2))

        rc = reparametrized_curve(c, psi, (0.0, 0.7))
        for u in (0.2, 0.5):
            p, p1, p2, p3 = psi(u)
            pred = schwarzian_change_of_parameter(c.jet(p), p1, p2, p3)
            s2 = 1 / np.cos(u) ** 2
            closed = s2**2 * np.diag([-2.0, 0.0]) + 2.0 * np.eye(2)
            direct = matrix_schwarzian(rc.jet(u))
            assert np.allclose(pred, closed, atol=1e-9)
            assert np.allclose(direct, closed, atol=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.2, 0.8),
           st.floats(-0.3, 0.3), st.floats(0.5, 2.0))
    def test_law_against_direct_recomputation(self, seed, u, eps_, omega):
        c = random_quartic(seed, domain=(-1.5, 2.5))

        def psi(v):
            return (v + eps_ * np.sin(omega * v),
                    1 + eps_ * omega * np.cos(omega * v),
                    -eps_ * omega**2 * np.sin(omega * v),
                    -eps_ * omega**3 * np.cos(omega * v))

        rc = reparametrized_curve(c, psi, (0.0, 1.0))
        p, p1, p2, p3 = psi(u)
        try:
            direct = matrix_schwarzian(rc.jet(u, check_regular=True))
        except Exception:
            return
        pred = schwarzian_change_of_parameter(c.jet(p), p1, p2, p3)
        scale = max(1.0, np.max(np.abs(direct)))
        assert np.max(np.abs(pred - direct)) <= 1e-6 * scale
