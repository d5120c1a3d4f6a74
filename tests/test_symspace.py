import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jacobi.errors import (
    Gates,
    InvalidBasis,
    InvalidDimension,
    InvalidTransform,
    NotInChart,
    NotTransverse,
    RegularityFailure,
)
from jacobi.matcurve import curve_from_scalars
from jacobi.reconstruct import curve_from_frame
from jacobi.symspace import (
    _eig_cond,
    _entrywise,
    _matrix_maxabs,
    apply_symplectic,
    chart_inverse,
    chart_translate_invert,
    conformal_symplectic,
    definite_eigh,
    frame_from_chart_pair,
    is_symplectic_frame,
    random_csp,
    random_hamiltonian,
    schur2,
    symmetric_input,
    symmetrize,
    symplectic_form,
    triangular_inverse,
    velocity_form,
)
from jacobi.tolerances import COND_MAX, FRAME_TOL, SYM_TOL


def test_form_matrix_is_standard_block():
    expected = np.array([
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [-1, 0, 0, 0],
        [0, -1, 0, 0],
    ], dtype=float)
    assert np.array_equal(symplectic_form(2), expected)


def test_form_matrix_layout_n3():
    j = symplectic_form(3)
    assert j.shape == (6, 6)
    assert np.array_equal(j[:3, 3:], np.eye(3))
    assert np.array_equal(j[3:, :3], -np.eye(3))
    assert not j[:3, :3].any() and not j[3:, 3:].any()


def test_half_dimension_one_rejected():
    with pytest.raises(InvalidDimension, match="half-dimension must be >= 2"):
        symplectic_form(1)


class TestIsSymplecticFrame:
    def test_identity(self):
        ok, resid = is_symplectic_frame(np.eye(4))
        assert ok and resid == 0.0

    def test_uniform_scaling_fails(self):
        # F = 2 Id gives F^T J F = 4J; the worst entry of 4J - J is 3
        ok, resid = is_symplectic_frame(2 * np.eye(4))
        assert not ok
        assert resid == pytest.approx(3.0)

    def test_shifted_basis(self):
        # columns e_1, e_2, e_1 + ebar_1, e_2 + ebar_2
        f = np.array([
            [1, 0, 1, 0],
            [0, 1, 0, 1],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ], dtype=float)
        ok, resid = is_symplectic_frame(f)
        assert ok and resid == 0.0

    def test_dimension_mismatch(self):
        # n is read off the frame, so its last two axes must be square and
        # of even size
        for shape in [(5, 5), (3, 3, 3), (4, 6), (3, 4, 6), (4,)]:
            with pytest.raises(InvalidDimension):
                is_symplectic_frame(np.ones(shape))

    def test_verdict_reads_the_frame_tolerance(self):
        # c Id has residual c^2 - 1, here 0.8 and 1.2 FRAME_TOL
        for c, ok in ((1 + 0.4 * FRAME_TOL, True),
                      (1 + 0.6 * FRAME_TOL, False)):
            verdict, resid = is_symplectic_frame(c * np.eye(4))
            assert verdict == ok and resid == pytest.approx(c * c - 1)

    def test_size_defines_n(self):
        ok, resid = is_symplectic_frame(np.eye(6))
        assert ok and resid == 0.0
        with pytest.raises(InvalidDimension, match="half-dimension"):
            is_symplectic_frame(np.eye(2))


def chart_of_frame(x, y):
    """Chart read-off of the span of [X; Y]: the one row of curve_from_frame
    on a one-frame stack whose first column block is [X; Y]."""
    n = x.shape[0]
    f = np.eye(2 * n)
    f[:n, :n], f[n:, :n] = x, y
    S, segments = curve_from_frame(f[None])
    return S[0], segments


class TestLagrangianFromFrame:
    def test_canonical_frame(self):
        s0 = np.array([[2.0, 1.0], [1.0, 3.0]])
        s, segments = chart_of_frame(np.eye(2), s0)
        assert np.allclose(s, s0) and segments == [(0, 0)]

    def test_scale_invariance(self):
        s0 = np.array([[2.0, 1.0], [1.0, 3.0]])
        s, _ = chart_of_frame(2 * np.eye(2), 2 * s0)
        assert np.allclose(s, s0)

    def test_sheared_frame_recovers_chart_point(self):
        s0 = np.array([[2.0, 1.0], [1.0, 3.0]])
        x = np.array([[1.0, 1.0], [0.0, 1.0]])
        s, _ = chart_of_frame(x, s0 @ x)
        assert np.allclose(s, s0, atol=1e-12)

    def test_singular_x_rejected(self):
        # a singular X is outside the chart: NaN row, no segment
        s, segments = chart_of_frame(np.array([[1.0, 0.0], [0.0, 0.0]]),
                                     np.zeros((2, 2)))
        assert np.isnan(s).all() and segments == []

    def test_isotropy_enforced(self):
        # [X; Y] with X^T Y not symmetric is no Lagrangian block of a
        # symplectic frame
        f = np.eye(4)
        f[2:, :2] = np.array([[0.0, 1.0], [-1.0, 0.0]])
        ok, resid = is_symplectic_frame(f)
        assert not ok and resid == pytest.approx(2.0)


class TestCompleteBasis:
    def test_standard_pair(self):
        s = np.zeros((2, 2))
        sbar = np.eye(2)
        mbar = frame_from_chart_pair(np.eye(2), s, sbar)[..., :2, 2:]
        assert np.allclose(mbar, np.eye(2))

    def test_scaled_pair(self):
        s = np.zeros((2, 2))
        sbar = 2 * np.eye(2)
        mbar = frame_from_chart_pair(np.eye(2), s, sbar)[..., :2, 2:]
        assert np.allclose(mbar, 0.5 * np.eye(2))

    def test_completed_frame_is_symplectic(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.normal(size=(3, 3))
            s = 0.5 * (a + a.T)
            b = rng.normal(size=(3, 3))
            sbar = 0.5 * (b + b.T) + 4 * np.eye(3)
            m = rng.normal(size=(3, 3)) + 2 * np.eye(3)
            fr = frame_from_chart_pair(m, s, sbar)
            ok, resid = is_symplectic_frame(fr)
            assert ok, resid

    def test_not_transverse(self):
        s = np.eye(2)
        with pytest.raises(NotTransverse):
            frame_from_chart_pair(np.eye(2), s, s)

    def test_a_nan_basis_is_invalid(self):
        # judged outside, not passed to the SVD (LinAlgError)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidBasis, match="at sample 0$"):
                frame_from_chart_pair(np.array([[np.nan, 0.0], [0.0, 1.0]]),
                                      0.0, np.eye(2))


class TestChartTranslateInvert:
    def test_basic(self):
        out = chart_translate_invert(2 * np.eye(2), np.eye(2))
        assert np.allclose(out, np.eye(2))

    def test_diagonal(self):
        out = chart_translate_invert(np.diag([3.0, 5.0]), np.eye(2))
        assert np.allclose(out, np.diag([0.5, 0.25]))

    def test_re_translation_identity(self):
        # not an involution; the inverse map is S_ref + T^(-1)
        s = np.array([[3.0, 1.0], [1.0, 4.0]])
        ref = np.diag([1.0, 1.0])
        t = chart_translate_invert(s, ref)
        back = ref + np.linalg.inv(t)
        assert np.allclose(back, s, atol=1e-12)


class TestApplySymplectic:
    def test_identity(self):
        s = np.array([[1.0, 0.5], [0.5, 2.0]])
        assert np.allclose(apply_symplectic(np.eye(4), s), s)

    def test_j_inverts(self):
        # g = J sends S to -S^(-1); with S = 2 Id the image is -Id/2
        s = 2 * np.eye(2)
        out = apply_symplectic(symplectic_form(2), s)
        assert np.allclose(out, -0.5 * np.eye(2))

    def test_output_symmetric_for_random_group_elements(self):
        for seed in range(100):
            g = random_csp(seed, scale=1.0, n=2, ham_scale=0.5)
            s = np.array([[1.0, 0.3], [0.3, 2.0]])
            try:
                out = apply_symplectic(g, s)
            except NotInChart:
                continue
            assert np.max(np.abs(out - out.T)) <= 1e-10

    def test_non_symplectic_rejected(self):
        s = np.eye(2)
        with pytest.raises(InvalidTransform):
            apply_symplectic(np.diag([1.0, 2.0, 3.0, 4.0]), s)

    def test_a_nan_point_is_not_in_chart(self):
        # judged outside, not passed to the SVD (LinAlgError)
        g = random_csp(1, 0.5, 2, 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotInChart, match="at sample 0 "):
                apply_symplectic(g, np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_composition_law(self, seed1, seed2):
        g1 = random_csp(seed1, scale=1.0, n=2, ham_scale=0.4)
        g2 = random_csp(seed2, scale=1.0, n=2, ham_scale=0.4)
        s = np.array([[0.7, 0.2], [0.2, 1.1]])
        try:
            lhs = apply_symplectic(g2, apply_symplectic(g1, s))
            rhs = apply_symplectic(g2 @ g1, s)
        except NotInChart:
            return
        assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(
            1.0, np.max(np.abs(rhs))
        )


class TestRandomCsp:
    def test_trivial(self):
        g = random_csp(0, scale=1.0, n=2, ham_scale=0.0)
        assert np.allclose(g, np.eye(4))

    @pytest.mark.parametrize("scale,tol", [(1.0, 1e-9), (3.0, 1e-8)])
    def test_conformal_relation(self, scale, tol):
        j = symplectic_form(2)
        for seed in range(100):
            g = random_csp(seed, scale=scale, n=2, ham_scale=0.5)
            resid = np.max(np.abs(g.T @ j @ g - scale * j))
            assert resid <= tol * max(1.0, np.max(np.abs(g)) ** 2)

    def test_hamiltonian_lie_algebra_condition(self):
        j = symplectic_form(3)
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = random_hamiltonian(rng, 3)
            assert np.allclose(h.T @ j + j @ h, 0.0, atol=1e-12)

    def test_zero_scale_rejected(self):
        with pytest.raises(InvalidTransform):
            random_csp(0, scale=0.0)


class TestConformalSymplectic:
    """Both tests of conformal_symplectic are relative to maxabs(g)^2, and
    it returns g scaled by the power of two that puts max|g| in [1/2, 1)."""

    @staticmethod
    def normalized(g):
        return np.ldexp(g, -np.frexp(np.max(np.abs(g)))[1])

    def test_small_multiple_of_identity_accepted(self):
        # 1e-7 I acts on charts as the identity; it is returned as c I with
        # c in [1/2, 1), and its form scale is c^2
        g = 1e-7 * np.eye(4)
        gn, scale = conformal_symplectic(g, 2)
        assert np.array_equal(gn, self.normalized(g))
        assert 0.5 <= gn[0, 0] < 1.0 and scale == gn[0, 0] ** 2
        s = np.array([[1.0, 0.5], [0.5, 2.0]])
        assert np.allclose(apply_symplectic(g, s), s)

    def test_small_random_matrix_rejected(self):
        g = 1e-5 * np.random.default_rng(0).normal(size=(4, 4))
        with pytest.raises(InvalidTransform):
            conformal_symplectic(g, 2)

    def test_zero_matrix_rejected(self):
        with pytest.raises(InvalidTransform):
            conformal_symplectic(np.zeros((4, 4)), 2)

    @pytest.mark.parametrize("entry", [(0, 0), (1, 3)])
    def test_nan_entry_rejected(self, entry):
        # a NaN fails both tests, which state what passes
        g = random_csp(0, scale=0.5, n=2, ham_scale=0.5)
        g[entry] = np.nan
        with pytest.raises(InvalidTransform):
            conformal_symplectic(g, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.floats(-6.0, 6.0))
    @example(0, -6.0)
    @example(0, 6.0)
    def test_scaled_random_csp_accepted(self, seed, log_c):
        g = 10.0**log_c * random_csp(seed, scale=0.5, n=2, ham_scale=0.5)
        gn, _ = conformal_symplectic(g, 2)
        assert np.array_equal(gn, self.normalized(g))
        assert 0.5 <= np.max(np.abs(gn)) < 1.0


def chart_points(s, tol=SYM_TOL):
    """symmetric_input on the stack s, naming its samples "point i"."""
    gates = Gates()
    out = symmetric_input(gates, s, tol, "matrix", lambda i: f"point {i}")
    gates.raise_error()
    return out


def test_chart_point_symmetrizes_noise():
    noisy = np.array([[[1.0, 0.5 + 1e-12], [0.5, 2.0]]])
    s = chart_points(noisy)
    assert np.array_equal(s, s.swapaxes(-1, -2))
    assert np.array_equal(s, symmetrize(noisy))


def test_chart_point_rejects_gross_asymmetry():
    # symmetrize itself never judges; the gate names the asymmetry and
    # the sample
    gross = np.array([np.eye(2), [[1.0, 1.0], [0.0, 1.0]]])
    with pytest.raises(InvalidBasis) as e:
        chart_points(gross)
    assert str(e.value) == ("asymmetry 1 exceeds tolerance 1e-10 in matrix "
                            "at point 1")
    assert np.array_equal(symmetrize(gross[1]), [[1.0, 0.5], [0.5, 1.0]])


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_chart_point_rejects_a_non_finite_entry(entry):
    # an infinite entry once passed: its asymmetry inf was <= tol * inf
    s = np.array([np.eye(2), [[1.0, entry], [0.5, 1.0]]])
    with pytest.raises(InvalidBasis, match="^matrix not finite at point 1$"):
        chart_points(s)


class TestSymmetricInput:
    """symmetric_input gates the earliest failing sample, not finite before
    asymmetric, and returns the samples before it."""

    def test_a_bitwise_symmetric_stack_is_not_copied(self):
        s = np.stack([np.eye(2), 2 * np.eye(2)])
        out = chart_points(s)
        assert np.shares_memory(out, s) and np.array_equal(out, s)

    def test_an_asymmetric_stack_is_averaged_in_its_own_memory(self):
        s = np.array([np.eye(2), [[1.0, 0.5 + 1e-12], [0.5, 2.0]]])
        want = 0.5 * s + 0.5 * s.swapaxes(-1, -2)
        out = chart_points(s)
        assert np.shares_memory(out, s) and out.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_earliest_sample_wins(self):
        s = np.stack([np.eye(2)] * 4)
        s[2, 0, 1] = np.nan
        s[3, 0, 1] = 1.0
        with pytest.raises(InvalidBasis, match="not finite at point 2$"):
            chart_points(s)
        s[1, 0, 1] = 1.0
        with pytest.raises(InvalidBasis, match="in matrix at point 1$"):
            chart_points(s)

    def test_the_tolerance_is_relative_to_max_one_and_max_abs(self):
        s = np.array([[[1e3, 1e3 + 1e-6], [1e3, 1e3]]])
        # asymmetry 1e-6 exceeds 1e-10 * 1e3, and 1e-8 * 1, not 1e-8 * 1e3
        with pytest.raises(InvalidBasis, match="^asymmetry 1e-06 exceeds"):
            chart_points(s)
        out = chart_points(s, tol=1e-8)
        assert np.array_equal(out, out.swapaxes(-1, -2))

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_asymmetry_fails_without_a_warning(self):
        s = np.array([np.eye(2), [[1.0, 1e308], [-1e308, 1.0]]])
        with pytest.raises(InvalidBasis, match="^asymmetry inf exceeds"):
            chart_points(s)

    @pytest.mark.filterwarnings("error")
    def test_averaging_near_the_largest_float_does_not_overflow(self):
        # the sum of the pair would exceed DBL_MAX; the sum of halves does not
        s = np.array([[[0.3, 1e308], [np.nextafter(1e308, 0), 0.6]]])
        out = chart_points(s)
        assert np.isfinite(out).all()
        assert np.array_equal(out, out.swapaxes(-1, -2))

    def test_the_samples_before_a_failure_are_returned(self):
        s = np.stack([np.eye(2), [[1.0, 2.0], [1.0, 1.0]], np.eye(2)])
        gates = Gates()
        out = symmetric_input(gates, s, SYM_TOL, "matrix", str)
        assert gates.stop == 1 and np.array_equal(out, s[:1])


# stacks (m, n, n) of the values the per-sample gates meet, m = 0 included
SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0]
stacks = st.tuples(st.integers(0, 5), st.integers(2, 6)).flatmap(
    lambda mn: hnp.arrays(float, (mn[0], mn[1], mn[1]), elements=st.one_of(
        st.sampled_from(SPECIAL), st.floats(-1e3, 1e3))))


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and (
        x.tobytes() == y.tobytes())


def eig_cond_reference(a, ev):
    # _eig_cond as it was written with numpy's reductions
    ev = np.abs(ev)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = ev.max(axis=-1) / ev.min(axis=-1)
    return np.where(np.isnan(a).any(axis=(-2, -1)), np.nan,
                    np.where(np.isnan(c), np.inf, c))


class TestEntrywise:
    @settings(max_examples=200, deadline=None)
    @given(stacks)
    def test_sweeps_equal_numpy_reductions_bit_for_bit(self, a):
        # a tie of -0.0 and +0.0 may return either zero, so raw values are
        # compared with their zeros made +0.0 (x + 0.0); the callers sweep
        # absolute values, booleans or eigenvalue gaps
        raw = a + 0.0
        for ufunc, reduce in ((np.maximum, np.max), (np.minimum, np.min)):
            assert same_bits(_entrywise(ufunc, raw),
                             reduce(raw, axis=(-2, -1)))
            assert same_bits(_entrywise(ufunc, raw[..., 0, :], 1),
                             reduce(raw[..., 0, :], axis=-1))
        for ufunc, reduce in ((np.logical_and, np.all),
                              (np.logical_or, np.any)):
            for b in (np.isfinite(a), np.isnan(a), a > 0):
                assert same_bits(_entrywise(ufunc, b),
                                 reduce(b, axis=(-2, -1)))
                assert same_bits(_entrywise(ufunc, b[..., 0], 1),
                                 reduce(b[..., 0], axis=-1))

    @settings(max_examples=200, deadline=None)
    @given(stacks)
    def test_rewritten_helpers_equal_their_reductions(self, a):
        assert same_bits(_matrix_maxabs(a), np.max(np.abs(a), axis=(-2, -1)))
        # the finiteness gates of jets and table_curve
        assert same_bits(np.isfinite(_matrix_maxabs(a)),
                         np.isfinite(a).all(axis=(-2, -1)))
        for s in a[:1]:  # one matrix, no sample axis
            assert same_bits(_matrix_maxabs(s), np.max(np.abs(s)))
        # any spectrum, also one that no eigensolver would return; a
        # subnormal smallest |ev| overflows the ratio to inf
        for ev in (a[..., 0, :], a[..., :, 1], np.abs(a[..., 1, :]) + 1.0):
            with np.errstate(over="ignore"):
                assert same_bits(_eig_cond(a, ev), eig_cond_reference(a, ev))


class TestSymmetrize:
    @settings(max_examples=100, deadline=None)
    @given(stacks, st.booleans())
    @example(np.full((1, 2, 2), 5e-324), False)  # the mean would be 0
    def test_a_bitwise_symmetric_stack_is_returned_itself(self, a, mirror):
        if mirror:  # + 0.0 on both sides keeps the pairs bitwise equal
            a = np.triu(a) + np.triu(a, 1).swapaxes(-1, -2)
        with np.errstate(invalid="ignore"):  # inf + -inf
            out = symmetrize(a)
            ref = 0.5 * a + 0.5 * a.swapaxes(-1, -2)
        bits = a.view(np.uint64)
        assert (out is a) == np.array_equal(bits, bits.swapaxes(-1, -2))
        # a symmetric stack is its own mean, bar a nonzero entry below
        # 2 * tiny, whose half is subnormal and may round
        same = np.abs(a) >= 2 * np.finfo(float).tiny
        same |= (a == 0) | np.isnan(a) | (out is not a)
        assert same_bits(out[same], ref[same])

    def test_signed_zero_pairs_are_averaged(self):
        # -0.0 == +0.0, but the bits differ: the pair becomes +0.0
        s = np.zeros((3, 2, 2))
        s[1, 0, 1] = -0.0
        out = symmetrize(s)
        assert out is not s
        assert np.signbit(s[1, 0, 1]) and not np.signbit(out[1]).any()

    def test_empty_stack(self):
        s = np.zeros((0, 3, 3))
        assert symmetrize(s) is s


# numpy's reductions over the matrix axes, spelled as the guard below finds
# them; the package sweeps them with _entrywise instead
MATRIX_AXIS_REDUCTIONS = {"max", "min", "amax", "amin", "all", "any"}
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jacobi"


def matrix_axis_reductions(source):
    """Line numbers of the max / min / all / any calls over axis (-2, -1)."""
    def over_matrix_axes(node):
        try:
            return ast.literal_eval(node) == (-2, -1)
        except ValueError:
            return False

    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MATRIX_AXIS_REDUCTIONS
            and any(map(over_matrix_axes, [*node.args, *(
                k.value for k in node.keywords if k.arg == "axis")]))]


def test_no_matrix_axis_reduction_is_left():
    hits = [(path.name, line) for path in sorted(PACKAGE.glob("*.py"))
            for line in matrix_axis_reductions(path.read_text())]
    assert hits == []


def test_the_reduction_guard_sees_them():
    found = matrix_axis_reductions(
        "np.max(np.abs(a), axis=(-2, -1))\n"
        "a.all(axis=(-2, -1))\n"
        "np.any(b, (-2, -1))\n"
        "a.min((-2, -1))\n"
        "np.sum(a, axis=(-2, -1))\n"
        "np.max(a, axis=-1)\n")
    assert found == [1, 2, 3, 4]


def test_symplectic_frame_blocks_roundtrip():
    # frame_from_chart_pair lays out [[M, Mbar], [S M, Sbar Mbar]]; the
    # blocks are plain slices of the (2n, 2n) array
    rng = np.random.default_rng(11)
    a, b = rng.normal(size=(2, 3, 3))
    s, sbar = 0.5 * (a + a.T), 0.5 * (b + b.T) + 4 * np.eye(3)
    m = rng.normal(size=(3, 3)) + 2 * np.eye(3)
    f = frame_from_chart_pair(m, s, sbar)
    blk, bb, abar, bbar = f[:3, :3], f[3:, :3], f[:3, 3:], f[3:, 3:]
    assert np.array_equal(blk, m)
    assert np.array_equal(bb, s @ m)
    assert np.array_equal(bbar, sbar @ abar)
    assert np.array_equal(np.block([[blk, abar], [bb, bbar]]), f)


def symmetric_stack(rng, m, n):
    a = rng.normal(size=(m, n, n))
    return 0.5 * (a + a.swapaxes(-1, -2))


def spd_stack(rng, m, n):
    """Positive definite matrices with condition numbers at most 10."""
    q, _ = np.linalg.qr(rng.normal(size=(m, n, n)))
    d = rng.uniform(0.5, 5.0, size=(m, n))
    return (q * d[:, None, :]) @ q.swapaxes(-1, -2)


class TestDefiniteEigh:
    """The stacked Cholesky reduction against LAPACK's generalized solver,
    sample by sample."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4, 6]))
    def test_matches_scipy_generalized_eigh(self, seed, n):
        rng = np.random.default_rng(seed)
        a, b = symmetric_stack(rng, 8, n), spd_stack(rng, 8, n)
        mu, m, m_inv = definite_eigh(a, b)
        for i in range(len(a)):
            ref_mu, ref_m = scipy.linalg.eigh(a[i], b[i])
            scale = np.max(np.abs(ref_mu))
            # eigenvectors are defined up to sign only where the spectrum
            # is separated
            assume(np.min(np.diff(ref_mu)) > 1e-3 * scale)
            assert np.max(np.abs(mu[i] - ref_mu)) <= 1e-12 * scale
            signs = np.sign(np.sum(m[i] * ref_m, axis=0))
            assert np.max(np.abs(m[i] * signs - ref_m)) <= 1e-10
        eye = np.eye(n)
        assert np.max(np.abs(m.swapaxes(-1, -2) @ b @ m - eye)) <= 1e-12
        assert np.max(np.abs(m_inv @ m - eye)) <= 1e-12
        resid = a @ m - b @ m * mu[:, None, :]
        assert np.max(np.abs(resid)) <= 1e-12 * max(1.0, np.max(np.abs(mu)))

    def test_indefinite_pencil_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            definite_eigh(np.eye(2)[None], np.diag([1.0, -1.0])[None])


def lower_triangular_stack(rng, m, n, log_spread):
    """Lower triangular matrices with a positive diagonal log-spaced over
    10^log_spread at a random scale, and normal entries below it of the
    size of their row's diagonal."""
    d = 10.0 ** (rng.uniform(0.0, log_spread, size=(m, n))
                 + rng.uniform(-100.0, 100.0))
    low = np.tril(rng.normal(size=(m, n, n)), -1) * d[:, :, None]
    return low + d[:, :, None] * np.eye(n)


class TestTriangularInverse:
    """Forward substitution along the sample axis against LAPACK's
    inverse."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6),
           st.sampled_from([0, 1, 7]), st.floats(0.0, 8.0))
    def test_matches_numpy_inverse(self, seed, n, m, log_spread):
        eps = np.finfo(float).eps
        factor = lower_triangular_stack(np.random.default_rng(seed), m, n,
                                        log_spread)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = triangular_inverse(factor)
        assert x.shape == factor.shape and not np.triu(x, 1).any()
        if not m:
            return
        ref = np.linalg.inv(factor)
        # the two algorithms agree to the inverse's conditioning
        cond = np.linalg.cond(factor)
        assert np.all(np.max(np.abs(x - ref), axis=(1, 2))
                      <= n * eps * cond * np.max(np.abs(ref), axis=(1, 2)))
        # forward substitution's residual bound, entry by entry
        resid = np.abs(factor @ x - np.eye(n))
        assert np.all(resid <= n * eps * (np.abs(factor) @ np.abs(x)))
        # a diagonal L (the presets') gives LAPACK's bits
        diag = factor * np.eye(n)
        assert same_bits(triangular_inverse(diag), np.linalg.inv(diag))


def schur2_cases():
    """Symmetric 2 x 2 matrices at the edges of the kernel: an off-diagonal
    zero, equal diagonal entries, both, signed zeros, subnormals and
    entries of 1e+-300."""
    tiny = np.nextafter(0.0, 1.0)
    cases = [[[1.0, 0.0], [0.0, 2.0]], [[2.0, 0.0], [0.0, 1.0]],
             [[3.0, 1.0], [1.0, 3.0]], [[3.0, -1.0], [-1.0, 3.0]],
             [[3.0, 0.0], [0.0, 3.0]], [[0.0, 0.0], [0.0, 0.0]],
             [[-0.0, -0.0], [-0.0, -0.0]], [[0.0, -0.0], [-0.0, 0.0]],
             [[1.0, -0.0], [-0.0, -1.0]], [[1.0, tiny], [tiny, 2.0]],
             [[tiny, tiny], [tiny, tiny]], [[tiny, 0.0], [0.0, 2 * tiny]],
             [[1e-310, 3e-310], [3e-310, -2e-310]],
             [[1e300, 1e-300], [1e-300, -1e300]],
             [[1e-300, 1e300], [1e300, 1e-300]],
             [[1e300, 1e300], [1e300, 1e300]],
             [[-1e300, 1e300], [1e300, 1e-300]],
             [[1e-300, 1e-300], [1e-300, 2e-300]],
             [[1.0, 1e-300], [1e-300, 1.0]], [[1e300, 0.0], [0.0, 1e300]]]
    return np.array(cases)


def symmetric_2x2(seed, m=64):
    """Symmetric 2 x 2 matrices with entries of scales 1e-5 to 1e5 within
    a matrix and 1e+-300 between matrices."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, 2, 2)) * 10.0 ** rng.uniform(-5, 5, (m, 2, 2))
    a = a * 10.0 ** rng.uniform(-300, 300, (m, 1, 1))
    return 0.5 * a + 0.5 * a.swapaxes(-1, -2)


class TestSchur2:
    """The n = 2 eigensolve against LAPACK's, under numeric warnings as
    errors: mu to 8 eps max|C|, with the residual and orthonormality of V
    checked (plus the subnormal spacing where C is subnormal)."""

    @staticmethod
    def check(c):
        eps, tiny = np.finfo(float).eps, np.nextafter(0.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu, v = schur2(c)
        tol = 8 * eps * np.max(np.abs(c), axis=(1, 2)) + 4 * tiny
        assert np.all(mu[:, 0] <= mu[:, 1])
        assert np.all(np.max(np.abs(mu - np.linalg.eigvalsh(c)), axis=1)
                      <= tol)
        resid = c @ v - v * mu[:, None, :]
        assert np.all(np.max(np.abs(resid), axis=(1, 2)) <= tol)
        assert np.max(np.abs(v.swapaxes(-1, -2) @ v - np.eye(2))) <= 4 * eps

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_numpy_eigh(self, seed):
        self.check(symmetric_2x2(seed))

    def test_edge_cases(self):
        c = schur2_cases()
        self.check(c)
        # a diagonal matrix is its own spectrum, bit for bit
        diag = np.flatnonzero(c[:, 0, 1] == 0)
        assert np.array_equal(schur2(c[diag])[0],
                              np.sort(np.diagonal(c[diag], 0, 1, 2), 1))

    def test_out_of_range_gives_nan_without_a_warning(self):
        c = np.array([[[np.inf, 0.0], [0.0, 1.0]], [[1.0, np.nan],
                                                     [np.nan, 1.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu, _ = schur2(c)
        assert np.isnan(mu).all()


def sigma_read_off_errors(log_cond, n, seed):
    """Relative errors of M^(-1) X, X random, from definite_eigh's M^(-1),
    from np.linalg.solve(M, X) and from M^T b X, each against a 40-digit
    mpmath solve with the same M, on a b with cond(b) = 10^log_cond."""
    import mpmath

    rng = np.random.default_rng(seed)
    b = spectrum_stack(rng, 4, n, log_cond, 1)
    b = 0.5 * b + 0.5 * b.swapaxes(-1, -2)
    _, m, m_inv = definite_eigh(symmetric_stack(rng, 4, n), b)
    x = rng.normal(size=m.shape)
    errors = np.zeros(3)
    with mpmath.workdps(40):
        for i in range(len(m)):
            ref = mpmath.matrix(m[i].tolist()) ** -1 * mpmath.matrix(
                x[i].tolist())
            scale = max(abs(v) for v in ref)
            for k, p in enumerate((m_inv[i] @ x[i],
                                   np.linalg.solve(m[i], x[i]),
                                   m[i].T @ b[i] @ x[i])):
                err = max(abs(mpmath.mpf(float(p[r, c])) - ref[r, c])
                          for r in range(n) for c in range(n))
                errors[k] = max(errors[k], float(err / scale))
    return errors


@pytest.mark.parametrize("log_cond", [2, 5, 8, 11])
def test_sigma_read_off_is_as_accurate_as_a_solve(log_cond):
    # reduced_invariants reads Sigma with definite_eigh's M^(-1) = V^T L^T:
    # within ten times a solve's error at every cond(S'), where the equal
    # M^T S' loses digits in proportion to cond(S')^(1/2)
    errors = np.max([sigma_read_off_errors(log_cond, n, 10 * log_cond + n)
                     for n in (2, 3, 4, 6)], axis=0)
    new, solve, transpose = errors
    assert new <= 10 * solve
    if log_cond >= 8:
        assert transpose > 10 * solve


def eig_cond(a):
    """_eig_cond of symmetric matrices a from their eigvalsh spectra, the
    rule velocity_form falls back to."""
    return _eig_cond(a, np.linalg.eigvalsh(a))


class TestSymCond:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_matches_numpy_cond(self, n):
        rng = np.random.default_rng(n)
        a = symmetric_stack(rng, 50, n)
        a[::5] *= 1e-6  # scale does not matter
        a[1] = spd_stack(rng, 1, n)[0]
        ref = np.linalg.cond(a)
        assert np.max(np.abs(eig_cond(a) - ref) / ref) <= 1e-10

    def test_singular_and_zero_matrices_are_infinite(self):
        stack = np.array([np.zeros((2, 2)), np.diag([1.0, 0.0]),
                          np.diag([0.0, -3.0]), np.eye(2)])
        assert eig_cond(stack).tolist() == [np.inf, np.inf, np.inf, 1.0]
        assert eig_cond(np.zeros((3, 3))) == np.inf

    def test_nan_stays_nan(self):
        out = eig_cond(np.array([[[np.nan, 0.0], [0.0, 1.0]], np.eye(2)]))
        assert np.isnan(out[0]) and out[1] == 1.0


class TestStackedChartOperations:
    """apply_symplectic and chart_translate_invert act on a stack of chart
    points sample by sample: the per-sample results bit for bit, and a
    singular sample fails naming the earliest one."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4, 6]),
           st.integers(1, 9), st.sampled_from([0.5, 1.0, 3.0]))
    def test_equal_the_per_sample_calls(self, seed, n, m, scale):
        rng = np.random.default_rng(seed)
        s, ref = symmetric_stack(rng, m, n), symmetric_stack(rng, 1, n)[0]
        g = random_csp(seed, scale=scale, n=n, ham_scale=0.5)
        try:
            images = apply_symplectic(g, s)
            outs = [chart_translate_invert(pts, ref) for pts in (s, images)]
        except (NotInChart, NotTransverse):
            assume(False)
        assert np.array_equal(images, np.stack(
            [apply_symplectic(g, p) for p in s]))
        for pts, out in zip((s, images), outs):
            assert np.array_equal(out, np.stack(
                [chart_translate_invert(p, ref) for p in pts]))

    @pytest.mark.parametrize("k", [0, 2, 5])
    def test_singular_sample_is_named(self, k):
        # samples k and 5 are singular: the earliest, k, is reported
        s = np.stack([np.diag([1.0, 2.0 + i]) for i in range(7)])
        s[[k, 5]] = np.diag([1.0, 0.0])
        with pytest.raises(NotInChart, match=f"at sample {k} "):
            apply_symplectic(symplectic_form(2), s)  # P + Q S = S
        with pytest.raises(NotTransverse, match=f"at sample {k} "):
            chart_translate_invert(s + np.eye(2), np.eye(2))

    @pytest.mark.parametrize("op", ["apply_symplectic",
                                    "chart_translate_invert",
                                    "frame_from_chart_pair"])
    def test_nested_lists_give_the_array_bits(self, op):
        # S.shape, or list - list, once raised on nested lists
        S, other = [[1.0, 0.5], [0.5, 2.0]], [[3.0, -1.0], [-1.0, 1.0]]
        M = [[1.0, 0.0], [2.0, 1.0]]
        args = {"apply_symplectic": (random_csp(1, 0.5, 2, 0.2).tolist(), S),
                "chart_translate_invert": (S, other),
                "frame_from_chart_pair": (M, S, other)}[op]
        f = globals()[op]
        want = f(*(np.array(a) for a in args))
        got = f(*args)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def spectrum_stack(rng, m, n, log_cond, sign):
    """Symmetric matrices Q diag(d) Q^T with |d| log-spaced over 10^log_cond
    (times a random scale), all of one sign, or (sign 0) indefinite."""
    q, _ = np.linalg.qr(rng.normal(size=(m, n, n)))
    d = 10.0 ** (np.linspace(0.0, log_cond, n) + rng.uniform(-3, 3))
    d = d * (sign or np.where(np.arange(n) % 2, -1.0, 1.0))
    return (q * d[..., None, :]) @ q.swapaxes(-1, -2)


def spectral_rule(s):
    """(regular, sign) of symmetric matrices s by their spectra alone:
    cond_2 at most COND_MAX, and +1 / -1 where s is definite of that sign,
    else 0."""
    ev = np.linalg.eigvalsh(s)
    sign = np.where(ev[..., 0] > 0, 1, np.where(ev[..., -1] < 0, -1, 0))
    return _eig_cond(s, ev) <= COND_MAX, sign


class TestDefiniteCertificate:
    """velocity_form gives the spectral rule's regular and sign at every
    sample: by its Cholesky certificate where that clears the stack (with
    that factor, LAPACK's bit for bit), else by the spectrum."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4, 6]),
           st.floats(0.0, 16.0), st.sampled_from([1, -1, 0]))
    def test_certified_stacks_pass_the_spectral_rule(self, seed, n,
                                                     log_cond, sign):
        s = spectrum_stack(np.random.default_rng(seed), 8, n, log_cond, sign)
        s = 0.5 * (s + s.swapaxes(-1, -2))
        regular, got_sign, factor = velocity_form(s)
        ref_regular, ref_sign = spectral_rule(s)
        assert same_bits(regular, ref_regular)
        assert np.array_equal(got_sign, ref_sign)
        if factor is None:
            # cleared stacks of one sign: all with cond(s) <= 1e9
            assert sign == 0 or log_cond > 9.0 - np.log10(n * n)
            return
        assert regular.all() and np.all(got_sign == sign)
        assert same_bits(factor, np.linalg.cholesky(s if sign > 0 else -s))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]),
           st.lists(st.sampled_from(["positive", "negative", "indefinite",
                                     "singular", "near"]),
                    min_size=2, max_size=8))
    def test_uncertified_samples_follow_the_spectral_rule(self, seed, n,
                                                           kinds):
        # definite, indefinite and singular samples mixed: no certificate,
        # so each sample is judged by its spectrum; a single matrix (the
        # path of ricci(jet) and matrix_schwarzian) by its own
        rng = np.random.default_rng(seed)
        stack = []
        for kind in kinds:
            if kind == "singular":  # exactly: integer rank one
                u = rng.integers(-3, 4, size=n).astype(float)
                stack.append(np.outer(u, u))
            else:
                # "near": positive definite with cond from 1e11 to 1e13
                sign = {"positive": 1, "near": 1, "negative": -1}.get(kind, 0)
                log_cond = rng.uniform(11.0, 13.0) if kind == "near" else 2.0
                stack.append(spectrum_stack(rng, 1, n, log_cond, sign)[0])
        s = np.array(stack)
        s = 0.5 * (s + s.swapaxes(-1, -2))
        ref_regular, ref_sign = spectral_rule(s)
        regular, sign, factor = velocity_form(s)
        if factor is None:
            assert same_bits(regular, ref_regular)
            assert np.array_equal(sign, ref_sign)
        for k, sk in enumerate(s):
            regular, sign, _ = velocity_form(sk)
            assert regular.shape == sign.shape == ()
            assert regular == ref_regular[k] and sign == ref_sign[k]

    def test_a_failed_bound_does_not_try_the_other_sign(self, monkeypatch):
        # cholesky(S') succeeds but its bound fails: the spectrum decides
        # and -S' is not factored
        s = np.diag([1.0, 2e-12])[None]  # cond 5e11, bound above 2.5e11
        calls = []

        def cholesky(a, _fn=np.linalg.cholesky):
            calls.append(a)
            return _fn(a)

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        regular, sign, factor = velocity_form(s)
        assert factor is None and len(calls) == 1
        assert regular.tolist() == [True] and sign.tolist() == [1]

    @pytest.mark.parametrize("big,small", [(1e3, 1e-320), (1e200, 1e-120)])
    def test_an_overflowing_bound_is_left_to_the_spectrum(self, big, small):
        # the bound overflows to inf (a subnormal eigenvalue overflows the
        # inverse factor's norm, the other pair the product of the two
        # norms): inconclusive, and without a warning; the spectral rule
        # then calls the matrix singular
        s = np.diag([big, small])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, sign in ((s, 1), (-s, -1)):
                regular, got_sign, factor = velocity_form(x[None])
                assert factor is None
                assert regular.tolist() == [False]
                assert got_sign.tolist() == [sign]
            with pytest.raises(NotTransverse):
                chart_translate_invert(s, np.zeros((2, 2)))
            with pytest.raises(RegularityFailure):
                curve_from_scalars([lambda t: (big * t, big, 0.0, 0.0),
                                    lambda t: (small * t, small, 0.0, 0.0)],
                                   (0.0, 1.0)).jets([0.5])

    def test_definite_eigh_takes_the_certificate_factor(self):
        rng = np.random.default_rng(7)
        a, b = symmetric_stack(rng, 6, 3), spd_stack(rng, 6, 3)
        regular, sign, factor = velocity_form(b)
        assert regular.all() and np.all(sign == 1)
        for x, y in zip(definite_eigh(a, b, factor), definite_eigh(a, b)):
            assert same_bits(x, y)


def chart_reference(frames):
    """curve_from_frame as the SVD rule alone computes it, a block that is
    not finite being outside."""
    n = frames.shape[-1] // 2
    a, b = frames[:, :n, :n], frames[:, n:, :n]
    inside = np.isfinite(a).all(axis=(-2, -1))
    if inside.any():
        inside[inside] = np.linalg.cond(a[inside]) <= COND_MAX
    S = np.full(a.shape, np.nan)
    S[inside] = symmetrize(b[inside] @ np.linalg.inv(a[inside]))
    return S, inside


class TestChartExitCertificate:
    """chart_inverse's inside is cond(A) <= COND_MAX, and curve_from_frame
    exits the chart exactly there, whether the certificate clears A, does
    not, or A has no inverse or holds a NaN."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]),
           st.lists(st.sampled_from(["random", "singular", "zero", "near",
                                     "nan"]),
                    min_size=1, max_size=6))
    def test_mask_and_points_equal_the_svd_rule(self, seed, n, kinds):
        rng = np.random.default_rng(seed)
        frames = rng.normal(size=(len(kinds), 2 * n, 2 * n))
        for f, kind in zip(frames, kinds):
            if kind == "singular":  # exactly: integer rank one
                u, v = rng.integers(-3, 4, size=(2, n)).astype(float)
                f[:n, :n] = np.outer(u, v)
            elif kind == "zero":
                f[:n, :n] = 0.0
            elif kind == "nan":
                f[rng.integers(n), rng.integers(n)] = np.nan
            elif kind == "near":  # cond(A) from 1e11 to 1e13
                q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
                q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
                d = np.logspace(0.0, -rng.uniform(11.0, 13.0), n)
                f[:n, :n] = (q1 * d) @ q2 * 10.0 ** rng.uniform(-5, 5)
        ref_S, ref_inside = chart_reference(frames)
        a = frames[:, :n, :n]
        a_inv, inside = chart_inverse(a)
        assert same_bits(inside, ref_inside)
        try:
            assert same_bits(a_inv, np.linalg.inv(a))
        except np.linalg.LinAlgError:
            assert a_inv is None
        for k, ak in enumerate(a):  # one matrix, no sample axis
            _, inside = chart_inverse(ak)
            assert inside.shape == () and inside == ref_inside[k]
        S, segments = curve_from_frame(frames)
        assert same_bits(S, ref_S)
        inside = np.zeros(len(frames), bool)
        for i, j in segments:
            inside[i:j + 1] = True
        assert same_bits(inside, ref_inside)
