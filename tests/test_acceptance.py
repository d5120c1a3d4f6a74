"""End-to-end checks for the released behavior of the library and CLI.

Each test pins one externally visible guarantee: the two closed-form
worked examples, the defining property of the derivative curve, the
composition law of the matrix Schwarzian, the normalization of the
centered curvatures, invariance of the classification under the conformal
symplectic group and under reparametrization, the reconstruction
roundtrip, symmetry of the velocity-weighted Schwarzian, and the cycle
machinery for flat curves.
"""

import itertools
import json
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from jacobi.cli import main
from jacobi.curvature import (
    matrix_schwarzian,
    ricci,
    schwarzian_change_of_parameter,
    verify_derivative_curve,
)
from jacobi.cycles import cycle_contains, cycle_through, is_flat, mobius_fit
from jacobi.frames import equivalent_reduced
from jacobi.matcurve import (
    SampleGrid,
    SymmetricMatrixCurve,
    preset_curve,
    reparametrized_curve,
    sample_curve,
    sine_reparam,
)
from jacobi.pipeline import analyze
from jacobi.reconstruct import (
    InvariantPrescription,
    curve_from_frame,
    integrate_frame,
    roundtrip,
)
from jacobi.symspace import random_csp

from .conftest import ROUNDTRIP_SEEDS, admissible_quartics, random_quartic

F0 = np.array([
    [1.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 1.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
])


def test_01_first_example_reproduction(unit_grid):
    start = time.perf_counter()
    ana = analyze(preset_curve("paper-6.2-ex1"), unit_grid)
    elapsed = time.perf_counter() - start

    k = ana.reduced.curvatures()
    assert np.max(np.abs(k - np.array([-2.0, 0.0]))) <= 1e-5
    assert np.max(np.abs(ana.reduced.Sigma)) <= 1e-6
    assert np.max(np.abs(ana.reduced.zeta - 1.0)) <= 1e-5
    for t, m in zip(ana.frame.ts, ana.frame.M):
        ref = np.diag([np.cosh(t) + np.sinh(t), 1.0 + t])
        dev = min(
            np.max(np.abs(m @ np.diag(signs) - ref))
            for signs in itertools.product((1.0, -1.0), repeat=2)
        )
        assert dev <= 1e-6
    assert elapsed < 1.0


def test_02_second_example_reproduction(unit_grid):
    ana = analyze(preset_curve("paper-6.2-ex2"), unit_grid)
    k = ana.reduced.curvatures()
    assert np.max(np.abs(k - np.array([0.0, 2.0]))) <= 1e-5
    assert np.max(np.abs(ana.reduced.Sigma)) <= 1e-6
    assert np.max(np.abs(ana.reduced.zeta - 1.0)) <= 1e-5

    ts = np.linspace(0.0, 1.0, 201)
    p = InvariantPrescription(
        ts=ts,
        Sigma=np.zeros((ts.size, 2, 2)),
        Kdiag=np.broadcast_to([0.0, -1.0], (ts.size, 2)).copy(),
        F0=F0,
    )
    frames, _ = integrate_frame(p)
    S, segments = curve_from_frame(frames)
    assert segments == [(0, ts.size - 1)]
    for t, s in zip(ts, S):
        ref = np.diag([t / (1.0 + t),
                       np.sin(t) / (np.cos(t) + np.sin(t))])
        assert np.max(np.abs(s - ref)) <= 1e-6


def test_03_derivative_curve_defining_property():
    for name in ("paper-6.2-ex1", "paper-6.2-ex2"):
        c = preset_curve(name)
        for tau in (0.1, 0.5, 0.9):
            assert verify_derivative_curve(c, tau) <= 1e-4, name
    for n in (2, 3):
        curves = admissible_quartics(range(40), n=n, want=10)
        assert len(curves) == 10
        for c in curves:
            for tau in (0.25, 0.75):
                assert verify_derivative_curve(c, tau) <= 1e-4, c.name


def test_04_change_of_parameter_law():
    rng = np.random.default_rng(7)
    checked = 0
    seed = 0
    while checked < 50:
        c = random_quartic(seed)
        seed += 1
        a = rng.uniform(0.7, 1.3)
        b = rng.uniform(-0.1, 0.1)
        eps = rng.uniform(0.01, 0.1)
        omega = rng.uniform(0.5, 2.0)
        if a <= eps * omega:  # keep psi increasing
            continue
        psi = sine_reparam(a, b, eps, omega)
        comp = reparametrized_curve(c, psi, (-0.1, 0.9))
        for u in (0.1, 0.5, 0.8):
            p, p1, p2, p3 = psi(u)
            if not (c.domain[0] < p < c.domain[1]):
                continue
            j = c.jet(p)
            predicted = schwarzian_change_of_parameter(j, p1, p2, p3)
            direct = matrix_schwarzian(comp.jet(u))
            scale = max(1.0, np.max(np.abs(direct)))
            assert np.max(np.abs(predicted - direct)) <= 1e-6 * scale
            checked += 1


def test_05_centered_curvature_normalization():
    grid = SampleGrid(0.0, 1.0, 101)  # h = 1e-2
    corpus = [preset_curve("paper-6.2-ex1"), preset_curve("paper-6.2-ex2")]
    corpus += admissible_quartics(range(30), grid=grid, want=10)
    for c in corpus:
        ana = analyze(c, grid)
        k = ana.reduced.curvatures()
        prod = np.prod(np.abs(k - k.mean(axis=1, keepdims=True)), axis=1)
        assert np.max(np.abs(prod - 1.0)) <= 1e-5, c.name


def test_06_group_invariance_via_compare(capsys, tmp_path):
    for name in ("paper-6.2-ex1", "paper-6.2-ex2"):
        for seed in range(20):
            g = random_csp(seed, scale=0.5, n=2, ham_scale=0.2)
            spec = {
                "n": 2,
                "kind": "preset",
                "name": name,
                "domain": [0.0, 1.0],
                "transform": g.tolist(),
            }
            f = tmp_path / f"{name}-{seed}.json"
            f.write_text(json.dumps(spec))
            code = main(["compare", name, str(f), "--t0", "0", "--t1", "1",
                         "--tol-equiv", "1e-4"])
            out = capsys.readouterr().out
            assert code == 0, (name, seed, out)
            assert json.loads(out)["verdict"] == "equivalent"


def test_07_reconstruction_roundtrip(unit_grid):
    for name in ("paper-6.2-ex1", "paper-6.2-ex2"):
        rep = roundtrip(preset_curve(name), unit_grid)
        assert rep.equivalent, (name, rep.k_deviation)
        assert rep.sympl_residual <= 1e-6
    for seed in ROUNDTRIP_SEEDS:
        rep = roundtrip(random_quartic(seed), unit_grid)
        assert rep.equivalent, (seed, rep.k_deviation, rep.sigma_deviation)

    # integration step h = 1e-3 keeps the frame symplectic to 1e-6
    ts = np.linspace(0.0, 1.0, 1001)
    p = InvariantPrescription(
        ts=ts,
        Sigma=np.zeros((ts.size, 2, 2)),
        Kdiag=np.broadcast_to([1.0, 0.0], (ts.size, 2)).copy(),
        F0=F0,
    )
    _, resid = integrate_frame(p)
    assert resid <= 1e-6


def test_08_weighted_schwarzian_symmetry(unit_grid):
    corpus = [preset_curve("paper-6.2-ex1"), preset_curve("paper-6.2-ex2")]
    corpus += admissible_quartics(range(20), want=8)
    for c in corpus:
        jets = sample_curve(c, SampleGrid(0.0, 1.0, 51))
        w = jets.S1 @ matrix_schwarzian(jets)
        scale = np.maximum(np.max(np.abs(w), axis=(1, 2)), 1e-30)
        asym = np.max(np.abs(w - np.swapaxes(w, 1, 2)), axis=(1, 2))
        assert np.all(asym <= 1e-8 * scale), c.name
        rd = ricci(jets)
        assert np.isrealobj(rd.eigvals)
        assert np.all(np.isfinite(rd.eigvals))


def test_09_cycles_of_flat_curves(unit_grid):
    s1 = np.array([[1.8, 0.4], [0.4, 1.1]])
    det = 2.0 * 5.0 - 1.0 * 1.0

    def evaluator(ts):
        den = ts + 5.0
        f = (2.0 * ts + 1.0) / den
        f1 = det / den**2
        f2 = -2.0 * det / den**3
        f3 = 6.0 * det / den**4
        return tuple(x[:, None, None] * s1 for x in (f, f1, f2, f3))

    flat = SymmetricMatrixCurve(2, evaluator, (0.0, 1.0), name="flat")
    assert is_flat(flat, unit_grid)
    assert not is_flat(preset_curve("paper-6.2-ex1"), unit_grid)

    # moebius recovery at fit tolerance
    jets = sample_curve(flat, SampleGrid(0.0, 1.0, 21))
    (a, b, c, d), direction, resid = mobius_fit(jets)
    assert resid <= 1e-8
    for t in np.linspace(0.0, 1.0, 5):
        lam = (a * t + b) / (c * t + d)
        ref = (2.0 * t + 1.0) / (t + 5.0)
        assert np.max(np.abs(lam * direction - ref * s1)) <= 1e-8

    # any three general-position samples determine the same cycle
    samples = [flat.jet(t).S
               for t in np.linspace(0.0, 1.0, 5)]
    for i, j, k in itertools.combinations(range(5), 3):
        cyc = cycle_through(samples[i], samples[j], samples[k])
        for l in range(5):
            assert cycle_contains(cyc, samples[l], tol=1e-7), (i, j, k, l)
    # role permutation leaves membership unchanged
    probe = samples[4]
    for x, y, z in itertools.permutations(samples[:3]):
        assert cycle_contains(cycle_through(x, y, z), probe, tol=1e-7)


def test_10_reparametrization_invariance(unit_grid):
    base = preset_curve("paper-6.2-ex2")
    ref = analyze(base, unit_grid).reduced
    rng = np.random.default_rng(11)
    done = 0
    while done < 10:
        a = rng.uniform(0.8, 1.3)
        eps = rng.uniform(0.01, 0.08)
        omega = rng.uniform(0.5, 2.0)
        if a <= eps * omega:
            continue
        psi = sine_reparam(a, 0.0, eps, omega)
        u0 = brentq(lambda u: psi(u)[0] - 0.0, -2.0, 2.0)
        u1 = brentq(lambda u: psi(u)[0] - 1.0, -2.0, 2.0)
        comp = reparametrized_curve(base, psi, (u0 - 1e-9, u1 + 1e-9))
        ana = analyze(comp, SampleGrid(u0, u1, 201))
        verdict, _, k_dev, s_dev = equivalent_reduced(ref, ana.reduced,
                                                      tol=1e-4)
        assert verdict, (a, eps, omega, k_dev, s_dev)
        done += 1
