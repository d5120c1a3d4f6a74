import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from jacobi import cli, tolerances
from jacobi.cli import _invariant_csv, _json, main
from jacobi.errors import InvalidBasis
from jacobi.frames import ReducedCartan
from jacobi.matcurve import (SampleGrid, curve_from_json, preset_curve,
                             sample_curve)
from jacobi.symspace import random_csp, symplectic_form

from .conftest import quartic_coeffs, random_quartic


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _stable_ref(obj):
    """Recursively quantize floats through %.12e: the artifact writer's
    reference, json.dumps(_stable_ref(obj), indent=2, sort_keys=True)."""
    if isinstance(obj, (float, np.floating)):
        return float("%.12e" % float(obj))
    if isinstance(obj, (int, np.integer, bool, str)) or obj is None:
        return obj
    if isinstance(obj, np.ndarray):
        return _stable_ref(obj.tolist())
    if isinstance(obj, dict):
        return {k: _stable_ref(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stable_ref(v) for v in obj]
    return obj


def _csv_ref(reduced):
    """invariants.csv written one value at a time."""
    n = reduced.n
    header = ["t", "arclength", "zeta"]
    header += [f"k_{i + 1}" for i in range(n)]
    header += [f"sigma_{i + 1}{j + 1}" for i in range(n)
               for j in range(i + 1, n)]
    k = reduced.curvatures()
    lines = [",".join(header)]
    for r in range(reduced.ts.size):
        row = [reduced.ts[r], reduced.arclength[r], reduced.zeta[r]]
        row += list(k[r])
        row += [reduced.Sigma[r, i, j] for i in range(n)
                for j in range(i + 1, n)]
        lines.append(",".join("%.12e" % float(x) for x in row))
    return "\n".join(lines) + "\n"


SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -1e300, 1e-300,
           -1e-300, 0.1, 5e-324]
FLOATS = st.floats() | st.sampled_from(SPECIAL)
FLOAT_ARRAYS = arrays(np.float64, array_shapes(min_dims=0, max_dims=3,
                                                min_side=0, max_side=3),
                      elements=FLOATS)
LEAVES = (FLOATS | FLOATS.map(np.float64) | st.integers(-2**70, 2**70)
          | st.booleans() | st.none() | st.text(max_size=6) | FLOAT_ARRAYS
          | arrays(np.int64, array_shapes(min_dims=0, max_dims=2))
          # table rows: 2 x 2 samples with None at chart exits
          | st.lists(st.none() | arrays(np.float64, (2, 2), elements=FLOATS),
                     max_size=4))
PAYLOADS = st.recursive(
    LEAVES, lambda inner: (st.lists(inner, max_size=4)
                           | st.tuples(inner, inner)
                           | st.dictionaries(st.text(max_size=6), inner,
                                             max_size=4)),
    max_leaves=12)


class TestWriter:
    @settings(max_examples=300, deadline=None)
    @given(PAYLOADS)
    def test_text_is_json_dumps_of_quantized_payload(self, obj):
        assert _json(obj) == json.dumps(_stable_ref(obj), indent=2,
                                        sort_keys=True)

    @pytest.mark.parametrize("leaf", [np.int64(3), np.bool_(True), 1j])
    def test_leaves_json_cannot_write_raise_as_before(self, leaf):
        with pytest.raises(TypeError):
            json.dumps(_stable_ref({"a": [leaf]}))
        with pytest.raises(TypeError):
            _json({"a": [leaf]})

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_invariant_csv_matches_per_value_loop(self, n, tmp_path):
        rng = np.random.default_rng(n)
        m = 7
        sigma = rng.normal(size=(m, n, n)) * 10.0 ** rng.integers(-5, 5)
        sigma[2, 0, 1], sigma[3, 0, n - 1], sigma[4, 0, 1] = -0.0, np.nan, 1e300
        reduced = ReducedCartan(ts=np.linspace(0.0, 1.0, m),
                                arclength=rng.uniform(0, 2, m),
                                zeta=rng.uniform(0.5, 2, m), Sigma=sigma,
                                Kdiag=rng.normal(size=(m, n)))
        _invariant_csv(reduced, tmp_path / "invariants.csv")
        assert (tmp_path / "invariants.csv").read_text() == _csv_ref(reduced)


class TestAnalyze:
    def test_preset_ok(self, capsys):
        code, out, err = run(capsys, "analyze", "--preset", "paper-6.2-ex1",
                             "--t0", "0", "--t1", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["admissibility"]["admissible"] is True
        k = np.asarray(payload["invariants"]["k"])
        assert np.max(np.abs(k - np.array([-2.0, 0.0]))) <= 1e-5

    def test_inadmissible_exit_code(self, capsys):
        code, out, err = run(capsys, "analyze", "--preset", "affine-line",
                             "--t0", "0", "--t1", "1")
        assert code == 2
        payload = json.loads(out)
        assert payload["admissibility"]["first_failure"] == "arc-element"

    def test_missing_curve_is_an_error(self, capsys):
        code, out, err = run(capsys, "analyze")
        assert code == 1
        assert json.loads(err)["error"] == "JacobiError"

    def test_missing_file_is_an_error(self, capsys):
        code, out, err = run(capsys, "analyze", "/no/such/file.json")
        assert code == 1
        assert json.loads(err)["error"] == "FileNotFound"

    def test_artifacts_written(self, capsys, tmp_path):
        code, _, _ = run(capsys, "analyze", "--preset", "paper-6.2-ex2",
                         "--t0", "0", "--t1", "1", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "analysis.json").read_text())
        assert payload["grid"]["m"] == 201
        csv = (tmp_path / "invariants.csv").read_text().splitlines()
        assert csv[0] == "t,arclength,zeta,k_1,k_2,sigma_12"
        assert len(csv) == 202
        # every value is rendered with the fixed format
        assert all(len(cell.split("e")) == 2
                   for cell in csv[1].split(","))

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code, _, _ = run(capsys, "analyze", "--preset", "paper-6.2-ex1",
                             "--t0", "0", "--t1", "1", "--out", str(out))
            assert code == 0
        assert (a / "analysis.json").read_bytes() == \
            (b / "analysis.json").read_bytes()
        assert (a / "invariants.csv").read_bytes() == \
            (b / "invariants.csv").read_bytes()

    def test_json_curve_input(self, capsys, tmp_path):
        spec = {
            "n": 2,
            "kind": "preset",
            "name": "paper-6.2-ex1",
            "domain": [0.0, 1.0],
        }
        f = tmp_path / "curve.json"
        f.write_text(json.dumps(spec))
        code, out, _ = run(capsys, "analyze", str(f))
        assert code == 0

    def test_strict_tightens_admissibility(self, capsys):
        # with a loose admissibility tolerance the affine line passes the
        # screen only if --strict does not re-tighten it
        code_loose, _, _ = run(capsys, "analyze", "--preset", "affine-line",
                               "--t0", "0.5", "--t1", "1",
                               "--tol-adm", "1e300")
        code_strict, _, _ = run(capsys, "analyze", "--preset", "affine-line",
                                "--t0", "0.5", "--t1", "1",
                                "--tol-adm", "1e300", "--strict")
        # 1e300 * 0.1 is still astronomically loose, so both behave the
        # same here; the factor is visible on the equivalence tolerance
        assert code_loose == code_strict

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_a_vanishing_arc_element_fails_at_any_tolerance(self, capsys,
                                                            tol):
        # det = 0 on the affine line passed a tolerance of 0 or below, and
        # its zeta = 0 ended in a divide warning and a NaN normalization
        code, out, err = run(capsys, "analyze", "--preset", "affine-line",
                             "--t0", "0", "--t1", "1", "--tol-adm", tol)
        assert (code, err) == (2, "")
        report = json.loads(out)["admissibility"]
        assert report["first_failure"] == "arc-element"
        assert report["failure_t"] == 0.0

    def test_transform_leaving_the_chart_is_an_error(self, capsys, tmp_path):
        # S(0) = 0, so P + Q S is singular at t = 0 under J
        spec = {"n": 2, "kind": "preset", "name": "paper-6.2-ex1",
                "domain": [0, 1], "transform": symplectic_form(2).tolist()}
        f = tmp_path / "curve.json"
        f.write_text(json.dumps(spec))
        code, out, err = run(capsys, "analyze", str(f))
        assert (code, out) == (1, "")
        payload = json.loads(err)
        assert payload["error"] == "NotInChart"
        assert "t=0.0:" in payload["message"]


class TestCompare:
    def test_preset_against_itself(self, capsys):
        code, out, _ = run(capsys, "compare", "paper-6.2-ex1",
                           "paper-6.2-ex1", "--t0", "0", "--t1", "1")
        assert code == 0
        assert json.loads(out)["verdict"] == "equivalent"

    def test_distinct_presets(self, capsys):
        code, out, _ = run(capsys, "compare", "paper-6.2-ex1",
                           "paper-6.2-ex2", "--t0", "0", "--t1", "1")
        assert code == 3
        payload = json.loads(out)
        assert payload["verdict"] == "not-equivalent"
        assert payload["k_deviation"] > 0.5

    def test_inadmissible_operand(self, capsys):
        code, out, _ = run(capsys, "compare", "paper-6.2-ex1",
                           "affine-line", "--t0", "0", "--t1", "1")
        assert code == 2
        assert json.loads(out)["verdict"] == "inadmissible"

    def test_tol_adm_reaches_the_pipeline(self, capsys, tmp_path):
        # t = 0.001 u shrinks the admissibility determinant by 1e-12, below
        # the default tolerance: only a looser --tol-adm admits the curve
        spec = {"n": 2, "kind": "preset", "name": "paper-6.2-ex1",
                "reparam": {"type": "affine", "a": 0.001,
                            "domain": [0, 1000]}}
        f = tmp_path / "slow.json"
        f.write_text(json.dumps(spec))
        code, _, _ = run(capsys, "compare", str(f), str(f))
        assert code == 2
        code, out, err = run(capsys, "compare", str(f), str(f),
                             "--tol-adm", "1e-30")
        assert code == 0, err
        assert json.loads(out)["verdict"] == "equivalent"
        code, _, _ = run(capsys, "analyze", str(f), "--tol-adm", "1e-30")
        assert code == 0

    def test_transformed_curve_equivalent(self, capsys, tmp_path):
        from jacobi.symspace import random_csp

        g = random_csp(3, scale=0.5, n=2, ham_scale=0.2)
        spec = {
            "n": 2,
            "kind": "preset",
            "name": "paper-6.2-ex2",
            "domain": [0.0, 1.0],
            "transform": g.tolist(),
        }
        f = tmp_path / "curve.json"
        f.write_text(json.dumps(spec))
        code, out, _ = run(capsys, "compare", "paper-6.2-ex2", str(f),
                           "--t0", "0", "--t1", "1")
        assert code == 0
        assert json.loads(out)["verdict"] == "equivalent"

    def test_non_conformal_transform_is_an_error(self, capsys, tmp_path):
        g = np.eye(4)
        g[0, 1] = 0.3
        spec = {"n": 2, "kind": "preset", "name": "paper-6.2-ex1",
                "transform": g.tolist()}
        f = tmp_path / "curve.json"
        f.write_text(json.dumps(spec))
        code, out, err = run(capsys, "compare", "paper-6.2-ex1", str(f))
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "InvalidTransform"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", [1e200, 1e-200])
    def test_a_map_of_any_scale_is_accepted(self, c, capsys, tmp_path):
        # c I acts on charts as the identity: max|g|^2 once overflowed (an
        # OverflowError traceback) or underflowed to 0 (InvalidTransform)
        spec = {"n": 2, "kind": "preset", "name": "paper-6.2-ex1",
                "domain": [0, 1], "transform": (c * np.eye(4)).tolist()}
        f = tmp_path / "curve.json"
        f.write_text(json.dumps(spec))
        code, out, _ = run(capsys, "compare", "paper-6.2-ex1", str(f),
                           "--t0", "0", "--t1", "1")
        assert code == 0
        assert json.loads(out)["verdict"] == "equivalent"

    def test_missing_domain_is_an_error(self, capsys, tmp_path):
        f = tmp_path / "curve.json"
        f.write_text(json.dumps({"n": 2, "kind": "polynomial",
                                 "entries": [[[0, 1], [0]], [[0], [0, 2]]]}))
        code, _, err = run(capsys, "compare", "paper-6.2-ex1", str(f))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "MissingKey"
        assert "'domain'" in payload["message"]


class TestReconstruct:
    def prescription(self, tmp_path, kdiag, m=201):
        spec = {
            "n": 2,
            "grid": {"t0": 0.0, "t1": 1.0, "m": m},
            "Sigma": [[0.0, 0.0], [0.0, 0.0]],
            "K": kdiag,
            "F0": [
                [1.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 1.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ],
        }
        f = tmp_path / "prescription.json"
        f.write_text(json.dumps(spec))
        return f

    def test_roundtrip_artifacts(self, capsys, tmp_path):
        f = self.prescription(tmp_path, [0.0, -1.0])
        code, _, _ = run(capsys, "reconstruct", str(f),
                         "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "reconstruct.json").read_text())
        assert report["symplecticity_residual"] <= 1e-6
        assert report["frame_deviation"] <= 1e-6
        assert report["in_chart_samples"] == 201
        curve = json.loads((tmp_path / "curve.json").read_text())
        s_end = np.asarray(curve["samples"]["S"][-1])
        ref = np.diag([1.0 / 2.0, np.sin(1.0) / (np.cos(1.0) + np.sin(1.0))])
        assert np.max(np.abs(s_end - ref)) <= 1e-8

    def test_reconstructed_curve_feeds_compare(self, capsys, tmp_path):
        # JSON artifacts carry 12 significant digits; the grid is chosen so
        # neither quantization noise (amplified by h^-5 in the re-analysis)
        # nor stencil truncation dominates
        f = self.prescription(tmp_path, [0.0, -1.0], m=51)
        code, _, _ = run(capsys, "reconstruct", str(f),
                         "--out", str(tmp_path))
        assert code == 0
        code, out, _ = run(capsys, "compare", "paper-6.2-ex2",
                           str(tmp_path / "curve.json"),
                           "--t0", "0", "--t1", "1",
                           "--tol-equiv", "2e-3")
        assert code == 0, out
        assert json.loads(out)["verdict"] == "equivalent"

    def test_resid_cap_is_an_error(self, capsys, tmp_path):
        f = self.prescription(tmp_path, [1.0, 0.0])
        code, _, err = run(capsys, "reconstruct", str(f),
                           "--tol-resid", "1e-18")
        assert code == 1
        assert json.loads(err)["error"] == "SymplecticityLoss"

    def test_coarse_step_is_an_error(self, capsys, tmp_path):
        # K = -100 turns the frame by h sqrt(100) = 1.25 rad a step
        f = self.prescription(tmp_path, [1.0, -100.0], m=9)
        code, _, err = run(capsys, "reconstruct", str(f))
        assert code == 1
        assert json.loads(err)["error"] == "StepTooCoarse"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("key,value", [
        ("K", [1e300, -1.0]),
        ("Sigma", [[0.0, 1e300], [-1e300, 0.0]]),
    ])
    def test_an_overflowing_step_is_too_coarse(self, key, value, capsys,
                                               tmp_path):
        # the centered product and the Cayley step once overflowed with
        # numeric warnings before the step gate decided
        f = self.prescription(tmp_path, [0.0, -1.0], m=51)
        spec = json.loads(f.read_text())
        spec[key] = value
        f.write_text(json.dumps(spec))
        code, out, err = run(capsys, "reconstruct", str(f))
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "StepTooCoarse"

    @pytest.mark.filterwarnings("error")
    def test_frames_out_of_float_range_are_one_typed_error(self, capsys,
                                                           tmp_path):
        # every step is below STEP_MAX, but the frames grow like
        # exp(sqrt(60) tau) and leave float range; the product and the
        # residual once warned seven times and ended in a NaN residual
        f = self.prescription(tmp_path, [50.0, 60.0], m=2001)
        spec = json.loads(f.read_text())
        spec["grid"]["t1"] = 200.0
        f.write_text(json.dumps(spec))
        code, out, err = run(capsys, "reconstruct", str(f))
        assert code == 1 and out == "" and len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "DomainError"
        assert payload["message"].startswith("frame out of float range at t=")


class TestCycle:
    def test_points_file(self, capsys, tmp_path):
        pts = {
            "points": [
                np.zeros((2, 2)).tolist(),
                np.eye(2).tolist(),
                (2.0 * np.eye(2)).tolist(),
            ]
        }
        f = tmp_path / "points.json"
        f.write_text(json.dumps(pts))
        code, out, _ = run(capsys, "cycle", "--points", str(f))
        assert code == 0
        payload = json.loads(out)
        assert payload["regular"] is True
        assert np.allclose(payload["base"], -0.5 * np.eye(2))

    def test_membership_of_extra_points(self, capsys, tmp_path):
        # fourth point on the cycle, fifth off it
        on = np.linalg.inv(np.array([[-0.25, 0.0], [0.0, -0.25]])) \
            + 2.0 * np.eye(2)
        pts = {
            "points": [
                np.zeros((2, 2)).tolist(),
                np.eye(2).tolist(),
                (2.0 * np.eye(2)).tolist(),
                on.tolist(),
                (5.0 * np.eye(2) + np.array([[0, 1], [1, 0]])).tolist(),
            ]
        }
        f = tmp_path / "points.json"
        f.write_text(json.dumps(pts))
        code, out, _ = run(capsys, "cycle", "--points", str(f))
        assert code == 0
        assert json.loads(out)["extra_points_contained"] == [True, False]

    def test_point_not_transverse_to_infinity(self, capsys, tmp_path):
        # diag(0, 5) - 0 is singular: outside the line's chart, so not a
        # member, and the run still exits 0
        pts = [np.diag([1.0, 2.0]), np.diag([2.0, 3.0]), np.zeros((2, 2)),
               np.diag([2.0 / 3.0, 1.5]), np.diag([3.0, 4.0]),
               np.diag([0.0, 5.0])]
        f = tmp_path / "points.json"
        f.write_text(json.dumps({"points": [p.tolist() for p in pts]}))
        code, out, _ = run(capsys, "cycle", "--points", str(f))
        assert code == 0
        assert json.loads(out)["extra_points_contained"] == [True, False,
                                                             False]

    def test_flat_preset_detection(self, capsys):
        code, out, _ = run(capsys, "cycle", "--preset", "affine-line",
                           "--t0", "0", "--t1", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["flat"] is True
        # a line through the chart's infinity: the Moebius map through
        # three samples is exact, and no zero is written as -0.0
        assert payload["mobius"]["coeffs"] == [1.0, 0.0, 0.0, 0.4472135955]
        assert payload["mobius"]["residual"] <= 1e-15
        assert "-0.0" not in out

    def test_curve_is_sampled_once(self, capsys, monkeypatch):
        # is_flat and mobius_fit read one sampling, whose velocity form is
        # judged by one Cholesky factorization
        calls = []

        def cholesky(a, _fn=np.linalg.cholesky):
            calls.append(a)
            return _fn(a)

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        code, out, _ = run(capsys, "cycle", "--preset", "affine-line",
                           "--t0", "0", "--t1", "1")
        assert code == 0 and "coeffs" in json.loads(out)["mobius"]
        assert len(calls) == 1

    def test_curved_preset_not_flat(self, capsys):
        code, out, _ = run(capsys, "cycle", "--preset", "paper-6.2-ex1",
                           "--t0", "0", "--t1", "1")
        assert code == 0
        assert json.loads(out)["flat"] is False

    def test_degenerate_points_error(self, capsys, tmp_path):
        pts = {
            "points": [
                np.zeros((2, 2)).tolist(),
                np.diag([1.0, 0.0]).tolist(),
                (2.0 * np.eye(2)).tolist(),
            ]
        }
        f = tmp_path / "points.json"
        f.write_text(json.dumps(pts))
        code, _, err = run(capsys, "cycle", "--points", str(f))
        assert code == 1
        assert json.loads(err)["error"] == "NotGeneralPosition"

    @pytest.mark.parametrize("points,bad", [
        ([np.zeros((2, 3)), np.eye(2), 2 * np.eye(2)], 1),
        ([np.zeros((2, 2)), np.eye(3), 2 * np.eye(2)], 2),
    ])
    def test_malformed_points_error(self, capsys, tmp_path, points, bad):
        f = tmp_path / "points.json"
        f.write_text(json.dumps({"points": [p.tolist() for p in points]}))
        code, _, err = run(capsys, "cycle", "--points", str(f))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "InvalidDimension"
        assert payload["message"].startswith(f"point {bad} ")

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_too_few_points(self, capsys, tmp_path, count):
        f = tmp_path / "points.json"
        f.write_text(json.dumps({"points": [np.eye(2).tolist()] * count}))
        code, _, err = run(capsys, "cycle", "--points", str(f))
        assert code == 1
        assert json.loads(err) == {"error": "JacobiError",
                                   "message": "need at least three points"}

    def test_asymmetric_point_error(self, capsys, tmp_path):
        # the points are symmetrized only after the asymmetry gate passed
        points = [np.zeros((2, 2)), np.eye(2), np.array([[2.0, 1.0],
                                                          [0.0, 2.0]])]
        f = tmp_path / "points.json"
        f.write_text(json.dumps({"points": [p.tolist() for p in points]}))
        code, _, err = run(capsys, "cycle", "--points", str(f))
        assert code == 1
        assert json.loads(err) == {
            "error": "InvalidBasis",
            "message": "asymmetry 1 exceeds tolerance 1e-10 in matrix at "
                       "point 3"}


class TestTableWindow:
    """A curve known at nodes (a table, or its conformal symplectic image)
    is analyzed on the nodes of the window less the TABLE_TRIM boundary
    nodes; its arclength starts at the window's first node."""

    NODES = np.linspace(-0.05, 1.05, 221)

    def table(self, tmp_path, name, curve, **extra):
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps({
            "n": 2, "kind": "table", "name": name,
            "samples": {"t": self.NODES.tolist(),
                        "S": curve.jets(self.NODES).S.tolist()}, **extra}))
        return str(f)

    def test_arclength_origin_is_t0(self, capsys, tmp_path):
        # the padded table's window [0, 1] starts at a node, its arclength
        # origin: no offset, so its arclength is the polynomial's
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps({"n": 2, "kind": "polynomial",
                                    "domain": [-0.5, 1.5],
                                    "entries": quartic_coeffs(0)}))
        table = self.table(tmp_path, "table", random_quartic(0))
        code, out, _ = run(capsys, "compare", str(poly), table, "--t0", "0",
                           "--t1", "1", "--tol-equiv", "1e-3")
        payload = json.loads(out)
        assert code == 0, payload
        ell = payload["arclength"]
        assert abs(ell["a"] - ell["b"]) <= 1e-9

    def test_origin_is_the_first_node_of_the_window(self, capsys, tmp_path):
        table = self.table(tmp_path, "table", preset_curve("paper-6.2-ex1"))
        first = {}
        for t0 in (None, "-1", "-0.04", "0"):
            window = [] if t0 is None else ["--t0", t0]
            code, out, _ = run(capsys, "analyze", table, *window)
            assert code == 0
            first[t0] = json.loads(out)["invariants"]["arclength"][0]
        # zeta = 1 on the first preset, h = 0.005, and the grid starts at the
        # fourth node, -0.035: the offset spans the trimmed nodes from the
        # origin, the first node at or after --t0
        assert first[None] == first["-1"] == pytest.approx(0.015, abs=1e-8)
        assert first["-0.04"] == pytest.approx(0.005, abs=1e-8)
        assert first["0"] == 0.0

    def test_moved_table_keeps_its_nodes(self, capsys, tmp_path):
        # the default window of a csp-moved table is its node set, as for
        # the table itself, not the domain at m = 201, which is off the
        # nodes
        ex1 = preset_curve("paper-6.2-ex1")
        g = random_csp(3, 0.5, 2, 0.2)
        plain = self.table(tmp_path, "plain", ex1)
        moved = self.table(tmp_path, "moved", ex1, transform=g.tolist())
        code, out, err = run(capsys, "analyze", moved)
        assert code == 0, err
        code, ref, _ = run(capsys, "analyze", plain)
        assert json.loads(out)["grid"] == json.loads(ref)["grid"]
        code, out, _ = run(capsys, "compare", plain, moved)
        payload = json.loads(out)
        assert code == 0 and payload["k_deviation"] <= 1e-8
        assert payload["arclength"]["a"] == payload["arclength"]["b"]

    @pytest.mark.filterwarnings("error")
    def test_edge_stencils_that_overflow(self, capsys, tmp_path):
        # a table near the float range: its edge rows overflow without a
        # warning, the trimmed window never samples them, and a jet at an
        # end node is a typed error
        f = tmp_path / "big.json"
        s = 1e307 * preset_curve("paper-6.2-ex1").jets(self.NODES).S
        f.write_text(json.dumps({
            "n": 2, "kind": "table",
            "samples": {"t": self.NODES.tolist(), "S": s.tolist()}}))
        code, out, err = run(capsys, "analyze", str(f))
        assert (code, err) == (0, "")
        assert json.loads(out)["admissibility"]["admissible"] is True
        curve = curve_from_json(json.loads(f.read_text()))
        with pytest.raises(InvalidBasis,
                           match="jet of order 1 not finite at t=1.05"):
            curve.jet(1.05)


class TestRaggedJson:
    """A ragged or non-numeric JSON array exits 1 with InvalidDimension
    naming its key, never with a traceback."""

    RAGGED = [[1.0, 2.0], [3.0]]

    def error(self, capsys, *argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "InvalidDimension"
        return payload["message"]

    def test_points(self, capsys, tmp_path):
        f = tmp_path / "points.json"
        f.write_text(json.dumps({"points": [np.eye(2).tolist(), self.RAGGED,
                                            (2 * np.eye(2)).tolist()]}))
        assert self.error(capsys, "cycle", "--points", str(f)).startswith(
            "point 2 ")

    @pytest.mark.parametrize("key", ["K", "Sigma", "F0"])
    def test_prescription_blocks(self, capsys, tmp_path, key):
        spec = {"n": 2, "grid": {"t0": 0.0, "t1": 1.0, "m": 21},
                "K": [0.0, -1.0], "F0": np.eye(4).tolist(), key: self.RAGGED}
        f = tmp_path / "prescription.json"
        f.write_text(json.dumps(spec))
        assert self.error(capsys, "reconstruct", str(f)).startswith(key + " ")

    def test_transform(self, capsys, tmp_path):
        f = tmp_path / "curve.json"
        f.write_text(json.dumps({"n": 2, "kind": "preset",
                                 "name": "paper-6.2-ex1",
                                 "transform": self.RAGGED}))
        assert self.error(capsys, "analyze", str(f)).startswith("transform ")

    def test_table_samples(self, capsys, tmp_path):
        ts = np.linspace(0.0, 1.0, 9)
        samples = [np.diag([t, 2 * t]).tolist() for t in ts]
        samples[4] = self.RAGGED
        f = tmp_path / "curve.json"
        f.write_text(json.dumps({"n": 2, "kind": "table", "samples":
                                 {"t": ts.tolist(), "S": samples}}))
        assert self.error(capsys, "analyze", str(f)).startswith("samples.S ")

    def test_reconstructed_table_with_chart_exits(self, capsys, tmp_path):
        # reconstruct writes null for samples outside the chart
        ts = np.linspace(0.0, 1.0, 9)
        samples = [None] + [np.diag([t, 2 * t]).tolist() for t in ts[1:]]
        f = tmp_path / "curve.json"
        f.write_text(json.dumps({"n": 2, "kind": "table", "samples":
                                 {"t": ts.tolist(), "S": samples}}))
        assert self.error(capsys, "compare", "paper-6.2-ex1",
                          str(f)).startswith("samples.S ")


class TestMalformedJson:
    """An input file that is not JSON, or JSON of the wrong type, exits 1
    with the error JSON on stderr, never with a traceback."""

    def error(self, capsys, tmp_path, text, *argv):
        f = tmp_path / "bad.json"
        f.write_text(text)
        code, _, err = run(capsys, *(str(f) if a == "BAD" else a
                                     for a in argv))
        assert code == 1
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        return payload["error"], payload["message"]

    @pytest.mark.parametrize("argv", [
        ["analyze", "BAD"],
        ["compare", "BAD", "paper-6.2-ex1"],
        ["reconstruct", "BAD"],
        ["cycle", "--points", "BAD"],
    ])
    def test_not_json(self, capsys, tmp_path, argv):
        name, message = self.error(capsys, tmp_path, "{not json", *argv)
        assert name == "JacobiError"
        assert message.startswith(str(tmp_path / "bad.json"))

    def test_prescription_n_not_a_number(self, capsys, tmp_path):
        spec = {"n": "two", "grid": {"t0": 0.0, "t1": 1.0, "m": 21},
                "K": [0.0, -1.0], "F0": np.eye(4).tolist()}
        name, message = self.error(capsys, tmp_path, json.dumps(spec),
                                   "reconstruct", "BAD")
        assert (name, message) == ("InvalidDimension",
                                   "n is not a rectangular array of numbers")

    @pytest.mark.parametrize("key,n,m", [
        ("n", 2.5, "21.9"), ("grid.m", 2, "21.9"), ("grid.m", 2, 21.9),
    ], ids=["n", "m-string", "m-number"])
    def test_prescription_integer_key_not_whole(self, capsys, tmp_path,
                                                key, n, m):
        # int() once truncated these to an n = 2, 21-sample prescription
        spec = {"n": n, "grid": {"t0": 0.0, "t1": 1.0, "m": m},
                "K": [0.0, -1.0], "F0": np.eye(4).tolist()}
        name, message = self.error(capsys, tmp_path, json.dumps(spec),
                                   "reconstruct", "BAD")
        assert (name, message) == ("InvalidDimension",
                                   f"{key} is not a whole number")

    @pytest.mark.parametrize("key,value", [
        ("K", [float("nan"), 1.0]),
        ("Sigma", [[0.0, float("inf")], [0.0, 0.0]]),
        ("F0", [[float("nan")] * 4] * 4),
    ])
    def test_prescription_not_finite(self, capsys, tmp_path, key, value):
        # json reads NaN and Infinity; they once ended in a scipy ValueError
        # or a LinAlgError traceback
        spec = {"n": 2, "grid": {"t0": 0.0, "t1": 1.0, "m": 21},
                "K": [0.0, -1.0], "F0": np.eye(4).tolist(), key: value}
        name, message = self.error(capsys, tmp_path, json.dumps(spec),
                                   "reconstruct", "BAD")
        assert (name, message) == ("InvalidDimension",
                                   f"{key} has entries that are not finite")

    POLY = {"n": 2, "kind": "polynomial", "domain": [0.0, 1.0],
            "entries": [[[0.0, 1.0], [0.0]], [[0.0], [0.0, 2.0]]]}
    FOURIER = {"n": 2, "kind": "fourier", "domain": [0.0, 1.0],
               "entries": {"cos": [[[0.0], [0.0]], [[0.0], [0.0]]],
                           "sin": [[[0.0, 1.0], [0.0]], [[0.0], [0.0, 2.0]]]}}

    @pytest.mark.parametrize("spec,key", [
        ({**POLY, "entries": [[[0.0, "a"], [0.0]], [[0.0], [0.0, 2.0]]]},
         "entries"),
        ({**POLY, "entries": 5}, "entries"),
        ({**POLY, "entries": [[[0.0, 1.0]], [[0.0], [0.0, 2.0]]]}, "entries"),
        ({**POLY, "entries": [[[0.0, float("nan")], [0.0]],
                              [[0.0], [0.0, 2.0]]]}, "entries"),
        ({**FOURIER, "entries": {"cos": [[["x"], [0.0]], [[0.0], [0.0]]],
                                 "sin": FOURIER["entries"]["sin"]}},
         "entries.cos"),
        ({**FOURIER, "entries": {"cos": FOURIER["entries"]["cos"],
                                 "sin": [[[0.0, 1.0], 0.0],
                                         [[0.0], [0.0, 2.0]]]}},
         "entries.sin"),
    ], ids=["string", "number", "ragged", "nan", "fourier-string",
            "fourier-number"])
    def test_malformed_entries(self, capsys, tmp_path, spec, key):
        # they once ended in a ValueError, TypeError or UFuncTypeError
        # traceback
        name, message = self.error(capsys, tmp_path, json.dumps(spec),
                                   "analyze", "BAD")
        assert (name, message) == (
            "InvalidDimension",
            f"{key} is not an n x n table of lists of finite numbers")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_table_sample_not_finite(self, capsys, tmp_path, value):
        # a NaN node once reached the screen and exited 2 as "velocity form
        # not definite of constant sign"
        ts = np.linspace(-0.05, 1.05, 221)
        S = sample_curve(preset_curve("paper-6.2-ex1"),
                         SampleGrid(-0.05, 1.05, 221)).S
        S[100] = value
        spec = {"n": 2, "kind": "table",
                "samples": {"t": ts.tolist(), "S": S.tolist()}}
        name, message = self.error(capsys, tmp_path, json.dumps(spec),
                                   "analyze", "BAD")
        assert (name, message) == ("InvalidDimension",
                                   "samples.S has entries that are not finite")

    @pytest.mark.filterwarnings("error")
    def test_table_nodes_all_equal(self, capsys, tmp_path):
        # equal nodes once reached the stencils, which divided by h = 0
        S = sample_curve(preset_curve("paper-6.2-ex1"),
                         SampleGrid(-0.05, 1.05, 221)).S
        spec = {"n": 2, "kind": "table",
                "samples": {"t": [0.5] * 221, "S": S.tolist()}}
        name, message = self.error(capsys, tmp_path, json.dumps(spec),
                                   "analyze", "BAD")
        assert (name, message) == (
            "DomainError",
            "table nodes must be strictly increasing and uniformly spaced")

    def test_polynomial_domain_not_numbers(self, capsys, tmp_path):
        spec = {"n": 1, "kind": "polynomial", "entries": [[[0.0, 1.0]]],
                "domain": ["a", 1]}
        name, message = self.error(capsys, tmp_path, json.dumps(spec),
                                   "analyze", "BAD")
        assert name == "InvalidDimension" and message.startswith("domain ")

    def test_curve_not_an_object(self, capsys, tmp_path):
        name, _ = self.error(capsys, tmp_path, "[1, 2]", "analyze", "BAD")
        assert name == "InvalidDimension"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["analyze", "--preset", "paper-6.2-ex1", "--t0", "0", "--t1", "inf"],
    ["cycle", "--preset", "affine-line", "--t0", "0", "--t1", "inf"],
])
def test_an_infinite_window_is_a_domain_error(argv, capsys):
    # the window's points once warned and held NaN, and the analysis
    # reported t=nan outside the domain
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "DomainError"


def _tiny_window_table():
    # every sample finite, but h^2 of the node step is 0
    ts = np.linspace(0.0, 1e-200, 50)
    return {"n": 2, "kind": "table", "samples": {
        "t": ts.tolist(),
        "S": preset_curve("paper-6.2-ex1").jets(ts).S.tolist()}}


OUT_OF_RANGE = {
    # fourier_curve's w**2 on Python floats raised OverflowError
    "fourier-omega": (lambda: {
        "n": 2, "kind": "fourier", "domain": [0, 1], "omega": 1e200,
        "entries": {"cos": [[[0, 1], [0]], [[0], [0, 2]]],
                    "sin": [[[0], [0]], [[0], [0]]]}}, "InvalidBasis"),
    # the chain rule's psi'^2 and psi'^3 overflowed with warnings
    "affine-reparam": (lambda: {
        "n": 2, "kind": "preset", "name": "paper-6.2-ex1",
        "reparam": {"type": "affine", "a": 1e300, "domain": [0, 1e-300]}},
        "InvalidBasis"),
    # sine_reparam's omega**2 on Python floats raised OverflowError
    "sine-reparam": (lambda: {
        "n": 2, "kind": "preset", "name": "paper-6.2-ex1",
        "reparam": {"type": "sine", "omega": 1e200, "eps": 1e-300,
                    "domain": [0, 1]}}, "InvalidBasis"),
    # finite_diff divided by the h^2 that underflowed to 0
    "tiny-window": (None, "DomainError"),
    "tiny-table": (_tiny_window_table, "DomainError"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_an_input_out_of_float_range_is_one_typed_error(case, capsys,
                                                        tmp_path):
    spec, error = OUT_OF_RANGE[case]
    if spec is None:
        argv = ["--preset", "paper-6.2-ex1", "--t0", "0", "--t1", "1e-300"]
    else:
        f = tmp_path / "curve.json"
        f.write_text(json.dumps(spec()))
        argv = [str(f)]
    code, out, err = run(capsys, "analyze", *argv)
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err)["error"] == error


class TestPresets:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "presets")
        assert code == 0
        names = json.loads(out)["presets"]
        assert names == ["paper-6.2-ex1", "paper-6.2-ex2", "affine-line",
                         "scalar-tan-block"]


class TestStrict:
    def test_strict_tightens_flatness(self, capsys):
        # the first preset's Schwarzian has sup norm 2: flat at tolerance 3,
        # not at the strict 0.3
        argv = ["cycle", "--preset", "paper-6.2-ex1", "--t0", "0", "--t1",
                "1", "--tol-flat", "3"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["flat"] is True
        code, out, _ = run(capsys, *argv, "--strict")
        assert code == 0 and json.loads(out)["flat"] is False

    def test_strict_equivalence_tightening(self, capsys, tmp_path):
        # build a slightly perturbed table of the first preset: within the
        # base tolerance but outside the 10x tighter strict tolerance
        grid = SampleGrid(0.0, 1.0, 201)
        jets = sample_curve(preset_curve("paper-6.2-ex1"), grid)
        table = {
            "n": 2,
            "kind": "table",
            "name": "perturbed",
            "domain": [0.0, 1.0],
            "samples": {
                "t": jets.t.tolist(),
                "S": (jets.S + 5e-6 * np.sin(4 * jets.t)[:, None, None]
                      * np.eye(2)).tolist(),
            },
        }
        f = tmp_path / "table.json"
        f.write_text(json.dumps(table))
        base = ["compare", "paper-6.2-ex1", str(f), "--t0", "0", "--t1",
                "1", "--tol-equiv", "1e-2"]
        loose = main(base)
        capsys.readouterr()
        strict = main(base + ["--strict"])
        capsys.readouterr()
        assert loose == 0
        assert strict == 3


class TestFlags:
    # each subcommand takes only the flags it reads
    @pytest.mark.parametrize("argv", [
        ["reconstruct", "P.json", "-m", "5"],
        ["reconstruct", "P.json", "--t0", "0"],
        ["reconstruct", "P.json", "--tol-adm", "1e-10"],
        ["analyze", "--preset", "paper-6.2-ex1", "--tol-equiv", "1e-4"],
        ["analyze", "--preset", "paper-6.2-ex1", "--tol-resid", "1e-6"],
        ["compare", "paper-6.2-ex1", "paper-6.2-ex2", "--format", "json"],
        ["compare", "paper-6.2-ex1", "paper-6.2-ex2", "--tol-flat", "1e-8"],
        ["cycle", "--preset", "affine-line", "--tol-adm", "1e-10"],
        ["cycle", "--preset", "affine-line", "--format", "json"],
    ])
    def test_flag_the_subcommand_ignores_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            main(argv)

    @pytest.mark.parametrize("fmt", ["xml", "json,cvs", "", "json,"])
    def test_unknown_format_is_an_argument_error(self, fmt, capsys, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["analyze", "--preset", "paper-6.2-ex1", "--format", fmt,
                  "--out", str(tmp_path)])
        assert e.value.code == 2
        assert "unknown format" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("fmt", ["csv", "json,csv"])
    def test_csv_without_out_is_an_argument_error(self, fmt, capsys):
        with pytest.raises(SystemExit) as e:
            main(["analyze", "--preset", "paper-6.2-ex1", "--format", fmt])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert "--format csv needs --out" in captured.err
        assert captured.out == ""

    def test_format_selects_the_artifacts(self, capsys, tmp_path):
        for fmt, files in (("csv", ["invariants.csv"]),
                           ("json", ["analysis.json"])):
            out = tmp_path / fmt
            code, stdout, _ = run(capsys, "analyze", "--preset",
                                  "paper-6.2-ex1", "-m", "21", "--format",
                                  fmt, "--out", str(out))
            assert code == 0 and stdout == ""
            assert sorted(p.name for p in out.iterdir()) == files

    def test_parser_is_reused_and_strict_does_not_leak(self, capsys,
                                                       monkeypatch):
        seen = []

        def screen(curve, grid, adm_tol):
            seen.append(adm_tol)
            return real(curve, grid, adm_tol=adm_tol)

        real = cli.screen
        monkeypatch.setattr(cli, "screen", screen)
        argv = ["analyze", "--preset", "paper-6.2-ex1", "-m", "21"]
        assert cli.build_parser() is cli.build_parser()
        for extra in (["--strict"], [], ["--strict"], []):
            assert run(capsys, *argv, *extra)[0] == 0
        adm = tolerances.ADM_TOL
        assert seen == [tolerances.STRICT_FACTOR * adm, adm] * 2

    def test_a_negative_number_in_exponent_form_is_a_value(self, capsys,
                                                           tmp_path):
        # argparse alone reads -5e-2 as an option and exits 2
        for t0 in ("-5e-2", "-0.05"):
            code, _, _ = run(capsys, "analyze", "--preset", "paper-6.2-ex1",
                             "--t0", t0, "--t1", "1", "--out",
                             str(tmp_path / t0))
            assert code == 0
        assert ((tmp_path / "-5e-2" / "analysis.json").read_bytes()
                == (tmp_path / "-0.05" / "analysis.json").read_bytes())

    @pytest.mark.parametrize("argv,t0,m", [
        (["--t0=-5e-2"], -0.05, 201),
        (["--t0", "-1e300", "-m", "5"], -1e300, 5),
        (["--t0", "-.5"], -0.5, 201),
    ])
    def test_negative_numbers_parse(self, argv, t0, m):
        args = cli.build_parser().parse_args(["analyze", *argv])
        assert (args.t0, args.m) == (t0, m)

    def test_version_exit_leaves_the_parser_usable(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0
        assert capsys.readouterr().out.strip() == cli.__version__
        code, out, _ = run(capsys, "presets")
        assert code == 0 and "paper-6.2-ex1" in json.loads(out)["presets"]

    def test_tolerance_defaults_are_the_module_constants(self):
        # every --tol-* default is the tolerances entry of the same meaning
        table = {"tol_adm": "ADM_TOL", "tol_equiv": "EQUIV_TOL",
                 "tol_flat": "FLAT_TOL", "tol_member": "MEMBER_TOL",
                 "tol_resid": "RESID_MAX"}
        parse = cli.build_parser().parse_args
        seen = {}
        for argv in (["analyze"], ["compare", "a", "b"], ["cycle"],
                     ["reconstruct", "P.json"]):
            seen.update((k, v) for k, v in vars(parse(argv)).items()
                        if k.startswith("tol_"))
        assert seen == {k: getattr(tolerances, v) for k, v in table.items()}
