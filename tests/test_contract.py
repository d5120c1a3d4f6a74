"""The error contract, drawn against the CLI and the library.

`jacobi analyze`, `compare` and `cycle` exit 0, 2 or 3, or exit 1 with one
JSON stderr line naming a JacobiError; `analyze(curve_from_json(obj), grid)`
raises only JacobiErrors.  Neither raises a numeric warning.  The curves are
drawn as JSON of every kind, with optional "reparam" and "transform", and
their numbers from all finite floats plus a few at the edges of the float
range.  Both properties are derandomized with a fixed example budget, so
the suite stays deterministic; each input a draw once escaped with is an
@example.  A deterministic walk replaces each key of one valid input of
each kind in turn by JSON values of every type, and the CLI's inputs at the
edges of its domain and of the float range end in their verdicts.
"""

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacobi import errors
from jacobi.cli import main
from jacobi.errors import JacobiError
from jacobi.matcurve import (PRESET_NAMES, SampleGrid, curve_from_json,
                             preset_curve)
from jacobi.pipeline import analyze
from jacobi.symspace import random_csp

NUMBERS = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([0.0, 1e300, -1e300, 5e-324, 1.7e308]))
# windows that let a draw reach the later stages, or any pair of numbers
DOMAINS = (st.sampled_from([[0.0, 1.0], [-1.0, 1.0], [0.0, 0.5]])
           | st.lists(NUMBERS, min_size=2, max_size=2))
ERROR_NAMES = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, JacobiError)}

# inputs that once escaped the contract as a numeric warning, each with
# the site it reached: numpy's polyder of a coefficient times its degree
# past the largest float; polyval on a domain reaching -1e300; the
# polynomial evaluator's own mean of two finite entries; a Schwarzian out
# of float range (finite jets); a preset's division by zero where its
# domain is widened to a pole (t / (1 + t) at t = -1); linspace's last
# product past the largest float on a span near it; the Moebius fit of a
# flat curve, whose rows lambda(t) t = t^2 pass the largest float; the
# Fourier evaluator's mean of two finite entries; transformed_curve's
# congruence mean, under the identity map; ricci's mean of S' Sch; S' Sch
# out of float range (finite Schwarzian); the admissibility determinant
# out of float range
POLYDER = {"n": 2, "kind": "polynomial", "domain": [0, 1],
           "entries": [[[0, 1, 1.7e308], [0]], [[0], [0, 2]]]}
POLYVAL = {"n": 2, "kind": "polynomial", "domain": [-1e300, 1],
           "entries": [[[0, 1, 0, 1], [0]], [[0], [0, 2]]]}
MEAN = {"n": 2, "kind": "polynomial", "domain": [0, 1],
        "entries": [[[0, 1], [1.7e308]], [[1.7e308], [0, 2]]]}
SCHWARZIAN = {"n": 1, "kind": "polynomial", "domain": [0, 1],
              "entries": [[[0, 1, 1e300]]]}
POLE = {"kind": "preset", "name": "paper-6.2-ex1", "domain": [-1.0, 1.0]}
EX1 = {"kind": "preset", "name": "paper-6.2-ex1"}
LINE = {"n": 1, "kind": "polynomial", "domain": [0, 1e300],
        "entries": [[[0, 1]]]}
FOURIER_MEAN = {"n": 2, "kind": "fourier", "domain": [0, 1],
                "entries": {"cos": [[[0, 1], [1.7e308]], [[1.7e308], [0, 2]]],
                            "sin": [[[0, 1], [0]], [[0], [0, 2]]]}}
CONGRUENCE = {"n": 2, "kind": "polynomial", "domain": [0, 1],
              "entries": [[[0, 1], [0, 2.5e307]], [[0, 2.5e307], [0, 2]]]}
IDENTITY_MAP = {**CONGRUENCE, "transform": [
    [float(i == j) for j in range(4)] for i in range(4)]}
RICCI_MEAN = {"n": 2, "kind": "polynomial", "domain": [0, 1],
              "entries": [[[0, 1e200, 4.1e253], [0]],
                          [[0], [0, 2e200, 1e253]]]}
VELOCITY_SCHWARZIAN = {"n": 2, "kind": "polynomial", "domain": [0, 1],
                       "entries": [[[0, 1e200, 5e299], [0]],
                                   [[0], [0, 2e200, 5e299]]]}
DETERMINANT = {"n": 2, "kind": "polynomial", "domain": [0, 1],
               "entries": [[[0, 1, 5e79], [0]], [[0], [0, 2, 2e80]]]}
# a symplectic initial frame [[I, I], [0, I]] of n = 2
F0 = [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]
# a grid numpy refuses to build, before it allocates anything: -m 2**60 and
# -m 2**63 (past numpy's index range) on the command line, and a
# prescription's "m": 1e300, a whole number to json_integer
BIG_M = {"n": 2, "grid": {"t0": 0, "t1": 1, "m": 1e300}, "K": [0, -1],
         "F0": F0}
# inputs that once escaped as a traceback or a numeric warning: a kind
# that is not a string, looked up in a dict (unhashable); a prescription n
# whose default n x n Sigma numpy refuses to build, before it allocates
# anything; a grid span near the largest float, whose not-a-knot spline
# rows overflowed
LIST_KIND = {**EX1, "kind": []}
DICT_KIND = {**POLYDER, "kind": {}}
BIG_N = {"n": 1e10, "grid": {"t0": 0, "t1": 1, "m": 21}, "K": [0, -1],
         "F0": F0}
HUGE_N = {**BIG_N, "n": 1e308}
WIDE_T0 = {"n": 2, "grid": {"t0": -1e308, "t1": 1, "m": 21}, "K": [0, -1],
           "F0": F0}
WIDE_T1 = {**WIDE_T0, "grid": {"t0": 0, "t1": 1e308, "m": 21}}
# JSON values that are not strings, where a name is expected
NON_STRINGS = st.sampled_from([None, True, 2, [], {}, ["preset"], {"a": 1}])


def entries(n, max_size=4):
    """An n x n table of coefficient lists."""
    coeffs = st.lists(NUMBERS, max_size=max_size)
    return st.lists(st.lists(coeffs, min_size=n, max_size=n),
                    min_size=n, max_size=n)


@st.composite
def table_samples(draw, n):
    """Uniform nodes and symmetric samples, one drawn number per entry of
    each sample's upper triangle."""
    t0, h = draw(NUMBERS), draw(NUMBERS | st.just(0.1))
    m = draw(st.integers(7, 12))
    samples = []
    for k in range(m):
        s = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                s[i][j] = s[j][i] = draw(NUMBERS)
        samples.append(s)
    return {"t": [t0 + k * h for k in range(m)], "S": samples}


@st.composite
def or_non_string(draw, name):
    """The name, or about one time in ten a JSON value that is not a
    string."""
    return draw(NON_STRINGS) if draw(st.integers(0, 9)) == 0 else name


@st.composite
def curves(draw):
    """Curve JSON of any kind, with an optional reparam and transform; its
    kind, a preset's name and the reparam's type are now and then not
    strings."""
    n = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["polynomial", "fourier", "table",
                                 "preset"]))
    if kind == "preset":
        obj = {"kind": kind, "name": draw(or_non_string(
            draw(st.sampled_from(PRESET_NAMES))))}
        if draw(st.booleans()):
            obj["domain"] = draw(DOMAINS)
    elif kind == "polynomial":
        obj = {"n": n, "kind": kind, "domain": draw(DOMAINS),
               "entries": draw(entries(n))}
    elif kind == "fourier":
        obj = {"n": n, "kind": kind, "domain": draw(DOMAINS),
               "entries": {"cos": draw(entries(n, 3)),
                           "sin": draw(entries(n, 3))}}
        if draw(st.booleans()):
            obj["omega"] = draw(NUMBERS)
    else:
        obj = {"n": n, "kind": kind, "samples": draw(table_samples(n))}
    obj["kind"] = draw(or_non_string(kind))
    if draw(st.booleans()):
        # a conformal symplectic map, or any 2n x 2n matrix
        size = 2 * (2 if kind == "preset" else n)
        obj["transform"] = draw(
            st.integers(0, 99).map(lambda seed: random_csp(
                seed, scale=0.5, n=size // 2, ham_scale=0.2).tolist())
            if size >= 4 and draw(st.booleans()) else
            st.lists(st.lists(NUMBERS, min_size=size, max_size=size),
                     min_size=size, max_size=size))
    if draw(st.booleans()):
        obj["reparam"] = {"type": draw(or_non_string(
            draw(st.sampled_from(["affine", "sine"])))),
                          "domain": draw(DOMAINS)}
        for key in ("a", "b", "eps", "omega"):
            if draw(st.booleans()):
                obj["reparam"][key] = draw(NUMBERS)
    return obj


@st.composite
def window(draw):
    """--t0, --t1 and -m, each present or not."""
    argv = []
    for flag in ("--t0", "--t1"):
        if draw(st.booleans()):
            argv += [flag, repr(draw(NUMBERS))]
    if draw(st.booleans()):
        argv += ["-m", str(draw(st.integers(5, 41)))]
    return argv


@st.composite
def commands(draw):
    """argv of analyze, compare or cycle; CURVE stands for the drawn
    curve's file."""
    command = draw(st.sampled_from(["analyze", "compare", "cycle"]))
    if command == "compare":
        args = ["CURVE", draw(st.sampled_from(("CURVE",) + PRESET_NAMES))]
    else:
        args = ["CURVE"]
    return [command, *args, *draw(window())]


def run_cli(obj, argv):
    """(exit code, stdout, stderr) of main on argv, with the curve's JSON
    written where CURVE stands, RuntimeWarning an error."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "curve.json"
        path.write_text(json.dumps(obj))
        argv = [str(path) if a == "CURVE" else a for a in argv]
        with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = main(argv)
            except SystemExit as e:  # argparse's usage error
                code = e.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(curves(), commands())
@example(POLYDER, ["analyze", "CURVE", "-m", "21"])
@example(POLYVAL, ["analyze", "CURVE", "-m", "21"])
@example(MEAN, ["analyze", "CURVE", "-m", "21"])
@example(SCHWARZIAN, ["analyze", "CURVE", "-m", "21"])
@example(SCHWARZIAN, ["cycle", "CURVE", "-m", "21"])
@example(POLE, ["analyze", "CURVE", "-m", "21"])
@example(EX1, ["analyze", "CURVE", "--t0", "-1.7976931348623157e+308",
               "-m", "7"])
@example(LINE, ["cycle", "CURVE", "-m", "21"])
@example(FOURIER_MEAN, ["analyze", "CURVE", "-m", "21"])
@example(IDENTITY_MAP, ["analyze", "CURVE", "-m", "21"])
@example(RICCI_MEAN, ["analyze", "CURVE", "-m", "21"])
@example(VELOCITY_SCHWARZIAN, ["analyze", "CURVE", "-m", "21"])
@example(DETERMINANT, ["analyze", "CURVE", "-m", "21"])
@example(EX1, ["analyze", "CURVE", "-m", str(2**60)])
@example(EX1, ["analyze", "CURVE", "-m", str(2**63)])
@example(BIG_M, ["reconstruct", "CURVE"])
@example(LIST_KIND, ["analyze", "CURVE", "-m", "21"])
@example(DICT_KIND, ["compare", "CURVE", "paper-6.2-ex1"])
@example(LIST_KIND, ["cycle", "CURVE", "-m", "21"])
@example(BIG_N, ["reconstruct", "CURVE"])
@example(HUGE_N, ["reconstruct", "CURVE"])
@example(WIDE_T0, ["reconstruct", "CURVE"])
@example(WIDE_T1, ["reconstruct", "CURVE"])
def test_cli_keeps_the_error_contract(obj, argv):
    code, _, err = run_cli(obj, argv)
    assert code in (0, 1, 2, 3), (code, err)
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert json.loads(lines[0])["error"] in ERROR_NAMES, err


@settings(max_examples=300, deadline=None, derandomize=True)
@given(curves(), DOMAINS, st.integers(5, 41))
@example(POLYDER, [0.0, 1.0], 21)
@example(POLYVAL, [-1e300, 1.0], 21)
@example(MEAN, [0.0, 1.0], 21)
@example(SCHWARZIAN, [0.0, 1.0], 21)
@example(POLE, [-1.0, 1.0], 21)
@example(EX1, [-1.7976931348623157e308, 1.0], 7)
@example(FOURIER_MEAN, [0.0, 1.0], 21)
@example(IDENTITY_MAP, [0.0, 1.0], 21)
@example(RICCI_MEAN, [0.0, 1.0], 21)
@example(VELOCITY_SCHWARZIAN, [0.0, 1.0], 21)
@example(DETERMINANT, [0.0, 1.0], 21)
@example(LIST_KIND, [0.0, 1.0], 21)
@example(DICT_KIND, [0.0, 1.0], 21)
def test_analyze_raises_only_typed_errors(obj, domain, m):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            analyze(curve_from_json(obj), SampleGrid(*domain, m))
        except JacobiError:
            pass


def test_the_escapes_end_in_their_verdicts():
    # polyder's and polyval's overflow are one InvalidBasis line, and a
    # Schwarzian, S' Sch or admissibility determinant out of float range
    # one DomainError line (S' Sch also for the 1 x 1 twin)
    twin = {"n": 1, "kind": "polynomial", "domain": [0, 1],
            "entries": [[[0, 1e200, 5e299]]]}
    jets_out = "t=0.0: the jets are out of range for the analysis"
    for obj, error, message in [
            (POLYDER, "InvalidBasis", "jet of order 1 not finite at t=0.0"),
            (POLYVAL, "InvalidBasis",
             "jet of order 0 not finite at t=-1e+300"),
            (SCHWARZIAN, "DomainError",
             "Schwarzian not finite at " + jets_out),
            (VELOCITY_SCHWARZIAN, "DomainError",
             "S' Sch not finite at " + jets_out),
            (twin, "DomainError", "S' Sch not finite at " + jets_out),
            (DETERMINANT, "DomainError",
             "admissibility determinant not finite at t=0.0: the "
             "Schwarzians are out of range for the analysis")]:
        code, _, err = run_cli(obj, ["analyze", "CURVE", "-m", "21"])
        assert code == 1
        assert json.loads(err) == {"error": error, "message": message}
    # the mean of two finite entries is finite: each curve reaches the
    # screen
    reports = {}
    for name, obj, failure in [
            ("mean", MEAN, "arc-element"),
            ("fourier", FOURIER_MEAN, "velocity-definite"),
            ("base", CONGRUENCE, "velocity-definite"),
            ("identity", IDENTITY_MAP, "velocity-definite"),
            ("ricci", RICCI_MEAN, "arc-element")]:
        code, out, _ = run_cli(obj, ["analyze", "CURVE", "-m", "21"])
        reports[name] = json.loads(out)["admissibility"]
        assert code == 2 and reports[name]["first_failure"] == failure
    assert reports["ricci"]["messages"] == ["curve not admissible at t=0.05"]
    # the identity map leaves the verdict of its base as it is
    assert reports["identity"] == reports["base"]
    assert reports["base"]["messages"] == [
        "velocity form not definite of constant sign at t=0.0"]
    # cycle still finds the curve whose Schwarzian is out of range not
    # flat
    code, out, _ = run_cli(SCHWARZIAN, ["cycle", "CURVE", "-m", "21"])
    assert code == 0 and json.loads(out)["flat"] is False


def ex1_samples(ts, scale=1.0):
    """paper-6.2-ex1's chart points at the nodes ts, times scale, as
    lists."""
    return (scale * preset_curve("paper-6.2-ex1").jets(ts).S).tolist()


def walk_templates():
    """One valid input of each kind the CLI reads, with its argv: CURVE
    stands for the file."""
    analyze = ["analyze", "CURVE", "-m", "21"]
    ts = np.linspace(0.0, 1.0, 15)
    return {
        "polynomial": ({
            "n": 2, "kind": "polynomial", "domain": [-1, 2],
            "entries": [[[0, 1, 0, 0.5], [0, 0.2]], [[0, 0.2], [0, 2, 1]]],
            "reparam": {"type": "affine", "domain": [0, 1], "a": 0.5,
                        "b": 0.25}}, analyze),
        "fourier": ({
            "n": 2, "kind": "fourier", "domain": [0, 1], "omega": 1.0,
            "entries": {"cos": [[[0], [0.1]], [[0.1], [0, 0, 0.2]]],
                        "sin": [[[0, 1], [0]], [[0], [0, 2]]]}}, analyze),
        "preset": ({
            "n": 2, "kind": "preset", "name": "paper-6.2-ex1",
            "domain": [-0.5, 2], "transform": F0,
            "reparam": {"type": "sine", "domain": [0, 1], "a": 1, "b": 0,
                        "eps": 0.1, "omega": 1}}, analyze),
        "table": ({
            "n": 2, "kind": "table",
            "samples": {"t": ts.tolist(), "S": ex1_samples(ts)}}, analyze),
        "prescription": ({
            "n": 2, "grid": {"t0": 0, "t1": 1, "m": 21},
            "Sigma": [[0, 0.1], [-0.1, 0]], "K": [0, -1], "F0": F0},
            ["reconstruct", "CURVE"]),
        "points": ({
            "points": [[[1, 0], [0, 2]], [[2, 0], [0, 3]], [[0, 0], [0, 0]],
                       [[3, 0], [0, 4]]]}, ["cycle", "--points", "CURVE"]),
    }


# JSON values of every type, with numbers at the edges of the float range
WALK_VALUES = [None, True, "x", "2", [], {}, [1], [[1, 2], [3]], {"a": 1},
               1e308, -1e308, float("nan"), 0, -1, 2.5, [[["a"]]],
               [None, None]]


def key_paths(obj, prefix=()):
    """The path of every key of the object and of the objects it holds."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


def replaced(obj, path, value):
    """A deep copy of obj with the key at path set to value; the empty
    path replaces the whole object."""
    if not path:
        return value
    out = copy.deepcopy(obj)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def test_each_key_of_each_input_keeps_the_error_contract():
    # every key, then the whole file, replaced in turn by each value: 816
    # calls, each exiting 0, 2 or 3, or 1 with one typed error line, and
    # none with a numeric warning
    broken = []
    calls = 0
    for kind, (obj, argv) in walk_templates().items():
        assert run_cli(obj, argv)[0] == 0, kind
        for path in [*key_paths(obj), ()]:
            for value in WALK_VALUES:
                calls += 1
                try:
                    code, _, err = run_cli(replaced(obj, path, value), argv)
                except Exception as e:  # a traceback or a numeric warning
                    code, err = None, repr(e)
                lines = err.splitlines()
                if code in (0, 2, 3) or (
                        code == 1 and len(lines) == 1
                        and json.loads(lines[0])["error"] in ERROR_NAMES):
                    continue
                broken.append((kind, ".".join(path), value, code, err))
    assert calls == 816
    assert broken == []


def edge_inputs():
    """(argv, curve JSON or None, exit code, verdict) of the CLI's inputs
    at the edges of its domain and of the float range, other than the jets
    out of float range that test_the_escapes_end_in_their_verdicts runs;
    the verdict is the error type of an exit 1 and the screen's
    first_failure of an exit 2."""
    ts = np.linspace(-0.05, 1.05, 221)
    S = np.array(ex1_samples(ts))
    S[100] = np.nan

    def prescription(t1, m, k):
        return {"n": 2, "grid": {"t0": 0, "t1": t1, "m": m}, "K": k,
                "F0": F0}

    return {
        # malformed curve JSON: a string polynomial coefficient and a table
        # with a NaN sample, and a table whose nodes are all equal
        "bad-poly": (["analyze", "CURVE"], {
            "n": 2, "kind": "polynomial", "domain": [0, 1],
            "entries": [[[0, "a"], [0]], [[0], [0, 2]]]},
            1, "InvalidDimension"),
        "bad-table": (["analyze", "CURVE"], {
            "n": 2, "kind": "table",
            "samples": {"t": ts.tolist(), "S": S.tolist()}},
            1, "InvalidDimension"),
        "equal-nodes": (["analyze", "CURVE"], {
            "n": 2, "kind": "table",
            "samples": {"t": [0.5] * 221, "S": ex1_samples(ts)}},
            1, "DomainError"),
        # an infinite window is a DomainError of the grid
        "infinite-window": (["analyze", "--preset", "paper-6.2-ex1",
                             "--t0", "0", "--t1", "inf"], None,
                            1, "DomainError"),
        # a map of scale 1e200 compares equivalent to its base
        "big-map": (["compare", "paper-6.2-ex1", "CURVE", "--t0", "0",
                     "--t1", "1"], {
            "n": 2, "kind": "preset", "name": "paper-6.2-ex1",
            "domain": [0, 1], "transform": (1e200 * np.eye(4)).tolist()},
            0, None),
        # a Fourier curve whose jets overflow, a prescription whose Cayley
        # step overflows, one whose frames leave float range and one whose
        # grid numpy refuses to build
        "big-omega": (["analyze", "CURVE"], {
            "n": 2, "kind": "fourier", "domain": [0, 1], "omega": 1e200,
            "entries": {"cos": [[[0, 1], [0]], [[0], [0, 2]]],
                        "sin": [[[0], [0]], [[0], [0]]]}},
            1, "InvalidBasis"),
        "big-k": (["reconstruct", "CURVE"], prescription(1, 51, [1e300, -1]),
                  1, "StepTooCoarse"),
        "big-frames": (["reconstruct", "CURVE"],
                       prescription(200, 2001, [50, 60]),
                       1, "DomainError"),
        "big-m": (["reconstruct", "CURVE"], BIG_M, 1, "DomainError"),
        # a negative number in exponent form is a value
        "exponent-t0": (["analyze", "--preset", "paper-6.2-ex1", "--t0",
                         "-5e-2", "--t1", "1"], None, 0, None),
        # a table scaled by 1e307, whose edge stencils overflow at nodes
        # the window never samples, is analyzed
        "big-table": (["analyze", "CURVE"], {
            "n": 2, "kind": "table",
            "samples": {"t": ts.tolist(), "S": ex1_samples(ts, 1e307)}},
            0, None),
        # a vanishing arc element fails the screen at a tolerance of 0
        "zero-tol-adm": (["analyze", "--preset", "affine-line", "--t0", "0",
                          "--t1", "1", "--tol-adm", "0"], None,
                         2, "arc-element"),
    }


EDGE_INPUTS = edge_inputs()


@pytest.mark.parametrize("name", EDGE_INPUTS)
def test_edge_inputs_end_in_their_verdicts(name):
    argv, obj, code, verdict = EDGE_INPUTS[name]
    got, out, err = run_cli(obj, argv)
    assert got == code, err
    if code == 1:
        assert len(err.splitlines()) == 1, err
        assert json.loads(err)["error"] == verdict
    elif code == 2:
        assert json.loads(out)["admissibility"]["first_failure"] == verdict
