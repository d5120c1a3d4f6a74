"""The error contract, drawn against the CLI and the library.

`jacobi analyze`, `compare` and `cycle` exit 0, 2 or 3, or exit 1 with one
JSON stderr line naming a JacobiError; `analyze(curve_from_json(obj), grid)`
raises only JacobiErrors.  Neither raises a numeric warning.  The curves are
drawn as JSON of every kind, with optional "reparam" and "transform", and
their numbers from all finite floats plus a few at the edges of the float
range.  Both properties are derandomized with a fixed example budget, so
the suite stays deterministic; each input a draw once escaped with is an
@example.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacobi import errors
from jacobi.cli import main
from jacobi.errors import JacobiError
from jacobi.matcurve import PRESET_NAMES, SampleGrid, curve_from_json
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
# a grid numpy refuses to build, before it allocates anything: -m 2**60 and
# -m 2**63 (past numpy's index range) on the command line, and a
# prescription's "m": 1e300, a whole number to json_integer
BIG_M = {"n": 2, "grid": {"t0": 0, "t1": 1, "m": 1e300}, "K": [0, -1],
         "F0": [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]}


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
def curves(draw):
    """Curve JSON of any kind, with an optional reparam and transform."""
    n = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["polynomial", "fourier", "table",
                                 "preset"]))
    if kind == "preset":
        obj = {"kind": kind, "name": draw(st.sampled_from(PRESET_NAMES))}
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
        obj["reparam"] = {"type": draw(st.sampled_from(["affine", "sine"])),
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
