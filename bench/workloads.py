"""The three benchmark workloads as lists of checked operations.

An operation is one user-level call (`call`) and the check of its result
(`check`).  Only `call` is timed.  `check` receives the returned value or the
raised exception and returns an Outcome; it never raises, so a wrong or
failed operation is counted and the run goes on.

Calls go through the module attribute at call time, so the tracer's wrappers
see them.

`must_pass` marks operations the test suite guarantees (the paper's presets
and the CLI's fixed exit codes).  The run is reported as incorrect only when
one of these fails; failures on drawn inputs are the measured defect rate.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import jacobi.cli
import jacobi.pipeline
import jacobi.reconstruct
from jacobi.matcurve import SampleGrid

import inputs

# Output checks.
K_TOL = 1e-3      # closed-form curvatures
SIGMA_TOL = 1e-3  # closed-form Sigma = 0
NORM_TOL = 1e-5   # centered curvature product = 1 for any analysis
PRESET_K_TOL = 1e-5

FINE_M = 3201
ROUNDTRIP_MS = (201, 801)
CLI_M = 201  # the CLI's default grid
TABLE_PAD = 6  # table nodes kept outside [0, 1] on each side


@dataclass
class Outcome:
    ok: bool
    error: str | None = None       # exception type name, or "check"
    raised: bool = False           # the call ended in an error, not a result
    k_err: float | None = None     # max |k - k_exact| on closed-form inputs
    k_dev: float | None = None     # k deviation between the two analyses
    detail: str = ""


@dataclass
class Op:
    cls: str        # operation class: one entry of the canonical cycle
    m: int          # grid samples of the user-level call
    call: Callable
    check: Callable
    must_pass: bool = False
    reference: bool = False  # input is a paper preset: accuracy reference
    case: object = None


@dataclass
class Workload:
    cycles: list  # one op list per input set, same classes in each
    warmup: list  # small calls that load lazy imports before timing


def _verdict(ok, detail, **figures):
    return Outcome(ok=ok, error=None if ok else "check", detail=detail,
                   **figures)


def _fail(exc):
    return Outcome(ok=False, error=type(exc).__name__, raised=True,
                   detail=str(exc)[:200])


def _analysis_outcome(case, ana, k_tol=K_TOL):
    red = ana.reduced
    k = red.curvatures()
    if not (np.all(np.isfinite(k)) and np.all(np.isfinite(red.Sigma))):
        return _verdict(False, "non-finite invariants")
    centered = np.prod(np.abs(k - k.mean(axis=1, keepdims=True)), axis=1)
    if np.max(np.abs(centered - 1.0)) > NORM_TOL:
        return _verdict(False, "normalization")
    if np.any(np.diff(red.arclength) <= 0):
        return _verdict(False, "arclength")
    if case.k_exact is None:
        return _verdict(True, "")
    k_err = float(np.max(np.abs(k - case.k_exact)))
    s_err = float(np.max(np.abs(red.Sigma)))
    return _verdict(k_err <= k_tol and s_err <= SIGMA_TOL,
                    f"k_err={k_err:.3e} sigma={s_err:.3e}", k_err=k_err)


def analyze_op(case, m):
    grid = SampleGrid(*inputs.WINDOW, m)
    preset = case.family == "preset"

    def check(result, exc):
        if exc is not None:
            return _fail(exc)
        return _analysis_outcome(
            case, result, PRESET_K_TOL if preset else K_TOL)

    return Op(cls=f"analyze/{case.label}", m=m,
              call=lambda: jacobi.pipeline.analyze(case.curve, grid),
              check=check, must_pass=preset, reference=preset, case=case)


def roundtrip_op(case, m):
    grid = SampleGrid(*inputs.WINDOW, m)

    def check(result, exc):
        if exc is not None:
            return _fail(exc)
        dev = float(result.k_deviation)
        return _verdict(result.equivalent is True, f"k_dev={dev:.3e}",
                        k_dev=dev)

    # test suite guarantee: presets round-trip at the 201-point grid
    must = case.family == "preset" and m == 201
    return Op(cls=f"roundtrip/{case.label}/m{m}", m=m,
              call=lambda: jacobi.reconstruct.roundtrip(case.curve, grid),
              check=check, must_pass=must,
              reference=case.family == "preset", case=case)


# ---------------------------------------------------------------------------
# CLI


def run_cli(argv):
    """In-process `jacobi` call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = jacobi.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _table_json(case, transform):
    """Closed-form curve as a table on [0, 1] padded by TABLE_PAD nodes, so
    the 201-point CLI grid hits interior nodes only."""
    h = (inputs.WINDOW[1] - inputs.WINDOW[0]) / (CLI_M - 1)
    ts = inputs.WINDOW[0] + h * np.arange(-TABLE_PAD, CLI_M + TABLE_PAD)
    ts[TABLE_PAD] = inputs.WINDOW[0]
    ts[TABLE_PAD + CLI_M - 1] = inputs.WINDOW[1]
    a = np.asarray(case.meta["a"])
    S = [np.diag(np.tan(a * t) / a).tolist() for t in ts]
    return {"n": case.n, "kind": "table", "name": case.label,
            "samples": {"t": ts.tolist(), "S": S},
            "transform": np.asarray(transform).tolist()}


def _poly_json(case, transform):
    return {"n": case.n, "kind": "polynomial", "name": case.label,
            "domain": list(inputs.QUARTIC_DOMAIN),
            "entries": case.meta["coeffs"],
            "transform": np.asarray(transform).tolist()}


def _preset_json(name, transform):
    return {"n": 2, "kind": "preset", "name": name, "domain": [0.0, 1.0],
            "transform": np.asarray(transform).tolist()}


def _cli_check(check):
    """Wrap a check of (code, stdout, stderr).  A raised exception, or exit
    1 (the CLI's typed-error path, never an expected code here), fails the
    op as an error; otherwise `check` judges the output."""

    def wrapped(result, exc):
        if exc is not None:
            return _fail(exc)
        code, out, err = result
        if code == 1:
            try:
                name = json.loads(err)["error"]
            except (ValueError, KeyError, TypeError):
                name = "exit1"
            return Outcome(ok=False, error=name, raised=True,
                           detail=err[:200])
        return check(code, out, err)

    return wrapped


def _check_exit(expected):
    def check(code, out, err):
        return _verdict(code == expected, f"exit {code}, expected {expected}")

    return _cli_check(check)


@_cli_check
def _check_pair(code, out, err):
    """c against g.c: equivalent (exit 0), or both sides inadmissible at the
    same screening step (exit 2)."""
    payload = json.loads(out)
    if code == 2:
        a, b = payload["a"]["first_failure"], payload["b"]["first_failure"]
        return _verdict(a == b, f"inadmissible {a}/{b}")
    dev = payload["k_deviation"]
    return _verdict(code == 0, f"exit {code} k_dev={dev:.3e}", k_dev=dev)


def _check_analyze_out(outdir, k_exact):
    def check(code, out, err):
        if code != 0:
            return _verdict(False, f"exit {code}")
        payload = json.loads((outdir / "analysis.json").read_text())
        rows = (outdir / "invariants.csv").read_text().splitlines()
        k = np.asarray(payload["invariants"]["k"])
        k_err = float(np.max(np.abs(k - k_exact)))
        return _verdict(k_err <= PRESET_K_TOL and len(rows) == CLI_M + 1,
                        f"k_err={k_err:.3e} rows={len(rows)}", k_err=k_err)

    return _cli_check(check)


@_cli_check
def _check_cycle(code, out, err):
    payload = json.loads(out) if code == 0 else {}
    ok = payload.get("flat") is True and "coeffs" in payload.get("mobius", {})
    return _verdict(ok, f"exit {code}")


def _check_reconstruct(outdir):
    def check(code, out, err):
        if code != 0:
            return _verdict(False, f"exit {code}")
        rep = json.loads((outdir / "reconstruct.json").read_text())
        resid = rep["symplecticity_residual"]
        return _verdict(resid <= 1e-6 and not rep["warnings"],
                        f"resid={resid:.3e}")

    return _cli_check(check)


def _cli_op(cls, argv, check, must_pass=False, reference=False, case=None):
    return Op(cls=cls, m=CLI_M,
              call=lambda: run_cli(list(argv)), check=check,
              must_pass=must_pass, reference=reference, case=case)


# ---------------------------------------------------------------------------
# workloads
#
# A workload is a cycle function: each call draws a fresh input set from the
# run's generator and returns one op per class.  A run holds a fixed number
# of such sets back to back (the count is in WORKLOADS), so its timings
# average over several draws of the same mix.  The runner calls every op of
# every set once, then repeats them until its time is up; the count is kept
# small enough that the first pass fits in a 30 s run.


def analyze_fine_cycle(rng, workdir):
    cases = [inputs.preset_case("paper-6.2-ex1"),
             inputs.preset_case("paper-6.2-ex2")]
    cases += [inputs.closed_form_case(rng, n) for n in (2, 3, 4, 6)]
    cases += [inputs.quartic_case(rng, n) for n in (2, 6)]
    return [analyze_op(c, FINE_M) for c in cases]


def analyze_fine_warmup():
    return [analyze_op(inputs.preset_case("paper-6.2-ex1"), 21)]


CLI_WINDOW = ("--t0", "0", "--t1", "1")


def cli_corpus_cycle(rng, workdir):
    workdir.mkdir()
    ops = []

    def write(name, obj):
        path = workdir / name
        path.write_text(json.dumps(obj))
        return str(path)

    def compare(cls, a, b, check=_check_pair, **kw):
        ops.append(_cli_op(cls, ["compare", a, b, *CLI_WINDOW], check, **kw))

    for n in (2, 3, 4, 6):
        closed = inputs.closed_form_case(rng, n)
        g = inputs.draw_transform(rng, n)
        closed.transforms.append(g @ closed.transform)
        compare(f"compare/closed-{n}",
                write(f"closed-{n}-a.json",
                      _table_json(closed, closed.transforms[0])),
                write(f"closed-{n}-b.json",
                      _table_json(closed, closed.transforms[1])),
                case=closed)
        quartic = inputs.quartic_case(rng, n)
        g1, g2 = inputs.draw_transform(rng, n), inputs.draw_transform(rng, n)
        quartic.transforms += [g1, g2 @ g1]
        compare(f"compare/quartic-{n}",
                write(f"quartic-{n}-a.json", _poly_json(quartic, g1)),
                write(f"quartic-{n}-b.json", _poly_json(quartic, g2 @ g1)),
                case=quartic)
    # the test suite's group-invariance pattern: a preset against its image
    preset = "paper-6.2-ex1" if rng.uniform() < 0.5 else "paper-6.2-ex2"
    compare("compare/preset", preset,
            write("preset-b.json",
                  _preset_json(preset, inputs.draw_transform(rng, 2))),
            reference=True)

    outdir = workdir / "analyze-out"
    ops.append(_cli_op(
        "analyze-out", ["analyze", "--preset", "paper-6.2-ex2", *CLI_WINDOW,
                        "--out", str(outdir)],
        _check_analyze_out(outdir, inputs.PRESET_K["paper-6.2-ex2"]),
        must_pass=True, reference=True))
    compare("compare/ex1-ex2", "paper-6.2-ex1", "paper-6.2-ex2",
            check=_check_exit(3), must_pass=True)
    ops.append(_cli_op("analyze/scalar-tan-block",
                       ["analyze", "--preset", "scalar-tan-block",
                        *CLI_WINDOW],
                       _check_exit(2), must_pass=True))
    ops.append(_cli_op("cycle/affine-line",
                       ["cycle", "--preset", "affine-line", *CLI_WINDOW],
                       _check_cycle, must_pass=True))

    # constant-K prescription: k = (k1, k1 + 2) has centered product 1
    k1 = float(rng.uniform(-2.0, 1.0))
    presc = {"n": 2, "grid": {"t0": 0.0, "t1": 1.0, "m": CLI_M},
             "Sigma": [[0.0, 0.0], [0.0, 0.0]],
             "K": [-k1 / 2.0, -(k1 + 2.0) / 2.0],
             "F0": [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0],
                    [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]}
    rdir = workdir / "reconstruct-out"
    ops.append(_cli_op("reconstruct/constant-k",
                       ["reconstruct", write("prescription.json", presc),
                        "--out", str(rdir)],
                       _check_reconstruct(rdir), must_pass=True))
    return ops


def cli_corpus_warmup():
    return [_cli_op("warmup", ["analyze", "--preset", "paper-6.2-ex1",
                               *CLI_WINDOW, "-m", "21"], _check_exit(0)),
            _cli_op("warmup", ["presets"], _check_exit(0))]


def roundtrip_cycle(rng, workdir):
    cases = [inputs.preset_case("paper-6.2-ex1"),
             inputs.preset_case("paper-6.2-ex2")]
    cases += [inputs.closed_form_case(rng, n) for n in (2, 3)]
    cases += [inputs.quartic_case(rng, n) for n in (2, 3)]
    return [roundtrip_op(c, m) for m in ROUNDTRIP_MS for c in cases]


def roundtrip_warmup():
    return [roundtrip_op(inputs.preset_case("paper-6.2-ex1"), 41)]


# name: (cycle function, warm-up function, input sets per run)
WORKLOADS = {
    "analyze-fine": (analyze_fine_cycle, analyze_fine_warmup, 1),
    "cli-corpus": (cli_corpus_cycle, cli_corpus_warmup, 2),
    "roundtrip": (roundtrip_cycle, roundtrip_warmup, 2),
}


def build(name, rng, workdir):
    cycle, warmup, sets = WORKLOADS[name]
    cycles = [cycle(rng, workdir / f"set{k}") for k in range(sets)]
    return Workload(cycles, warmup())
