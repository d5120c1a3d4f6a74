"""Command-line front end.

Subcommands: analyze (invariant pipeline + admissibility report), compare
(equivalence of two curves), reconstruct (integrate a prescription), cycle
(three-point cycles / flatness), presets (list built-in curves).

Exit codes: 0 ok or equivalent, 1 error, 2 inadmissible or an argument
error, 3 not equivalent.  All floats are emitted through %.12e so identical
configurations produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .cycles import cycle_contains, cycle_through, is_flat, mobius_fit
from .errors import Gates, InvalidDimension, JacobiError, NoFit
from .geom import screen
from .frames import equivalent_reduced
from .matcurve import (PRESET_NAMES, TABLE_TRIM, SampleGrid, curve_from_json,
                       json_array, preset_curve, require_keys, sample_curve,
                       spline, table_json)
from .pipeline import complete
from .reconstruct import (curve_from_frame, frame_deviation, integrate_frame,
                          prescription_from_json)
from .symspace import asymmetry_gate, symmetrize
from .tolerances import (ADM_TOL, EQUIV_TOL, FLAT_TOL, MEMBER_TOL, RESID_MAX,
                         STRICT_FACTOR, SYM_TOL, WINDOW_SLACK)

FLOAT_FMT = "%.12e"
FORMATS = ("json", "csv")  # the analyze artifacts, --format's choices
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _numbers(values):
    """JSON texts of a list of floats, each quantized through FLOAT_FMT:
    one format, one float() and one repr per value, spelled as json.dumps
    spells them (NaN, Infinity)."""
    text = ((FLOAT_FMT + " ") * len(values)) % tuple(values)
    out = list(map(repr, map(float, text.split())))
    # only "nan" and "inf" hold an n; finite FLOAT_FMT texts never do
    return [_NONFINITE.get(s, s) for s in out] if "n" in text else out


def _array_json(a, level):
    """JSON text of a float array's nested lists, indented as json.dumps
    with indent=2 at nesting `level`: the entries in one pass, then each
    innermost row joined directly."""
    if a.size == 0:  # nested empty lists, no entries
        return _json(a.tolist(), level)
    items = _numbers(a.ravel().tolist())
    for axis in range(a.ndim - 1, -1, -1):
        k, pad = a.shape[axis], "\n" + "  " * (level + axis + 1)
        head, sep, tail = "[" + pad, "," + pad, pad[:-2] + "]"
        items = [head + sep.join(items[i:i + k]) + tail
                 for i in range(0, len(items), k)]
    return items[0]


def _json(obj, level=0):
    """json.dumps(obj, indent=2, sort_keys=True) with every float quantized
    through FLOAT_FMT, so identical values give identical bytes.  ndarrays
    and tuples are written as lists; dict keys are strings."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            return _array_json(obj, level)
        obj = obj.tolist()
    if isinstance(obj, (float, np.floating)):
        return _numbers([float(obj)])[0]
    if isinstance(obj, dict):
        brackets = "{}"
        entries = [json.dumps(k) + ": " + _json(v, level + 1)
                   for k, v in sorted(obj.items())]
    elif isinstance(obj, (list, tuple)):
        brackets = "[]"
        entries = [_json(v, level + 1) for v in obj]
    else:
        return json.dumps(obj)
    if not entries:
        return brackets
    pad = "\n" + "  " * (level + 1)
    return (brackets[0] + pad + ("," + pad).join(entries) + pad[:-2]
            + brackets[1])


def _emit_json(obj, path=None):
    text = _json(obj)
    if path is None:
        print(text)
    else:
        Path(path).write_text(text + "\n")


def _invariant_csv(reduced, path):
    n = reduced.n
    header = ["t", "arclength", "zeta"]
    header += [f"k_{i + 1}" for i in range(n)]
    header += [f"sigma_{i + 1}{j + 1}" for i in range(n) for j in range(i + 1, n)]
    upper = np.triu_indices(n, 1)
    rows = np.column_stack([reduced.ts, reduced.arclength, reduced.zeta,
                            reduced.curvatures(),
                            reduced.Sigma[:, upper[0], upper[1]]])
    row = ",".join([FLOAT_FMT] * rows.shape[1]) + "\n"
    Path(path).write_text(",".join(header) + "\n"
                          + (row * len(rows)) % tuple(rows.ravel().tolist()))


def _read_json(path):
    """The JSON value in the file at `path`, else a JacobiError naming it."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as e:
        raise JacobiError(f"{path} is not valid JSON: {e}") from None


def _load_curve(args):
    if args.preset:
        return preset_curve(args.preset)
    if not args.input:
        raise JacobiError("no curve given: pass INPUT.json or --preset NAME")
    return curve_from_json(_read_json(args.input))


def _window_nodes(ts, args, lo, hi):
    """Indices of the nodes ts in [lo, hi], narrowed to --t0/--t1 when they
    are given (up to WINDOW_SLACK)."""
    lo = lo if args.t0 is None else max(args.t0, lo)
    hi = hi if args.t1 is None else min(args.t1, hi)
    return np.nonzero((ts >= lo - WINDOW_SLACK) & (ts <= hi + WINDOW_SLACK))[0]


def _grid_for(curve, args):
    ts = curve.table_ts
    if ts is not None:
        # curves known at nodes evaluate only there: snap the window to the
        # node set and drop the one-sided boundary nodes
        k = TABLE_TRIM if ts.size >= 2 * TABLE_TRIM + 7 else 0
        idx = _window_nodes(ts, args, ts[k], ts[-1 - k])
        if idx.size < 7:
            raise JacobiError("table window keeps too few samples")
        return SampleGrid(ts[idx[0]], ts[idx[-1]], idx.size)
    t0 = args.t0 if args.t0 is not None else curve.domain[0]
    t1 = args.t1 if args.t1 is not None else curve.domain[1]
    return SampleGrid(t0, t1, args.m)


def _offset_reduced(ana, args):
    """The reduced invariant of a completed Analysis, its arclength origin
    shifted back over the nodes the trim dropped.

    The origin is the first node of the requested window: at --t0 when it
    is given (never before the first node), else the first node.  The arc
    element between it and the trimmed grid's start is estimated by
    extrapolating the zeta spline; this keeps arclength-based comparisons
    aligned with analyses that cover the full window.
    """
    reduced, ts, t0 = ana.reduced, ana.curve.table_ts, ana.grid.t0
    if ts is None:
        return reduced
    origin = ts[_window_nodes(ts, args, ts[0], ts[-1])[0]]
    if t0 <= origin:
        return reduced
    x = np.linspace(origin, t0, 33)
    y = spline(reduced.ts, reduced.zeta)(x)
    offset = float((np.diff(x) * (y[1:] + y[:-1]) / 2.0).sum())
    return replace(reduced, arclength=reduced.arclength + offset)


def _apply_strict(args):
    """--strict scales the subcommand's tolerances by STRICT_FACTOR, here
    only."""
    if getattr(args, "strict", False):
        for name, value in vars(args).items():
            if name.startswith("tol_"):
                setattr(args, name, STRICT_FACTOR * value)


def _screen(curve, args):
    return screen(curve, _grid_for(curve, args), adm_tol=args.tol_adm)


def _reduced_payload(reduced):
    return {
        "n": reduced.n,
        "t": reduced.ts,
        "arclength": reduced.arclength,
        "zeta": reduced.zeta,
        "k": reduced.curvatures(),
        "Sigma": reduced.Sigma,
    }


def cmd_analyze(args):
    curve = _load_curve(args)
    ana = _screen(curve, args)
    grid = ana.grid
    report = ana.report()
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    if not report["admissible"]:
        payload = {"admissibility": report, "curve": curve.name}
        _emit_json(payload, out / "analysis.json" if out else None)
        return 2
    reduced = _offset_reduced(complete(ana), args)
    payload = {
        "curve": curve.name,
        "grid": {"t0": grid.t0, "t1": grid.t1, "m": grid.m},
        "admissibility": report,
        "invariants": _reduced_payload(reduced),
    }
    formats = args.format or FORMATS
    if "json" in formats:
        _emit_json(payload, out / "analysis.json" if out else None)
    if "csv" in formats and out:
        _invariant_csv(reduced, out / "invariants.csv")
    return 0


def cmd_compare(args):
    def load(spec_str):
        if spec_str in PRESET_NAMES:
            return preset_curve(spec_str)
        return curve_from_json(_read_json(spec_str))

    # both sides are screened before either is completed, so a failed
    # screen exits 2 even where the other side would raise later
    ana_a, ana_b = _screen(load(args.a), args), _screen(load(args.b), args)
    rep_a, rep_b = ana_a.report(), ana_b.report()
    out = Path(args.out) / "compare.json" if args.out else None
    if out:
        out.parent.mkdir(parents=True, exist_ok=True)
    if not (rep_a["admissible"] and rep_b["admissible"]):
        _emit_json({"verdict": "inadmissible", "a": rep_a, "b": rep_b}, out)
        return 2
    red_a, red_b = (_offset_reduced(complete(ana), args)
                    for ana in (ana_a, ana_b))
    tol = args.tol_equiv
    verdict, eps, k_dev, s_dev = equivalent_reduced(red_a, red_b, tol=tol)
    _emit_json(
        {
            "verdict": "equivalent" if verdict else "not-equivalent",
            "tolerance": tol,
            "sign_pattern": None if eps is None else [int(e) for e in eps],
            "k_deviation": k_dev,
            "sigma_deviation": s_dev,
            "arclength": {"a": red_a.arclength[-1],
                          "b": red_b.arclength[-1]},
        },
        out,
    )
    return 0 if verdict else 3


def cmd_reconstruct(args):
    p = prescription_from_json(_read_json(args.input))
    frames, resid = integrate_frame(p, resid_max=args.tol_resid)
    S, segments = curve_from_frame(frames)
    table = table_json(p.ts, S, "reconstructed")
    report = {
        "warnings": p.warnings,
        "symplecticity_residual": resid,
        "frame_deviation": frame_deviation(p, frames),
        "segments": segments,
        "in_chart_samples": sum(j - i + 1 for i, j in segments),
    }
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
        _emit_json(table, out / "curve.json")
        _emit_json(report, out / "reconstruct.json")
    else:
        _emit_json({"curve": table, "report": report})
    return 0 if segments else 1


def cmd_cycle(args):
    out = Path(args.out) / "cycle.json" if args.out else None
    if out:
        out.parent.mkdir(parents=True, exist_ok=True)
    if args.points:
        data = _read_json(args.points)
        require_keys(data, ("points",), "a points file")
        if not isinstance(data["points"], list):
            raise InvalidDimension("points must be a list of matrices")
        pts = [json_array(p, f"point {i}")
               for i, p in enumerate(data["points"], 1)]
        for i, p in enumerate(pts, 1):
            if p.ndim != 2 or p.shape != (len(pts[0]),) * 2:
                raise InvalidDimension(f"point {i} has shape {p.shape}; points "
                                       "must be square matrices of one size")
        for p in pts:
            asymmetry_gate(Gates(), p, SYM_TOL).raise_error()
        pts = [symmetrize(p) for p in pts]
        if len(pts) < 3:
            raise JacobiError("need at least three points")
        cyc = cycle_through(pts[0], pts[1], pts[2])
        members = [cycle_contains(cyc, p, tol=args.tol_member)
                   for p in pts[3:]]
        _emit_json(
            {
                "regular": cyc.regular,
                "infinity": cyc.infinity,
                "base": cyc.base,
                "direction": cyc.direction,
                "extra_points_contained": members,
            },
            out,
        )
        return 0
    curve = _load_curve(args)
    grid = _grid_for(curve, args)
    flat = is_flat(curve, grid, tol=args.tol_flat)
    payload = {"curve": curve.name, "flat": flat}
    if flat:
        try:
            coeffs, direction, resid = mobius_fit(sample_curve(curve, grid))
            payload["mobius"] = {"coeffs": list(coeffs),
                                 "direction": direction,
                                 "residual": resid}
        except NoFit as e:
            payload["mobius"] = {"error": str(e)}
    _emit_json(payload, out)
    return 0


def cmd_presets(args):
    _emit_json({"presets": list(PRESET_NAMES)})
    return 0


def _formats(text):
    """--format's value: a comma-separated subset of FORMATS."""
    names = tuple(text.split(","))
    unknown = [name for name in names if name not in FORMATS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown format {unknown[0]!r} (choose from {','.join(FORMATS)})")
    return names


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, and every call of main reuses it."""
    p = argparse.ArgumentParser(
        prog="jacobi",
        description="Curvature invariants of curves of Lagrangian subspaces",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def window(sp):
        sp.add_argument("--t0", type=float, default=None)
        sp.add_argument("--t1", type=float, default=None)
        sp.add_argument("-m", type=int, default=201)

    def curve_input(sp):
        sp.add_argument("input", nargs="?", help="curve JSON file")
        sp.add_argument("--preset", choices=PRESET_NAMES)
        window(sp)

    def outputs_and_tolerances(sp, **tolerances):
        # each --tol-* default is the tolerances entry it overrides
        sp.add_argument("--out", default=None)
        sp.add_argument("--strict", action="store_true")
        for name, default in tolerances.items():
            sp.add_argument("--" + name.replace("_", "-"), type=float,
                            default=default)

    sp = sub.add_parser("analyze", help="run the invariant pipeline")
    curve_input(sp)
    # default: json, and csv too with --out; csv given without --out is an
    # argument error (main)
    sp.add_argument("--format", type=_formats, default=None)
    outputs_and_tolerances(sp, tol_adm=ADM_TOL)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("compare", help="test two curves for equivalence")
    sp.add_argument("a", help="curve JSON file or preset name")
    sp.add_argument("b", help="curve JSON file or preset name")
    window(sp)
    outputs_and_tolerances(sp, tol_adm=ADM_TOL, tol_equiv=EQUIV_TOL)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("reconstruct", help="integrate a prescription")
    sp.add_argument("input", help="prescription JSON file")
    outputs_and_tolerances(sp, tol_resid=RESID_MAX)
    sp.set_defaults(func=cmd_reconstruct)

    sp = sub.add_parser("cycle", help="three-point cycles and flatness")
    curve_input(sp)
    sp.add_argument("--points", default=None,
                    help="JSON file with {'points': [S1, S2, S3, ...]}")
    outputs_and_tolerances(sp, tol_flat=FLAT_TOL, tol_member=MEMBER_TOL)
    sp.set_defaults(func=cmd_cycle)

    sp = sub.add_parser("presets", help="list built-in curves")
    sp.set_defaults(func=cmd_presets)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "format", None) and "csv" in args.format and not args.out:
        parser.error("analyze: --format csv needs --out")
    _apply_strict(args)
    try:
        return args.func(args)
    except JacobiError as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(json.dumps({"error": "FileNotFound", "message": str(e)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
