"""Benchmark of the jacobi pipeline: one workload, one seed, one JSON result.

    python3 bench/run.py --workload analyze-fine --seed 1 --seconds 30 \
        --trace 0

Run from the repository root.  The package is imported from `src/`.  One
process, one caller, closed loop: each operation starts when the previous
one has returned.  Inputs come from `--seed` alone.  Every operation's output
is checked; a failed check or a raised error is counted, never fatal.

With `--trace 0` the run measures for `--seconds` and the last stdout line
carries the end-to-end metrics.  With `--trace 1` it times one cycle of ops,
each untraced and traced, the last line carries the per-layer metrics and
the spans are written to `.bench_out/`.  Human-readable detail goes to
stderr.  See README.md in this directory.
"""

from __future__ import annotations

import os

# One BLAS / OpenMP thread, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
TMP = ROOT / ".bench_tmp"
OUT = ROOT / ".bench_out"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

WORKLOAD_NAMES = ("analyze-fine", "cli-corpus", "roundtrip")
SETUP_PROBES = 3
PROBE_TIMEOUT = 60.0
TAIL_BEYOND = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# set-up


def build(workload, seed, workdir):
    """Import the package, make the inputs and run the warm-up calls."""
    import numpy as np

    import workloads

    w = workloads.build(workload, np.random.default_rng(seed), workdir)
    for op in w.warmup:
        result, exc, _ = timed_call(op)
        outcome = op.check(result, exc)
        if not outcome.ok:
            raise RuntimeError(f"warm-up {op.cls} failed: {outcome.detail}")
    return w


def probe(args):
    """Child process: set up once, say so, exit."""
    workdir = Path(tempfile.mkdtemp(dir=TMP))
    try:
        build(args.workload, args.seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(args):
    """Median wall time from starting a fresh interpreter to the point where
    the first timed call could begin (import, inputs, warm-up)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with code {code}")
        times.append(elapsed)
    return statistics.median(times), times


# ---------------------------------------------------------------------------
# measurement


def timed_call(op):
    t0 = time.perf_counter()
    try:
        result, exc = op.call(), None
    except Exception as e:  # counted by the op's check, never fatal
        result, exc = None, e
    return result, exc, time.perf_counter() - t0


class Record:
    __slots__ = ("op", "seconds", "outcome", "traced", "ref")

    def __init__(self, op, seconds, outcome, traced):
        self.op, self.seconds = op, seconds
        self.outcome, self.traced = outcome, traced
        self.ref = None  # reference-loop seconds around the call


def run_op(op, records, tracer=None):
    """Time one op and check its output.

    The garbage of earlier ops is collected first, outside the timed call,
    so collector pauses and peak memory do not depend on what earlier ops
    happened to leave behind.
    """
    gc.collect()
    if tracer is not None:
        tracer.op = f"{len(records)}:{op.cls}"
        frame = tracer.open("bench.op", True)
    result, exc, dt = timed_call(op)
    if tracer is not None:
        tracer.close(*frame)
    records.append(Record(op, dt, op.check(result, exc), tracer is not None))
    return records[-1]


def measure(cycles, seconds):
    """Closed loop for `seconds`.  First every op of the run's input sets is
    called once, in order, however long that takes.  Until the deadline the
    same ops are then called again in the same order, for timing; each
    repeat is checked as well.  No op outside the first pass ever runs, so
    `attempted` and `failed`, counted per op (`op_outcomes`), depend on the
    seed, not on the machine's speed.
    The reference loop is timed before the first call and after each call;
    a call's `ref` is the mean of the two passes around it."""
    from reference import reference_seconds

    ops = [op for cycle in cycles for op in cycle]
    records = []
    before = reference_seconds()

    def one(op):
        nonlocal before
        rec = run_op(op, records)
        after = reference_seconds()
        rec.ref = 0.5 * (before + after)
        before = after

    start = time.perf_counter()
    for op in ops:
        one(op)
    log(f"checked pass: {len(ops)} ops in "
        f"{time.perf_counter() - start:.2f} s")
    deadline = start + seconds
    while time.perf_counter() < deadline:
        for op in ops:
            if time.perf_counter() >= deadline:
                break
            one(op)
    return records, time.perf_counter() - start


def measure_traced(ops, tracer):
    """Each op of one cycle runs twice in a row, once untraced and once
    traced, the order alternating, so both calls see the same machine
    state.  The traced cycle is always the first input set, so the counts
    repeat exactly for a seed."""
    records = []
    for i, op in enumerate(ops):
        for traced in ((False, True) if i % 2 else (True, False)):
            if not traced:
                run_op(op, records)
                continue
            tracer.install()
            try:
                run_op(op, records, tracer)
            finally:
                tracer.remove()
    return records


# ---------------------------------------------------------------------------
# statistics


def class_times(records, unit=lambda r: 1.0):
    """(m, median call time / unit) per op class, over the calls that
    returned a result.  A call that ended in an error did part of the work;
    it counts in `failed` but not in the speed metrics, so a fix that lets
    more calls finish does not read as a slowdown.  A class with no returned
    call is left out."""
    times = {}
    for r in records:
        if not r.outcome.raised:
            times.setdefault(r.op.cls, (r.op.m, []))[1].append(
                r.seconds / unit(r))
    return {cls: (m, statistics.median(ts)) for cls, (m, ts) in times.items()}


def median_or(values, default):
    return statistics.median(values) if values else default


def log_tail(records):
    """The highest percentile of call time with ten calls beyond it."""
    times = sorted(r.seconds for r in records)
    n = len(times)
    if n <= TAIL_BEYOND:
        log(f"tail: {n} calls, none has {TAIL_BEYOND} beyond it; "
            f"max {times[-1]:.4f} s")
        return
    q = 1.0 - TAIL_BEYOND / n
    log(f"tail: p{100 * q:.1f} = {times[n - 1 - TAIL_BEYOND]:.4f} s "
        f"({n} calls, {TAIL_BEYOND} beyond it)")


def accuracy_digits(records):
    """Correct digits on the paper presets: per op class with a preset input,
    the median of -log10 of its accuracy figures, averaged over those
    classes.  A figure is max |k - k_exact| of an analysis or the k
    deviation between the two analyses of a compare or a round trip, taken
    from every call that returned, passing or not; it is capped at 16
    digits.  Preset inputs do not depend on the seed, so the figure is
    steady; drawn inputs show their defects in `failed` and in the traced
    run's `k_err_p50` and `k_dev_p50`."""
    digits = {}
    for r in records:
        if r.op.reference and not r.outcome.raised:
            for x in (r.outcome.k_err, r.outcome.k_dev):
                if x is not None:
                    digits.setdefault(r.op.cls, []).append(
                        -math.log10(max(x, 1e-16)))
    if not digits:
        return 0.0
    return statistics.fmean(statistics.median(d) for d in digits.values())


def family(cls):
    """An op class without its drawn half-dimension: `compare/closed-3` and
    `compare/closed-6` are both `compare/closed`."""
    return re.sub(r"-\d+(?=/|$)", "", cls)


def speed(per_class):
    """Samples per time unit: geometric mean over input families of the
    geometric mean over the family's classes.  Which drawn classes return a
    result changes from seed to seed; pooling them by family keeps that from
    shifting the weight between input kinds."""
    families = {}
    for cls, (m, t) in per_class.items():
        families.setdefault(family(cls), []).append(m / t)
    return statistics.geometric_mean(
        statistics.geometric_mean(v) for v in families.values())


def end_to_end(records, setup_s):
    """Speed is grid samples per reference-loop duration (`reference.py`),
    averaged by `speed`, a class's time being the median of its returned
    calls.  Each class counts once, so a partly run last cycle does not
    shift the mix."""
    per_class = class_times(records, unit=lambda r: r.ref)
    if not per_class:
        raise RuntimeError("no call returned a result")
    wall = class_times(records)
    times = [t for _, t in wall.values()]
    log(f"{len(wall)} classes: {speed(wall):.2f} samples/s, median class "
        f"time {statistics.median(times):.4f} s, one call of each "
        f"{sum(times):.3f} s; reference loop median "
        f"{statistics.median(r.ref for r in records):.4f} s")
    log_tail(records)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "samples_per_ref": (speed(per_class), "1/ref"),
        "accuracy_digits": (accuracy_digits(records), "digits"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def failure_summary(records):
    out = {}
    for r in records:
        if not r.outcome.ok:
            out[r.outcome.error] = out.get(r.outcome.error, 0) + 1
    return out


def log_classes(records):
    rows = {}
    for r in records:
        rows.setdefault(r.op.cls, []).append(r)
    for cls, rs in rows.items():
        oks = sum(r.outcome.ok for r in rs)
        med = statistics.median(r.seconds for r in rs)
        log(f"  {cls:32s} m={rs[0].op.m:5d} calls={len(rs):3d} "
            f"ok={oks:3d} median={med:.4f}s")


# ---------------------------------------------------------------------------
# traced run


def per_layer(records, tracer):
    """Per-layer figures of a traced run.  Times are self seconds per op
    cycle; counts are per grid sample or per integration step."""
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    t_traced = sum(r.seconds for r in traced)
    t_plain = sum(r.seconds for r in plain)
    samples = sum(r.op.m for r in traced)
    steps = tracer.counters["reconstruct.steps"]

    own = tracer.self_time
    layers = {
        "matcurve.sample_s": (own("matcurve.sample", "matcurve.jet"), "s"),
        "matcurve.jets_per_sample": (tracer.count("matcurve.jet") / samples,
                                     "count"),
        "matcurve.from_json_s": (own("matcurve.from_json"), "s"),
        "matcurve.table_s": (own("matcurve.table"), "s"),
        "matcurve.finite_diff_s": (own("matcurve.finite_diff"), "s"),
        "curvature.ricci_s": (own("curvature.ricci"), "s"),
        "curvature.schwarzian_s": (own("curvature.schwarzian"), "s"),
        "curvature.schwarzian_per_sample": (
            tracer.count("curvature.schwarzian") / samples, "count"),
        "curvature.derivative_s": (own("curvature.derivative"), "s"),
        "geom.zeta_s": (own("geom.zeta"), "s"),
        "geom.abscurv_s": (own("geom.abscurv"), "s"),
        "geom.screen_s": (own("geom.screen"), "s"),
        "geom.screen_inclusive_s": (tracer.total_time("geom.screen"), "s"),
        "frames.frame_s": (own("frames.frame"), "s"),
        "frames.cartan_s": (own("frames.cartan"), "s"),
        "frames.reduced_s": (own("frames.reduced"), "s"),
        "frames.equiv_s": (own("frames.equiv"), "s"),
        "reconstruct.prescription_s": (own("reconstruct.prescription"), "s"),
        "reconstruct.integrate_s": (own("reconstruct.integrate"), "s"),
        "reconstruct.c_eval_s": (own("reconstruct.c_eval",
                                     "reconstruct.structure"), "s"),
        "reconstruct.chart_s": (own("reconstruct.chart"), "s"),
        "reconstruct.c_evals_per_step": (
            tracer.count("reconstruct.c_eval") / steps if steps else 0.0,
            "count"),
        "cycles.flat_s": (own("cycles.flat"), "s"),
    }
    for mod, seconds in tracer.module_self().items():
        layers[f"{mod}.self_s"] = (seconds, "s")
    for mod, k in tracer.module_errors().items():
        layers[f"{mod}.errors"] = (k, "count")
    layers["trace_overhead_frac"] = (t_traced / t_plain - 1.0, "1")

    k_err = [r.outcome.k_err for r in traced if r.outcome.ok
             and r.outcome.k_err is not None]
    k_dev = [r.outcome.k_dev for r in traced if r.outcome.ok
             and r.outcome.k_dev is not None]
    failed = sum(not r.outcome.ok for r in traced)
    layers["failed_frac"] = (failed / len(traced), "1")
    layers["k_err_p50"] = (median_or(k_err, -1.0), "1")
    layers["k_dev_p50"] = (median_or(k_dev, -1.0), "1")
    return layers


def input_table(ops):
    import inputs

    rows = []
    for op in ops:
        if op.case is None:
            continue
        row = {"class": op.cls, "m": op.m}
        row.update(inputs.input_margins(op.case))
        rows.append(row)
    return rows


def refinement(ops):
    """k error and round-trip k deviation of the closed-form family as the
    grid is refined."""
    import numpy as np

    import jacobi.pipeline
    import jacobi.reconstruct
    from jacobi.matcurve import SampleGrid

    import inputs

    seen, rows = set(), []
    for op in ops:
        case = op.case
        if case is None or case.family != "closed" or case.label in seen:
            continue
        seen.add(case.label)
        for m in (201, 801, 3201):
            grid = SampleGrid(*inputs.WINDOW, m)
            row = {"input": case.label, "n": case.n, "m": m}
            try:
                ana = jacobi.pipeline.analyze(case.curve, grid)
                row["k_err"] = float(np.max(np.abs(
                    ana.reduced.curvatures() - case.k_exact)))
            except Exception as e:  # recorded in the table
                row["k_err_error"] = type(e).__name__
            try:
                rep = jacobi.reconstruct.roundtrip(case.curve, grid)
                row["roundtrip_k_dev"] = float(rep.k_deviation)
            except Exception as e:  # recorded in the table
                row["roundtrip_error"] = type(e).__name__
            log("  refinement", row)
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------


def op_outcomes(records):
    """Per op (one input and call), whether every call of it passed.  An op
    called several times counts once; it fails if any of its calls failed,
    and calls that disagree are logged."""
    calls = {}
    for r in records:
        calls.setdefault(id(r.op), (r.op, []))[1].append(r.outcome.ok)
    for op, oks in calls.values():
        if len(set(oks)) > 1:
            log(f"{op.cls}: calls disagree: {oks}")
    return [all(oks) for _, oks in calls.values()]


def emit(correct, records, metrics):
    passed = op_outcomes(records)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(passed),
        "failed": passed.count(False),
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "jacobi" / "__init__.py").is_file():
        log(f"no package sources at {ROOT / 'src' / 'jacobi'}")
        return 2
    TMP.mkdir(exist_ok=True)
    if args.setup_probe:
        return probe(args)
    if not args.trace:
        setup_s, probes = measure_setup(args)
        log(f"set-up probes: {', '.join(f'{t:.4f}' for t in probes)} s")

    workdir = Path(tempfile.mkdtemp(dir=TMP))
    try:
        w = build(args.workload, args.seed, workdir)
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            records = measure_traced(w.cycles[0], tracer)
            metrics = per_layer(records, tracer)
        else:
            records, wall = measure(w.cycles, args.seconds)
            log(f"{args.workload} seed {args.seed}: {len(records)} calls "
                f"in {wall:.2f} s")
            metrics = end_to_end(records, setup_s)
        log_classes(records)
        log("failures:", failure_summary(records))
        broken = sorted({r.op.cls for r in records
                         if r.op.must_pass and not r.outcome.ok})
        if broken:
            log("guaranteed operations failed:", broken)
        if args.trace:
            extra = {"workload": args.workload, "seed": args.seed,
                     "inputs": input_table(w.cycles[0]),
                     "per_layer": {k: v for k, (v, _) in metrics.items()},
                     "outcomes": [{"class": r.op.cls, "traced": r.traced,
                                   "seconds": r.seconds, "ok": r.outcome.ok,
                                   "error": r.outcome.error,
                                   "detail": r.outcome.detail}
                                  for r in records]}
            if args.workload == "roundtrip":
                extra["refinement"] = refinement(w.cycles[0])
            path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(path, extra)
            log(f"trace written to {path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit(not broken, records, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
