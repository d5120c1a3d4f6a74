"""Layer tracing from outside the program.

Public functions of the `jacobi` modules are replaced, in every module
namespace that holds them, by wrappers that time each call.  Calls made once
per sample (jets, Schwarzians, Ricci data, frame pieces, structure-matrix
evaluations) are aggregated as count, total time and self time; the coarser
calls become span records with a parent link.  Everything stays in memory
until `dump` writes it out.

A layer is a package module.  Self time is a call's duration minus the
duration of the wrapped calls made inside it.  A wrapped function that
raises has the error counted against its module, once per exception, at the
innermost wrapper it passes.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

import jacobi

MODULES = ("matcurve", "curvature", "geom", "frames", "pipeline",
           "reconstruct", "cycles", "symspace", "cli")

# (module, attribute, span name, aggregated)
FUNCTIONS = [
    ("matcurve", "sample_curve", "matcurve.sample", False),
    ("matcurve", "curve_from_json", "matcurve.from_json", False),
    ("matcurve", "table_curve", "matcurve.table", False),
    ("matcurve", "finite_diff", "matcurve.finite_diff", True),
    ("curvature", "matrix_schwarzian", "curvature.schwarzian", True),
    ("curvature", "ricci", "curvature.ricci", True),
    ("curvature", "derivative_curve", "curvature.derivative", True),
    ("geom", "zeta_series", "geom.zeta", False),
    ("geom", "absolute_curvature", "geom.abscurv", False),
    ("geom", "admissibility_report", "geom.screen", False),
    ("frames", "frenet_frame", "frames.frame", False),
    ("frames", "cartan_matrix", "frames.cartan", False),
    ("frames", "reduced_invariants", "frames.reduced", False),
    ("frames", "equivalent_reduced", "frames.equiv", False),
    ("pipeline", "analyze", "pipeline.analyze", False),
    ("reconstruct", "arc_uniform_prescription", "reconstruct.prescription",
     False),
    ("reconstruct", "prescription_from_json", "reconstruct.prescription",
     False),
    ("reconstruct", "integrate_frame", "reconstruct.integrate", False),
    ("reconstruct", "curve_from_frame", "reconstruct.chart", False),
    ("reconstruct", "roundtrip", "reconstruct.roundtrip", False),
    ("cycles", "is_flat", "cycles.flat", False),
    ("cycles", "mobius_fit", "cycles.mobius", False),
    ("cycles", "cycle_through", "cycles.cycle", True),
    ("cycles", "cycle_contains", "cycles.contains", True),
    ("symspace", "frame_from_chart_pair", "symspace.frame_pair", True),
    ("symspace", "is_symplectic_frame", "symspace.is_symplectic", True),
    ("symspace", "apply_symplectic", "symspace.apply", True),
    ("cli", "main", "cli.main", False),
]

# (module, class, method, span name, aggregated)
METHODS = [
    ("matcurve", "SymmetricMatrixCurve", "jet", "matcurve.jet", True),
    ("reconstruct", "InvariantPrescription", "structure_matrix",
     "reconstruct.structure", True),
]


class _Frame:
    __slots__ = ("name", "span_id", "child")

    def __init__(self, name, span_id):
        self.name = name
        self.span_id = span_id
        self.child = 0.0


class Tracer:
    """Installs wrappers, records spans and aggregates, restores on remove."""

    def __init__(self):
        self.spans = []
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, self
        self.errors = Counter()       # (module, exception type) -> count
        self.counters = Counter()
        self._stack = []
        self._patched = []
        self._next_id = 0
        self.op = None

    # -- recording ---------------------------------------------------------

    def _parent_span(self):
        for fr in reversed(self._stack):
            if fr.span_id is not None:
                return fr.span_id
        return None

    def open(self, name, span):
        span_id = None
        if span:
            span_id = self._next_id
            self._next_id += 1
        fr = _Frame(name, span_id)
        parent = self._parent_span()
        self._stack.append(fr)
        return fr, parent, perf_counter()

    def close(self, fr, parent, t0):
        dur = perf_counter() - t0
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += dur
        own = dur - fr.child
        a = self.agg[fr.name]
        a[0] += 1
        a[1] += dur
        a[2] += own
        if fr.span_id is not None:
            self.spans.append({"id": fr.span_id, "parent": parent,
                               "op": self.op, "name": fr.name,
                               "start": t0, "dur": dur, "self": own})

    def wrap(self, fn, name, aggregated):
        module = name.split(".")[0]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            # an evaluator that samples an inner curve is one jet, not two
            if stack and stack[-1].name == name == "matcurve.jet":
                return fn(*args, **kwargs)
            fr, parent, t0 = tracer.open(name, not aggregated)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                if not getattr(e, "_bench_counted", False):
                    tracer.errors[(module, type(e).__name__)] += 1
                    try:
                        e._bench_counted = True
                    except AttributeError:
                        pass
                raise
            finally:
                tracer.close(fr, parent, t0)
            return tracer._after(name, args, result)

        return wrapper

    def _after(self, name, args, result):
        if name == "reconstruct.integrate":
            self.counters["reconstruct.steps"] += args[0].ts.size - 1
        elif name == "reconstruct.structure":
            return self.wrap(result, "reconstruct.c_eval", True)
        return result

    # -- installation ------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"jacobi.{m}") for m in MODULES}
        namespaces = list(mods.values()) + [jacobi]
        for mod, attr, name, aggregated in FUNCTIONS:
            fn = getattr(mods[mod], attr)
            wrapper = self.wrap(fn, name, aggregated)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        self._patched.append((ns, key, fn))
                        setattr(ns, key, wrapper)
        for mod, cls_name, attr, name, aggregated in METHODS:
            cls = getattr(mods[mod], cls_name)
            fn = cls.__dict__[attr]
            self._patched.append((cls, attr, fn))
            setattr(cls, attr, self.wrap(fn, name, aggregated))

    def remove(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def self_time(self, *names):
        return sum(self.agg[n][2] for n in names if n in self.agg)

    def total_time(self, name):
        return self.agg[name][1] if name in self.agg else 0.0

    def count(self, name):
        return self.agg[name][0] if name in self.agg else 0

    def module_self(self):
        out = {m: 0.0 for m in MODULES}
        for name, (_, _, own) in self.agg.items():
            mod = name.split(".")[0]
            if mod in out:
                out[mod] += own
        return out

    def module_errors(self):
        out = {m: 0 for m in MODULES}
        for (mod, _), k in self.errors.items():
            out[mod] += k
        return out

    def dump(self, path, extra):
        data = {
            "spans": self.spans,
            "aggregates": {k: {"count": v[0], "total_s": v[1], "self_s": v[2]}
                           for k, v in sorted(self.agg.items())},
            "errors": [{"module": m, "type": t, "count": k}
                       for (m, t), k in sorted(self.errors.items())],
            "counters": dict(self.counters),
        }
        data.update(extra)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data, indent=1, default=float) + "\n")
