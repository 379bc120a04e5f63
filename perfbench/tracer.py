"""Span tracer that wraps holomult's public functions from outside.

`Tracer.install()` replaces every public module-level function of the
holomult modules, at every module that binds it (`from .x import y` copies
the function object, so patching only the defining module would miss
calls), plus the polynomial kernel methods on `_BasePoly` and the
`VectorField` constructor.  Each wrapped call records a span (name, start,
end, parent span, job id) in memory and updates per-name call counts,
inclusive time and self time (span time minus the time of its child spans).
Counters that measure work (term products, division steps, peak term
count, solver rows, RK4 steps) are taken at the same call boundaries.
`uninstall()` restores every binding, so untraced passes run the original
code.  Q(i) scalar operations are not wrapped: a span per scalar operation
would swamp the trace, so `scalar_costs` times them in a loop instead.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import operator
import statistics
import time
from collections import Counter

MODULES = ("scalars", "poly", "linsolve", "calculus", "multipliers", "metric",
           "poisson", "realify", "numcheck", "parser", "manifest", "cli")

# Phases of the cross-checked predicates, delimited by the first direct child
# span with the given name starting or ending.
PHASES = {
    "poisson.bivector_lm_check": (("componentwise", "curl", "modular"),
                                  (("calculus.VectorField", "end"), ("poisson.modular_field", "start"))),
    "poisson.exactness_check": (("curl", "crosscheck"), (("poisson.modular_field", "start"),)),
    "multipliers.is_last_multiplier": (("divergence", "form"), (("calculus.flat", "start"),)),
}


# share metrics: (predicate span, phase) whose share of the span's time they are
SHARES = {
    "poisson.bivector_lm_check.route_share.componentwise": ("poisson.bivector_lm_check", "componentwise"),
    "poisson.bivector_lm_check.route_share.curl": ("poisson.bivector_lm_check", "curl"),
    "poisson.bivector_lm_check.route_share.modular": ("poisson.bivector_lm_check", "modular"),
    "poisson.exactness_check.crosscheck_share": ("poisson.exactness_check", "crosscheck"),
    "multipliers.is_last_multiplier.form_route_share": ("multipliers.is_last_multiplier", "form"),
}


# name, unit, how the value is read from one traced pass
LAYER_METRICS = (
    ("parser.parse_expr.calls", "count"),
    ("parser.parse_expr.ms", "ms"),
    ("manifest.parse_manifest.ms", "ms"),
    ("manifest.run_tasks.self_ms", "ms"),
    ("manifest.emit_report.ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("scalars.mul_ns", "ns"),
    ("scalars.add_ns", "ns"),
    ("scalars.div_ns", "ns"),
    ("poly.mul.calls", "count"),
    ("poly.mul.term_products", "count"),
    ("poly.mul.out_terms", "count"),
    ("poly.mul.self_ms", "ms"),
    ("poly.add.calls", "count"),
    ("poly.add.self_ms", "ms"),
    ("poly.diff.calls", "count"),
    ("poly.diff.self_ms", "ms"),
    ("poly.construct.calls", "count"),
    ("poly.construct.self_ms", "ms"),
    ("poly.peak_terms", "count"),
    ("poly.divide_exact.calls", "count"),
    ("poly.divide_exact.steps", "count"),
    ("poly.divide_exact.self_ms", "ms"),
    ("multipliers.darboux_cofactor.ms", "ms"),
    ("multipliers.darboux_multiplier_search.self_ms", "ms"),
    ("linsolve.solve_linear.calls", "count"),
    ("linsolve.solve_linear.rows", "count"),
    ("linsolve.solve_linear.ms", "ms"),
    ("calculus.curl.self_ms", "ms"),
    ("calculus.flat.self_ms", "ms"),
    ("calculus.sharp.self_ms", "ms"),
    ("calculus.partial_d.self_ms", "ms"),
    ("calculus.interior_product.self_ms", "ms"),
    ("calculus.apply_field.self_ms", "ms"),
    ("calculus.divergence.self_ms", "ms"),
    ("poisson.jacobiator.self_ms", "ms"),
    ("poisson.hamiltonian_field.self_ms", "ms"),
    ("poisson.modular_field.self_ms", "ms"),
    ("poisson.poisson_bracket.self_ms", "ms"),
    ("poisson.bivector_lm_check.ms", "ms"),
    ("poisson.bivector_lm_check.route_share.componentwise", "ratio"),
    ("poisson.bivector_lm_check.route_share.curl", "ratio"),
    ("poisson.bivector_lm_check.route_share.modular", "ratio"),
    ("poisson.exactness_check.ms", "ms"),
    ("poisson.exactness_check.crosscheck_share", "ratio"),
    ("multipliers.is_last_multiplier.ms", "ms"),
    ("multipliers.is_last_multiplier.form_route_share", "ratio"),
    ("metric.gradient_lm_residual.ms", "ms"),
    ("poly.realify_split.calls", "count"),
    ("poly.realify_split.self_ms", "ms"),
    ("realify.realify_poisson.ms", "ms"),
    ("realify.realify_field.ms", "ms"),
    ("realify.modsq.ms", "ms"),
    ("realify.is_real_poisson.self_ms", "ms"),
    ("realify.real_bracket.calls", "count"),
    ("numcheck.integrate.ms", "ms"),
    ("numcheck.rhs_us", "us"),
    ("numcheck.first_integral_drift.ms", "ms"),
    ("numcheck.residual_sample.ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)

COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS if unit == "count")


class Tracer:
    def __init__(self, hm):
        self.hm = hm
        self.mods = {short: importlib.import_module(f"{hm.__name__}.{short}") for short in MODULES}
        self.patches = []
        self.reset(keep_spans=False)
        self._plan()

    # -- state ---------------------------------------------------------------

    def reset(self, keep_spans):
        self.stack = []
        self.spans = []
        self.keep_spans = keep_spans
        self.next_id = 0
        self.job = None
        self.calls = Counter()
        self.incl = Counter()
        self.self_time = Counter()
        self.depth = Counter()
        self.counts = Counter()
        self.phases = Counter()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, hook=None):
        tracer = self
        phase_spec = PHASES.get(name)
        markers = phase_spec[1] if phase_spec else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            sid = tracer.next_id
            tracer.next_id = sid + 1
            t0 = time.perf_counter()
            if parent is not None and parent[4] is not None:
                tracer._mark(parent, name, "start", t0)
            # name, start, time covered by child spans, span id, phase marks
            frame = [name, t0, 0.0, sid, markers and [None] * len(markers)]
            outer = tracer.depth[name] == 0
            tracer.depth[name] += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.depth[name] -= 1
                dur = t1 - t0
                tracer.calls[name] += 1
                tracer.self_time[name] += dur - frame[2]
                if outer:
                    tracer.incl[name] += dur
                if parent is not None:
                    parent[2] += dur
                    if parent[4] is not None:
                        tracer._mark(parent, name, "end", t1)
                if markers:
                    tracer._close_phases(frame, t1)
                if tracer.keep_spans:
                    tracer.spans.append((sid, name, t0, t1, parent[3] if parent else None, tracer.job))
            if hook is not None:
                hook(tracer, args, result, parent)
            return result

        return wrapper

    def _mark(self, frame, child, event, t):
        for idx, (mname, mevent) in enumerate(PHASES[frame[0]][1]):
            if mname == child and mevent == event and frame[4][idx] is None:
                frame[4][idx] = t

    def _close_phases(self, frame, end):
        names, _ = PHASES[frame[0]]
        bounds = [frame[1]]
        for t in frame[4]:
            bounds.append(max(bounds[-1], t if t is not None else end))
        bounds.append(end)
        for phase, a, b in zip(names, bounds, bounds[1:]):
            self.phases[(frame[0], phase)] += b - a

    def _plan(self):
        hm = self.hm
        poly = self.mods["poly"]
        base = poly._BasePoly
        wrapped = {}
        for short, mod in self.mods.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[id(obj)] = self._wrap(obj, f"{short}.{attr}", _HOOKS.get(f"{short}.{attr}"))
        for mod in (hm, *self.mods.values()):
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self.patches.append((mod, attr, obj, wrapped[id(obj)]))
        add = self._wrap(base.__add__, "poly.add")
        methods = (
            (base, "__init__", self._wrap(base.__init__, "poly.construct", _construct_hook)),
            (base, "__add__", add),
            (base, "__radd__", add),  # an alias of __add__ in the class body
            (base, "__mul__", self._wrap(base.__mul__, "poly.mul", _mul_hook)),
            (base, "diff", self._wrap(base.diff, "poly.diff")),
            (base, "divide_exact", self._wrap(base.divide_exact, "poly.divide_exact")),
            (poly.CPoly, "realify_split", self._wrap(poly.CPoly.realify_split, "poly.realify_split")),
            (self.mods["calculus"].VectorField, "__init__",
             self._wrap(self.mods["calculus"].VectorField.__init__, "calculus.VectorField")),
        )
        for owner, attr, wrapper in methods:
            self.patches.append((owner, attr, owner.__dict__[attr], wrapper))

    def install(self):
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def snapshot(self, untraced_s, traced_s):
        """Per-layer metric values for the pass just traced."""
        c, incl, slf, cnt = self.calls, self.incl, self.self_time, self.counts
        out = {}
        for name, _ in LAYER_METRICS:
            head, _, field = name.rpartition(".")
            if name.startswith("scalars."):
                continue
            if name == "trace.overhead_ratio":
                value = traced_s / untraced_s
            elif name == "numcheck.rhs_us":
                steps = cnt["numcheck.integrate.steps"]
                value = incl["numcheck.integrate"] * 1e6 / (4 * steps) if steps else 0.0
            elif name in SHARES:
                span, phase = SHARES[name]
                value = self.phases[(span, phase)] / incl[span] if incl[span] else 0.0
            elif field == "calls":
                value = c[head]
            elif field == "ms":
                value = incl[head] * 1000.0
            elif field == "self_ms":
                value = slf[head] * 1000.0
            else:  # a work counter
                value = cnt[name]
            out[name] = value
        return out

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for sid, name, t0, t1, parent, job in self.spans:
                handle.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                         "parent": parent, "job": job}) + "\n")


def _construct_hook(tracer, args, result, parent):
    size = len(args[0].terms)
    if size > tracer.counts["poly.peak_terms"]:
        tracer.counts["poly.peak_terms"] = size


def _mul_hook(tracer, args, result, parent):
    a, b = args
    if hasattr(b, "terms"):
        tracer.counts["poly.mul.term_products"] += len(a.terms) * len(b.terms)
        tracer.counts["poly.mul.out_terms"] += len(result.terms)
        if parent is not None and parent[0] == "poly.divide_exact":
            tracer.counts["poly.divide_exact.steps"] += 1


def _solve_hook(tracer, args, result, parent):
    tracer.counts["linsolve.solve_linear.rows"] += len(args[0])


def _integrate_hook(tracer, args, result, parent):
    tracer.counts["numcheck.integrate.steps"] += len(result.times) - 1


_HOOKS = {"linsolve.solve_linear": _solve_hook, "numcheck.integrate": _integrate_hook}


def scalar_costs(pool, repeats=15):
    """ns per Q(i) multiply, add and divide over consecutive pool pairs
    (loop overhead included), median of `repeats` timed sweeps."""
    pairs = list(zip(pool, pool[1:] + pool[:1]))
    divisors = [(a, b) for a, b in pairs if b]
    out = {}
    for name, op, data in (("mul", operator.mul, pairs), ("add", operator.add, pairs),
                           ("div", operator.truediv, divisors)):
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for a, b in data:
                op(a, b)
            samples.append((time.perf_counter() - t0) * 1e9 / len(data))
        out[f"scalars.{name}_ns"] = statistics.median(samples)
    return out
