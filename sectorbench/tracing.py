"""Spans around the library's layer boundaries, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper that
records one span per call: name, start, end, parent span and a few
counts taken from the call's operands.  A function is replaced under
every name that binds it: ``expm`` is imported by name into
``functionals`` and ``cli``, ``adaptive_contour`` into ``calculus`` and
``functionals``, and the benchmark's own ``workloads`` module imports the
public functions, so the wrapper goes into every module of the package
(and into ``workloads``) whose namespace holds the original object.
Methods are replaced on their class.  ``uninstall`` restores everything.

Spans stay in memory while the run lasts and are written as JSON lines
when it ends.  A span's self time is its duration minus the time its
child spans cover; a layer's inclusive time counts only outermost spans
of that layer, so nested calls (``functional_calculus`` inside
``functional_calculus_hinf``) are not counted twice.
"""

import importlib
import json
import sys
import time

import numpy as np

PACKAGE_MODULES = ("_kernels", "geometry", "quadrature", "semigroups",
                   "functionals", "calculus", "cli")


# A hook takes a call's (args, kwargs) and returns (args, kwargs, attrs_of):
# the arguments to call with and a function of the call's output that
# gives the span's counts.


def _adaptive_hook(args, kwargs):
    counts = []
    value_of = args[0]

    def counted(cq):
        counts.append(cq.node_count)
        return value_of(cq)

    return (counted,) + tuple(args[1:]), kwargs, lambda out: {
        "rounds": len(counts), "nodes": sum(counts),
        "final_nodes": counts[-1] if counts else 0}


def _ray_hook(args, kwargs):
    count = [0]
    f = args[0]

    def counted(ts):
        count[0] += len(ts)
        return f(ts)

    return (counted,) + tuple(args[1:]), kwargs, lambda out: {"nodes": count[0]}


def _reduce_hook(args, kwargs):
    # bytes computed from operand sizes, not measured
    size = np.asarray(args[0]).nbytes + np.asarray(args[1]).nbytes
    return args, kwargs, lambda out: {"bytes": int(size + np.asarray(out).nbytes)}


def _stack_hook(args, kwargs):
    return args, kwargs, lambda out: {"solves": int(len(args[2]))}


def _points_hook(args, kwargs):
    n = int(np.atleast_2d(np.asarray(args[1])).shape[0])
    return args, kwargs, lambda out: {"points": n}


# (span name, module, attribute, hook)
FUNCTIONS = (
    ("_kernels.reduce_weighted", "_kernels", "reduce_weighted", _reduce_hook),
    ("_kernels.resolvent_stack", "_kernels", "resolvent_stack", _stack_hook),
    ("quadrature.resolvent_contour_value", "quadrature", "resolvent_contour_value", None),
    ("quadrature.tensor_sum", "quadrature", "tensor_sum", None),
    ("quadrature.adaptive_contour", "quadrature", "adaptive_contour", _adaptive_hook),
    ("quadrature.ray_integral", "quadrature", "ray_integral", _ray_hook),
    ("semigroups.expm", "semigroups", "expm", None),
    ("semigroups.mult_semigroup_gap", "semigroups", "mult_semigroup_gap", None),
    ("semigroups.quasinilpotent_gap", "semigroups", "quasinilpotent_gap", None),
    ("functionals.pair_semigroup", "functionals", "pair_semigroup", None),
    ("functionals.convolve", "functionals", "convolve", None),
    ("calculus.functional_calculus", "calculus", "functional_calculus", None),
    ("calculus.functional_calculus_hinf", "calculus", "functional_calculus_hinf", None),
    ("calculus.functional_calculus_smirnov", "calculus", "functional_calculus_smirnov",
     None),
    ("calculus.check_admissible_for", "calculus", "check_admissible_for", None),
    ("calculus.h1_norm", "calculus", "h1_norm", None),
    ("calculus.boundary_abs_integral", "calculus", "boundary_abs_integral", None),
    ("calculus.boundary_contour_integral", "calculus", "boundary_contour_integral",
     None),
    ("calculus.interior_cauchy_value", "calculus", "interior_cauchy_value", None),
    ("calculus.pointwise_bound_check", "calculus", "pointwise_bound_check", None),
)

METHODS = (
    ("quadrature.ContourQuadrature.from_region", "quadrature", "ContourQuadrature",
     "from_region", None),
    ("calculus.HoloFunction.__call__", "calculus", "HoloFunction", "__call__", _points_hook),
    ("geometry.Sector.contains", "geometry", "Sector", "contains", None),
    ("geometry.ProductSector.contains", "geometry", "ProductSector", "contains", None),
    ("geometry.AxisRegion.contains", "geometry", "AxisRegion", "contains", None),
    ("geometry.AdmissibleRegion.contains", "geometry", "AdmissibleRegion", "contains", None),
)

CONTAINS = {m[0] for m in METHODS if m[3] == "contains"}
BOUNDARY = {"calculus.h1_norm", "calculus.boundary_abs_integral",
            "calculus.boundary_contour_integral", "calculus.interior_cauchy_value"}
GAPS = {"semigroups.mult_semigroup_gap", "semigroups.quasinilpotent_gap"}

CG, OP, BS = "calculus-grid", "orbit-pairing", "boundary-scalar"

# (metric, unit, kind, span names, attribute, workloads on which the
# spans must be observed).  Metric names start with a letter, so the
# ``_kernels`` module reports as ``kernels``.  Kinds: "incl" outermost
# inclusive seconds, "self" self seconds, "calls" outermost span count,
# "attr" attribute sum over outermost spans, "share" ratio of two such sums.
LAYER_METRICS = (
    ("kernels.reduce_weighted_s", "s", "incl", {"_kernels.reduce_weighted"}, None, (CG,)),
    ("kernels.reduce_weighted_calls", "count", "calls", {"_kernels.reduce_weighted"}, None,
     (CG,)),
    ("kernels.reduce_bytes", "B", "attr", {"_kernels.reduce_weighted"}, "bytes", (CG,)),
    ("kernels.resolvent_stack_s", "s", "incl", {"_kernels.resolvent_stack"}, None, (CG,)),
    ("kernels.resolvent_solves", "count", "attr", {"_kernels.resolvent_stack"}, "solves",
     (CG,)),
    ("quadrature.contraction_self_s", "s", "self", {"quadrature.resolvent_contour_value"},
     None, (CG,)),
    ("quadrature.tensor_sum_self_s", "s", "self", {"quadrature.tensor_sum"}, None, (BS,)),
    ("quadrature.contour_build_s", "s", "incl", {"quadrature.ContourQuadrature.from_region"},
     None, (BS,)),
    ("quadrature.contour_builds", "count", "calls",
     {"quadrature.ContourQuadrature.from_region"}, None, (BS,)),
    ("quadrature.nodes", "count", "attr", {"quadrature.adaptive_contour"}, "nodes", (CG, BS)),
    ("quadrature.rounds", "count", "attr", {"quadrature.adaptive_contour"}, "rounds",
     (CG, BS)),
    ("quadrature.final_round_node_share", "ratio", "share", {"quadrature.adaptive_contour"},
     ("final_nodes", "nodes"), (CG, BS)),
    ("quadrature.ray_integral_s", "s", "incl", {"quadrature.ray_integral"}, None, (OP,)),
    ("quadrature.ray_nodes", "count", "attr", {"quadrature.ray_integral"}, "nodes", (OP,)),
    ("semigroups.expm_s", "s", "incl", {"semigroups.expm"}, None, (OP,)),
    ("semigroups.expm_calls", "count", "calls", {"semigroups.expm"}, None, (OP,)),
    ("semigroups.gap_s", "s", "incl", GAPS, None, (OP,)),
    ("functionals.pair_semigroup_s", "s", "incl", {"functionals.pair_semigroup"}, None, (OP,)),
    ("functionals.convolve_s", "s", "incl", {"functionals.convolve"}, None, (OP,)),
    ("calculus.functional_calculus_s", "s", "incl", {"calculus.functional_calculus"}, None,
     (CG,)),
    ("calculus.admissibility_s", "s", "incl", {"calculus.check_admissible_for"}, None, (CG,)),
    ("calculus.integrand_s", "s", "incl", {"calculus.HoloFunction.__call__"}, None, (CG,)),
    ("calculus.integrand_points", "count", "attr", {"calculus.HoloFunction.__call__"},
     "points", (CG,)),
    ("calculus.boundary_integral_s", "s", "incl", BOUNDARY, None, (BS,)),
    ("geometry.contains_s", "s", "incl", CONTAINS, None, (BS,)),
    ("geometry.contains_calls", "count", "calls", CONTAINS, None, (BS,)),
)


class LayerNotObserved(RuntimeError):
    """A traced layer saw no call on a workload that must exercise it."""


class Tracer:
    """In-memory span recorder.  A span is
    ``(name, start, end, parent index or -1, attributes)``."""

    def __init__(self, extra_modules=()):
        self.spans = []
        self.stack = []
        self._saved = []
        self._extra = tuple(extra_modules)

    def record(self, name, fn, args=(), kwargs=None, hook=None):
        kwargs = kwargs or {}
        attrs_of = None
        if hook is not None:
            args, kwargs, attrs_of = hook(args, kwargs)
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(sid)
        out = None
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            attrs = attrs_of(out) if attrs_of is not None else {}
            self.spans[sid] = (name, t0, t1, parent, attrs)

    def _wrapper(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.record(name, fn, args, kwargs, hook)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        pkg = [importlib.import_module(f"sectorcalc.{m}") for m in PACKAGE_MODULES]
        namespaces = pkg + [sys.modules["sectorcalc"]] + list(self._extra)
        for name, mod, attr, hook in FUNCTIONS:
            orig = getattr(importlib.import_module(f"sectorcalc.{mod}"), attr)
            wrapped = self._wrapper(name, orig, hook)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        self._saved.append((ns, key, val))
                        setattr(ns, key, wrapped)
        for name, mod, cls_name, attr, hook in METHODS:
            cls = getattr(importlib.import_module(f"sectorcalc.{mod}"), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrapper(name, raw.__func__, hook))
            else:
                new = self._wrapper(name, raw, hook)
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        for ns, key, val in reversed(self._saved):
            setattr(ns, key, val)
        self._saved = []

    def write_jsonl(self, path, t_ref):
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, attrs) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": t0 - t_ref, "end": t1 - t_ref,
                       "parent": parent}
                row.update(attrs)
                fh.write(json.dumps(row) + "\n")


def layer_metrics(spans, lo, hi):
    """Per-layer metrics of the spans with index in ``[lo, hi)`` (one traced
    pass; parents of these spans lie in the same range or are -1)."""
    names = [s[0] for s in spans[lo:hi]]
    parents = [s[3] for s in spans[lo:hi]]
    durs = [s[2] - s[1] for s in spans[lo:hi]]
    child_time = [0.0] * (hi - lo)
    for i, p in enumerate(parents):
        if p >= lo:
            child_time[p - lo] += durs[i]

    def outermost(group):
        out = []
        for i, n in enumerate(names):
            if n not in group:
                continue
            p = parents[i]
            while p >= lo and names[p - lo] not in group:
                p = parents[p - lo]
            if p < lo:
                out.append(i)
        return out

    metrics = {}
    observed = {}
    for metric, unit, kind, group, attr, _ in LAYER_METRICS:
        idx = outermost(group)
        observed[metric] = len(idx)
        if kind == "incl":
            value = sum(durs[i] for i in idx)
        elif kind == "self":
            value = sum(durs[i] - child_time[i] for i, n in enumerate(names) if n in group)
        elif kind == "calls":
            value = len(idx)
        elif kind == "attr":
            value = sum(spans[lo + i][4].get(attr, 0) for i in idx)
        else:  # share of two attribute sums
            num = sum(spans[lo + i][4].get(attr[0], 0) for i in idx)
            den = sum(spans[lo + i][4].get(attr[1], 0) for i in idx)
            value = num / den if den else 0.0
        metrics[metric] = (value, unit)
    return metrics, observed


def assert_observed(workload, observed):
    """Raise when a layer that ``workload`` must exercise saw no call."""
    missing = [m for m, _, _, _, _, wls in LAYER_METRICS
               if workload in wls and observed.get(m, 0) == 0]
    if missing:
        raise LayerNotObserved(f"no calls observed on {workload} for: {', '.join(missing)}")
