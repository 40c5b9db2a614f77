"""Child side of the benchmark: set-up, warm-up, timed rounds, metrics.

Started by ``run.py`` with one BLAS thread and ``PYTHONPATH`` pointing at
the library sources; it writes JSON lines to standard output, each with a
``kind`` key (``env``, ``selftest``, ``ready``, ``result``).
"""

import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import sectorcalc
from sectorcalc import _kernels

import tracing
import workloads


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def emit(kind, **payload):
    print(json.dumps({"kind": kind, **payload}), flush=True)


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numba_active": bool(getattr(_kernels, "NUMBA_ACTIVE", False)),
        "machine": platform.machine(),
    }


class Runner:
    """Calls operations, counts attempts and failures, keeps one message per
    failing operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = {}

    def call(self, op):
        self.attempted += 1
        try:
            return op.fn()
        except Exception:  # an operation's failure is counted, not fatal
            self.failed += 1
            if op.name not in self.errors:
                self.errors[op.name] = traceback.format_exc(limit=3)
                sys.stderr.write(f"operation {op.name!r} failed:\n{self.errors[op.name]}")
            return None


def timed_pass(w, runner, samples, reps=True, results=None):
    """One round: every operation ``reps`` times (once when ``reps`` is
    false).  Appends each call's seconds to ``samples[name]`` and returns
    the last result of each operation, stored into ``results`` as they
    come (the warm-up pass fills ``w.warm``, which later operations read)."""
    results = {} if results is None else results
    for op in w.ops:
        for _ in range(op.reps if reps else 1):
            t0 = time.perf_counter()
            out = runner.call(op)
            samples[op.name].append(time.perf_counter() - t0)
        results[op.name] = out
    return results


class CheckLog:
    def __init__(self):
        self.worst = {}
        self.ok = True

    def add(self, checks, results):
        for name, (err, ok) in workloads.evaluate_checks(checks, results).items():
            self.ok &= ok
            prev = self.worst.get(name)
            if prev is None or not np.isfinite(err) or err > prev:
                self.worst[name] = err


def op_stats(w, samples):
    out = {}
    for op in w.ops:
        xs = samples[op.name]
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
        out[op.name] = {"k": op.k, "n": len(xs), "median_s": statistics.median(xs),
                        "q1_s": q[0], "q3_s": q[2]}
    return out


def child_main(args, src, results_dir):
    if not os.path.realpath(sectorcalc.__file__).startswith(os.path.realpath(src)):
        raise SystemExit(f"sectorcalc imported from {sectorcalc.__file__}, not {src}")
    w = workloads.build(args.workload, args.seed)
    checks = CheckLog()
    warm_runner = Runner()
    timed_pass(w, warm_runner, {op.name: [] for op in w.ops}, reps=False, results=w.warm)
    checks.add(w.checks, w.warm)
    runner = Runner()  # counts the timed rounds only
    runner.errors = warm_runner.errors
    selftest = [{"case": c, "error": e, "passed": bool(p)} for c, e, p in workloads.self_test()]
    emit("ready", t=clock())
    if args.role == "setup":
        return 0
    emit("env", **environment())
    emit("selftest", cases=selftest)
    correct_selftest = all(c["passed"] for c in selftest)

    deadline = clock() + args.seconds
    if args.trace:
        detail, metrics = traced_rounds(w, runner, checks, deadline, args, results_dir)
    else:
        detail, metrics = timed_rounds(w, runner, checks, deadline)
    detail["check_worst_error"] = checks.worst
    detail["operation_errors"] = runner.errors
    emit("result", correct=bool(checks.ok and correct_selftest), attempted=runner.attempted,
         failed=runner.failed, metrics=metrics, detail=detail)
    return 0


def timed_rounds(w, runner, checks, deadline):
    samples = {op.name: [] for op in w.ops}
    rounds = 0
    while rounds == 0 or clock() < deadline:
        gc.collect()
        checks.add(w.checks, timed_pass(w, runner, samples))
        rounds += 1
    stats = op_stats(w, samples)
    k1 = sum(s["median_s"] for s in stats.values() if s["k"] <= 1)
    k2 = sum(s["median_s"] for s in stats.values() if s["k"] == 2)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "pass_s": {"value": k1 + k2, "unit": "s"},
        "solve_k1_ms": {"value": 1000.0 * k1, "unit": "ms"},
        "solve_k2_s": {"value": k2, "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }
    return {"rounds": rounds, "operations": stats}, metrics


def traced_rounds(w, runner, checks, deadline, args, results_dir):
    """Alternate an untraced and a traced pass (each operation once) until
    the deadline; per-layer metrics are medians over the traced passes."""
    tracer = tracing.Tracer(extra_modules=(workloads,))
    plain = {op.name: [] for op in w.ops}
    traced = {op.name: [] for op in w.ops}
    per_pass = []
    t_ref = clock()
    rounds = 0
    while rounds == 0 or clock() < deadline:
        gc.collect()
        checks.add(w.checks, timed_pass(w, runner, plain, reps=False))
        gc.collect()
        lo = len(tracer.spans)
        tracer.install()
        try:
            results = {}
            for op in w.ops:
                t0 = time.perf_counter()
                results[op.name] = tracer.record(f"op:{op.name}", runner.call, (op,))
                traced[op.name].append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        checks.add(w.checks, results)
        per_pass.append(tracing.layer_metrics(tracer.spans, lo, len(tracer.spans)))
        rounds += 1
    for _, observed in per_pass:
        tracing.assert_observed(w.name, observed)
    metrics = {}
    for name, (_, unit) in per_pass[0][0].items():
        metrics[name] = {"value": statistics.median(m[name][0] for m, _ in per_pass),
                         "unit": unit}
    plain_pass = sum(statistics.median(x) for x in plain.values())
    traced_pass = sum(statistics.median(x) for x in traced.values())
    metrics["trace.overhead_s"] = {"value": traced_pass - plain_pass, "unit": "s"}
    results_dir.mkdir(exist_ok=True)
    path = results_dir / f"trace-{w.name}-seed{args.seed}.jsonl"
    tracer.write_jsonl(path, t_ref)
    detail = {"rounds": rounds, "untraced_pass_s": plain_pass, "traced_pass_s": traced_pass,
              "spans": len(tracer.spans), "trace_file": path.name}
    return detail, metrics
