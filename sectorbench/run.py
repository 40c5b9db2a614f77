"""Benchmark of sectorcalc: one workload per invocation.

    python3 sectorbench/run.py --workload calculus-grid --seed 1 --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; with ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones (see README.md).

This process only orchestrates.  All load runs in child processes of this
same script, started one after another and never side by side, each with
one BLAS thread and the library imported from ``src/``:

* ``--trace 0``: two set-up probes, then the measuring child.  Each child
  times its set-up (interpreter start, import, input generation, self-test
  of the checks, one untimed warm-up pass), so ``setup_s`` is the median
  of three set-ups.  The measuring child then runs whole rounds, every
  operation ``reps`` times per round, until ``--seconds`` have passed.
* ``--trace 1``: one child that alternates untraced and traced passes and
  reports the per-layer metrics and the tracing overhead.

Details of every run (environment, per-operation medians and quartiles,
check errors, set-up samples) go to ``sectorbench/results/``; the traced
run's spans go there as JSON lines.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("calculus-grid", "orbit-pairing", "boundary-scalar")
SETUP_PROBES = 2
BUDGET_S = 170.0  # every run ends within 180 s


def clock():
    # CLOCK_MONOTONIC is system-wide on Linux, so a child's reading can be
    # subtracted from the parent's spawn time.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["SECTORCALC_NUMBA"] = "0"  # pin the numpy kernels
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def spawn(args, role, deadline):
    """Run one child to completion; returns (spawn time, parsed JSON lines)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--role", role]
    t_spawn = clock()
    proc = subprocess.run(cmd, env=child_env(), cwd=str(ROOT), stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - clock()), text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{role} child exited with code {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return t_spawn, {line["kind"]: line for line in lines}


def orchestrate(args):
    deadline = clock() + BUDGET_S
    if not (SRC / "sectorcalc" / "__init__.py").is_file():
        raise SystemExit(f"library sources not found under {SRC}")
    setups = []
    probes = 0 if args.trace else SETUP_PROBES
    for _ in range(probes):
        t_spawn, out = spawn(args, "setup", deadline)
        setups.append(out["ready"]["t"] - t_spawn)
    t_spawn, out = spawn(args, "measure", deadline)
    setups.append(out["ready"]["t"] - t_spawn)
    res = out["result"]
    metrics = res["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": out["env"], "selftest": out["selftest"]["cases"],
              "setup_samples_s": setups, **res["detail"], "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(out["env"]))
    print(json.dumps(out["selftest"]))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


def main(argv=None):
    args = parse_args(argv)
    if args.role:
        from harness import child_main  # imports numpy: only in children

        return child_main(args, SRC, RESULTS)
    try:
        orchestrate(args)
    except subprocess.TimeoutExpired as exc:
        raise SystemExit(f"child timed out after {exc.timeout:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
