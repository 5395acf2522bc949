#!/usr/bin/env python3
"""Benchmark of the semirandom package, one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload mindeg_grid --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``setup_s`` is the median of
several fresh processes that import the package and build the workload's
specs.  The workload then runs in a process of its own, pass after pass with
the same inputs, while another pass still fits in ``--seconds``.  ``wall_s``
is the median pass.

``--trace 1`` gives the per-layer metrics.  The workload runs in one process
with ``workers=1``: a pass with the layer entry points rebound to timing
wrappers (see ``tracing.py``), between two untraced passes that give the
tracing overhead.  For a workload that uses a pool, an untraced pass at its
worker count also gives the parallel efficiency.

Every pass checks its outputs; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full report
(provenance, digests, every check) is written under ``perfbench/results/``.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORKLOADS = ("mindeg_grid", "builders", "compare_parallel", "referees")
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    p.add_argument("--seconds", type=int, default=25, help="measuring time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs (n = 1000, small grids) for the self-test")
    p.add_argument("--role", choices=("probe", "measure", "trace"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def result_path(args, suffix: str = "") -> Path:
    smoke = "-smoke" if args.smoke else ""
    return RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}{smoke}{suffix}.json"


# ---------------------------------------------------------------- children


# Child processes import the package and these modules through PYTHONPATH,
# which ``run_child`` points at ``src/`` and this directory.


def _load_workload(args):
    import workloads

    return workloads.WORKLOADS[args.workload](args.seed, args.smoke)


def role_probe(args) -> dict:
    t0 = time.perf_counter()
    import semirandom.cli

    semirandom.cli.build_parser()
    _load_workload(args)
    return {"setup_s": time.perf_counter() - t0}


def _check_summary(passes, extra=()) -> dict:
    checks = [c for res in passes for c in res.checks] + list(extra)
    failed = [name for name, ok in checks if not ok]
    return {
        "attempted": len(checks),
        "failed": len(failed),
        "failed_checks": failed,
        "errors": [e for res in passes for e in res.errors],
    }


def role_measure(args) -> dict:
    import resource

    import numpy

    wl = _load_workload(args)
    wl.prepare()
    walls, passes = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(wl.run_pass(wl.workers))
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break
    digests = [res.digest() for res in passes]
    extra = [("digest repeats across passes", len(set(digests)) == 1)] if len(passes) > 1 else []
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "walls_s": walls,
        "rounds": passes[0].rounds,
        "digest": digests[0],
        # the workload process plus its largest pool child
        "peak_rss_mb": (self_kib + child_kib) / 1024,
        "numpy": numpy.__version__,
        **_check_summary(passes, extra),
    }


def role_trace(args) -> dict:
    import numpy

    wl = _load_workload(args)
    import tracing

    wl.prepare()

    def untraced():
        t0 = time.perf_counter()
        res = wl.run_pass(1)
        return res, time.perf_counter() - t0

    serial, before_s = untraced()
    passes, extra = [serial], []
    efficiency = 0.0
    if wl.workers > 1:
        pooled = wl.run_pass(wl.workers)
        passes.append(pooled)
        efficiency = serial.run_trials_s / (wl.workers * pooled.run_trials_s)
        extra.append(("pooled digest equals serial", pooled.digest() == serial.digest()))
    cost = tracing.calibrate()
    tracer = tracing.Tracer(cost)
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced = wl.run_pass(1)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    # untraced passes on both sides of the traced one, against drift in speed
    after, after_s = untraced()
    serial_s = (before_s + after_s) / 2
    passes += [traced, after]
    self_sum_s = sum(tracer.self_ns(name) for name in tracer.aggs) / 1e9
    extra.append(("traced digest equals untraced", traced.digest() == serial.digest()))
    extra.append(("self times fit in the traced wall", self_sum_s <= traced_s))
    metrics = layer_metrics(tracer, traced_s, serial_s, efficiency, cost)
    spans = {
        "workload": args.workload,
        "seed": args.seed,
        "wrapper_cost": cost,
        "traced_wall_s": traced_s,
        "self_sum_s": self_sum_s,
        "aggregates": {
            name: {
                "calls": a.calls,
                "total_ns": a.total_ns,
                "self_ns_raw": a.self_ns,
                "self_ns": tracer.self_ns(name),
                "inclusive_ns": tracer.total_ns(name),
            }
            for name, a in sorted(tracer.aggs.items())
        },
        "spans": tracer.spans,
    }
    RESULTS.mkdir(exist_ok=True)
    result_path(args, "-spans").write_text(json.dumps(spans, indent=1) + "\n")
    return {
        "metrics": metrics,
        "digest": serial.digest(),
        "untraced_wall_s": serial_s,
        "traced_wall_s": traced_s,
        "self_sum_s": self_sum_s,
        "numpy": numpy.__version__,
        **_check_summary(passes, extra),
    }


def layer_metrics(tracer, traced_s, serial_s, efficiency, cost) -> dict:
    """The per-layer metrics of one traced pass: name -> (value, unit).

    Layers the workload does not call read 0.
    """
    aggs = tracer.aggs  # every wrapped name is present, with 0 calls if unused

    def ratio(a, b):
        return a / b if b else 0.0

    def self_per_call(name):
        return ratio(tracer.self_ns(name), aggs[name].calls)

    def inclusive(name, scale):
        return tracer.total_ns(name) / scale if aggs[name].calls else 0.0

    def completion_frac(run):
        total = sum(r for name, r, _ in tracer.runs if name == run)
        return ratio(sum(c for name, _, c in tracer.runs if name == run), total)

    run_names = ("strategies.run_min_degree", "strategies.pm_run", "strategies.ham_run")
    rounds = sum(r for _, r, _ in tracer.runs)
    run_self = sum(tracer.self_ns(n) for n in run_names)
    integrate = aggs["ode.integrate"]
    return {
        "rng.next_round.calls": (aggs["rng.next_round"].calls, "count"),
        "rng.next_round.self_ns": (self_per_call("rng.next_round"), "ns"),
        "process.add_edge.calls": (aggs["process.add_edge"].calls, "count"),
        "process.add_edge.self_ns": (self_per_call("process.add_edge"), "ns"),
        "strategies.select_square_index.self_ns":
            (self_per_call("strategies.select_square_index"), "ns"),
        "strategies.mindeg_step.self_ns": (self_per_call("strategies.mindeg_step"), "ns"),
        "strategies.pm_step.self_ns": (self_per_call("strategies.pm_step"), "ns"),
        "strategies.pm_step.changed_frac": (ratio(aggs["strategies.pm_step"].changed, aggs["strategies.pm_step"].calls), "ratio"),
        "strategies.ham_step.self_ns": (self_per_call("strategies.ham_step"), "ns"),
        "strategies.ham_step.changed_frac": (ratio(aggs["strategies.ham_step"].changed, aggs["strategies.ham_step"].calls), "ratio"),
        "strategies.run.self_ns_per_round": (ratio(run_self, rounds), "ns"),
        "strategies.pm.completion_rounds_frac": (completion_frac("pm_run"), "ratio"),
        "strategies.ham.completion_rounds_frac": (completion_frac("ham_run"), "ratio"),
        "ode.integrate.calls": (integrate.calls, "count"),
        "ode.integrate.steps": (integrate.steps, "count"),
        "ode.integrate.rhs_evals": (integrate.rhs, "count"),
        "ode.integrate.us_per_rhs":
            (ratio(tracer.total_ns("ode.integrate") / 1e3, integrate.rhs), "us"),
        "ode.solve_min_degree.ms": (inclusive("ode.solve_min_degree", 1e6), "ms"),
        "ode.solve_pm.ms": (inclusive("ode.solve_pm", 1e6), "ms"),
        "ode.solve_ham.ms": (inclusive("ode.solve_ham", 1e6), "ms"),
        "harness.exact_small_oracle.calls": (aggs["harness.exact_small_oracle"].calls, "count"),
        "harness.exact_small_oracle.ms": (inclusive("harness.exact_small_oracle", 1e6), "ms"),
        "harness.run_trials.s": (inclusive("harness.run_trials", 1e9), "s"),
        "harness.run_trials.parallel_efficiency": (efficiency, "ratio"),
        "harness.trajectory_check.ms": (inclusive("harness.trajectory_check", 1e6), "ms"),
        "trace.overhead_frac": (traced_s / serial_s - 1.0, "ratio"),
        "trace.wrapper_ns": (cost["inner_ns"] + cost["outer_ns"], "ns"),
    }


# ---------------------------------------------------------------- parent


def run_child(role: str, args, deadline: float) -> dict:
    """Run this script in ``role`` in a fresh process; return its JSON line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{role} process ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{role} process exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{role} process printed no result")
    return json.loads(lines[-1])


def _git(*argv) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", *argv], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(numpy_version: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    status = _git("status", "--porcelain") if in_repo else None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(status) if status is not None else None,
    }


def orchestrate(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke}
    if args.trace:
        child = run_child("trace", args, deadline)
        metrics = child.pop("metrics")
    else:
        setups = [run_child("probe", args, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        child = run_child("measure", args, deadline)
        wall = statistics.median(child["walls_s"])
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (child["peak_rss_mb"], "MiB"),
        }
        report["setup_runs_s"] = setups
        # reported, not gated: referees simulates no rounds, and a failure
        # fraction of 0 has no relative bound (see perfbench/README.md)
        if child["rounds"]:
            report["rounds_per_s"] = {"value": child["rounds"] / wall, "unit": "rounds/s"}
    attempted, failed = child["attempted"], child["failed"]
    report["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
    report["provenance"] = provenance(child.pop("numpy"))
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["child"] = child
    RESULTS.mkdir(exist_ok=True)
    path = result_path(args)
    path.write_text(json.dumps(report, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    shown = dict(report["metrics"])
    if "rounds_per_s" in report:
        shown["rounds_per_s"] = report["rounds_per_s"]
    shown["failed_frac"] = report["failed_frac"]
    for name, m in shown.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    for name in sorted(set(child["failed_checks"])):
        print(f"  FAILED {child['failed_checks'].count(name)}x: {name}")
    for err in child["errors"]:
        print(f"  ERROR: {err}")
    print(f"  digest sha256:{child['digest']}")
    print(f"  report {path.relative_to(ROOT)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "semirandom" / "__init__.py").is_file():
        print(f"perfbench: package source not found at {SRC}/semirandom", file=sys.stderr)
        return 2
    try:
        if args.role == "probe":
            result = role_probe(args)
        elif args.role == "measure":
            result = role_measure(args)
        elif args.role == "trace":
            result = role_trace(args)
        else:
            result = orchestrate(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
