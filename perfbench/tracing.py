"""Tracing by rebinding: time the calls into each layer from outside.

The package is not modified.  ``Tracer.install`` replaces a fixed set of
names (a class attribute, a dict entry, module globals) with wrappers for
the life of one traced pass, and ``uninstall`` puts the originals back.

Calls made every round are aggregated into count, total time and self time.
Coarse calls (a run, a solve, an oracle call, ``run_trials``) are also kept
as spans with their parent span.  Self time is a call's duration minus the
time covered by the traced calls it made.  The wrapper's own cost is
calibrated on a no-op beforehand and subtracted: ``inner_ns`` (plus the
cost of a result hook) from each call's own time, ``outer_ns`` per child
call from its caller's self time.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from types import SimpleNamespace

from semirandom import rng
from semirandom.harness import oracle, trials
from semirandom.ode import systems
from semirandom.strategies import hamilton, matching, mindeg

_ns = time.perf_counter_ns


class Agg:
    """Totals over all calls of one traced name."""

    __slots__ = ("calls", "total_ns", "self_ns", "child_calls", "nested_cost_ns",
                 "changed", "steps", "rhs")

    def __init__(self):
        self.calls = self.total_ns = self.self_ns = self.child_calls = 0
        self.nested_cost_ns = 0.0
        self.changed = self.steps = self.rhs = 0


def _count_changed(agg: Agg, outcome) -> None:
    agg.changed += outcome.changed


def _count_ode(agg: Agg, result) -> None:
    agg.steps += result.n_steps
    agg.rhs += result.n_rhs


_HOOK_SAMPLES = {
    "count_changed": (_count_changed, SimpleNamespace(changed=True)),
    "count_ode": (_count_ode, SimpleNamespace(n_steps=1, n_rhs=7)),
}


class Tracer:
    def __init__(self, cost: dict | None = None):
        cost = cost or {}
        self.inner_ns = cost.get("inner_ns", 0.0)
        self.outer_ns = cost.get("outer_ns", 0.0)
        self.hook_ns = cost.get("hook_ns", {})
        self.aggs: dict[str, Agg] = defaultdict(Agg)
        self.own_cost_ns: dict[str, float] = {}
        # one frame per open traced call: [child time, child calls, wrapper cost inside]
        self.stack: list[list] = [[0, 0, 0.0]]
        self.spans: list[dict] = []
        self.open_spans: list[int] = [-1]
        self.runs: list[tuple[str, int, int]] = []  # (run name, rounds, completion rounds)
        self._saved: list[tuple] = []

    # ------------------------------------------------------------ wrappers

    def wrap(self, name: str, fn, hook: str | None = None):
        """Aggregating wrapper; the named result hook runs inside the timing."""
        stack = self.stack
        agg = self.aggs[name]
        on_result = _HOOK_SAMPLES[hook][0] if hook else None
        own = self.inner_ns + (self.hook_ns.get(hook, 0.0) if hook else 0.0)
        self.own_cost_ns[name] = own
        seen_by_parent = own + self.outer_ns

        def wrapper(*args, **kwargs):
            frame = [0, 0, 0.0]
            stack.append(frame)
            t0 = _ns()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(agg, result)
            finally:
                dt = _ns() - t0
                stack.pop()
                parent = stack[-1]
                parent[0] += dt
                parent[1] += 1
                parent[2] += seen_by_parent + frame[2]
                agg.calls += 1
                agg.total_ns += dt
                agg.self_ns += dt - frame[0]
                agg.child_calls += frame[1]
                agg.nested_cost_ns += frame[2]
            return result

        return wrapper

    def wrap_span(self, name: str, fn, after=None):
        """Aggregating wrapper that also records a span with its parent.

        ``after(result)`` runs once the call has returned, outside its timing.
        """
        inner = self.wrap(name, fn)
        spans = self.spans
        open_spans = self.open_spans

        def wrapper(*args, **kwargs):
            span = {"id": len(spans), "parent": open_spans[-1], "name": name}
            spans.append(span)
            open_spans.append(span["id"])
            span["start_ns"] = _ns()
            try:
                result = inner(*args, **kwargs)
            finally:
                span["end_ns"] = _ns()
                open_spans.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    # ------------------------------------------------------------ rebinding

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        strategies = mindeg.MIN_DEGREE_STRATEGIES
        self._saved.append((strategies, "s0", strategies["s0"]))
        strategies["s0"] = self.wrap("strategies.mindeg_step", strategies["s0"])
        self._rebind(rng.SquareSource, "next_round",
                     self.wrap("rng.next_round", rng.SquareSource.next_round))
        self._rebind(mindeg, "select_square_index",
                     self.wrap("strategies.select_square_index", mindeg.select_square_index))
        add_edge = self.wrap("process.add_edge", mindeg.add_edge)
        for module in (mindeg, matching, hamilton):
            self._rebind(module, "add_edge", add_edge)
        self._rebind(matching, "pm_step",
                     self.wrap("strategies.pm_step", matching.pm_step, "count_changed"))
        self._rebind(hamilton, "ham_step",
                     self.wrap("strategies.ham_step", hamilton.ham_step, "count_changed"))
        for name in ("run_min_degree", "pm_run", "ham_run"):
            self._rebind(trials, name, self.wrap_span(
                f"strategies.{name}", getattr(trials, name), self._run_recorder(name)))
        self._rebind(trials, "run_trials", self.wrap_span("harness.run_trials", trials.run_trials))
        self._rebind(trials, "trajectory_check",
                     self.wrap_span("harness.trajectory_check", trials.trajectory_check))
        self._rebind(oracle, "exact_small_oracle",
                     self.wrap_span("harness.exact_small_oracle", oracle.exact_small_oracle))
        self._rebind(systems, "integrate",
                     self.wrap("ode.integrate", systems.integrate, "count_ode"))
        for name in ("solve_min_degree", "solve_pm", "solve_ham", "emit_tables"):
            self._rebind(systems, name, self.wrap_span(f"ode.{name}", getattr(systems, name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def _run_recorder(self, name: str):
        runs = self.runs

        def after(trace):
            if name == "run_min_degree":
                runs.append((name, trace.rounds, 0))
            else:
                runs.append((name, trace.total_rounds, trace.completion_rounds))

        return after

    # ------------------------------------------------------------ results

    def self_ns(self, name: str) -> float:
        """Self time of all calls of ``name``, wrapper cost removed."""
        a = self.aggs[name]
        return a.self_ns - a.calls * self.own_cost_ns.get(name, 0.0) - a.child_calls * self.outer_ns

    def total_ns(self, name: str) -> float:
        """Inclusive time of all calls of ``name``, wrapper cost removed."""
        a = self.aggs[name]
        return a.total_ns - a.calls * self.own_cost_ns.get(name, 0.0) - a.nested_cost_ns


def calibrate(repeats: int = 5, calls: int = 100_000) -> dict:
    """Cost of the wrapper and of each result hook, medians of ``repeats``.

    ``inner_ns`` is the part of the wrapper inside the measured interval of
    a call, ``outer_ns`` the part its caller pays outside it.
    """

    def noop(a, b, c):
        return None

    r = range(calls)
    inner, outer = [], []
    hooks: dict[str, list[float]] = {name: [] for name in _HOOK_SAMPLES}
    for _ in range(repeats):
        tracer = Tracer()
        wrapped = tracer.wrap("calibration", noop)
        t0 = _ns()
        for _ in r:
            pass
        t_loop = _ns() - t0
        t0 = _ns()
        for _ in r:
            noop(1, 2, 3)
        t_direct = _ns() - t0
        t0 = _ns()
        for _ in r:
            wrapped(1, 2, 3)
        t_wrapped = _ns() - t0
        recorded = tracer.aggs["calibration"].total_ns
        inner.append((recorded - (t_direct - t_loop)) / calls)
        outer.append((t_wrapped - t_loop - recorded) / calls)
        for name, (hook, sample) in _HOOK_SAMPLES.items():
            agg = Agg()
            t0 = _ns()
            for _ in r:
                hook(agg, sample)
            hooks[name].append((_ns() - t0 - t_loop) / calls)
    return {
        "inner_ns": statistics.median(inner),
        "outer_ns": statistics.median(outer),
        "hook_ns": {name: statistics.median(v) for name, v in hooks.items()},
    }
