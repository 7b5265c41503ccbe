"""Span recording around the planner's module boundaries, for the traced run.

Wrappers are installed on the module attributes that callers look up (for
example `planner.solve_resource_allocation`, which `planner.solve` calls by
its module-global name) and removed again after each traced invocation, so
untraced invocations run the unmodified program. Spans (name, start, end,
parent, invocation id) stay in memory until the run ends. A hook whose
attribute no longer exists is skipped and every metric that depends only on
missing hooks is reported as absent, so later refactors stay measurable.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

PACKAGE = "uav_ic_planner"
ROOT = "harness.main"
OVERHEAD = "trace.overhead_ratio"


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    invocation: int


# ---------------------------------------------------------------------------
# Tallies read from return values. A hook whose return value no longer has
# the expected shape is marked broken instead of crashing the run.

def _tally_slots(tally, result):
    tally["ra_solver.slots"] += len(result[0])


def _tally_outer(tally, result):
    trace = result[1]
    tally["planner.outer_iters"] += trace.iterations
    tally["planner.unconverged"] += int(not trace.converged)


def _tally_sca(tally, result):
    tally["sca_trajectory.capped"] += int(not result.converged)
    tally["sca_trajectory.gain_bpshz"] += (result.objective
                                           - result.inner_trace[0])


def _tally_stall(tally, result):
    tally["stalled"] += int(bool(result[2]))


@dataclass(frozen=True)
class Hook:
    module: str          # PACKAGE submodule holding the binding
    attr: str
    span: bool = True    # False: count calls only (hot scalar functions)
    on_return: Callable | None = None

    @property
    def key(self) -> str:
        return f"{self.module}.{self.attr}"


# Scalar channel functions, as bound in the modules that call them per slot.
CHANNEL_HOOKS = ("ra_solver.uav_rate", "ra_solver.a2g_gain",
                 "planner.uav_rate", "planner.a2g_gain", "planner.gu_rate_ic",
                 "planner.gu_rate_tin")

HOOKS = (
    Hook("harness", "parse_scenario"),
    Hook("harness", "run_scheme"),
    Hook("harness", "write_plan_tables"),
    Hook("harness", "write_summary_table"),
    Hook("harness", "write_trace_table"),
    Hook("planner", "solve", on_return=_tally_outer),
    Hook("planner", "evaluate_plan"),
    Hook("planner", "solve_resource_allocation", on_return=_tally_slots),
    Hook("benchmarks", "solve_resource_allocation", on_return=_tally_slots),
    Hook("benchmarks", "solve_slot"),
    Hook("benchmarks", "slot_rates_on_points"),
    Hook("benchmarks", "straight_fly"),
    Hook("benchmarks", "successive_hover_fly"),
    Hook("benchmarks", "shortest_site_tour"),
    Hook("benchmarks", "upper_bound"),
    Hook("sca_trajectory", "optimize_trajectory", on_return=_tally_sca),
    Hook("sca_trajectory", "build_surrogate"),
    Hook("sca_trajectory", "solve_surrogate", on_return=_tally_stall),
    Hook("sca_trajectory", "verify_safe_step"),
    Hook("sca_trajectory", "trajectory_objective"),
    Hook("sca_trajectory", "slot_rates"),
    Hook("ra_solver", "solve_mode", span=False),
) + tuple(Hook(*key.split("."), span=False) for key in CHANNEL_HOOKS)


class Tracer:
    """Collects spans, call counts and tallies from the hooks it installs."""

    def __init__(self):
        self.spans: list[Span] = []
        self.tally: Counter = Counter()
        self.missing: set[str] = set()   # hooks whose attribute is gone
        self.broken: set[str] = set()    # hooks whose return shape changed
        self._calls: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._inv: int | None = None
        self._ids = itertools.count()

    def calls(self, name: str) -> int:
        return self._calls.get(name, [0])[0]

    def wrap(self, name: str, fn: Callable, span: bool = True,
             on_return: Callable | None = None) -> Callable:
        """Wrap `fn`; wrappers exist only while `recording()` is active."""
        calls = self._calls.setdefault(name, [0])
        if not span:
            def counter(*args, **kwargs):
                calls[0] += 1
                return fn(*args, **kwargs)
            return counter

        def wrapper(*args, **kwargs):
            calls[0] += 1
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, name, start, end, parent,
                                       self._inv))
            if on_return is not None and name not in self.broken:
                try:
                    on_return(self.tally, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    self.broken.add(name)
            return result
        return wrapper

    @contextmanager
    def recording(self, inv: int):
        """Install every hook and record under invocation id `inv`."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for hook in HOOKS:
                try:
                    module = importlib.import_module(
                        f"{PACKAGE}.{hook.module}")
                except ModuleNotFoundError:
                    module = None
                original = getattr(module, hook.attr, None)
                if original is None:
                    self.missing.add(hook.key)
                    continue
                saved.append((module, hook.attr, original))
                setattr(module, hook.attr,
                        self.wrap(hook.key, original, hook.span,
                                  hook.on_return))
            self._inv = inv
            yield
        finally:
            self._inv = None
            self._stack.clear()
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Aggregation

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover. Children of
    one span never overlap (single thread), so their durations add."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return {s.sid: (s.end - s.start) - child[s.sid] for s in spans}


def outermost_total(spans: list[Span], names) -> float:
    """Summed duration of spans in `names` not nested in another of them."""
    names = set(names)
    by_id = {s.sid: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and by_id[p].name not in names:
            p = by_id[p].parent
        if p is None:
            total += s.end - s.start
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


RA_PASSES = ("planner.solve_resource_allocation",
             "benchmarks.solve_resource_allocation")
RA_SPANS = RA_PASSES + ("benchmarks.solve_slot",
                        "benchmarks.slot_rates_on_points")
SCA = "sca_trajectory.optimize_trajectory"
SWEEPS = "sca_trajectory.solve_surrogate"

# Seconds per invocation spent in the outermost spans of these hooks.
TIMES = {
    "ra_solver.busy_s": RA_SPANS,
    "sca_trajectory.busy_s": (SCA,),
    "sca_trajectory.build_s": ("sca_trajectory.build_surrogate",),
    "sca_trajectory.sweeps_s": (SWEEPS,),
    "sca_trajectory.verify_s": ("sca_trajectory.verify_safe_step",),
    "sca_trajectory.objective_s": ("sca_trajectory.trajectory_objective",
                                   "sca_trajectory.slot_rates"),
    "planner.busy_s": ("planner.solve", "planner.evaluate_plan"),
    "planner.audit_s": ("planner.evaluate_plan",),
    "benchmarks.upper_bound_s": ("benchmarks.upper_bound",),
    "benchmarks.tour_s": ("benchmarks.shortest_site_tour",),
    "benchmarks.baselines_s": ("benchmarks.straight_fly",
                               "benchmarks.successive_hover_fly"),
    "harness.export_s": ("harness.write_plan_tables",
                         "harness.write_summary_table",
                         "harness.write_trace_table"),
    "scenario.parse_s": ("harness.parse_scenario",),
}
# Calls per invocation of these hooks.
CALLS = {
    "ra_solver.passes": RA_PASSES,
    "ra_solver.modes_evaluated": ("ra_solver.solve_mode",),
    "channel.scalar_calls": CHANNEL_HOOKS,
    "sca_trajectory.inner_iters": (SWEEPS,),
    "planner.audit_calls": ("planner.evaluate_plan",),
}
# Per-invocation sums of values read from these hooks' return values.
TALLIES = {
    "ra_solver.slots": RA_PASSES,
    "sca_trajectory.capped": (SCA,),
    "planner.outer_iters": ("planner.solve",),
    "planner.unconverged": ("planner.solve",),
}


class Run(NamedTuple):
    tracer: Tracer
    invocations: int
    plans: int
    bytes_written: int

    def time(self, names) -> float:
        return outermost_total(self.tracer.spans, names)

    def calls(self, names) -> int:
        return sum(self.tracer.calls(n) for n in names)

    def self_time(self, name: str) -> float:
        st = self_times(self.tracer.spans)
        return sum(st[s.sid] for s in self.tracer.spans if s.name == name)


# Ratios and self times: name -> (unit, hooks, function(run)).
DERIVED = {
    "ra_solver.share": ("ratio", RA_SPANS, lambda r: _ratio(
        r.time(RA_SPANS), r.time((ROOT,)))),
    "ra_solver.us_per_slot": ("us", RA_PASSES, lambda r: 1e6 * _ratio(
        r.time(RA_PASSES), r.tracer.tally["ra_solver.slots"])),
    "sca_trajectory.share": ("ratio", (SCA,), lambda r: _ratio(
        r.time((SCA,)), r.time((ROOT,)))),
    "sca_trajectory.stall_ratio": ("ratio", (SWEEPS,), lambda r: _ratio(
        r.tracer.tally["stalled"], r.calls((SWEEPS,)))),
    "sca_trajectory.gain_bpshz": ("bps/Hz", (SCA,), lambda r: _ratio(
        r.tracer.tally["sca_trajectory.gain_bpshz"], r.plans)),
    "planner.self_s": ("s", ("planner.solve",), lambda r:
                       r.self_time("planner.solve") / r.invocations),
    "harness.self_s": ("s", (), lambda r: r.self_time(ROOT) / r.invocations),
    "harness.bytes_written": ("bytes", (),
                              lambda r: r.bytes_written / r.invocations),
}


def unit_of(name: str) -> str:
    if name in TIMES:
        return "s"
    if name in CALLS or name in TALLIES:
        return "count"
    return "ratio" if name == OVERHEAD else DERIVED[name][0]


def layer_metrics(tracer: Tracer, invocations: int, plans: int,
                  bytes_written: int) -> tuple[dict, list[str]]:
    """Per-invocation layer metrics from a finished traced run.

    Returns ({name: value, or None when absent}, absent names). A metric is
    absent when none of its hooks could be installed or all of them broke.
    """
    run = Run(tracer, invocations, plans, bytes_written)
    table = {}
    for name, hooks in TIMES.items():
        table[name] = (hooks, lambda r, h=hooks: r.time(h) / r.invocations)
    for name, hooks in CALLS.items():
        table[name] = (hooks, lambda r, h=hooks: r.calls(h) / r.invocations)
    for name, hooks in TALLIES.items():
        table[name] = (hooks, lambda r, n=name:
                       r.tracer.tally[n] / r.invocations)
    for name, (_, hooks, fn) in DERIVED.items():
        table[name] = (hooks, fn)

    unusable = tracer.missing | tracer.broken
    values, absent = {}, []
    for name, (hooks, fn) in table.items():
        if hooks and all(h in unusable for h in hooks):
            values[name] = None
            absent.append(name)
        else:
            values[name] = float(fn(run))
    return values, absent
