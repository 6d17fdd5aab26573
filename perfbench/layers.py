"""Per-layer call counts and self time, measured from outside the package.

The traced run wraps the public functions of each layer of ``repro`` with a
timing shim installed by :class:`Instrumentation`; nothing under ``src/`` is
edited.  Every wrapped call opens a span on :class:`LayerClock`'s stack, and
when it returns its duration is charged to the span's layer *minus* the time
its wrapped children took, so the per-layer ``self_s`` values of one pass
add up to the pass's root span.

Two rules keep the counts meaningful:

* a wrapped call made while no root span is open (for example the
  benchmark's own digest computation after the timed region) passes
  straight through and is not recorded;
* a wrapped call made directly from another wrapped call of the *same*
  layer (``super().schedule()``, a pool method calling another pool method)
  is folded into its caller, so ``calls`` counts entries into a layer.

Properties (``AcceleratorExecutor.free_fraction``,
``RequestPool.has_pending``) are not wrapped: their cost stays in the
caller's self time.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, Optional

#: Name of the span that encloses one timed pass (its self time is the
#: pass's unattributed remainder: benchmark loop, job objects, RNG setup).
ROOT = "root"


class LayerClock:
    """A span stack plus per-function counters.

    ``stats[(layer, function)]`` is ``[calls, self_s, useful]``, where
    ``useful`` counts calls whose result the wrapper's ``useful`` predicate
    accepted (non-empty scheduling decisions, store hits).
    """

    def __init__(self) -> None:
        self._stack: list[list] = []
        self.stats: dict[tuple[str, str], list] = {}

    def reset(self) -> None:
        """Zero every counter (the wrappers keep their references)."""
        for entry in self.stats.values():
            entry[0] = 0
            entry[1] = 0.0
            entry[2] = 0

    def _entry(self, layer: str, function: str) -> list:
        return self.stats.setdefault((layer, function), [0, 0.0, 0])

    def wrap(
        self,
        layer: str,
        function: str,
        fn: Callable,
        useful: Optional[Callable[[object], bool]] = None,
    ) -> Callable:
        """Return ``fn`` wrapped so its calls are charged to ``layer``."""
        entry = self._entry(layer, function)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack or stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                entry[0] += 1
                entry[1] += elapsed - frame[1]
                stack[-1][1] += elapsed
            if useful is not None and useful(result):
                entry[2] += 1
            return result

        return wrapper

    @contextmanager
    def span(self, layer: str = ROOT, function: str = "pass") -> Iterator[None]:
        """Open a span by hand (the root of a timed pass, or a test span)."""
        entry = self._entry(layer, function)
        frame = [layer, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            entry[0] += 1
            entry[1] += elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed

    def layer(self, layer: str) -> tuple[int, float, int]:
        """``(calls, self_s, useful)`` summed over a layer's functions."""
        calls = useful = 0
        self_s = 0.0
        for (name, _function), entry in self.stats.items():
            if name == layer:
                calls += entry[0]
                self_s += entry[1]
                useful += entry[2]
        return calls, self_s, useful

    def function(self, layer: str, function: str) -> tuple[int, float, int]:
        """``(calls, self_s, useful)`` of one wrapped function."""
        entry = self.stats.get((layer, function), [0, 0.0, 0])
        return entry[0], entry[1], entry[2]

    def total_self_s(self) -> float:
        """Sum of every recorded self time (= the root spans' durations)."""
        return sum(entry[1] for entry in self.stats.values())


def _is_hit(result: object) -> bool:
    return result is not None


def _is_nonempty_decision(result: object) -> bool:
    return not result.is_empty  # type: ignore[attr-defined]


def _subclasses(cls: type) -> list[type]:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return [cls, *found]


class Instrumentation:
    """Installs and removes the layer wrappers on a :class:`LayerClock`.

    Methods are replaced on the class that defines them; module-level
    functions are replaced in every ``repro`` and ``perfbench`` module that
    holds a reference to them (``from x import f`` copies the binding).
    :meth:`uninstall` restores every original object.
    """

    def __init__(self, clock: LayerClock) -> None:
        self.clock = clock
        self._restore: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._restore)

    def _method(self, layer: str, cls: type, name: str, useful=None) -> None:
        raw = cls.__dict__.get(name)
        if raw is None:
            return
        label = f"{cls.__name__}.{name}"
        if isinstance(raw, classmethod):
            new = classmethod(self.clock.wrap(layer, label, raw.__func__, useful))
        else:
            new = self.clock.wrap(layer, label, raw, useful)
        self._restore.append((cls, name, raw))
        setattr(cls, name, new)

    def _function(self, layer: str, module_name: str, name: str) -> None:
        original = getattr(sys.modules[module_name], name)
        wrapped = self.clock.wrap(layer, name, original)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith(("repro", "perfbench")) or module is None:
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def install(self) -> None:
        """Wrap every layer's public functions."""
        if self.installed:
            return
        from repro.core.dream import DreamScheduler  # noqa: F401 - registers subclasses
        from repro.experiments.harness import execute_jobs  # noqa: F401
        from repro.experiments.jobs import CellJob
        from repro.experiments.store import ResultStore
        from repro.fleet.simulator import FleetJob, FleetSimulator
        from repro.hardware.cost_table import CostTable
        from repro.schedulers.base import Scheduler
        from repro.sim.engine import SimulationEngine
        from repro.sim.executor import AcceleratorExecutor
        from repro.sim.queues import RequestPool
        from repro.sim.results import SimulationResult
        from repro.sim.tracer import Tracer
        from repro.workloads.generator import ScenarioGenerator

        method = self._method
        method("sim.engine", SimulationEngine, "__init__")
        method("sim.engine", SimulationEngine, "run")
        for cls in _subclasses(Scheduler):
            method("schedulers.schedule", cls, "schedule", _is_nonempty_decision)
            for hook in ("bind", "on_request_arrival", "on_layers_complete", "on_request_finished"):
                method("schedulers.hooks", cls, hook)
        for name in (
            "start", "complete", "can_accept", "can_accept_assignment", "busy_until_ms",
            "running_tasks", "effective_layer_latency_ms", "abort_all", "set_capacity",
            "set_latency_factor", "utilization",
        ):
            method("sim.executor", AcceleratorExecutor, name)
        for name in (
            "add", "remove", "note_dispatched", "note_progress", "prune_terminal",
            "pending", "pending_snapshot", "pending_sorted", "running", "running_snapshot",
            "running_sorted", "for_task", "queue_depth", "queue_depths", "configure_expiry",
            "has_stale", "collect_stale", "stale",
        ):
            method("sim.queues", RequestPool, name)
        method("sim.tracer", Tracer, "record")
        method("hardware.cost_table", CostTable, "build")
        method("workloads.build", ScenarioGenerator, "generate")
        method("experiments.store", ResultStore, "get", _is_hit)
        method("experiments.store", ResultStore, "put")
        method("experiments.store", ResultStore, "load", _is_hit)
        method("experiments.harness", CellJob, "run")
        method("experiments.harness", FleetJob, "run")
        method("fleet.plan", FleetSimulator, "plan")
        method("metrics.result", SimulationResult, "to_dict")
        method("metrics.result", SimulationResult, "from_dict")

        function = self._function
        function("workloads.build", "repro.workloads.scenarios", "build_scenario")
        function("sim.invariants", "repro.sim.invariants", "audit_trace")
        function("experiments.harness", "repro.experiments.harness", "execute_jobs")
        function("fleet.aggregate", "repro.fleet.metrics", "aggregate_fleet")
        function("fleet.audit", "repro.fleet.invariants", "audit_fleet")
        function("metrics.result", "repro.metrics.uxcost", "compute_uxcost")

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
