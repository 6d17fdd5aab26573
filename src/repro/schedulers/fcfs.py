"""First-come-first-served schedulers (the Figure 2 motivation experiment).

Two variants are modelled, matching Section 2.3:

* :class:`DynamicFcfsScheduler` — at run time, whenever an accelerator is
  idle, the oldest pending request is dispatched to it at model granularity
  (all remaining layers back-to-back).  This is the "dynamic FCFS" used as a
  baseline in the evaluation (Nexus / Clockwork style model-wise FCFS).

* :class:`StaticFcfsScheduler` — an offline schedule built for the worst
  case.  Tasks are statically pinned to accelerators (load-balanced by
  worst-case demand at bind time) and the scheduler *reserves* each
  accelerator for a request's worst-case path duration: even if the dynamic
  path finishes early (layer skipping, early exit, an untriggered cascade),
  the reservation is not released to other tasks.  This is how a static
  schedule must behave when the workload is non-deterministic — it plans
  for the longest path (Section 2.2) — and is what makes it lose Figure 2.
"""

from __future__ import annotations

from functools import reduce
from operator import add

from repro.schedulers.base import Scheduler, WakeHint
from repro.sim.decisions import Assignment, SchedulingDecision, SystemView


class DynamicFcfsScheduler(Scheduler):
    """Model-granularity dynamic FCFS: oldest request, first idle accelerator."""

    name = "fcfs_dynamic"

    def wake_hint(self) -> WakeHint:
        """Pure function of the view: inert without pending work or a fully
        idle accelerator (assignments are the only thing it ever emits)."""
        return WakeHint(min_free_fraction=1.0)

    def schedule(self, view: SystemView) -> SchedulingDecision:
        assignments = []
        idle = [acc for acc in view.accelerators if acc.is_idle]
        if not idle:
            return SchedulingDecision.empty()
        # ``pending_requests`` is already ordered by (arrival_ms, request_id),
        # so walking it front-to-back picks exactly the oldest unassigned
        # request for each idle accelerator.
        pending = iter(
            request for request in view.pending_requests if request.remaining_layers
        )
        for acc in idle:
            candidate = next(pending, None)
            if candidate is None:
                break
            assignments.append(
                Assignment(
                    request=candidate,
                    acc_id=acc.acc_id,
                    layer_count=candidate.remaining_layers,
                )
            )
        return SchedulingDecision.of(assignments)


class StaticFcfsScheduler(Scheduler):
    """Statically pinned FCFS with worst-case reservations.

    A dispatch reserves its accelerator for exactly the worst-case path
    latency of the model on that accelerator.
    """

    name = "fcfs_static"

    def __init__(self) -> None:
        super().__init__()
        self._task_to_acc: dict[str, int] = {}
        self._reserved_until: dict[int, float] = {}
        self._worst_case_ms: dict[str, float] = {}

    def wake_hint(self) -> WakeHint:
        """Inert without pending work or an idle accelerator.

        ``_reserved_until`` is internal state, but it is only ever written
        on the assignment path — a call that finds no idle accelerator (or
        no pending request) returns empty without touching it, so the hint
        holds at any instant.
        """
        return WakeHint(min_free_fraction=1.0)

    def bind(self, platform, cost_table, scenario) -> None:
        super().bind(platform, cost_table, scenario)
        self._reserved_until = {acc.acc_id: 0.0 for acc in platform}
        self._task_to_acc = {}
        self._worst_case_ms = {}
        # Offline static mapping: order tasks by worst-case demand and pin
        # each to the accelerator with the least accumulated demand.  Like
        # the static schedulers surveyed in the paper (Table 5), the planner
        # is deadline-aware but *not* heterogeneity-aware: its latency
        # estimate only sees PE counts (work / peak throughput at a generic
        # efficiency), not dataflow preference — so on heterogeneous
        # platforms a model can be pinned to an accelerator that executes it
        # far slower than planned.
        generic_efficiency = 0.4
        acc_load = {acc.acc_id: 0.0 for acc in platform}
        demands = []
        for task in scenario.tasks:
            model = task.default_model
            worst_macs = sum(model.layers[i].macs for i in model.worst_case_path())
            per_acc_estimate = [
                worst_macs / (acc.peak_macs_per_ms * generic_efficiency)
                for acc in platform
            ]
            demands.append((task, per_acc_estimate))
        demands.sort(key=lambda item: -max(item[1]) * item[0].fps)
        for task, per_acc_estimate in demands:
            acc_id = min(
                acc_load,
                key=lambda candidate: acc_load[candidate]
                + per_acc_estimate[candidate] * task.fps / 1000.0,
            )
            self._task_to_acc[task.name] = acc_id
            acc_load[acc_id] += per_acc_estimate[acc_id] * task.fps / 1000.0
            # The reservation blocks the accelerator for the worst-case path
            # of the model on its pinned accelerator (true duration — the
            # plan must cover the longest path, Section 2.2).
            # Summed left to right: sum() compensates from CPython 3.12 on.
            model = task.default_model
            self._worst_case_ms[task.name] = reduce(
                add,
                [
                    cost_table.latency(model.name, layer_index, acc_id)
                    for layer_index in model.worst_case_path()
                ],
                0.0,
            )

    def schedule(self, view: SystemView) -> SchedulingDecision:
        assignments = []
        assigned_ids: set[int] = set()
        for acc in view.accelerators:
            if not acc.is_idle:
                continue
            if view.now_ms + 1e-9 < self._reserved_until.get(acc.acc_id, 0.0):
                continue
            # ``pending_requests`` is (arrival_ms, request_id)-ordered, so the
            # first match is the oldest candidate for this accelerator.
            request = next(
                (
                    candidate
                    for candidate in view.pending_requests
                    if candidate.request_id not in assigned_ids
                    and candidate.remaining_layers
                    and self._task_to_acc.get(candidate.task_name) == acc.acc_id
                ),
                None,
            )
            if request is None:
                continue
            assignments.append(
                Assignment(
                    request=request,
                    acc_id=acc.acc_id,
                    layer_count=request.remaining_layers,
                )
            )
            assigned_ids.add(request.request_id)
            reservation = self._worst_case_ms.get(request.task_name, 0.0)
            self._reserved_until[acc.acc_id] = view.now_ms + reservation
        return SchedulingDecision.of(assignments)

    def info(self):
        return {"task_to_accelerator": dict(self._task_to_acc)}
