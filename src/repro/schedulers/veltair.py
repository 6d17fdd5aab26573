"""Veltair-style layer-block scheduler [21].

Veltair is an adaptive-compilation + scheduling framework for multi-tenant
DNN serving on homogeneous CPU clusters.  Following the paper, only its
*scheduling* component is modelled: consecutive layers are grouped into
layer blocks whose size is chosen so scheduling conflicts stay rare, blocks
are dispatched in earliest-deadline-first order, and a block goes to the
next available compute resource.

Two properties matter for the comparison with DREAM:

* it is deadline-aware (EDF across pending requests), and
* it is *not* heterogeneity-aware — Veltair targets identical CPU cores, so
  accelerator selection ignores dataflow/size preference (blocks are placed
  on whichever accelerator has been idle the longest), and it is not
  energy-aware.
"""

from __future__ import annotations

from repro.schedulers.base import Scheduler, WakeHint
from repro.sim.decisions import Assignment, SchedulingDecision, SystemView
from repro.sim.request import InferenceRequest

#: Target (average-across-accelerators) latency of one layer block, in ms:
#: consecutive layers are grouped until the block reaches it.  Veltair
#: adapts its block size to the conflict rate; a fixed, sub-millisecond
#: budget reproduces its "medium granularity" operating point.
BLOCK_LATENCY_MS = 0.75


class VeltairScheduler(Scheduler):
    """Layer-block EDF scheduler, heterogeneity-blind."""

    name = "veltair"

    def __init__(self) -> None:
        super().__init__()
        self._next_acc_index = 0

    def wake_hint(self) -> WakeHint:
        """Inert without pending work or an idle accelerator.

        The round-robin cursor (``_next_acc_index``) only advances after
        both the idle and the pending check pass — exactly the calls the
        hint never elides — so the promise holds at any instant.
        """
        return WakeHint(min_free_fraction=1.0)

    # ------------------------------------------------------------------ #
    # block formation
    # ------------------------------------------------------------------ #
    def block_size(self, request: InferenceRequest) -> int:
        """Number of upcoming layers grouped into the next block."""
        cost_table = self._require_bound()
        accumulated = 0.0
        count = 0
        for layer_index in request.remaining_path():
            accumulated += cost_table.average_latency(request.model_name, layer_index)
            count += 1
            if accumulated >= BLOCK_LATENCY_MS:
                break
        return max(1, count)

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def schedule(self, view: SystemView) -> SchedulingDecision:
        idle = [acc for acc in view.accelerators if acc.is_idle]
        if not idle:
            return SchedulingDecision.empty()
        pending = [
            request for request in view.pending_requests if request.remaining_layers
        ]
        if not pending:
            return SchedulingDecision.empty()
        # Earliest deadline first across all pending requests.
        pending.sort(key=lambda request: (request.deadline_ms, request.arrival_ms))

        assignments = []
        assigned_ids: set[int] = set()
        for acc in self._rotate(idle):
            request = next(
                (r for r in pending if r.request_id not in assigned_ids), None
            )
            if request is None:
                break
            assignments.append(
                Assignment(
                    request=request,
                    acc_id=acc.acc_id,
                    layer_count=self.block_size(request),
                )
            )
            assigned_ids.add(request.request_id)
        return SchedulingDecision.of(assignments)

    def _rotate(self, idle_accelerators):
        """Round-robin start index so no accelerator is systematically favoured."""
        if not idle_accelerators:
            return []
        start = self._next_acc_index % len(idle_accelerators)
        self._next_acc_index += 1
        return idle_accelerators[start:] + idle_accelerators[:start]

    def info(self):
        return {"block_latency_ms": BLOCK_LATENCY_MS}
