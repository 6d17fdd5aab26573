"""Scheduler <-> simulator interface types.

Schedulers observe the system through a :class:`SystemView` (accelerator
availability, pending requests, cost tables, current time) and respond with
a :class:`SchedulingDecision`: a list of :class:`Assignment` objects plus,
optionally, requests to drop (smart frame drop) — exactly the "scheduler
inputs" / "scheduler output" boxes of Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.hardware.cost_table import CostTable
from repro.hardware.platform import Platform
from repro.models.graph import ModelGraph
from repro.sim.request import InferenceRequest
from repro.workloads.scenario import Scenario


@dataclass(frozen=True)
class Assignment:
    """Dispatch of the next layer(s) of a request onto an accelerator.

    Attributes:
        request: the request to advance.
        acc_id: target sub-accelerator.
        layer_count: how many consecutive layers to run back-to-back
            (1 for layer-granularity schedulers, more for layer blocks or
            whole-model FCFS dispatch).
        pe_fraction: fraction of the accelerator's PEs used (Planaria-style
            spatial fission); 1.0 means exclusive use.
        switch_to_variant: if set, the request is switched to this Supernet
            variant before dispatch (only legal before its first layer).
    """

    request: InferenceRequest
    acc_id: int
    layer_count: int = 1
    pe_fraction: float = 1.0
    switch_to_variant: Optional[ModelGraph] = None

    def __post_init__(self) -> None:
        if self.layer_count <= 0:
            raise ValueError("layer_count must be positive")
        if not 0.0 < self.pe_fraction <= 1.0:
            raise ValueError("pe_fraction must be in (0, 1]")


@dataclass(frozen=True)
class SchedulingDecision:
    """Everything a scheduler wants done at one scheduling point."""

    assignments: tuple[Assignment, ...] = ()
    drops: tuple[InferenceRequest, ...] = ()

    @staticmethod
    def empty() -> "SchedulingDecision":
        """A decision that does nothing (a shared immutable instance)."""
        return _EMPTY_DECISION

    @staticmethod
    def of(
        assignments: Sequence[Assignment] = (),
        drops: Sequence[InferenceRequest] = (),
    ) -> "SchedulingDecision":
        """Build a decision from (possibly empty) sequences."""
        if not assignments and not drops:
            # Empty decisions terminate every dispatch loop, so they are by
            # far the most-constructed value; share one frozen instance.
            return _EMPTY_DECISION
        return SchedulingDecision(assignments=tuple(assignments), drops=tuple(drops))

    @property
    def is_empty(self) -> bool:
        """True if the decision neither assigns nor drops anything."""
        return not self.assignments and not self.drops


#: The shared do-nothing decision returned by ``SchedulingDecision.empty()``.
_EMPTY_DECISION = SchedulingDecision()


@dataclass(frozen=True)
class AcceleratorView:
    """Read-only snapshot of one accelerator's state at a scheduling point.

    Attributes:
        acc_id: accelerator id.
        free_fraction: unallocated PE fraction (1.0 = fully idle).
        busy_until_ms: earliest time all current work finishes.
        resident_model: model whose activations are resident (context-switch
            state), or ``None`` right after reset.
        running_tasks: task names currently executing on the accelerator.
    """

    acc_id: int
    free_fraction: float
    busy_until_ms: float
    resident_model: Optional[str]
    running_tasks: tuple[str, ...] = ()

    @property
    def is_idle(self) -> bool:
        """True when the accelerator has no running work at all."""
        return self.free_fraction >= 1.0


@dataclass(frozen=True)
class SystemView:
    """Snapshot of everything a scheduler may observe at a scheduling point.

    Lifetime contract: a view (and everything reachable from it — the
    accelerator views, the request tuples, ``queue_depths``) is valid only
    for the duration of the ``schedule()`` call it was passed to.  The
    engine's fast path reuses and refreshes these objects between
    scheduling points, so schedulers must neither retain them across calls
    nor mutate them (treat ``queue_depths`` as read-only).

    Attributes:
        now_ms: current simulation time.
        platform: the hardware platform.
        cost_table: offline per-(layer, accelerator) latency/energy table.
        scenario: the active workload scenario.
        accelerators: one view per accelerator, ordered by id.
        pending_requests: schedulable requests (not running, not terminal).
        running_requests: requests currently occupying accelerators.
        queue_depths: number of live requests per task.
    """

    now_ms: float
    platform: Platform
    cost_table: CostTable
    scenario: Scenario
    accelerators: tuple[AcceleratorView, ...]
    pending_requests: tuple[InferenceRequest, ...]
    running_requests: tuple[InferenceRequest, ...]
    queue_depths: dict[str, int] = field(default_factory=dict)

    def idle_accelerators(self, min_free_fraction: float = 1.0) -> list[AcceleratorView]:
        """Accelerators with at least ``min_free_fraction`` of PEs free."""
        return [
            acc for acc in self.accelerators if acc.free_fraction >= min_free_fraction - 1e-9
        ]

    def accelerator(self, acc_id: int) -> AcceleratorView:
        """View of one accelerator by id."""
        return self.accelerators[acc_id]
