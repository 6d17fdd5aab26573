"""Scheduler <-> simulator interface types.

Schedulers observe the system through a :class:`SystemView` (accelerator
availability, pending and running requests, queue depths, current time)
and respond with a :class:`SchedulingDecision`: a list of
:class:`Assignment` objects plus, optionally, requests to drop (smart
frame drop) — exactly the "scheduler inputs" / "scheduler output" boxes
of Figure 4.  The static inputs (the platform, the offline cost table and
the scenario) reach a scheduler once, through
:meth:`~repro.schedulers.base.Scheduler.bind`.  The views are read-only
and live: one per engine run, reading the pool and the executors when a
scheduler accesses them, so nothing is rebuilt per scheduling point.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Optional, Sequence

from repro.models.graph import ModelGraph
from repro.sim.request import InferenceRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.executor import AcceleratorExecutor
    from repro.sim.queues import ReferenceRequestPool, RequestPool


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
        if self.acc_id < 0:
            # A negative id would index the executor list from the end and
            # silently alias another accelerator.
            raise ValueError("acc_id must be non-negative")
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


class AcceleratorView:
    """Read-only view of one accelerator, read live from its executor.

    The engine builds one view per executor per run.  Every attribute is a
    property without a setter that reads the executor when it is accessed.

    Attributes:
        acc_id: accelerator id.
        free_fraction: unallocated usable PE fraction (1.0 = fully idle),
            the executor's own ``free_fraction``.
        resident_model: model whose activations are resident (context-switch
            state), or ``None`` right after reset.
        is_idle: True when the accelerator has no running work at all.
    """

    __slots__ = ("_executor",)

    def __init__(self, executor: "AcceleratorExecutor") -> None:
        self._executor = executor

    # C-level getters: schedulers read these on every consultation.
    acc_id = property(attrgetter("_executor.accelerator.acc_id"), doc="Accelerator id.")
    free_fraction = property(
        attrgetter("_executor.free_fraction"),
        doc="Unallocated usable PE fraction (1.0 = fully idle).",
    )
    resident_model = property(
        attrgetter("_executor.resident_model"),
        doc="Model whose activations are resident, or ``None`` after reset.",
    )

    @property
    def is_idle(self) -> bool:
        """True when the accelerator has no running work at all."""
        return self._executor.free_fraction >= 1.0


class SystemView:
    """Read-only view of the dynamic system state a scheduler observes.

    Static context (the platform, the offline cost table and the scenario)
    does not change during a run, so it is not on the view: it arrives
    once, through :meth:`~repro.schedulers.base.Scheduler.bind`.  The
    engine builds one view per run and advances :attr:`now_ms` before
    each ``schedule()`` call.  The request tuples and ``queue_depths`` are
    the pool's snapshots, built when read: the fast pool memoizes each on
    its version counter, so a snapshot no scheduler asks for is never
    built; the reference pool re-derives them with a full scan per read.

    Lifetime contract: a view (and everything reachable from it — the
    accelerator views, the request tuples, ``queue_depths``) is valid only
    for the duration of the ``schedule()`` call it was passed to.  The
    same objects serve every scheduling point of the run, so schedulers
    must neither retain them across calls nor mutate them (treat
    ``queue_depths`` as read-only).

    Attributes:
        now_ms: current simulation time.
        accelerators: one view per accelerator, ordered by id.
        pending_requests: schedulable requests (not running, not terminal),
            ordered by ``(arrival_ms, request_id)``.
        running_requests: requests currently occupying accelerators.
        queue_depths: number of live requests per task, in scenario order.
    """

    __slots__ = ("_now_ms", "_accelerators", "_pool", "_task_names")

    def __init__(
        self,
        task_names: Sequence[str],
        pool: "RequestPool | ReferenceRequestPool",
        executors: Sequence["AcceleratorExecutor"],
    ) -> None:
        self._now_ms = 0.0
        self._accelerators = tuple(AcceleratorView(executor) for executor in executors)
        self._pool = pool
        # A tuple, so the pool's depth memo matches it without a copy.
        self._task_names = tuple(task_names)

    now_ms = property(attrgetter("_now_ms"), doc="Current simulation time (ms).")
    accelerators = property(
        attrgetter("_accelerators"), doc="One view per accelerator, ordered by id."
    )

    @property
    def pending_requests(self) -> tuple[InferenceRequest, ...]:
        """Schedulable requests, ordered by ``(arrival_ms, request_id)``."""
        return self._pool.pending_snapshot()

    @property
    def running_requests(self) -> tuple[InferenceRequest, ...]:
        """Requests currently occupying accelerators."""
        return self._pool.running_snapshot()

    @property
    def queue_depths(self) -> dict[str, int]:
        """Number of live requests per task, in scenario task order."""
        return self._pool.queue_depths(self._task_names)
