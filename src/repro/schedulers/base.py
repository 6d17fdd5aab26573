"""The scheduler protocol shared by DREAM and all baselines.

A scheduler is a policy object the simulation engine consults at every
state change.  The engine guarantees the call order:

1. :meth:`Scheduler.bind` — once per run, before the simulation starts,
   with the platform, the offline cost table and the scenario.  This is
   the only way static context reaches a scheduler.
2. :meth:`Scheduler.schedule` — at every scheduling point; the scheduler
   inspects a :class:`~repro.sim.decisions.SystemView` and returns a
   :class:`~repro.sim.decisions.SchedulingDecision`.
3. :meth:`Scheduler.on_request_finished` — when a request leaves the
   pool: it reached a terminal state (completed, dropped or expired), or
   an outage aborted it.

Only :meth:`schedule` is abstract; the finished hook defaults to a no-op
so simple policies stay simple.  A hook exists only while a scheduler
overrides it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.hardware.cost_table import CostTable
from repro.hardware.platform import Platform
from repro.sim.decisions import SchedulingDecision, SystemView
from repro.sim.request import InferenceRequest
from repro.workloads.scenario import Scenario


@dataclass(frozen=True)
class WakeHint:
    """A scheduler's promise about provably-inert scheduling points.

    Schedulers are deterministic functions of the :class:`~repro.sim
    .decisions.SystemView`, so many ``schedule()`` calls are foregone
    conclusions — e.g. a work-conserving scheduler consulted while every
    accelerator is saturated.  A wake hint lets the engine *elide* such
    calls: a scheduling point covered by the hint is guaranteed to

    * return an empty :class:`~repro.sim.decisions.SchedulingDecision`, and
    * leave the scheduler's decision-relevant state untouched (pure
      memoization caches — values derived only from a request's identity
      and progress — are exempt, since cold caches recompute identical
      values).

    Declaring a hint is optional (:meth:`Scheduler.wake_hint` returns
    ``None`` by default — always consult) and must be conservative: a hint
    only needs to name *sufficient* conditions for inertness, never all of
    them.  The engine re-derives every condition from live pool/executor
    state at each scheduling point, so elision can never act on stale
    information; the elision parity tests verify bit-for-bit identical
    results, traces and stats with elision on vs off.

    Attributes:
        min_free_fraction: ``schedule()`` is inert whenever the pool holds
            no pending request at all, and whenever requests are pending
            but **no** accelerator has
            ``free_fraction >= min_free_fraction - 1e-9`` (an accelerator's
            free fraction only changes through dispatch/completion, never
            through the mere passage of time, so the engine cannot miss a
            capacity change).  ``0.0`` keeps only the first condition —
            required for schedulers that may act without capacity, e.g. by
            dropping frames.
        same_instant_only: if True, the promises above additionally require
            that a real ``schedule()`` call already happened at the *same*
            simulated timestamp with no request arrival, expiry or
            finalization in between (pool membership unchanged).  This is
            the contract for schedulers whose per-call bookkeeping is
            idempotent within one instant but not across instants — e.g.
            DREAM's online adaptivity step, which may advance its
            observation window the first time it sees a new timestamp.
    """

    min_free_fraction: float
    same_instant_only: bool = False


class Scheduler(abc.ABC):
    """Base class for scheduling policies.

    Attributes:
        name: short identifier used in results and reports.
    """

    name: str = "scheduler"

    def __init__(self) -> None:
        self.platform: Optional[Platform] = None
        self.cost_table: Optional[CostTable] = None
        self.scenario: Optional[Scenario] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def bind(self, platform: Platform, cost_table: CostTable, scenario: Scenario) -> None:
        """Attach the scheduler to a concrete system before simulation.

        Subclasses overriding this must call ``super().bind(...)`` so the
        shared attributes are populated.
        """
        self.platform = platform
        self.cost_table = cost_table
        self.scenario = scenario

    def on_request_finished(self, request: InferenceRequest) -> None:
        """Hook: the request left the pool (terminal, or aborted by an outage)."""

    @abc.abstractmethod
    def schedule(self, view: SystemView) -> SchedulingDecision:
        """Decide what to dispatch (and optionally drop) right now.

        ``view`` is only valid during this call: the engine reuses and
        refreshes view objects between scheduling points, so do not store
        the view (or its accelerator views / ``queue_depths``) on the
        scheduler, and do not mutate anything reachable from it.  Derive
        any state you need and keep that instead.
        """

    def info(self) -> Mapping[str, object]:
        """Scheduler-specific details attached to the simulation result."""
        return {}

    def wake_hint(self) -> Optional[WakeHint]:
        """Conditions under which ``schedule()`` is a provable no-op.

        Returning ``None`` (the default) is the conservative choice: the
        engine consults the scheduler at every scheduling point, exactly as
        if dispatch elision did not exist.  Schedulers that can promise
        inertness (see :class:`WakeHint`) return a hint instead; the engine
        queries it once per run, right after :meth:`bind`.
        """
        return None

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #
    def _require_bound(self) -> CostTable:
        """Return the cost table, failing loudly if ``bind`` was skipped."""
        if self.cost_table is None:
            raise RuntimeError(
                f"{type(self).__name__} was not bound to a platform before use"
            )
        return self.cost_table
