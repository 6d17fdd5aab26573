"""Smart frame drop engine (Section 4.2 of the paper).

Traditional frame-drop policies (Skip-over, (m,k)-firm guarantees, Nexus's
batch dropping) either drop reactively once a deadline has already been
missed or rely on statically configured rates.  DREAM's smart frame drop is
*proactive*: it predicts, from the offline per-layer latency table, whether
a frame can still meet its deadline, and drops it early so the freed time
benefits other models.

A frame is dropped only when all four conditions hold:

1. **Deadline violation likelihood** — even on the per-layer best
   accelerators (``minimum_to_go``) the frame cannot finish by its
   deadline.
2. **Multi-model violation** — at least one *other* live inference is also
   expected to violate its deadline, so the drop actually relieves
   pressure.
3. **Dependency-free** — the frame's task is the tail of its dependency
   chain; dropping an upstream model would implicitly kill its dependants.
4. **Maximum drop rate** — at most :data:`MAX_DROPS_PER_WINDOW` of the
   task's last :data:`DROP_WINDOW_FRAMES` frames may be dropped.

Among all candidates, the frame with the largest ``minimum_to_go / slack``
ratio is dropped (the most hopeless one).

Conditions 3 and 4 depend only on a frame's task, so the engine keeps the
set of *droppable* tasks (chain tails with budget left) and updates it when
a frame finishes, the only time a budget moves.  The hot path tests
Condition 1 only on pending frames of droppable tasks and scans the rest
of the live requests only as far as Condition 2 needs.
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import chain
from typing import Deque, Optional, Sequence

from repro.hardware.cost_table import CostTable
from repro.sim.request import InferenceRequest
from repro.workloads.scenario import Scenario

#: Slack floor used when ranking candidates whose deadline already passed.
_MIN_SLACK_MS = 1e-3

#: Condition 4's drop budget: at most this many drops per task within its
#: sliding window (the paper's default, 2 drops per 10 frames).
MAX_DROPS_PER_WINDOW = 2
#: Length, in frames, of each task's sliding drop window.
DROP_WINDOW_FRAMES = 10


class SmartFrameDropEngine:
    """Implements the four-condition proactive frame drop policy.

    Args:
        cost_table: offline latency table (for ``minimum_to_go``).
        scenario: the workload scenario (for the dependency-chain check).
    """

    def __init__(self, cost_table: CostTable, scenario: Scenario, fast: bool = True) -> None:
        self.cost_table = cost_table
        self.scenario = scenario
        #: Hot-loop form of select_drop (droppable-task set, inlined cache,
        #: early exits); the reference simulation mode disables it to keep
        #: the historical cost profile.  Selected drops are identical.
        self.fast = fast
        # Sliding window of per-task frame outcomes: True = dropped.
        self._windows: dict[str, Deque[bool]] = defaultdict(
            lambda: deque(maxlen=DROP_WINDOW_FRAMES)
        )
        # Incremental per-task drop count within the window (== sum(window)).
        self._window_drops: dict[str, int] = defaultdict(int)
        self.total_drops = 0
        # minimum_to_go only changes when a request makes progress.
        self._to_go_cache: dict[int, tuple[int, float]] = {}
        # Chain-tail membership is static per scenario (Condition 3).
        self._chain_tail: dict[str, bool] = {
            task.name: scenario.is_chain_tail(task.name) for task in scenario.tasks
        }
        # Tasks passing Conditions 3 and 4: chain tails with budget left.
        # Budgets only move in record_outcome, which keeps this current.
        self._droppable: set[str] = {name for name, tail in self._chain_tail.items() if tail}

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    def record_outcome(self, task_name: str, dropped: bool) -> None:
        """Record a finished frame so the per-task drop budget stays bounded."""
        window = self._windows[task_name]
        if len(window) == window.maxlen and window[0]:
            self._window_drops[task_name] -= 1
        window.append(dropped)
        if dropped:
            self._window_drops[task_name] += 1
            self.total_drops += 1
        if self._chain_tail.get(task_name):
            if self._window_drops[task_name] < MAX_DROPS_PER_WINDOW:
                self._droppable.add(task_name)
            else:
                self._droppable.discard(task_name)

    def drops_in_window(self, task_name: str) -> int:
        """Number of drops of this task within the sliding window."""
        return self._window_drops[task_name]

    def drop_budget_available(self, task_name: str) -> bool:
        """Condition 4: the task is below its maximum drop rate."""
        return self.drops_in_window(task_name) < MAX_DROPS_PER_WINDOW

    def forget(self, request_id: int) -> None:
        """Drop a finished request's cache entry (bounds memory on long runs)."""
        self._to_go_cache.pop(request_id, None)

    # ------------------------------------------------------------------ #
    # per-request predicates
    # ------------------------------------------------------------------ #
    def minimum_to_go_ms(self, request: InferenceRequest) -> float:
        """Best-case remaining latency (per-layer best accelerator, no switches)."""
        cached = self._to_go_cache.get(request.request_id)
        if cached is not None and cached[0] == request.next_position:
            return cached[1]
        value = self.cost_table.remaining_best_latency(
            request.model_name, request.remaining_path()
        )
        self._to_go_cache[request.request_id] = (request.next_position, value)
        return value

    def expects_violation(self, request: InferenceRequest, now_ms: float) -> bool:
        """Condition 1: minimum_to_go exceeds the remaining slack."""
        slack = request.deadline_ms - now_ms
        return self.minimum_to_go_ms(request) > slack

    def hopelessness(self, request: InferenceRequest, now_ms: float) -> float:
        """Ranking key: minimum_to_go / slack (higher = more hopeless)."""
        slack = max(_MIN_SLACK_MS, request.deadline_ms - now_ms)
        return self.minimum_to_go_ms(request) / slack

    def is_chain_tail(self, request: InferenceRequest) -> bool:
        """Condition 3: no other model depends on this request's task."""
        tail = self._chain_tail.get(request.task_name)
        if tail is None:
            tail = self.scenario.is_chain_tail(request.task_name)
            self._chain_tail[request.task_name] = tail
        return tail

    # ------------------------------------------------------------------ #
    # the drop decision
    # ------------------------------------------------------------------ #
    def select_drop(
        self,
        pending: Sequence[InferenceRequest],
        running: Sequence[InferenceRequest],
        now_ms: float,
    ) -> Optional[InferenceRequest]:
        """Pick at most one frame to drop at this scheduling point.

        Args:
            pending: schedulable (not currently running) live requests.
            running: requests currently executing layers.
            now_ms: current time.

        Returns:
            The request to drop, or ``None`` when no frame satisfies all
            four conditions.
        """
        if self.fast:
            return self._select_drop_fast(pending, running, now_ms)
        # Reference spec: Condition 1 on every pending request, the
        # Condition-2 count over every live request, then Conditions 3-4.
        expected_violations = 0
        flagged: list[InferenceRequest] = []
        for request in pending:
            if self.expects_violation(request, now_ms):  # Condition 1
                expected_violations += 1
                flagged.append(request)
        for request in running:
            if self.expects_violation(request, now_ms):
                expected_violations += 1
        # Condition 2: dropping only helps when more than one live inference
        # is in trouble; a single late model cannot hurt the others.
        if expected_violations < 2:
            return None

        candidates = [
            request
            for request in flagged
            if self.is_chain_tail(request)                   # Condition 3
            and self.drop_budget_available(request.task_name)  # Condition 4
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda request: self.hopelessness(request, now_ms))

    def _select_drop_fast(
        self,
        pending: Sequence[InferenceRequest],
        running: Sequence[InferenceRequest],
        now_ms: float,
    ) -> Optional[InferenceRequest]:
        """Hot-loop form of :meth:`select_drop`; selects the identical drop.

        Conditions 3 and 4 come first, from the droppable-task set, so
        Condition 1 (with the ``minimum_to_go`` memo inlined) runs only on
        pending requests that could become candidates.  Condition 2 then
        needs just one violator beyond a single candidate: the other
        pending requests are scanned before the running ones, stopping at
        the first.  Candidates keep pending order, so ``max`` breaks ties
        as the reference does.  Skipped work is memo warming only; the one
        entry a later read depends on, that of a request about to switch
        Supernet variant, is filled by ``DreamScheduler.schedule``.
        """
        droppable = self._droppable
        if not droppable:
            return None
        to_go_cache = self._to_go_cache
        remaining_best = self.cost_table.remaining_best_latency
        candidates: list[InferenceRequest] = []
        for request in pending:
            if request.task_name not in droppable:           # Conditions 3-4
                continue
            cached = to_go_cache.get(request.request_id)
            position = request.next_position
            if cached is not None and cached[0] == position:
                to_go = cached[1]
            else:
                to_go = remaining_best(request.model_name, request.remaining_path())
                to_go_cache[request.request_id] = (position, to_go)
            if to_go > request.deadline_ms - now_ms:         # Condition 1
                candidates.append(request)
        if not candidates:
            return None
        if len(candidates) == 1:                             # Condition 2
            others = chain(
                (request for request in pending if request.task_name not in droppable),
                running,
            )
            if not any(self.expects_violation(request, now_ms) for request in others):
                return None
        return max(candidates, key=lambda request: self.hopelessness(request, now_ms))
