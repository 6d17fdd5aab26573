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
4. **Maximum drop rate** — at most ``max_drop_rate`` of the task's recent
   frames (sliding window) may be dropped.

Among all candidates, the frame with the largest ``minimum_to_go / slack``
ratio is dropped (the most hopeless one).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Deque, Iterable, Optional

from repro.hardware.cost_table import CostTable
from repro.sim.request import InferenceRequest
from repro.workloads.scenario import Scenario

#: Slack floor used when ranking candidates whose deadline already passed.
_MIN_SLACK_MS = 1e-3


@dataclass(frozen=True)
class FrameDropConfig:
    """Tunables of the smart frame drop engine.

    Attributes:
        max_drop_rate: maximum fraction of frames that may be dropped within
            the sliding window (paper default: 2 per 10 frames; the
            evaluation uses 20%).
        window_frames: size of the per-task sliding window, in frames.
    """

    max_drop_rate: float = 0.2
    window_frames: int = 10

    def __post_init__(self) -> None:
        if not 0.0 <= self.max_drop_rate <= 1.0:
            raise ValueError("max_drop_rate must be in [0, 1]")
        if self.window_frames <= 0:
            raise ValueError("window_frames must be positive")

    @property
    def max_drops_per_window(self) -> int:
        """Absolute drop budget within one window."""
        return int(self.max_drop_rate * self.window_frames)


class SmartFrameDropEngine:
    """Implements the four-condition proactive frame drop policy.

    Args:
        cost_table: offline latency table (for ``minimum_to_go``).
        scenario: the workload scenario (for the dependency-chain check).
        config: drop-rate limits.
    """

    def __init__(
        self,
        cost_table: CostTable,
        scenario: Scenario,
        config: Optional[FrameDropConfig] = None,
        fast: bool = True,
    ) -> None:
        self.cost_table = cost_table
        self.scenario = scenario
        self.config = config or FrameDropConfig()
        #: Hot-loop form of select_drop (inlined cache + early exits); the
        #: reference simulation mode disables it to keep the historical
        #: cost profile.  Selected drops are identical either way.
        self.fast = fast
        # Sliding window of per-task frame outcomes: True = dropped.
        self._windows: dict[str, Deque[bool]] = defaultdict(
            lambda: deque(maxlen=self.config.window_frames)
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

    def drops_in_window(self, task_name: str) -> int:
        """Number of drops of this task within the sliding window."""
        return self._window_drops[task_name]

    def drop_budget_available(self, task_name: str) -> bool:
        """Condition 4: the task is below its maximum drop rate."""
        return self.drops_in_window(task_name) < self.config.max_drops_per_window

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
        pending: Iterable[InferenceRequest],
        running: Iterable[InferenceRequest],
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
        # Single pass: count expected violations (Condition 2 input) while
        # collecting the pending violators, so expects_violation runs once
        # per request instead of twice.
        expected_violations = 0
        flagged: list[InferenceRequest] = []
        if self.fast:
            # Hot-loop form: the minimum_to_go cache is inlined (this loop
            # runs at every scheduling point over every live request, so
            # attribute/call overhead dominates it), flagged-empty answers
            # No immediately (only pending violators can become
            # candidates), and the running scan — which only feeds the
            # Condition-2 count — stops at two.  Skipped work is limited to
            # pure memo warming, so the selected drop is identical.
            to_go_cache = self._to_go_cache
            remaining_best = self.cost_table.remaining_best_latency
            for request in pending:
                cached = to_go_cache.get(request.request_id)
                position = request.next_position
                if cached is not None and cached[0] == position:
                    to_go = cached[1]
                else:
                    to_go = remaining_best(request.model_name, request.remaining_path())
                    to_go_cache[request.request_id] = (position, to_go)
                if to_go > request.deadline_ms - now_ms:     # Condition 1
                    expected_violations += 1
                    flagged.append(request)
            if not flagged:
                return None
            if expected_violations < 2:
                for request in running:
                    if self.expects_violation(request, now_ms):
                        expected_violations += 1
                        if expected_violations >= 2:
                            break
        else:
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
