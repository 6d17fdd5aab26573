"""Inference requests: the unit of scheduling work.

Every sensor frame of a head task, and every triggered cascade of a
dependent task, becomes one :class:`InferenceRequest`.  A request owns its
*execution path* — the layer indices it will actually run, sampled from the
model's dynamic behaviour when the request is created — and progresses
through it layer by layer as the scheduler assigns work to accelerators.
"""

from __future__ import annotations

import enum
import itertools
import random
from typing import Optional

from repro.models.graph import ModelGraph

_REQUEST_COUNTER = itertools.count()


class RequestState(enum.Enum):
    """Lifecycle state of an inference request."""

    PENDING = "pending"      #: waiting for (more) layers to be scheduled
    RUNNING = "running"      #: some layers currently executing on an accelerator
    COMPLETED = "completed"  #: all layers of the sampled path finished
    DROPPED = "dropped"      #: proactively dropped by the scheduler (frame drop)
    EXPIRED = "expired"      #: abandoned by the runtime after its deadline passed
    FAILED = "failed"        #: aborted by a platform fault with no retry budget left

    @property
    def is_terminal(self) -> bool:
        """True once the request will never execute again."""
        return self in (
            RequestState.COMPLETED,
            RequestState.DROPPED,
            RequestState.EXPIRED,
            RequestState.FAILED,
        )


class InferenceRequest:
    """One inference of one model for one frame.

    Args:
        task_name: owning task in the scenario.
        model: the model graph being executed (a Supernet variant when the
            dispatcher switched one in).
        frame_id: frame index of the originating sensor frame.
        arrival_ms: when the request entered the system.
        deadline_ms: completion deadline.
        frame_arrival_ms: arrival of the originating sensor frame (equals
            ``arrival_ms`` for head tasks; earlier for cascaded requests).
        rng: generator used to sample the dynamic execution path.
    """

    def __init__(
        self,
        task_name: str,
        model: ModelGraph,
        frame_id: int,
        arrival_ms: float,
        deadline_ms: float,
        frame_arrival_ms: Optional[float] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if deadline_ms < arrival_ms:
            raise ValueError("deadline_ms must not precede arrival_ms")
        self.request_id: int = next(_REQUEST_COUNTER)
        self.task_name = task_name
        self.model = model
        self.frame_id = frame_id
        self.arrival_ms = arrival_ms
        self.deadline_ms = deadline_ms
        self.frame_arrival_ms = arrival_ms if frame_arrival_ms is None else frame_arrival_ms
        self._rng = rng or random.Random(0)
        self.path: list[int] = model.sample_execution_path(self._rng)
        self.next_position: int = 0
        self.state: RequestState = RequestState.PENDING
        self.last_progress_ms: float = arrival_ms
        self.completion_ms: Optional[float] = None
        self.energy_mj: float = 0.0
        self.worst_case_energy_mj: float = 0.0
        self.retries: int = 0

    # ------------------------------------------------------------------ #
    # path progress
    # ------------------------------------------------------------------ #
    @property
    def model_name(self) -> str:
        """Name of the model variant this request executes."""
        return self.model.name

    @property
    def started(self) -> bool:
        """True once at least one layer has been dispatched."""
        return self.next_position > 0 or self.state is RequestState.RUNNING

    @property
    def is_finished(self) -> bool:
        """True when the request reached a terminal state."""
        return self.state.is_terminal

    @property
    def remaining_layers(self) -> int:
        """Number of layers still to execute (0 when the path is done).

        O(1) — prefer this over ``len(remaining_path())`` (which copies the
        path tail) in scheduler hot loops.
        """
        return len(self.path) - self.next_position

    def remaining_path(self) -> list[int]:
        """Layer indices still to execute, in order."""
        return self.path[self.next_position:]

    def next_layer(self) -> Optional[int]:
        """The next layer index to execute, or ``None`` when done."""
        if self.next_position >= len(self.path):
            return None
        return self.path[self.next_position]

    def next_layers(self, count: int) -> list[int]:
        """Up to ``count`` upcoming layer indices (for block scheduling)."""
        if count <= 0:
            raise ValueError("count must be positive")
        return self.path[self.next_position: self.next_position + count]

    def queue_time_ms(self, now: float) -> float:
        """Tqueue: time since the request last made progress (Algorithm 1, line 4)."""
        return max(0.0, now - self.last_progress_ms)

    # ------------------------------------------------------------------ #
    # state transitions (driven by the simulation engine)
    # ------------------------------------------------------------------ #
    def mark_running(self) -> None:
        """Transition to RUNNING when layers are dispatched."""
        self._require_active()
        self.state = RequestState.RUNNING

    def record_layers(
        self,
        layer_indices: list[int],
        completion_ms: float,
        validate: bool = True,
    ) -> None:
        """Record completion of the given layers.

        ``validate=False`` skips the path-prefix check for callers that
        provably pass the exact slice returned by :meth:`next_layers` (the
        fast executor, whose slot froze that slice at dispatch time).
        """
        if validate:
            expected = self.next_layers(len(layer_indices))
            if layer_indices != expected:
                raise ValueError(
                    f"request {self.request_id}: completed layers {layer_indices} do not "
                    f"match the expected path prefix {expected}"
                )
        self.next_position += len(layer_indices)
        self.last_progress_ms = completion_ms
        if self.next_position >= len(self.path):
            self.state = RequestState.COMPLETED
            self.completion_ms = completion_ms
        else:
            self.state = RequestState.PENDING

    def mark_dropped(self, now: float) -> None:
        """Drop the request (smart frame drop); counts as a deadline violation."""
        self._require_active()
        self.state = RequestState.DROPPED
        self.completion_ms = None
        self.last_progress_ms = now

    def mark_expired(self, now: float) -> None:
        """Abandon a stale request whose deadline has long passed."""
        self._require_active()
        self.state = RequestState.EXPIRED
        self.completion_ms = None
        self.last_progress_ms = now

    def mark_aborted(self, now: float) -> None:
        """A platform fault killed the in-flight work; the request is
        re-queueable (already-recorded layers are kept, the interrupted
        slot's layers were never recorded)."""
        if self.state is not RequestState.RUNNING:
            raise ValueError(
                f"request {self.request_id}: abort requires RUNNING, "
                f"got {self.state.value}"
            )
        self.state = RequestState.PENDING
        self.last_progress_ms = now
        self.retries += 1

    def mark_failed(self, now: float) -> None:
        """Terminally fail a request whose retry budget is exhausted."""
        self._require_active()
        self.state = RequestState.FAILED
        self.completion_ms = None
        self.last_progress_ms = now

    def _require_active(self) -> None:
        if self.state.is_terminal:
            raise ValueError(
                f"request {self.request_id} is already terminal ({self.state.value})"
            )

    # ------------------------------------------------------------------ #
    # outcome queries
    # ------------------------------------------------------------------ #
    @property
    def violated_deadline(self) -> bool:
        """True if the frame missed its deadline (dropped/expired/failed count too)."""
        if self.state in (RequestState.DROPPED, RequestState.EXPIRED, RequestState.FAILED):
            return True
        if self.state is RequestState.COMPLETED:
            assert self.completion_ms is not None
            return self.completion_ms > self.deadline_ms
        return False

    @property
    def latency_ms(self) -> Optional[float]:
        """End-to-end latency for completed requests, else ``None``."""
        if self.completion_ms is None:
            return None
        return self.completion_ms - self.arrival_ms

    # ------------------------------------------------------------------ #
    # Supernet switching
    # ------------------------------------------------------------------ #
    def switch_variant(self, variant: ModelGraph) -> None:
        """Switch this request to a different Supernet variant.

        Only legal before any layer has executed; the execution path is
        re-sampled from the new variant's dynamic behaviour.
        """
        if self.next_position != 0:
            raise ValueError(
                f"request {self.request_id}: cannot switch variant after execution started"
            )
        self._require_active()
        self.model = variant
        self.path = variant.sample_execution_path(self._rng)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InferenceRequest(id={self.request_id}, task={self.task_name!r}, "
            f"model={self.model_name!r}, frame={self.frame_id}, "
            f"progress={self.next_position}/{len(self.path)}, state={self.state.value})"
        )
