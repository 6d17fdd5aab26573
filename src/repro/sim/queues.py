"""Request bookkeeping: the inference request queues of Figure 4.

The :class:`RequestPool` tracks every live request and answers the queries
the engine and the schedulers' :class:`~repro.sim.decisions.SystemView`
make: which requests are schedulable right now, which are running, which
are stale, and per-task queue depths.

Performance architecture
------------------------
The engine consults the pool on *every* dispatch round, so the pool keeps
incremental indices instead of re-scanning and re-sorting on each query:

* a sorted pending index keyed ``(arrival_ms, request_id)`` (maintained
  with :mod:`bisect`), so :meth:`~RequestPool.pending_snapshot` is a
  straight materialization, memoized until the pending set changes;
* a running-request index maintained by the engine's
  :meth:`~RequestPool.note_dispatched` / :meth:`~RequestPool.note_progress`
  notifications;
* a live request count per task, so :meth:`~RequestPool.queue_depths`
  never scans the pool;
* a deadline min-heap keyed ``deadline + grace`` (lazy deletion), so
  :meth:`~RequestPool.collect_stale` touches only requests whose expiry
  actually came due instead of scanning the whole pool per event, and
  returns at once when none did; and
* a monotonic :attr:`~RequestPool.membership_version` counter, which the
  engine's dispatch-elision layer keys on to prove that a scheduler
  consultation cannot change the outcome.

:class:`ReferenceRequestPool` retains the original scan-everything
implementation behind the queries the reference event loop makes; the
reference simulation mode uses it, and the regression tests drive both
pools through interleaved add/remove/expire sequences to prove they stay
observationally identical.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import defaultdict
from typing import Iterator, Mapping, Optional, Sequence

from repro.sim.request import InferenceRequest, RequestState


class RequestPool:
    """All live (non-terminal) inference requests, counted per task.

    Args:
        grace_ms_by_task: every task's grace after the deadline before a
            never-started request is stale (see :meth:`collect_stale`).
    """

    def __init__(self, grace_ms_by_task: Mapping[str, float]) -> None:
        self._all: dict[int, InferenceRequest] = {}
        # task_name -> number of live requests of the task
        self._task_counts: dict[str, int] = {}
        # Sorted pending index: keys list kept ordered with a parallel,
        # identically-ordered list of the requests themselves (so snapshots
        # are a single C-level tuple() call) plus the member-id set.
        self._pending_keys: list[tuple[float, int]] = []
        self._pending_values: list[InferenceRequest] = []
        self._pending_ids: set[int] = set()
        self._running_map: dict[int, InferenceRequest] = {}
        # Expiry heap: (deadline + grace, request_id), lazily pruned.
        self._grace_ms_by_task = grace_ms_by_task
        self._expiry_heap: list[tuple[float, int]] = []
        # Snapshot caches for the engine's per-round system view, keyed by
        # version counters bumped on every relevant mutation.
        self._pending_version = 0
        self._pending_snapshot: Optional[tuple[InferenceRequest, ...]] = None
        self._pending_snapshot_version = -1
        self._running_version = 0
        self._running_snapshot: Optional[tuple[InferenceRequest, ...]] = None
        self._running_snapshot_version = -1
        #: Monotonic counter bumped whenever a request joins or leaves the
        #: pool.  Dispatch/progress transitions of requests already in the
        #: pool do *not* bump it: the engine's same-instant elision rule
        #: (see :class:`~repro.schedulers.base.WakeHint`) keys on exactly
        #: this distinction — arrivals, expirations and finalizations
        #: invalidate a stateful scheduler's within-instant quiescence,
        #: assignments do not.
        self.membership_version = 0
        self._depth_snapshot: Optional[dict[str, int]] = None
        self._depth_snapshot_version = -1
        self._depth_snapshot_names: Optional[tuple[str, ...]] = None

    def __len__(self) -> int:
        return len(self._all)

    def __iter__(self) -> Iterator[InferenceRequest]:
        return iter(list(self._all.values()))

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add(self, request: InferenceRequest) -> None:
        """Register a newly arrived request."""
        if request.request_id in self._all:
            raise ValueError(f"request {request.request_id} is already in the pool")
        self._all[request.request_id] = request
        self._task_counts[request.task_name] = self._task_counts.get(request.task_name, 0) + 1
        self.membership_version += 1
        if request.state is RequestState.PENDING:
            self._insert_pending(request)
        if not request.started:
            grace = self._grace_ms_by_task[request.task_name]
            heapq.heappush(self._expiry_heap, (request.deadline_ms + grace, request.request_id))

    def remove(self, request: InferenceRequest) -> None:
        """Remove a terminal request from the pool.

        Count bookkeeping is O(1); dropping the request from the sorted
        pending index is an O(log n) bisect plus a C-level tail shift of
        the keys/values lists (no Python-level scan).
        """
        if self._all.pop(request.request_id, None) is not None:
            self._task_counts[request.task_name] -= 1
            self.membership_version += 1
        self._discard_pending(request)
        if self._running_map.pop(request.request_id, None) is not None:
            self._running_version += 1

    def _insert_pending(self, request: InferenceRequest) -> None:
        key = (request.arrival_ms, request.request_id)
        index = bisect_left(self._pending_keys, key)
        self._pending_keys.insert(index, key)
        self._pending_values.insert(index, request)
        self._pending_ids.add(request.request_id)
        self._pending_version += 1

    def _discard_pending(self, request: InferenceRequest) -> None:
        if request.request_id not in self._pending_ids:
            return
        self._pending_ids.discard(request.request_id)
        key = (request.arrival_ms, request.request_id)
        index = bisect_left(self._pending_keys, key)
        if index < len(self._pending_keys) and self._pending_keys[index] == key:
            del self._pending_keys[index]
            del self._pending_values[index]
        self._pending_version += 1

    def note_dispatched(self, request: InferenceRequest) -> None:
        """Engine hook: the request's layers were dispatched (now RUNNING)."""
        self._discard_pending(request)
        self._running_map[request.request_id] = request
        self._running_version += 1

    def note_progress(self, request: InferenceRequest) -> None:
        """Engine hook: dispatched layers finished; the request is PENDING again."""
        if self._running_map.pop(request.request_id, None) is not None:
            self._running_version += 1
        if request.state is RequestState.PENDING and request.request_id not in self._pending_ids:
            self._insert_pending(request)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def pending_snapshot(self) -> tuple[InferenceRequest, ...]:
        """Pending requests ordered by ``(arrival_ms, request_id)``, memoized.

        This is the order the engine's system view exposes to schedulers.
        The index is maintained incrementally (the engine reports every
        state transition via :meth:`note_dispatched` / :meth:`note_progress`,
        and :meth:`remove` covers terminal requests), and the materialized
        tuple is cached until the next pending-set mutation, so consecutive
        dispatch rounds share one snapshot object.
        """
        if self._pending_snapshot_version == self._pending_version:
            snapshot = self._pending_snapshot
            assert snapshot is not None
            return snapshot
        snapshot = tuple(self._pending_values)
        self._pending_snapshot = snapshot
        self._pending_snapshot_version = self._pending_version
        return snapshot

    def running_snapshot(self) -> tuple[InferenceRequest, ...]:
        """Running requests in ``request_id`` (= pool insertion) order, memoized."""
        if self._running_snapshot_version == self._running_version:
            snapshot = self._running_snapshot
            assert snapshot is not None
            return snapshot
        running_map = self._running_map
        snapshot = tuple(
            request
            for request_id in sorted(running_map)
            if (request := running_map[request_id]).state is RequestState.RUNNING
        )
        self._running_snapshot = snapshot
        self._running_snapshot_version = self._running_version
        return snapshot

    def queue_depths(self, task_names: Sequence[str]) -> dict[str, int]:
        """Per-task live request counts for the given tasks, memoized.

        The returned dict is shared until the next add/remove (its caller,
        the live system view, treats it as read-only).
        """
        names = tuple(task_names)
        if (
            self._depth_snapshot_version == self.membership_version
            and self._depth_snapshot_names == names
        ):
            snapshot = self._depth_snapshot
            assert snapshot is not None
            return snapshot
        counts = self._task_counts
        snapshot = {name: counts.get(name, 0) for name in names}
        self._depth_snapshot = snapshot
        self._depth_snapshot_version = self.membership_version
        self._depth_snapshot_names = names
        return snapshot

    # ------------------------------------------------------------------ #
    # expiry
    # ------------------------------------------------------------------ #
    def collect_stale(self, now: float) -> list[InferenceRequest]:
        """Stale requests per the pool's grace periods, oldest-id first.

        A pending, never-started request is stale once ``now > deadline +
        grace`` for its task.  The engine expires such requests (their frame
        is useless by then: the next frame has already arrived), which
        bounds queue growth under overload for schedulers that have no
        frame-drop mechanism of their own.

        Pops the expiry heap up to ``now``; entries whose request has since
        started, finished, or left the pool are discarded (a request that
        executed at least one layer can never expire, so dropping its entry
        is permanent and safe).  The surviving batch is returned sorted by
        ``request_id`` — creation order, matching the order the historical
        full-pool scan produced.
        """
        heap = self._expiry_heap
        if not heap or heap[0][0] >= now:
            return []
        stale: list[InferenceRequest] = []
        seen: set[int] = set()
        while heap and heap[0][0] < now:
            _, request_id = heapq.heappop(heap)
            if request_id in seen:
                # A fault-aborted request that re-entered through a retry
                # has two heap entries; expiring it twice would be fatal.
                continue
            request = self._all.get(request_id)
            if (
                request is not None
                and request.state is RequestState.PENDING
                and not request.started
            ):
                seen.add(request_id)
                stale.append(request)
        stale.sort(key=lambda request: request.request_id)
        return stale


class ReferenceRequestPool:
    """The pre-optimization pool: every query is a fresh scan or sort.

    Retained verbatim (behind the queries the reference event loop and the
    system view make) so the reference simulation mode reproduces the
    historical cost profile and the regression tests can differential-test
    the incremental pool against it.  It takes the same per-task grace map
    as :class:`RequestPool`.
    """

    def __init__(self, grace_ms_by_task: Mapping[str, float]) -> None:
        self._by_task: dict[str, list[InferenceRequest]] = defaultdict(list)
        self._all: dict[int, InferenceRequest] = {}
        self._grace_ms_by_task = grace_ms_by_task

    def __len__(self) -> int:
        return len(self._all)

    def __iter__(self) -> Iterator[InferenceRequest]:
        return iter(list(self._all.values()))

    def add(self, request: InferenceRequest) -> None:
        """Register a newly arrived request."""
        if request.request_id in self._all:
            raise ValueError(f"request {request.request_id} is already in the pool")
        self._all[request.request_id] = request
        self._by_task[request.task_name].append(request)

    def remove(self, request: InferenceRequest) -> None:
        """Remove a terminal request from the pool (historical O(n) form)."""
        self._all.pop(request.request_id, None)
        task_queue = self._by_task.get(request.task_name)
        if task_queue and request in task_queue:
            task_queue.remove(request)

    def note_dispatched(self, request: InferenceRequest) -> None:
        """No-op: the reference pool re-derives state on every query."""

    def note_progress(self, request: InferenceRequest) -> None:
        """No-op: the reference pool re-derives state on every query."""

    def pending(self) -> list[InferenceRequest]:
        """Requests that are schedulable right now (not running, not done)."""
        return [
            request
            for request in self._all.values()
            if request.state is RequestState.PENDING
        ]

    def pending_sorted(self) -> list[InferenceRequest]:
        """Pending requests sorted by ``(arrival_ms, request_id)`` per call."""
        return sorted(
            self.pending(), key=lambda request: (request.arrival_ms, request.request_id)
        )

    def pending_snapshot(self) -> tuple[InferenceRequest, ...]:
        """Pending requests sorted by ``(arrival_ms, request_id)`` per call."""
        return tuple(self.pending_sorted())

    def running(self) -> list[InferenceRequest]:
        """Requests with layers currently executing."""
        return [
            request
            for request in self._all.values()
            if request.state is RequestState.RUNNING
        ]

    def running_snapshot(self) -> tuple[InferenceRequest, ...]:
        """Running requests in pool insertion order, materialized per call."""
        return tuple(self.running())

    def queue_depth(self, task_name: str) -> int:
        """Number of live requests of one task."""
        return len(self._by_task.get(task_name, ()))

    def queue_depths(self, task_names: Sequence[str]) -> dict[str, int]:
        """Per-task live request counts for the given tasks."""
        return {name: self.queue_depth(name) for name in task_names}

    def collect_stale(self, now: float) -> list[InferenceRequest]:
        """Stale requests per the pool's grace periods, oldest-id first.

        Sorted by ``request_id`` like :meth:`RequestPool.collect_stale`:
        pool order is not creation order once a fault retry re-adds a
        request at the back of the pool.
        """
        stale = []
        for request in self._all.values():
            if request.state is not RequestState.PENDING or request.started:
                continue
            grace = self._grace_ms_by_task[request.task_name]
            if now > request.deadline_ms + grace:
                stale.append(request)
        stale.sort(key=lambda request: request.request_id)
        return stale
