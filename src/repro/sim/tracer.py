"""Optional per-event tracing for debugging and fine-grained analysis.

The tracer records one :class:`TraceRecord` per interesting event (request
arrival, dispatch, completion, drop, expiry).  It is disabled by default —
long simulations generate many events — and enabled by passing
``tracer=Tracer()`` to the engine.  Tests and the trace-invariant oracle
(:mod:`repro.sim.invariants`) use it to assert detailed scheduling
invariants (e.g. a request never runs on two accelerators at once).

Truncation semantics
--------------------
A bounded tracer (``Tracer(capacity=N)``) is a ring buffer over arrival
order (a ``collections.deque(maxlen=N)``, so each discard is O(1)): once
more than ``N`` records have been collected, the **oldest records are
discarded first** and the newest ``N`` are kept.  The
number of discarded records is reported by :attr:`Tracer.dropped_records`
(and :attr:`Tracer.truncated`), so consumers that require a complete event
stream — most importantly the invariant oracle, whose conservation checks
are meaningless on a partial trace — can detect truncation instead of
silently auditing a suffix.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One traced simulator event.

    Besides the identifying fields, records carry the structured facts the
    invariant oracle audits, so no information has to be parsed back out of
    the free-form ``detail`` string:

    * ``frame_id`` — originating sensor-frame index (cascaded requests
      inherit their parent's frame id, which is what lets the oracle match
      a ``cascade_arrival`` to the parent completion that spawned it).
    * ``pe_fraction`` — PE-array share of a ``dispatch`` event (``None``
      for non-dispatch events).
    * ``deadline_ms`` — the request's completion deadline, from which the
      oracle re-derives measured-ness when cross-checking trace counts
      against :class:`~repro.sim.results.TaskStats`.
    * ``memory_fraction`` — share of the accelerator's KV memory budget a
      ``dispatch`` charges under the ``kv_batch`` resource model (``None``
      for the default ``pe_fraction`` model and non-dispatch events); the
      ``no_memory_oversubscription`` oracle sums it per accelerator.
    """

    time_ms: float
    event: str
    task_name: str
    request_id: int
    model_name: str
    acc_id: Optional[int] = None
    detail: str = ""
    frame_id: Optional[int] = None
    pe_fraction: Optional[float] = None
    deadline_ms: Optional[float] = None
    memory_fraction: Optional[float] = None


class Tracer:
    """Collects trace records during a simulation run."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        """Create a tracer.

        Args:
            capacity: optional maximum number of records kept.  When the
                limit is exceeded the *oldest* records are discarded first
                (the newest ``capacity`` records are kept); ``None`` keeps
                everything.  See :attr:`dropped_records`.
        """
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive (or None for unbounded)")
        self.capacity = capacity
        self._records: deque[TraceRecord] = deque(maxlen=capacity)
        self._dropped = 0

    def record(
        self,
        time_ms: float,
        event: str,
        task_name: str,
        request_id: int,
        model_name: str,
        acc_id: Optional[int] = None,
        detail: str = "",
        frame_id: Optional[int] = None,
        pe_fraction: Optional[float] = None,
        deadline_ms: Optional[float] = None,
        memory_fraction: Optional[float] = None,
    ) -> None:
        """Append one record, honouring the capacity limit (oldest dropped)."""
        if self.capacity is not None and len(self._records) == self.capacity:
            # The full deque discards its oldest record on append.
            self._dropped += 1
        self._records.append(
            TraceRecord(
                time_ms=time_ms,
                event=event,
                task_name=task_name,
                request_id=request_id,
                model_name=model_name,
                acc_id=acc_id,
                detail=detail,
                frame_id=frame_id,
                pe_fraction=pe_fraction,
                deadline_ms=deadline_ms,
                memory_fraction=memory_fraction,
            )
        )

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    @property
    def records(self) -> list[TraceRecord]:
        """All collected records, oldest first (newest kept under capacity)."""
        return list(self._records)

    @property
    def dropped_records(self) -> int:
        """Number of oldest records discarded due to the capacity limit."""
        return self._dropped

    @property
    def truncated(self) -> bool:
        """True if any record was discarded; the trace is then a suffix."""
        return self._dropped > 0

    def events(self, event: str) -> list[TraceRecord]:
        """All records of one event kind (``"dispatch"``, ``"drop"``...)."""
        return [record for record in self._records if record.event == event]

    def for_request(self, request_id: int) -> list[TraceRecord]:
        """All records touching one request."""
        return [record for record in self._records if record.request_id == request_id]
