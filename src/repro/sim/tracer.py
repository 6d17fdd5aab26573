"""Optional per-event tracing for debugging and fine-grained analysis.

The tracer records one :class:`TraceRecord` per interesting event (request
arrival, dispatch, completion, drop, expiry).  It is disabled by default —
long simulations generate many events — and enabled by passing
``tracer=Tracer()`` to the engine.  Tests and the trace-invariant oracle
(:mod:`repro.sim.invariants`) use it to assert detailed scheduling
invariants (e.g. a request never runs on two accelerators at once).
A tracer keeps every record, so the oracle always audits a complete event
stream.
"""

from __future__ import annotations

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

    def __init__(self) -> None:
        self._records: list[TraceRecord] = []

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
        """Append one record."""
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
        """All collected records, oldest first."""
        return list(self._records)

    def events(self, event: str) -> list[TraceRecord]:
        """All records of one event kind (``"dispatch"``, ``"drop"``...)."""
        return [record for record in self._records if record.event == event]
