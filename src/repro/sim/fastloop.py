"""The production event loop of ``SimulationEngine(mode="fast")``.

The engine's own heap loop (``mode="reference"``) is the executable spec:
one heap of ``(time, kind priority, tie key, kind, payload)`` entries, one
handler call per event and one full dispatch per event.  This module runs
the same simulation with the per-event overhead stripped out — heap tuple
churn, per-event attribute and property lookups, dispatch bookkeeping —
and produces **bit-for-bit identical** results, traces and event counts
under every resource model and fault plan; the parity sweeps in
``tests/test_engine_parity.py`` enforce it.

Design
------
* **Arrival slot arrays instead of heap entries.**  Streaming arrivals
  guarantee at most one pending arrival per head task, so arrivals live
  in preallocated parallel arrays (one integer-indexed slot per head
  task, ordered by task name): next-arrival time, frame payload,
  prefetched :class:`~repro.workloads.scenario.TaskSpec` and the lazy
  frame iterator.  The next arrival is the running minimum over a
  handful of floats — no tuple allocation, no heap sift — and it is
  recomputed only when a slot refills (completions cannot move it).
  Scanning in task-name order with a strict ``<`` reproduces the
  spec's ``(arrival_ms, task_name)`` tie-break exactly, because two
  arrivals of the *same* task never coexist.
* **Integer-coded completions on a slim heap.**  Completion events carry
  ``(end_ms, seq, (acc_id << 48) | slot_id)`` — a 3-tuple of scalars
  instead of the 5-tuple with string kind and payload tuple.  Retries of
  outage-aborted requests ride the same heap with code ``-1`` (the
  request is looked up by ``seq``), so completions and retries share one
  push-order sequence exactly like the spec's completion-class entries.
  The merge rule *arrival wins ties* reproduces
  ``_PRIO_ARRIVAL < _PRIO_COMPLETE``.
* **Fault edges from a sorted list.**  Every fault window is known before
  the run, so its begin/end edges are consumed in ``(time, phase,
  index)`` order and win ties against everything, like the spec's
  negative ``_PRIO_FAULT``.  Fault transitions, aborts and retries run the
  engine's own ``_handle_fault`` / ``_abort_in_flight`` /
  ``_handle_retry``, so fault logic exists once; a completion of an
  outage-killed slot is swallowed but still counts as an event and still
  runs a dispatch.
* **Inlined transitions.**  The arrival → dispatch → progress → finalize
  transitions, the wake-hint elision predicate (fully unrolled against
  hoisted hint fields and the pool's raw pending list) and the decision
  application (terminal state and capacity checks inlined) all live in
  one monomorphic ``run()`` with hot state in locals.  Every inlined
  capacity read is ``executor._capacity - executor._allocated``, the
  executor's own free fraction.  Scheduler lifecycle hooks that are not
  overridden (the base-class no-ops) are detected once and never called.
* **One live view.**  Every ``schedule()`` call receives the engine's one
  read-only :class:`~repro.sim.decisions.SystemView`; the loop only
  advances its clock, and the view reads the pool's memoized snapshots
  and the executors when the scheduler asks.
* **Coalescing is a count, not a drain.**  An event that follows an
  elided first-round dispatch at the same instant — nothing stale, and
  not itself a fault edge or a retry — is counted in
  ``events_coalesced``: the dispatch between the two was provably inert,
  so the instant ran one effective dispatch for both.

Cold paths (request finalization, cascade spawning, expiry, tracing,
faults) delegate to the engine's own methods so the statistics/trace
logic exists exactly once; the loop keeps ``engine._now`` synced so those
methods see the same clock they would under the spec.
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from typing import Any, Iterator, List, Optional

from repro.sim.request import InferenceRequest, RequestState
from repro.workloads.frames import head_arrival_plan, task_frame_stream

#: Completion payloads are packed into one int: ``(acc_id << 48) | slot_id``.
_ACC_SHIFT = 48
_SLOT_MASK = (1 << _ACC_SHIFT) - 1

#: Completion-heap code of a retry entry (completion codes are >= 0).
_RETRY = -1

_INF = float("inf")

#: Safety bound on scheduler invocations per event, to surface livelocks in
#: buggy scheduler implementations instead of hanging the simulation.
MAX_DISPATCH_ROUNDS = 64


class FastLoop:
    """One engine run through the production loop.

    The loop borrows the engine's live components (pool, executors, view,
    scheduler, RNG, stats) and owns only the event storage; counters are
    written back to the engine when the run drains, so
    ``SimulationResult.engine_counters`` report them as for any run.
    """

    def __init__(self, engine: Any) -> None:
        self.engine = engine
        self.scheduler: Any = engine.scheduler
        self.pool: Any = engine._pool
        self.executors: List[Any] = list(engine._executors)
        self.tracer: Any = engine.tracer
        self.rng: Any = engine._rng
        self.duration_ms: float = float(engine.duration_ms)
        self.expiry_enabled: bool = engine.expire_after_periods is not None
        # The pool's raw pending list: identity-stable for the pool's whole
        # life (mutated in place), so `bool(pending_values)` is the
        # has_pending predicate without a property call.
        self.pending_values: List[Any] = engine._pool._pending_values
        # True under the default pe_fraction resource model: admission stays
        # the historical inlined arithmetic.  Other models route through
        # executor.can_accept_assignment; all remaining capacity reads stay
        # valid because slots store their *charged* fraction.
        self.default_resources: bool = engine._default_resources

        # Wake-hint elision state (the scheduler is bound by engine.run()
        # before we are constructed); fields hoisted so the hot predicate
        # reads locals.
        hint: Any = engine.scheduler.wake_hint() if engine.dispatch_elision else None
        self.have_hint: bool = hint is not None
        self.hint_same_instant: bool = bool(hint.same_instant_only) if self.have_hint else False
        self.hint_elide_no_pending: bool = bool(hint.elide_when_no_pending) if self.have_hint else False
        min_free: Optional[float] = hint.min_free_fraction if self.have_hint else None
        self.hint_has_min_free: bool = min_free is not None
        self.hint_threshold: float = (min_free - 1e-9) if min_free is not None else 0.0

        # Lifecycle hooks left as the base-class no-ops are never called.
        from repro.schedulers.base import Scheduler

        cls = type(engine.scheduler)
        self.call_arrival_hook: bool = cls.on_request_arrival is not Scheduler.on_request_arrival
        self.call_layers_hook: bool = cls.on_layers_complete is not Scheduler.on_layers_complete

        # --- fault edges: (time_ms, phase, index), already in firing order ---
        self.fault_edges: List[Any] = engine._fault_edges()
        # Slot ids killed by an outage whose completions are still queued.
        self.cancelled: Any = engine._cancelled_slots
        # Retry entries' requests, keyed by their completion-heap seq.
        self.retries: dict[int, Any] = {}

        # --- arrival slots (struct of arrays, one slot per head task) ---
        # Ordered by task name: the spec's arrival tie-break at equal
        # times is (task_name, frame_id), and one task never holds two
        # pending arrivals, so a first-strict-minimum scan in name order
        # reproduces it exactly.
        plan = sorted(head_arrival_plan(engine.scenario), key=_plan_name)
        n = len(plan)
        self.n_slots: int = n
        self.slot_tasks: List[Any] = [entry[0] for entry in plan]
        self.slot_iters: List[Optional[Iterator[Any]]] = [None] * n
        self.slot_times: List[float] = [_INF] * n
        self.slot_frames: List[Any] = [None] * n
        self.slot_last: List[float] = [-_INF] * n
        # Pending events outside the completion heap (primed arrival slots
        # and unfired fault edges), for the spec's heap-occupancy count.
        self.queued: int = len(self.fault_edges)

        # --- completion heap: (end_ms, seq, (acc_id << 48) | slot_id) ---
        self.comp_heap: List[Any] = []

        # High-water mark of queued + completion-heap events (written back).
        self.peak_event_heap: int = 0

        for i in range(n):
            task = self.slot_tasks[i]
            self.slot_iters[i] = iter(
                task_frame_stream(
                    task,
                    offset_ms=float(plan[i][1]),
                    end_ms=self.duration_ms,
                    seed=engine.seed,
                    default_jitter_ms=engine.jitter_ms,
                )
            )
            self._refill_slot(i)
        if self.queued > self.peak_event_heap:
            self.peak_event_heap = self.queued

    # ------------------------------------------------------------------ #
    # arrival slots
    # ------------------------------------------------------------------ #
    def _refill_slot(self, index: int) -> None:
        """Pull one frame into slot ``index`` (mirrors _push_next_arrival)."""
        iterator = self.slot_iters[index]
        if iterator is None:
            return
        frame = next(iterator, None)
        if frame is None:
            self.slot_iters[index] = None
            self.slot_times[index] = _INF
            self.slot_frames[index] = None
            return
        arrival: float = frame.arrival_ms
        last: float = self.slot_last[index]
        if arrival < last:
            # Clamp out-of-order frames monotone, exactly like the engine.
            frame = replace(
                frame, arrival_ms=last, deadline_ms=max(frame.deadline_ms, last)
            )
            arrival = last
        self.slot_last[index] = arrival
        self.slot_times[index] = arrival
        self.slot_frames[index] = frame
        self.queued += 1
        occupancy = self.queued + len(self.comp_heap)
        if occupancy > self.peak_event_heap:
            self.peak_event_heap = occupancy

    def _best_arrival(self) -> int:
        """Index of the earliest arrival slot (-1 when none pending).

        First strict minimum in task-name order == the heap's
        ``(arrival_ms, task_name)`` ordering.
        """
        times = self.slot_times
        best = _INF
        best_i = -1
        for i in range(self.n_slots):
            t = times[i]
            if t < best:
                best = t
                best_i = i
        return best_i

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #
    def run(self) -> None:
        """Drain all events; mirrors the engine's reference heap loop."""
        engine = self.engine
        scheduler = self.scheduler
        view = engine._view
        pool = self.pool
        executors = self.executors
        tracer = self.tracer
        rng = self.rng
        comp_heap = self.comp_heap
        slot_times = self.slot_times
        slot_frames = self.slot_frames
        slot_tasks = self.slot_tasks
        pending_values = self.pending_values
        fault_edges = self.fault_edges
        n_edges = len(fault_edges)
        cancelled = self.cancelled
        retries = self.retries
        heappop = heapq.heappop
        heappush = heapq.heappush
        expiry_enabled = self.expiry_enabled
        have_hint = self.have_hint
        hint_same_instant = self.hint_same_instant
        hint_elide_no_pending = self.hint_elide_no_pending
        hint_has_min_free = self.hint_has_min_free
        hint_threshold = self.hint_threshold
        pending_state = RequestState.PENDING
        completed_state = RequestState.COMPLETED
        default_resources = self.default_resources

        events_processed = 0
        events_coalesced = 0
        dispatches_elided = 0
        dispatch_rounds = 0
        comp_seq = 0
        # Same-instant elision state (gates same_instant_only hints).
        last_schedule_ms = -_INF
        last_schedule_membership = -1

        next_edge = 0
        fault_at = fault_edges[0][0] if n_edges else _INF
        # Cached earliest arrival; only a slot refill can change it, so it
        # is recomputed after arrival pops and never after completions.
        best_i = self._best_arrival()
        best_at = slot_times[best_i] if best_i >= 0 else _INF

        while True:
            comp_at = comp_heap[0][0] if comp_heap else _INF
            if fault_at <= best_at and fault_at <= comp_at:
                # Fault edges win ties: _PRIO_FAULT < _PRIO_ARRIVAL.
                if fault_at == _INF:
                    break
                now = fault_at
                engine._now = now
                events_processed += 1
                _t, phase, index = fault_edges[next_edge]
                next_edge += 1
                fault_at = fault_edges[next_edge][0] if next_edge < n_edges else _INF
                self.queued -= 1
                for retry_at, request in engine._handle_fault(phase, index):
                    heappush(comp_heap, (retry_at, comp_seq, _RETRY))
                    retries[comp_seq] = request
                    comp_seq += 1
                occupancy = self.queued + len(comp_heap)
                if occupancy > self.peak_event_heap:
                    self.peak_event_heap = occupancy
                # Capacity moved without a slot change: let no same-instant
                # hint elide the next consultation.
                last_schedule_membership = -1
            elif best_at <= comp_at:
                # Arrival wins ties: _PRIO_ARRIVAL < _PRIO_COMPLETE.
                now = best_at
                engine._now = now
                events_processed += 1
                frame = slot_frames[best_i]
                slot_times[best_i] = _INF
                slot_frames[best_i] = None
                self.queued -= 1
                self._refill_slot(best_i)
                task = slot_tasks[best_i]
                best_i = self._best_arrival()
                best_at = slot_times[best_i] if best_i >= 0 else _INF
                request = InferenceRequest(
                    task_name=task.name,
                    model=task.default_model,
                    frame_id=frame.frame_id,
                    arrival_ms=frame.arrival_ms,
                    deadline_ms=frame.deadline_ms,
                    rng=rng,
                )
                pool.add(request)
                if tracer is not None:
                    engine._trace(request, "arrival")
                if self.call_arrival_hook:
                    scheduler.on_request_arrival(request, now)
            else:
                entry = heappop(comp_heap)
                now = entry[0]
                engine._now = now
                events_processed += 1
                code: int = entry[2]
                if code == _RETRY:
                    engine._handle_retry(retries.pop(entry[1]))
                elif cancelled and (code & _SLOT_MASK) in cancelled:
                    # The slot was killed by an outage after its completion
                    # was queued: swallow it (still an event, still a
                    # dispatch, exactly like the spec).
                    cancelled.discard(code & _SLOT_MASK)
                else:
                    executor = executors[code >> _ACC_SHIFT]
                    slot = executor.complete(code & _SLOT_MASK, now)
                    request = slot.request
                    if tracer is not None:
                        engine._trace(
                            request, "layers_complete", acc_id=code >> _ACC_SHIFT,
                            detail=f"{len(slot.layer_indices)} layers",
                        )
                    if request.state is completed_state:
                        if tracer is not None:
                            engine._trace(request, "complete", acc_id=code >> _ACC_SHIFT)
                        engine._finalize_request(request)
                        engine._spawn_cascades(request)
                    else:
                        pool.note_progress(request)
                        if self.call_layers_hook:
                            scheduler.on_layers_complete(request, now)

            # ---------------- dispatch (the spec's _dispatch) ----------------
            stale = expiry_enabled and pool.has_stale(now)
            if stale:
                engine._expire_stale(now)
            rounds = 0
            while True:
                # The round cap is checked before the elision predicate so a
                # 65th scheduling point raises exactly like the spec's
                # exhausted ``for`` loop would.
                if rounds >= MAX_DISPATCH_ROUNDS:
                    raise RuntimeError(
                        f"scheduler {type(scheduler).__name__} did not converge "
                        f"after {MAX_DISPATCH_ROUNDS} dispatch rounds at "
                        f"t={now:.3f} ms"
                    )
                if have_hint:
                    # --- does the wake hint prove schedule() inert? ---
                    if hint_same_instant and (
                        last_schedule_ms != now
                        or last_schedule_membership != pool._depth_version
                    ):
                        eligible = False
                    elif not pending_values:
                        eligible = hint_elide_no_pending
                    elif not hint_has_min_free:
                        eligible = False
                    else:
                        eligible = True
                        for executor in executors:
                            free = executor._capacity - executor._allocated
                            if free < 0.0:
                                free = 0.0
                            if free >= hint_threshold:
                                eligible = False
                                break
                    if eligible:
                        dispatches_elided += 1
                        if (
                            rounds == 0
                            and not stale
                            and fault_at != now
                            and (
                                best_at == now
                                or (
                                    comp_heap
                                    and comp_heap[0][0] == now
                                    and comp_heap[0][2] != _RETRY
                                )
                            )
                        ):
                            events_coalesced += 1
                        break
                rounds += 1
                dispatch_rounds += 1
                view._now_ms = now
                decision = scheduler.schedule(view)
                if have_hint:
                    # Captured before the decision is applied, so drops and
                    # finalizations bump the membership version past this
                    # snapshot and correctly re-arm the next round.
                    last_schedule_ms = now
                    last_schedule_membership = pool._depth_version
                assignments = decision.assignments
                drops = decision.drops
                if not assignments and not drops:
                    break
                # ------------- apply decision (inlined) -------------
                applied = 0
                for request in drops:
                    # Skip unless PENDING == the spec's "finished or
                    # RUNNING" guard (the state space has no other values).
                    if request.state is not pending_state:
                        continue
                    request.mark_dropped(now)
                    if tracer is not None:
                        engine._trace(request, "dropped")
                    engine._finalize_request(request)
                    applied += 1
                for assignment in assignments:
                    request = assignment.request
                    if request.state is not pending_state:
                        continue
                    executor = executors[assignment.acc_id]
                    if default_resources:
                        # Inlined executor.can_accept(pe_fraction).
                        free = executor._capacity - executor._allocated
                        if free < 0.0:
                            free = 0.0
                        if assignment.pe_fraction > free + 1e-9:
                            continue
                    elif not executor.can_accept_assignment(assignment):
                        continue
                    if assignment.switch_to_variant is not None and not request.started:
                        old_name = request.model_name
                        request.switch_variant(assignment.switch_to_variant)
                        if request.model_name != old_name and tracer is not None:
                            engine._trace(
                                request, "variant_switch",
                                detail=f"{old_name} -> {request.model_name}",
                            )
                    record = executor.start(assignment, now)
                    pool.note_dispatched(request)
                    if tracer is not None:
                        engine._trace_dispatch(assignment, record)
                    heappush(
                        comp_heap,
                        (
                            record.slot.end_ms,
                            comp_seq,
                            (assignment.acc_id << _ACC_SHIFT) | record.slot.slot_id,
                        ),
                    )
                    comp_seq += 1
                    occupancy = self.queued + len(comp_heap)
                    if occupancy > self.peak_event_heap:
                        self.peak_event_heap = occupancy
                    applied += 1
                if applied == 0:
                    break

        engine.events_processed += events_processed
        engine.dispatch_rounds += dispatch_rounds
        engine.dispatches_elided += dispatches_elided
        engine.events_coalesced += events_coalesced
        engine.peak_event_heap = max(engine.peak_event_heap, self.peak_event_heap)


def _plan_name(entry: Any) -> str:
    """Sort key for the arrival plan."""
    return entry[0].name
