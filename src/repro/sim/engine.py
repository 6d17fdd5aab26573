"""The discrete-event simulation engine.

The engine owns the event loop: frame arrivals become inference requests,
a pluggable scheduler decides which layers run where, accelerator
executors model execution and context-switch costs, and cascaded requests
are spawned when control dependencies fire.  The scheduler is consulted at
every state change (request arrival, layer completion), mirroring the
paper's description that scheduling decisions are made "each time a new
scheduling decision needs to be made in the job assignment and dispatch
engine".

Streaming arrivals
------------------
Frames are *streamed*, not materialized: each head task owns a lazy
:class:`~repro.workloads.traffic.ArrivalProcess` iterator (periodic +
uniform jitter unless the :class:`~repro.workloads.scenario.TaskSpec`
selects another traffic model) and the event heap holds at most ONE
pending arrival per head task at any time — popping a task's arrival pulls
the next frame from its iterator.  Heap occupancy is therefore O(head
tasks + in-flight executor slots) instead of O(duration x fps), which is
what makes hour-long, million-frame windows feasible
(:attr:`peak_event_heap` records the high-water mark).  Event ordering is
identical to the historical materialize-everything path: heap entries are
keyed ``(time, kind priority, tie key)`` where arrivals precede
completions at equal times (arrivals used to be pushed first and ties
break on push order) and simultaneous arrivals order by task name (the
materialized path sorted frames by ``(arrival_ms, task_name)``), so
results are bit-for-bit unchanged.

Measurement policy
------------------
The engine has one policy and no option to change it; the glossary
(``docs/glossary.md``: "measured frame", "expiry", "sensor jitter")
states it.  A request is measured iff its deadline falls inside the
window (:meth:`SimulationEngine._is_measured`); a never-started request
expires one task period after its deadline and is stamped at that
instant (:meth:`SimulationEngine._expire_stale`); and head-task frames
get :data:`~repro.workloads.frames.SENSOR_JITTER_MS` of uniform jitter
unless their traffic model sets its own.

Schedulers must implement the small protocol documented in
:class:`repro.schedulers.base.Scheduler`; the engine only relies on the
methods ``bind``, ``schedule``, ``on_request_finished``, ``wake_hint`` and
``info``, and on the ``name`` attribute.

Performance architecture
------------------------
Because the scheduler runs at every state change, the event loop and what
``schedule()`` reads through its :class:`~repro.sim.decisions.SystemView`
*are* the simulation hot path.  The engine has one event heap of
``(time, kind priority, tie key, kind, payload)`` entries and one loop,
:meth:`SimulationEngine._run_loop`, that pops it: one handler call and one
:meth:`SimulationEngine._dispatch` per event, except that the fault edges
of one instant are applied together before a single dispatch.  The two
modes share that loop, every handler and every cold path (arrivals,
finalization, cascades, expiry, tracing, fault transitions, aborts and
retries), so that logic exists once, and they produce bit-for-bit
identical results, traces and event counts.  They differ only in the components the loop runs over and
in wake-hint elision, which only ``mode="fast"`` (the default) turns on.

Each run builds one read-only :class:`~repro.sim.decisions.SystemView`
over the live pool and executors, and advances its clock before every
``schedule()`` call; nothing is snapshotted per scheduling point.  In
fast mode everything the view reads is kept incrementally up to date
instead of re-derived per read:

* the :class:`~repro.sim.queues.RequestPool` maintains a sorted pending
  index, per-task counts and a deadline min-heap (the loop notifies it
  on dispatch/progress via ``note_dispatched``/``note_progress``), and
  memoizes the pending, running and depth snapshots on version counters,
  so a snapshot is built only when a scheduler reads it after a change;
* executors answer capacity queries from a running allocation sum;
* cost queries hit the :class:`~repro.hardware.cost_table.CostTable`'s
  precomputed flat arrays.

On top of the cheap-per-call layer, fast mode cuts the *number* of
scheduler consultations with **dispatch elision**: schedulers are
deterministic functions of the system view, so when a scheduler's
declared :class:`~repro.schedulers.base.WakeHint` proves that
``schedule()`` would return an empty decision and touch no
decision-relevant state (e.g. nothing is pending, or work is pending but
every accelerator is saturated below the scheduler's declared capacity
threshold), the call is skipped and counted in :attr:`dispatches_elided`.
The predicates are re-derived from live pool/executor state at every
scheduling point: an accelerator's free fraction only moves through
dispatch, completion and fault transitions (never through the mere
passage of time), so a capacity-freeing event can never be missed.  An
elided first-round dispatch with nothing stale counts as *coalesced*
(:attr:`events_coalesced`) when the heap's next event is an arrival or a
completion at the same instant: the instant ran one effective dispatch
for both.  ``dispatch_elision=False`` turns elision off for differential
testing.

``mode="reference"`` also retains the pre-optimization components
(scan-based pool, per-call executor aggregation, a scan-based
:class:`~repro.hardware.cost_table.ReferenceCostTable`), so every read
through its view re-derives the value with a full scan, and the exact
per-event dispatch sequence (no elision); the parity tests enforce that
both modes agree.  The engine counts :attr:`events_processed` and
:attr:`dispatch_rounds` (actual ``schedule()`` invocations) so throughput
and scheduler load can be reported per cell.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import replace
from typing import Iterator, Optional, Sequence, TYPE_CHECKING

from repro.hardware.cost_table import CostTable
from repro.hardware.platform import Platform
from repro.metrics.quantiles import StreamingQuantiles
from repro.sim.decisions import SchedulingDecision, SystemView
from repro.sim.executor import AcceleratorExecutor
from repro.sim.faults import FaultSpec
from repro.sim.queues import ReferenceRequestPool, RequestPool
from repro.sim.request import InferenceRequest, RequestState
from repro.sim.resource_models import RESOURCE_MODEL_NAMES, make_resource_model
from repro.sim.results import AcceleratorStats, SimulationResult, TaskStats
from repro.sim.tracer import Tracer
from repro.workloads.frames import head_arrival_plan, task_frame_stream
from repro.workloads.scenario import Scenario
from repro.workloads.traffic import Frame

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schedulers.base import Scheduler, WakeHint

#: Safety bound on scheduler invocations per event, to surface livelocks in
#: buggy scheduler implementations instead of hanging the simulation.
MAX_DISPATCH_ROUNDS = 64

_EVENT_ARRIVAL = "arrival"
_EVENT_COMPLETE = "complete"
_EVENT_FAULT = "fault"
_EVENT_RETRY = "retry"

#: Heap-entry kind priorities.  At equal times arrivals must precede
#: completions: the materialized path pushed every arrival before the run
#: started, so arrivals always carried smaller tie-break sequence numbers.
#: Fault transitions take a *negative* priority — capacity changes apply
#: before anything else at the same instant — so declaring no faults
#: leaves every historical heap entry, and therefore every historical
#: ordering, untouched.
_PRIO_FAULT = -1
_PRIO_ARRIVAL = 0
_PRIO_COMPLETE = 1

#: Trace names of the two fault-edge phases (recoveries sort first).
_FAULT_PHASES = ("end", "begin")

#: Engine implementations selectable via ``SimulationEngine(mode=...)``.
ENGINE_MODES = ("fast", "reference")

#: Times an outage-aborted request is re-queued before it is terminally
#: accounted as ``failed``.
RETRY_BUDGET = 2

#: Base of the exponential re-arrival backoff: the n-th retry re-queues
#: ``RETRY_BACKOFF_MS * 2**(n-1)`` ms after the abort (no jitter).
RETRY_BACKOFF_MS = 5.0


class SimulationEngine:
    """Simulates one scenario on one platform under one scheduler.

    Args:
        scenario: the RTMM workload scenario.
        platform: the multi-accelerator hardware platform.
        scheduler: a scheduler implementing the protocol of
            :class:`repro.schedulers.base.Scheduler`.
        duration_ms: length of the simulated window.
        seed: seed for all stochastic elements (dynamic paths, cascade
            triggering, arrival jitter).
        cost_table: optional pre-built cost table (rebuilt otherwise); pass
            one in when running many simulations of the same scenario and
            platform to avoid recomputation.
        tracer: optional :class:`~repro.sim.tracer.Tracer` for per-event records.
        mode: ``"fast"`` (default) runs the event loop over the
            incremental components, with dispatch elision; ``"reference"``
            runs it over the pre-optimization scan-based components and
            consults the scheduler at every event.  Results, traces and
            event counts are bit-for-bit identical across modes.
        dispatch_elision: honour scheduler :class:`~repro.schedulers.base
            .WakeHint`\\ s to skip provably-inert ``schedule()`` calls (fast
            mode only; the reference mode always keeps the exact per-event
            dispatch path).  Results are bit-for-bit identical either way —
            the switch exists so the elision machinery itself is
            differentially testable.
        resource_model: execution-resource model defining what accelerator
            capacity means (:mod:`repro.sim.resource_models`).
            ``"pe_fraction"`` (default) is the paper's spatial-sharing
            model and keeps the executors' inlined historical arithmetic —
            bit-for-bit identical to builds without the axis.
            ``"kv_batch"`` runs the continuous-batching executor with a
            shared KV memory budget; available in every mode
            (the non-default admission/pricing path is a single shared code
            path, so cross-mode parity holds there too).
        faults: the fault plan (:mod:`repro.sim.faults`), a sequence of
            :class:`~repro.sim.faults.FaultSpec`; available in every mode
            and resource model.
            With no faults declared the engine is bit-for-bit identical to
            builds without the axis.  An aborted request is retried up to
            :data:`RETRY_BUDGET` times, :data:`RETRY_BACKOFF_MS` apart
            with exponential backoff.
    """

    def __init__(
        self,
        scenario: Scenario,
        platform: Platform,
        scheduler: "Scheduler",
        duration_ms: float = 2000.0,
        seed: int = 0,
        cost_table: Optional[CostTable] = None,
        tracer: Optional[Tracer] = None,
        mode: str = "fast",
        dispatch_elision: bool = True,
        resource_model: str = "pe_fraction",
        faults: Sequence[FaultSpec] = (),
    ) -> None:
        if duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if mode not in ENGINE_MODES:
            raise ValueError(
                f"unknown mode {mode!r}; available: {', '.join(sorted(ENGINE_MODES))}"
            )
        if resource_model not in RESOURCE_MODEL_NAMES:
            known = ", ".join(sorted(RESOURCE_MODEL_NAMES))
            raise ValueError(
                f"unknown resource model {resource_model!r}; available: {known}"
            )
        self.faults = tuple(faults)
        self.resource_model = resource_model
        self.scenario = scenario
        self.platform = platform
        self.scheduler = scheduler
        self.duration_ms = duration_ms
        self.seed = seed
        self.tracer = tracer
        self.mode = mode
        fast = mode == "fast"
        self.dispatch_elision = dispatch_elision and fast
        #: The bound scheduler's wake hint while elision is on, else None.
        self._hint: Optional["WakeHint"] = None
        #: ``(time, pool membership version)`` of the last ``schedule()``
        #: call, which gates ``same_instant_only`` hints.
        self._last_schedule: Optional[tuple[float, int]] = None
        cost_table = cost_table or CostTable.build(platform, scenario.all_model_graphs())
        self.cost_table = cost_table if fast else cost_table.reference_view()

        self._rng = random.Random(seed)
        # One shared model instance per engine (None on the default path,
        # so executors and the dispatch trace branch on a single flag).
        model = make_resource_model(resource_model, scenario)
        self._default_resources = model is None
        self._executors = [
            AcceleratorExecutor(acc, self.cost_table, fast=fast, resource_model=model)
            for acc in platform
        ]
        for spec in self.faults:
            if spec.acc_id is not None and spec.acc_id >= len(self._executors):
                raise ValueError(
                    f"fault targets acc_id {spec.acc_id}, but platform "
                    f"{platform.name!r} has only {len(self._executors)} accelerators"
                )
        #: Indices into ``self.faults`` whose windows are currently open.
        self._active_faults: set[int] = set()
        #: Slot ids killed by an outage whose completion events are still in
        #: the heap; their completions are swallowed lazily (always empty in
        #: fault-free runs, so the completion hot path pays one falsy check).
        self._cancelled_slots: set[int] = set()
        #: A never-started request expires one task period after its deadline.
        self._grace_ms_by_task = {task.name: task.period_ms for task in scenario.tasks}
        pool_class = RequestPool if fast else ReferenceRequestPool
        self._pool = pool_class(self._grace_ms_by_task)
        #: The one view every ``schedule()`` call of the run receives.
        self._view = SystemView(scenario.task_names, self._pool, self._executors)
        self._stats: dict[str, TaskStats] = {
            task.name: TaskStats(task_name=task.name) for task in scenario.tasks
        }
        # Event heap entries: (time_ms, kind priority, tie key, kind,
        # payload) where the tie key is (task_name, frame_id) for arrivals,
        # (phase, index) for fault edges and a monotone sequence number for
        # completion-class events (completions and retries).
        self._events: list[tuple[float, int, object, str, object]] = []
        self._event_seq = itertools.count()
        self._now = 0.0
        # Streaming arrival state: one lazy frame iterator per head task,
        # at most one pending arrival event each (O(tasks) heap occupancy).
        self._arrival_iters: dict[str, Iterator[Frame]] = {}
        self._tasks_by_name = {task.name: task for task in scenario.tasks}
        self._last_arrival_ms: dict[str, float] = {}
        self._latency_quantiles = {
            task.name: StreamingQuantiles() for task in scenario.tasks
        }

        #: Events processed (arrivals, completions, fault edges, retries).
        self.events_processed: int = 0
        #: Actual ``schedule()`` invocations (dispatch rounds that ran).
        self.dispatch_rounds: int = 0
        #: Dispatch rounds skipped because a wake hint proved them inert.
        self.dispatches_elided: int = 0
        #: Same-timestamp events drained without an intermediate dispatch.
        self.events_coalesced: int = 0
        #: High-water mark of the event heap — O(head tasks + in-flight
        #: slots) under streaming arrivals, never O(total frames).
        self.peak_event_heap: int = 0
        #: In-flight requests killed by platform outages.
        self.requests_aborted: int = 0
        #: Aborted requests re-queued after exponential backoff.
        self.requests_retried: int = 0
        #: Aborted requests terminally failed (retry budget exhausted).
        self.requests_failed: int = 0

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(self) -> SimulationResult:
        """Run the simulation to completion and return the measured result."""
        self.scheduler.bind(self.platform, self.cost_table, self.scenario)
        if self.dispatch_elision:
            self._hint = self.scheduler.wake_hint()
        self._run_loop()
        self._finalize_leftovers()
        return self._build_result()

    def _run_loop(self) -> None:
        """Pop one event, handle it, dispatch; until the heap drains."""
        self._start_arrival_streams()
        self._arm_faults()
        handlers = {
            _EVENT_ARRIVAL: self._handle_arrival,
            _EVENT_COMPLETE: self._handle_completion,
            _EVENT_FAULT: self._handle_fault,
            _EVENT_RETRY: self._handle_retry,
        }
        events = self._events
        heappop = heapq.heappop
        dispatch = self._dispatch
        while events:
            time_ms, _prio, _key, kind, payload = heappop(events)
            self._now = time_ms
            self.events_processed += 1
            handlers[kind](payload)
            dispatch(time_ms)

    # ------------------------------------------------------------------ #
    # event handling
    # ------------------------------------------------------------------ #
    def _heap_push(self, entry: tuple[float, int, object, str, object]) -> None:
        heapq.heappush(self._events, entry)
        if len(self._events) > self.peak_event_heap:
            self.peak_event_heap = len(self._events)

    def _push_event(self, time_ms: float, kind: str, payload: object) -> None:
        """Push a completion-class event (tie-broken by push order)."""
        self._heap_push((time_ms, _PRIO_COMPLETE, next(self._event_seq), kind, payload))

    def _start_arrival_streams(self) -> None:
        """Create each head task's lazy frame iterator and prime one frame."""
        for task, offset_ms in head_arrival_plan(self.scenario):
            self._arrival_iters[task.name] = iter(
                task_frame_stream(
                    task,
                    offset_ms=offset_ms,
                    end_ms=self.duration_ms,
                    seed=self.seed,
                )
            )
            self._push_next_arrival(task.name)

    def _push_next_arrival(self, task_name: str) -> None:
        """Pull one frame from a task's arrival stream onto the event heap.

        Arrival entries are keyed ``(time, _PRIO_ARRIVAL, (task, frame))``
        so simultaneous arrivals order by task name regardless of push
        order — exactly the materialized path's ``(arrival_ms, task_name)``
        sort.  Arrival times must be non-decreasing per task (every bundled
        :class:`~repro.workloads.traffic.ArrivalProcess` guarantees it for
        sane jitter settings); an out-of-order frame is clamped to the
        previous arrival so simulated time never runs backwards.
        """
        iterator = self._arrival_iters.get(task_name)
        if iterator is None:
            return
        frame = next(iterator, None)
        if frame is None:
            del self._arrival_iters[task_name]
            return
        last = self._last_arrival_ms.get(task_name)
        if last is not None and frame.arrival_ms < last:
            frame = replace(
                frame, arrival_ms=last, deadline_ms=max(frame.deadline_ms, last)
            )
        self._last_arrival_ms[task_name] = frame.arrival_ms
        self._heap_push(
            (
                frame.arrival_ms,
                _PRIO_ARRIVAL,
                (frame.task_name, frame.frame_id),
                _EVENT_ARRIVAL,
                frame,
            )
        )

    def _handle_arrival(self, frame) -> None:
        self._push_next_arrival(frame.task_name)
        task = self._tasks_by_name[frame.task_name]
        request = InferenceRequest(
            task_name=task.name,
            model=task.default_model,
            frame_id=frame.frame_id,
            arrival_ms=frame.arrival_ms,
            deadline_ms=frame.deadline_ms,
            rng=self._rng,
        )
        self._pool.add(request)
        if self.tracer is not None:
            self._trace(request, "arrival")

    def _handle_completion(self, payload) -> None:
        acc_id, slot_id = payload
        if self._cancelled_slots and slot_id in self._cancelled_slots:
            # The slot was killed by a platform outage after its completion
            # event was already in the heap; swallow the stale event.
            self._cancelled_slots.discard(slot_id)
            return
        executor = self._executors[acc_id]
        slot = executor.complete(slot_id, self._now)
        request = slot.request
        if self.tracer is not None:
            self._trace(
                request, "layers_complete", acc_id=acc_id,
                detail=f"{len(slot.layer_indices)} layers",
            )
        if request.state is RequestState.COMPLETED:
            if self.tracer is not None:
                self._trace(request, "complete", acc_id=acc_id)
            self._finalize_request(request)
            self._spawn_cascades(request)
        else:
            self._pool.note_progress(request)

    # ------------------------------------------------------------------ #
    # fault injection
    # ------------------------------------------------------------------ #
    def _arm_faults(self) -> None:
        """Push both edges of every fault window onto the event heap.

        Edges are keyed ``(time, _PRIO_FAULT, (phase, index))``: they fire
        before arrivals and completions at the same instant, and phase 0
        (the recovery, window end) fires before phase 1 (the activation),
        so a back-to-back outage hands capacity back before the next window
        opens and ties stay deterministic.
        """
        for index, spec in enumerate(self.faults):
            for time_ms, phase in ((spec.start_ms, 1), (spec.end_ms, 0)):
                self._heap_push(
                    (time_ms, _PRIO_FAULT, (phase, index), _EVENT_FAULT, (phase, index))
                )

    def _handle_fault(self, edge: tuple[int, int]) -> None:
        """Fire ``edge`` and every further fault edge of the same instant.

        The loop's one ``_dispatch`` then sees the instant's final fault
        state, so no scheduler consultation falls into the zero-length gap
        between back-to-back windows or between two recoveries.  Fault
        edges sort before every other event of their instant, so they are
        the heap's next entries.
        """
        events = self._events
        self._fire_fault_edge(edge)
        while events and events[0][0] == self._now and events[0][1] == _PRIO_FAULT:
            self.events_processed += 1
            self._fire_fault_edge(heapq.heappop(events)[4])

    def _fire_fault_edge(self, edge: tuple[int, int]) -> None:
        """Fire one fault edge (an outage's begin also aborts in-flight work)."""
        phase, index = edge
        spec = self.faults[index]
        if phase:
            self._active_faults.add(index)
        else:
            self._active_faults.discard(index)
        if self.tracer is not None:
            self.tracer.record(
                time_ms=self._now,
                event=f"fault_{_FAULT_PHASES[phase]}",
                task_name="__fault__",
                request_id=-(index + 1),
                model_name=spec.kind,
                acc_id=spec.acc_id,
                detail=f"magnitude={spec.magnitude:g}",
            )
        self._refresh_fault_state()
        # Capacity moved without a membership change: let no same-instant
        # wake hint elide the next consultation.
        self._last_schedule = None
        if phase and spec.kind == "platform_outage":
            self._abort_in_flight()

    def _refresh_fault_state(self) -> None:
        """Recompute every executor's capacity/latency from the open windows.

        Concurrent degrades compose by ``min`` (most degraded wins),
        stalls by ``max`` (slowest wins), and any open outage zeroes the
        whole platform.  The views and the elision predicate read the
        executors live, so they see the new free fractions at once.
        """
        active = [self.faults[i] for i in sorted(self._active_faults)]
        outage = any(spec.kind == "platform_outage" for spec in active)
        for executor in self._executors:
            capacity = 1.0
            factor = 1.0
            for spec in active:
                if spec.acc_id != executor.acc_id:
                    continue
                if spec.kind == "accel_degrade":
                    capacity = min(capacity, spec.magnitude)
                elif spec.kind == "transient_stall":
                    factor = max(factor, spec.magnitude)
            if outage:
                capacity = 0.0
            executor.set_capacity(capacity)
            executor.set_latency_factor(factor)

    def _abort_in_flight(self) -> None:
        """Kill every in-flight slot (outage begin) and re-queue or fail.

        Each aborted request is either re-queued with exponential backoff
        (``RETRY_BACKOFF_MS * 2**(retries-1)``) while :data:`RETRY_BUDGET`
        lasts, or terminally accounted as ``failed`` — exactly one
        of the two, which the ``fault_conservation`` oracle audits.  Each
        retry is a completion-class event, pushed in abort order.
        """
        now = self._now
        for executor in self._executors:
            aborted = executor.abort_all(now)
            if not aborted:
                continue
            for slot in aborted:
                self._cancelled_slots.add(slot.slot_id)
                request = slot.request
                request.mark_aborted(now)
                self.requests_aborted += 1
                self._stats[request.task_name].aborts += 1
                if self.tracer is not None:
                    self._trace(
                        request, "abort", acc_id=executor.acc_id,
                        detail=f"outage killed {len(slot.layer_indices)} layers",
                    )
                # The request leaves the pool until its retry re-arrival;
                # the finished hook lets schedulers evict cached state.
                self._pool.remove(request)
                self.scheduler.on_request_finished(request)
                if request.retries <= RETRY_BUDGET:
                    backoff = RETRY_BACKOFF_MS * (2.0 ** (request.retries - 1))
                    self._push_event(now + backoff, _EVENT_RETRY, request)
                else:
                    request.mark_failed(now)
                    self.requests_failed += 1
                    if self.tracer is not None:
                        self._trace(request, "failed", detail="retry budget exhausted")
                    self._accumulate_stats(request)

    def _handle_retry(self, request: InferenceRequest) -> None:
        """Re-queue an aborted request after its backoff elapsed."""
        if request.is_finished:  # pragma: no cover - defensive
            return
        self._pool.add(request)
        self.requests_retried += 1
        self._stats[request.task_name].retries += 1
        if self.tracer is not None:
            self._trace(request, "retry", detail=f"attempt {request.retries}")

    def _spawn_cascades(self, parent: InferenceRequest) -> None:
        """Spawn each child task whose trigger fires on ``parent``'s completion.

        A cascade's budget is anchored to the originating sensor frame.  A
        multi-turn interaction starts the instant the upstream request
        completes, as a fresh frame due one period from now.
        """
        now = self._now
        for child in self.scenario.children_of(parent.task_name):
            if self._rng.random() >= child.trigger_probability:
                continue
            frame_arrival_ms = now if child.interaction else parent.frame_arrival_ms
            request = InferenceRequest(
                task_name=child.name,
                model=child.default_model,
                frame_id=parent.frame_id,
                arrival_ms=now,
                deadline_ms=max(frame_arrival_ms + child.period_ms, now),
                frame_arrival_ms=frame_arrival_ms,
                rng=self._rng,
            )
            self._pool.add(request)
            if self.tracer is not None:
                if child.interaction:
                    self._trace(
                        request, "interaction_arrival",
                        detail=f"turn after {parent.task_name}",
                    )
                else:
                    self._trace(request, "cascade_arrival", detail=f"from {parent.task_name}")

    # ------------------------------------------------------------------ #
    # dispatching
    # ------------------------------------------------------------------ #
    def _dispatch(self, now: float) -> None:
        """Expire, then consult the scheduler until it has nothing to apply.

        With a wake hint (fast mode, elision on), a round the hint proves
        inert is skipped and counted in ``dispatches_elided`` instead.  An
        elided first round with nothing stale also counts in
        ``events_coalesced`` if and only if the heap's next event is an
        arrival or a completion at the same instant: the instant runs one
        effective dispatch for both.
        """
        stale = self._expire_stale(now)
        hint = self._hint
        view = self._view
        for rounds in range(MAX_DISPATCH_ROUNDS):
            if hint is not None and self._is_inert(hint, now):
                self.dispatches_elided += 1
                events = self._events
                if (
                    rounds == 0
                    and not stale
                    and events
                    and events[0][0] == now
                    and events[0][3] in (_EVENT_ARRIVAL, _EVENT_COMPLETE)
                ):
                    self.events_coalesced += 1
                return
            self.dispatch_rounds += 1
            view._now_ms = now
            decision = self.scheduler.schedule(view)
            if hint is not None:
                # Captured before the decision is applied, so drops and
                # finalizations bump the membership version past it.
                self._last_schedule = (now, self._pool.membership_version)
            if decision.is_empty or self._apply_decision(decision, now) == 0:
                return
        raise RuntimeError(
            f"scheduler {type(self.scheduler).__name__} did not converge after "
            f"{MAX_DISPATCH_ROUNDS} dispatch rounds at t={now:.3f} ms"
        )

    def _is_inert(self, hint: "WakeHint", now: float) -> bool:
        """Whether ``hint`` proves a ``schedule()`` call at ``now`` inert.

        Re-derived from the live pool and executors at every scheduling
        point: a free fraction only moves through dispatch, completion and
        fault transitions, never through the passage of time.
        """
        if hint.same_instant_only and self._last_schedule != (now, self._pool.membership_version):
            return False
        if self._pool._pending_values:
            threshold = hint.min_free_fraction - 1e-9
            for executor in self._executors:
                if executor.free_fraction >= threshold:
                    return False
        return True

    def _expire_stale(self, now: float) -> bool:
        """Expire every stale request; return whether there was any."""
        stale = self._pool.collect_stale(now)
        for request in stale:
            # Expiry is only *detected* at event times, but the request
            # became useless at deadline + grace — stamp that true instant
            # (min() guards the degenerate grace-crosses-now case) rather
            # than whatever event happened to run next.  The trace record
            # keeps the detection time so trace time stays monotonic.
            grace_ms = self._grace_ms_by_task[request.task_name]
            request.mark_expired(min(now, request.deadline_ms + grace_ms))
            self._trace(request, "expired")
            self._finalize_request(request)
        return bool(stale)

    def _apply_decision(self, decision: SchedulingDecision, now: float) -> int:
        applied = 0
        for request in decision.drops:
            # Only a PENDING request can go: the rest run or have finished.
            if request.state is not RequestState.PENDING:
                continue
            request.mark_dropped(now)
            self._trace(request, "dropped")
            self._finalize_request(request)
            applied += 1
        for assignment in decision.assignments:
            request = assignment.request
            if request.state is not RequestState.PENDING:
                continue
            executor = self._executors[assignment.acc_id]
            if not executor.can_accept_assignment(assignment):
                continue
            if assignment.switch_to_variant is not None and not request.started:
                old_name = request.model_name
                request.switch_variant(assignment.switch_to_variant)
                if request.model_name != old_name:
                    self._trace(request, "variant_switch", detail=f"{old_name} -> {request.model_name}")
            record = executor.start(assignment, now)
            self._pool.note_dispatched(request)
            if self.tracer is not None:
                self._trace_dispatch(assignment, record)
            self._push_event(record.slot.end_ms, _EVENT_COMPLETE, (assignment.acc_id, record.slot.slot_id))
            applied += 1
        return applied

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def _is_measured(self, request: InferenceRequest) -> bool:
        """A frame is measured iff its deadline falls inside the window."""
        return request.deadline_ms <= self.duration_ms

    def _finalize_request(self, request: InferenceRequest) -> None:
        self._pool.remove(request)
        self.scheduler.on_request_finished(request)
        self._accumulate_stats(request)

    def _accumulate_stats(self, request: InferenceRequest) -> None:
        """Fold one terminal or leftover request into the task statistics.

        Split from :meth:`_finalize_request` because outage-failed requests
        left the pool (and fired the finished hook) at abort time, before
        their terminal accounting.  A request still live when the event
        heap drained counts as an unfinished violation.
        """
        if not self._is_measured(request):
            return
        stats = self._stats[request.task_name]
        stats.total_frames += 1
        stats.actual_energy_mj += request.energy_mj
        stats.worst_case_energy_mj += request.worst_case_energy_mj
        if request.state is RequestState.COMPLETED:
            stats.completed_frames += 1
            stats.variant_counts[request.model_name] += 1
            # A COMPLETED request always has a completion time; the check is
            # explicit (`is not None`, not falsy-or) because a legitimate
            # 0.0 ms latency is a real sample, not a missing one.
            latency = request.latency_ms
            if latency is None:  # pragma: no cover - defensive
                latency = 0.0
            stats.latency_sum_ms += latency
            stats.latency_max_ms = max(stats.latency_max_ms, latency)
            self._latency_quantiles[request.task_name].add(latency)
        elif request.state is RequestState.DROPPED:
            stats.dropped_frames += 1
        elif request.state is RequestState.EXPIRED:
            stats.expired_frames += 1
        elif request.state is RequestState.FAILED:
            stats.failed_frames += 1
        else:  # still live when the event heap drained: a violation
            stats.unfinished_frames += 1
            stats.violated_frames += 1
            return
        if request.violated_deadline:
            stats.violated_frames += 1

    def _finalize_leftovers(self) -> None:
        """Account for requests still live when the event queue drained."""
        for request in list(self._pool):
            if request.is_finished:
                continue
            self._trace(request, "unfinished")
            self._pool.remove(request)
            self._accumulate_stats(request)

    def _build_result(self) -> SimulationResult:
        for task_name, stats in self._stats.items():
            estimator = self._latency_quantiles[task_name]
            summary = estimator.summary()
            stats.latency_quantiles = dict(summary) if summary else None
        accelerator_stats = tuple(
            AcceleratorStats(
                acc_id=executor.acc_id,
                name=executor.accelerator.name,
                dataflow=executor.accelerator.dataflow.value,
                energy_mj=executor.total_energy_mj,
                busy_pe_ms=executor.total_busy_pe_ms,
                layers_executed=executor.layers_executed,
                context_switches=executor.context_switches,
                utilization=executor.utilization(self.duration_ms),
            )
            for executor in self._executors
        )
        return SimulationResult(
            scenario_name=self.scenario.name,
            platform_name=self.platform.name,
            scheduler_name=self.scheduler.name,
            duration_ms=self.duration_ms,
            seed=self.seed,
            task_stats=self._stats,
            accelerator_stats=accelerator_stats,
            scheduler_info=self.scheduler.info(),
            engine_counters={
                "events_processed": self.events_processed,
                "dispatch_rounds": self.dispatch_rounds,
                "dispatches_elided": self.dispatches_elided,
                "events_coalesced": self.events_coalesced,
                "peak_event_heap": self.peak_event_heap,
                "requests_aborted": self.requests_aborted,
                "requests_retried": self.requests_retried,
                "requests_failed": self.requests_failed,
            },
        )

    def _trace_dispatch(self, assignment, record) -> None:
        """Trace one accepted dispatch.

        The default model records the historical detail string and the
        *requested* ``pe_fraction`` — byte-identical to the pre-refactor
        trace.  Non-default models record the slot's *charged* capacity
        fraction in both ``pe_fraction`` (charges sum to <= 1, which is
        what the PE-oversubscription oracle audits) and the new
        ``memory_fraction`` field the memory oracle consumes.
        """
        slot = record.slot
        request = assignment.request
        if self._default_resources:
            self._trace(
                request,
                "dispatch",
                acc_id=assignment.acc_id,
                detail=(
                    f"{len(slot.layer_indices)} layers, "
                    f"pe_fraction={assignment.pe_fraction:g}, "
                    f"switch={record.context_switch}"
                ),
                pe_fraction=assignment.pe_fraction,
            )
            return
        charge = slot.pe_fraction
        executor = self._executors[assignment.acc_id]
        self._trace(
            request,
            "dispatch",
            acc_id=assignment.acc_id,
            detail=(
                f"{len(slot.layer_indices)} layers, "
                f"memory_fraction={charge:g}, "
                f"batch={len(executor.slots)}, "
                f"switch={record.context_switch}"
            ),
            pe_fraction=charge,
            memory_fraction=charge,
        )

    def _trace(
        self,
        request: InferenceRequest,
        event: str,
        acc_id: Optional[int] = None,
        detail: str = "",
        pe_fraction: Optional[float] = None,
        memory_fraction: Optional[float] = None,
    ) -> None:
        if self.tracer is None:
            return
        self.tracer.record(
            time_ms=self._now,
            event=event,
            task_name=request.task_name,
            request_id=request.request_id,
            model_name=request.model_name,
            acc_id=acc_id,
            detail=detail,
            frame_id=request.frame_id,
            pe_fraction=pe_fraction,
            deadline_ms=request.deadline_ms,
            memory_fraction=memory_fraction,
        )


def run_simulation(
    scenario: Scenario,
    platform: Platform,
    scheduler: "Scheduler",
    duration_ms: float = 2000.0,
    seed: int = 0,
    **kwargs,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`SimulationEngine` and run it."""
    engine = SimulationEngine(
        scenario=scenario,
        platform=platform,
        scheduler=scheduler,
        duration_ms=duration_ms,
        seed=seed,
        **kwargs,
    )
    return engine.run()
