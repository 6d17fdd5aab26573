"""Trace-invariant oracle: simulation-correctness properties of any run.

Generated workloads have no golden numbers to compare against, so
correctness must be expressed as *properties of the event trace* rather
than point checks (cf. the asynchronous large-scale-simulation methodology
in PAPERS.md: once workloads are generated, oracles audit invariants).
Each invariant below is a closed-world property every correct simulation
of any scenario, platform and scheduler must satisfy:

``no_pe_oversubscription``
    At no instant does the sum of dispatched PE fractions on one
    sub-accelerator exceed its whole PE array (Planaria-style spatial
    fission shares the array, it never overbooks it), and no request holds
    two in-flight slots at once (a request runs on at most one accelerator
    at a time — the paper's Stack_task is a chain, not a DAG).

``causality``
    Nothing happens to a request before it arrives: the first record of
    every request is its (cascade) arrival and every dispatch happens at or
    after it.

``monotonic_progress``
    Within one request's layer chain, events are totally ordered in time
    and alternate dispatch -> layers_complete; no event follows a terminal
    one (complete / dropped / expired / unfinished).

``cascade_after_parent``
    A cascaded request only arrives after its parent task completed an
    inference of the same sensor frame (control dependencies fire on
    completion, Section 2.1) — an orphan cascade child is a simulator bug.

``conservation``
    Every request that arrives reaches *exactly one* terminal outcome
    (complete, dropped, expired, failed, or unfinished-at-window-end):
    nothing is double-finished and nothing leaks.

``stats_consistency``
    The per-task counters of the returned
    :class:`~repro.sim.results.SimulationResult` equal what the trace
    says happened to *measured* requests (deadline inside the window), so
    aggregate statistics cannot drift from the event stream.

``no_memory_oversubscription``
    Under the ``kv_batch`` resource model, the summed ``memory_fraction``
    charges of in-flight dispatches never exceed one accelerator's shared
    KV budget (continuous batching packs requests, it never overcommits
    the cache).  Dispatches without a ``memory_fraction`` (the default
    ``pe_fraction`` model) are skipped, so the check is vacuously true on
    historical traces.

``interaction_causality``
    A multi-turn ``interaction_arrival`` only ever fires at the exact
    instant its upstream request completed (turns are replies, not frame
    sources), at most once per completed parent inference, and only for
    tasks the scenario actually declares as interactions.

``fault_conservation``
    Every ``abort`` the fault machinery records is resolved by *exactly
    one* ``retry`` or terminal ``failed``: no double aborts, no retries
    out of thin air, no aborted request silently reaching another
    terminal state, nothing left dangling.  Purely trace-based, so it
    runs on every audit and holds vacuously on fault-free traces.

``no_dispatch_while_faulted``
    While a declared ``platform_outage`` window is open (half-open
    ``[start, end)``), nothing dispatches anywhere on the platform —
    recovery at ``end`` may dispatch again.  Requires the fault plan.

``degraded_capacity_respected``
    Every dispatch admitted during a declared capacity-degrade window
    fits inside the *degraded* capacity: the replayed allocation after
    the dispatch never exceeds ``capacity_at(faults, acc, t)``.
    In-flight work admitted before the fault keeps running (degrade
    throttles admission, it does not kill slots), which this replay
    models by charging it against the same budget — the engine refuses
    new work that would not fit.  Requires the fault plan.

The oracle consumes the structured fields of
:class:`~repro.sim.tracer.TraceRecord` (``pe_fraction``, ``frame_id``,
``deadline_ms``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.sim.faults import FaultSpec, capacity_at, outage_active
from repro.sim.results import SimulationResult
from repro.sim.tracer import TraceRecord, Tracer
from repro.workloads.scenario import Scenario

#: Events that open a request's lifecycle.
_ARRIVAL_EVENTS = ("arrival", "cascade_arrival", "interaction_arrival")
#: Events that close a request's lifecycle, exactly one of which must occur.
_TERMINAL_EVENTS = ("complete", "dropped", "expired", "unfinished", "failed")
#: System-scoped records (task_name ``"__fault__"``, negative request_id)
#: that describe the platform rather than any request's lifecycle.
_SYSTEM_EVENTS = ("fault_begin", "fault_end")

#: Slack for floating-point PE-fraction sums.
_PE_EPSILON = 1e-6


@dataclass(frozen=True)
class Violation:
    """One detected breach of a trace invariant."""

    invariant: str
    message: str
    time_ms: float = 0.0
    request_id: Optional[int] = None

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        where = f" (request {self.request_id})" if self.request_id is not None else ""
        return f"[{self.invariant}] t={self.time_ms:.3f} ms{where}: {self.message}"


class TraceInvariantError(AssertionError):
    """Raised by :func:`assert_trace_invariants` when any invariant fails."""

    def __init__(self, violations: Sequence[Violation]) -> None:
        self.violations = list(violations)
        lines = [f"{len(self.violations)} trace invariant violation(s):"]
        lines.extend(f"  {violation}" for violation in self.violations)
        super().__init__("\n".join(lines))


# --------------------------------------------------------------------- #
# individual invariant checkers
# --------------------------------------------------------------------- #


def check_no_pe_oversubscription(records: Sequence[TraceRecord]) -> list[Violation]:
    """Dispatched PE fractions never oversubscribe an accelerator."""
    violations: list[Violation] = []
    in_flight: dict[int, tuple[int, float]] = {}  # request_id -> (acc_id, fraction)
    allocated: dict[int, float] = {}  # acc_id -> summed fraction
    for record in records:
        if record.event == "dispatch":
            if record.acc_id is None or record.pe_fraction is None:
                violations.append(
                    Violation(
                        "no_pe_oversubscription",
                        "dispatch record lacks acc_id/pe_fraction",
                        record.time_ms,
                        record.request_id,
                    )
                )
                continue
            if record.request_id in in_flight:
                held_acc, _ = in_flight[record.request_id]
                violations.append(
                    Violation(
                        "no_pe_oversubscription",
                        f"request dispatched to accelerator {record.acc_id} while "
                        f"already in flight on accelerator {held_acc}",
                        record.time_ms,
                        record.request_id,
                    )
                )
                continue
            in_flight[record.request_id] = (record.acc_id, record.pe_fraction)
            allocated[record.acc_id] = allocated.get(record.acc_id, 0.0) + record.pe_fraction
            if allocated[record.acc_id] > 1.0 + _PE_EPSILON:
                violations.append(
                    Violation(
                        "no_pe_oversubscription",
                        f"accelerator {record.acc_id} oversubscribed: allocated "
                        f"PE fraction {allocated[record.acc_id]:.4f} > 1.0",
                        record.time_ms,
                        record.request_id,
                    )
                )
        elif record.event in ("layers_complete", "abort"):
            # An outage abort releases the slot exactly like a completion.
            slot = in_flight.pop(record.request_id, None)
            if slot is not None:
                acc_id, fraction = slot
                allocated[acc_id] = allocated.get(acc_id, 0.0) - fraction
    return violations


def check_causality(records: Sequence[TraceRecord]) -> list[Violation]:
    """Every request arrives before anything else happens to it."""
    violations: list[Violation] = []
    arrival_ms: dict[int, float] = {}
    for record in records:
        if record.event in _SYSTEM_EVENTS:
            continue  # platform-scoped fault markers, not request lifecycle
        if record.event in _ARRIVAL_EVENTS:
            if record.request_id in arrival_ms:
                violations.append(
                    Violation(
                        "causality",
                        f"request has a second {record.event!r} record",
                        record.time_ms,
                        record.request_id,
                    )
                )
            arrival_ms.setdefault(record.request_id, record.time_ms)
            continue
        if record.request_id not in arrival_ms:
            violations.append(
                Violation(
                    "causality",
                    f"{record.event!r} recorded before any arrival of the request",
                    record.time_ms,
                    record.request_id,
                )
            )
            continue
        if record.event == "dispatch" and record.time_ms < arrival_ms[record.request_id] - 1e-9:
            violations.append(
                Violation(
                    "causality",
                    f"dispatch at {record.time_ms:.3f} ms precedes arrival at "
                    f"{arrival_ms[record.request_id]:.3f} ms",
                    record.time_ms,
                    record.request_id,
                )
            )
    return violations


def check_monotonic_progress(records: Sequence[TraceRecord]) -> list[Violation]:
    """Per request: time-ordered events, dispatch/complete alternation, and
    nothing after a terminal event."""
    violations: list[Violation] = []
    last_time: dict[int, float] = {}
    outstanding: dict[int, bool] = {}  # request_id -> has an open dispatch
    terminal: dict[int, str] = {}
    for record in records:
        if record.event in _SYSTEM_EVENTS:
            continue  # platform-scoped fault markers, not request lifecycle
        rid = record.request_id
        if rid in terminal:
            violations.append(
                Violation(
                    "monotonic_progress",
                    f"{record.event!r} recorded after terminal {terminal[rid]!r}",
                    record.time_ms,
                    rid,
                )
            )
            continue
        if rid in last_time and record.time_ms < last_time[rid] - 1e-9:
            violations.append(
                Violation(
                    "monotonic_progress",
                    f"{record.event!r} at {record.time_ms:.3f} ms goes back in time "
                    f"(previous event at {last_time[rid]:.3f} ms)",
                    record.time_ms,
                    rid,
                )
            )
        last_time[rid] = max(record.time_ms, last_time.get(rid, record.time_ms))
        if record.event == "dispatch":
            if outstanding.get(rid):
                violations.append(
                    Violation(
                        "monotonic_progress",
                        "second dispatch while a layer block is still in flight",
                        record.time_ms,
                        rid,
                    )
                )
            outstanding[rid] = True
        elif record.event == "layers_complete":
            if not outstanding.get(rid):
                violations.append(
                    Violation(
                        "monotonic_progress",
                        "layers_complete without a matching dispatch",
                        record.time_ms,
                        rid,
                    )
                )
            outstanding[rid] = False
        elif record.event == "abort":
            if not outstanding.get(rid):
                violations.append(
                    Violation(
                        "monotonic_progress",
                        "abort without an in-flight layer block",
                        record.time_ms,
                        rid,
                    )
                )
            outstanding[rid] = False
        elif record.event in _TERMINAL_EVENTS:
            terminal[rid] = record.event
    return violations


def check_cascade_after_parent(
    records: Sequence[TraceRecord], scenario: Scenario
) -> list[Violation]:
    """Cascade children arrive only after a parent completion of their frame."""
    violations: list[Violation] = []
    # (task_name, frame_id) -> earliest completion time
    completions: dict[tuple[str, Optional[int]], float] = {}
    for record in records:
        if record.event == "complete":
            key = (record.task_name, record.frame_id)
            completions.setdefault(key, record.time_ms)
        elif record.event == "cascade_arrival":
            try:
                parent_name = scenario.task(record.task_name).depends_on
            except KeyError:
                violations.append(
                    Violation(
                        "cascade_after_parent",
                        f"cascade arrival for task {record.task_name!r} which is "
                        f"not part of scenario {scenario.name!r}",
                        record.time_ms,
                        record.request_id,
                    )
                )
                continue
            if parent_name is None:
                violations.append(
                    Violation(
                        "cascade_after_parent",
                        f"cascade arrival for head task {record.task_name!r} "
                        "(head tasks have no upstream dependency)",
                        record.time_ms,
                        record.request_id,
                    )
                )
                continue
            parent_completion = completions.get((parent_name, record.frame_id))
            if parent_completion is None or parent_completion > record.time_ms + 1e-9:
                violations.append(
                    Violation(
                        "cascade_after_parent",
                        f"orphan cascade child: task {record.task_name!r} frame "
                        f"{record.frame_id} arrived without a prior completion of "
                        f"parent task {parent_name!r} for that frame",
                        record.time_ms,
                        record.request_id,
                    )
                )
    return violations


def check_conservation(records: Sequence[TraceRecord]) -> list[Violation]:
    """Every arrived request reaches exactly one terminal outcome."""
    violations: list[Violation] = []
    arrived: dict[int, TraceRecord] = {}
    finished: dict[int, str] = {}
    for record in records:
        rid = record.request_id
        if record.event in _ARRIVAL_EVENTS:
            arrived.setdefault(rid, record)
        elif record.event in _TERMINAL_EVENTS:
            if rid in finished:
                violations.append(
                    Violation(
                        "conservation",
                        f"double finish: request already terminated via "
                        f"{finished[rid]!r}, now {record.event!r}",
                        record.time_ms,
                        rid,
                    )
                )
                continue
            finished[rid] = record.event
            if rid not in arrived:
                violations.append(
                    Violation(
                        "conservation",
                        f"terminal {record.event!r} for a request that never arrived",
                        record.time_ms,
                        rid,
                    )
                )
    for rid, record in arrived.items():
        if rid not in finished:
            violations.append(
                Violation(
                    "conservation",
                    f"leaked request: task {record.task_name!r} frame "
                    f"{record.frame_id} arrived but never reached a terminal state",
                    record.time_ms,
                    rid,
                )
            )
    return violations


def check_no_memory_oversubscription(records: Sequence[TraceRecord]) -> list[Violation]:
    """KV-charge sums of in-flight dispatches never exceed one budget.

    Mirrors :func:`check_no_pe_oversubscription` over the
    ``memory_fraction`` field: dispatch records that carry no memory
    charge (the default ``pe_fraction`` model) are skipped, so the check
    holds vacuously for historical traces while auditing every
    ``kv_batch`` run for budget overcommit and double dispatch.
    """
    violations: list[Violation] = []
    in_flight: dict[int, tuple[int, float]] = {}  # request_id -> (acc_id, charge)
    allocated: dict[int, float] = {}  # acc_id -> summed charge
    for record in records:
        if record.event == "dispatch":
            if record.memory_fraction is None:
                continue  # pe_fraction dispatch: no memory accounting
            if record.acc_id is None:
                violations.append(
                    Violation(
                        "no_memory_oversubscription",
                        "dispatch record carries memory_fraction but no acc_id",
                        record.time_ms,
                        record.request_id,
                    )
                )
                continue
            if record.request_id in in_flight:
                held_acc, _ = in_flight[record.request_id]
                violations.append(
                    Violation(
                        "no_memory_oversubscription",
                        f"request dispatched to accelerator {record.acc_id} while "
                        f"already holding KV budget on accelerator {held_acc}",
                        record.time_ms,
                        record.request_id,
                    )
                )
                continue
            in_flight[record.request_id] = (record.acc_id, record.memory_fraction)
            allocated[record.acc_id] = (
                allocated.get(record.acc_id, 0.0) + record.memory_fraction
            )
            if allocated[record.acc_id] > 1.0 + _PE_EPSILON:
                violations.append(
                    Violation(
                        "no_memory_oversubscription",
                        f"accelerator {record.acc_id} KV budget oversubscribed: "
                        f"summed memory fraction {allocated[record.acc_id]:.4f} > 1.0",
                        record.time_ms,
                        record.request_id,
                    )
                )
        elif record.event in ("layers_complete", "abort"):
            slot = in_flight.pop(record.request_id, None)
            if slot is not None:
                acc_id, charge = slot
                allocated[acc_id] = allocated.get(acc_id, 0.0) - charge
    return violations


def check_interaction_causality(
    records: Sequence[TraceRecord], scenario: Scenario
) -> list[Violation]:
    """Interaction turns fire exactly at (and because of) parent completions.

    Three properties per ``interaction_arrival`` record:

    * its task exists in the scenario and is declared ``interaction=True``
      (with the ``depends_on`` the spec validation already forces);
    * the parent task completed an inference of the *same sensor frame at
      the same instant* — turns arrive the moment the upstream reply
      lands, unlike cascades whose deadline anchors to the sensor frame;
    * at most one turn arrives per (task, frame) — one completion spawns
      at most one reply.
    """
    violations: list[Violation] = []
    # (task_name, frame_id) -> completion times observed so far
    completions: dict[tuple[str, Optional[int]], list[float]] = {}
    seen_turns: set[tuple[str, Optional[int]]] = set()
    for record in records:
        if record.event == "complete":
            completions.setdefault((record.task_name, record.frame_id), []).append(
                record.time_ms
            )
        elif record.event == "interaction_arrival":
            try:
                task = scenario.task(record.task_name)
            except KeyError:
                violations.append(
                    Violation(
                        "interaction_causality",
                        f"interaction arrival for task {record.task_name!r} which "
                        f"is not part of scenario {scenario.name!r}",
                        record.time_ms,
                        record.request_id,
                    )
                )
                continue
            if not task.interaction or task.depends_on is None:
                violations.append(
                    Violation(
                        "interaction_causality",
                        f"interaction arrival for task {record.task_name!r} which "
                        "the scenario does not declare as an interaction",
                        record.time_ms,
                        record.request_id,
                    )
                )
                continue
            key = (record.task_name, record.frame_id)
            if key in seen_turns:
                violations.append(
                    Violation(
                        "interaction_causality",
                        f"second interaction turn for task {record.task_name!r} "
                        f"frame {record.frame_id} (one completion spawns at most "
                        "one reply)",
                        record.time_ms,
                        record.request_id,
                    )
                )
                continue
            seen_turns.add(key)
            parent_times = completions.get((task.depends_on, record.frame_id), [])
            if not any(abs(t - record.time_ms) <= 1e-9 for t in parent_times):
                violations.append(
                    Violation(
                        "interaction_causality",
                        f"interaction turn for task {record.task_name!r} frame "
                        f"{record.frame_id} at {record.time_ms:.3f} ms without a "
                        f"completion of parent task {task.depends_on!r} at that "
                        "instant",
                        record.time_ms,
                        record.request_id,
                    )
                )
    return violations


def check_stats_consistency(
    records: Sequence[TraceRecord], result: SimulationResult
) -> list[Violation]:
    """Per-task result counters match the trace's measured-request outcomes.

    A request is *measured* when its deadline falls inside the simulated
    window, the engine's accounting rule, so every counter must match the
    trace exactly.
    """
    violations: list[Violation] = []
    duration_ms = result.duration_ms
    counts: dict[str, dict[str, int]] = {}
    terminal_for: dict[int, str] = {}
    for record in records:
        if record.event not in _TERMINAL_EVENTS or record.request_id in terminal_for:
            continue
        terminal_for[record.request_id] = record.event
        if record.deadline_ms is None or record.deadline_ms > duration_ms:
            continue  # unmeasured: no full chance inside the window
        per_task = counts.setdefault(record.task_name, dict.fromkeys(_TERMINAL_EVENTS, 0))
        per_task[record.event] += 1

    stat_fields = {
        "complete": "completed_frames",
        "dropped": "dropped_frames",
        "expired": "expired_frames",
        "unfinished": "unfinished_frames",
        "failed": "failed_frames",
    }
    for task_name, stats in result.task_stats.items():
        traced = counts.get(task_name, dict.fromkeys(_TERMINAL_EVENTS, 0))
        for event, field_name in stat_fields.items():
            reported = getattr(stats, field_name)
            observed = traced[event]
            if reported != observed:
                violations.append(
                    Violation(
                        "stats_consistency",
                        f"task {task_name!r}: result reports "
                        f"{field_name}={reported} != {observed} measured "
                        f"{event!r} events in the trace",
                        duration_ms,
                    )
                )
    return violations


def check_fault_conservation(records: Sequence[TraceRecord]) -> list[Violation]:
    """Every abort is resolved by exactly one retry or terminal failure.

    Tracks an *open abort* per request: an ``abort`` opens it (double
    abort without an intervening retry is a violation), a ``retry``
    closes it (a retry without an open abort is a violation), and a
    terminal ``failed`` both requires and closes it.  Reaching any other
    terminal state with an abort still open — or ending the trace with
    one — means the engine lost an aborted request.
    """
    violations: list[Violation] = []
    open_abort: dict[int, float] = {}  # request_id -> abort time
    for record in records:
        rid = record.request_id
        if record.event == "abort":
            if rid in open_abort:
                violations.append(
                    Violation(
                        "fault_conservation",
                        "second abort before the first was retried or failed",
                        record.time_ms,
                        rid,
                    )
                )
                continue
            open_abort[rid] = record.time_ms
        elif record.event == "retry":
            if rid not in open_abort:
                violations.append(
                    Violation(
                        "fault_conservation",
                        "retry without a preceding abort",
                        record.time_ms,
                        rid,
                    )
                )
                continue
            del open_abort[rid]
        elif record.event == "failed":
            if rid not in open_abort:
                violations.append(
                    Violation(
                        "fault_conservation",
                        "terminal 'failed' without a preceding abort",
                        record.time_ms,
                        rid,
                    )
                )
                continue
            del open_abort[rid]
        elif record.event in _TERMINAL_EVENTS and rid in open_abort:
            violations.append(
                Violation(
                    "fault_conservation",
                    f"terminal {record.event!r} while an abort was still "
                    "awaiting retry or failure",
                    record.time_ms,
                    rid,
                )
            )
            del open_abort[rid]
    for rid, abort_ms in open_abort.items():
        violations.append(
            Violation(
                "fault_conservation",
                "aborted request was neither retried nor terminally failed",
                abort_ms,
                rid,
            )
        )
    return violations


def check_no_dispatch_while_faulted(
    records: Sequence[TraceRecord], faults: Sequence[FaultSpec]
) -> list[Violation]:
    """Nothing dispatches while a platform outage window is open.

    Outage windows are half-open ``[start, end)``: a dispatch at the
    recovery instant ``end`` is legal (capacity is restored before
    anything else runs at that timestamp — fault events carry negative
    heap priority).
    """
    violations: list[Violation] = []
    for record in records:
        if record.event != "dispatch":
            continue
        if outage_active(faults, record.time_ms):
            violations.append(
                Violation(
                    "no_dispatch_while_faulted",
                    f"dispatch to accelerator {record.acc_id} during a "
                    "declared platform outage window",
                    record.time_ms,
                    record.request_id,
                )
            )
    return violations


def check_degraded_capacity_respected(
    records: Sequence[TraceRecord], faults: Sequence[FaultSpec]
) -> list[Violation]:
    """Dispatches admitted during a degrade window fit the reduced capacity.

    Replays the per-accelerator PE allocation from dispatch /
    layers_complete / abort records; after every dispatch the summed
    allocation must not exceed ``capacity_at(faults, acc, t)`` (slots
    admitted before the fault keep running and keep their charge, so the
    engine must refuse new work that no longer fits).
    """
    violations: list[Violation] = []
    in_flight: dict[int, tuple[int, float]] = {}  # request_id -> (acc_id, fraction)
    allocated: dict[int, float] = {}  # acc_id -> summed fraction
    for record in records:
        if record.event == "dispatch":
            if record.acc_id is None or record.pe_fraction is None:
                continue  # malformed dispatches are no_pe_oversubscription's job
            if record.request_id in in_flight:
                continue  # double dispatch is no_pe_oversubscription's job
            in_flight[record.request_id] = (record.acc_id, record.pe_fraction)
            allocated[record.acc_id] = (
                allocated.get(record.acc_id, 0.0) + record.pe_fraction
            )
            capacity = capacity_at(faults, record.acc_id, record.time_ms)
            if capacity < 1.0 and allocated[record.acc_id] > capacity + _PE_EPSILON:
                violations.append(
                    Violation(
                        "degraded_capacity_respected",
                        f"accelerator {record.acc_id} allocated "
                        f"{allocated[record.acc_id]:.4f} PE fraction during a "
                        f"fault window capping capacity at {capacity:.4f}",
                        record.time_ms,
                        record.request_id,
                    )
                )
        elif record.event in ("layers_complete", "abort"):
            slot = in_flight.pop(record.request_id, None)
            if slot is not None:
                acc_id, fraction = slot
                allocated[acc_id] = allocated.get(acc_id, 0.0) - fraction
    return violations


#: Checker registry: invariant name -> callable.  Scenario-, result- and
#: fault-plan-dependent checkers are adapted inside :func:`audit_trace`.
INVARIANT_NAMES: tuple[str, ...] = (
    "no_pe_oversubscription",
    "no_memory_oversubscription",
    "causality",
    "monotonic_progress",
    "cascade_after_parent",
    "interaction_causality",
    "conservation",
    "stats_consistency",
    "fault_conservation",
    "no_dispatch_while_faulted",
    "degraded_capacity_respected",
)


def audit_trace(
    trace: "Tracer | Iterable[TraceRecord]",
    scenario: Optional[Scenario] = None,
    result: Optional[SimulationResult] = None,
    invariants: Optional[Sequence[str]] = None,
    faults: Optional[Sequence[FaultSpec]] = None,
) -> list[Violation]:
    """Audit a trace against every applicable invariant.

    Args:
        trace: a :class:`~repro.sim.tracer.Tracer` or an iterable of
            :class:`~repro.sim.tracer.TraceRecord`.
        scenario: required for ``cascade_after_parent`` (skipped otherwise).
        result: required for ``stats_consistency`` (skipped otherwise).
        invariants: optional subset of :data:`INVARIANT_NAMES` to run.
        faults: the declared fault plan; required for
            ``no_dispatch_while_faulted`` and ``degraded_capacity_respected``
            (both skipped otherwise — ``fault_conservation`` always runs).

    Returns:
        All violations found, in invariant-registry order.

    Raises:
        ValueError: if an unknown invariant name is requested.
    """
    records: Sequence[TraceRecord] = list(trace)

    selected = tuple(invariants) if invariants is not None else INVARIANT_NAMES
    unknown = [name for name in selected if name not in INVARIANT_NAMES]
    if unknown:
        raise ValueError(f"unknown invariants {unknown}; available: {list(INVARIANT_NAMES)}")

    checks: dict[str, Callable[[], list[Violation]]] = {
        "no_pe_oversubscription": lambda: check_no_pe_oversubscription(records),
        "no_memory_oversubscription": lambda: check_no_memory_oversubscription(records),
        "causality": lambda: check_causality(records),
        "monotonic_progress": lambda: check_monotonic_progress(records),
        "cascade_after_parent": (
            (lambda: check_cascade_after_parent(records, scenario))
            if scenario is not None
            else lambda: []
        ),
        "interaction_causality": (
            (lambda: check_interaction_causality(records, scenario))
            if scenario is not None
            else lambda: []
        ),
        "conservation": lambda: check_conservation(records),
        "stats_consistency": (
            (lambda: check_stats_consistency(records, result))
            if result is not None
            else lambda: []
        ),
        "fault_conservation": lambda: check_fault_conservation(records),
        "no_dispatch_while_faulted": (
            (lambda: check_no_dispatch_while_faulted(records, faults))
            if faults is not None
            else lambda: []
        ),
        "degraded_capacity_respected": (
            (lambda: check_degraded_capacity_respected(records, faults))
            if faults is not None
            else lambda: []
        ),
    }
    violations: list[Violation] = []
    for name in selected:
        violations.extend(checks[name]())
    return violations


def assert_trace_invariants(
    trace: "Tracer | Iterable[TraceRecord]",
    scenario: Optional[Scenario] = None,
    result: Optional[SimulationResult] = None,
    invariants: Optional[Sequence[str]] = None,
    faults: Optional[Sequence[FaultSpec]] = None,
) -> None:
    """Like :func:`audit_trace` but raises :class:`TraceInvariantError`."""
    violations = audit_trace(
        trace,
        scenario=scenario,
        result=result,
        invariants=invariants,
        faults=faults,
    )
    if violations:
        raise TraceInvariantError(violations)
