"""Fleet-level invariant oracle: correctness properties of admission traces.

The per-engine oracle (:mod:`repro.sim.invariants`) audits one platform's
event trace; this module audits the tier above it.  Fleet runs have no
golden numbers either, so correctness is again expressed as closed-world
properties every correct admission pass must satisfy, checked by replaying
the :class:`~repro.fleet.simulator.AdmissionRecord` stream:

``session_conservation``
    Every submitted session reaches *exactly one* final outcome: its
    first record is a first decision (admitted / rejected / throttled),
    fault-recovery records (evicted / rerouted / retry / failed) form a
    legal chain — evictions only while placed, reroutes and retries only
    while evicted-and-unresolved, failures only after a retry (an
    eviction always re-offers the session, which still has window left),
    and at most ``SESSION_RETRY_BUDGET`` retries per eviction — and the
    last record per session is a placement (admitted / rerouted) or a
    terminal non-placement (rejected / throttled / failed).  Session ids
    stay dense and unique over first decisions; nothing leaks, nothing
    double-finishes.

``no_double_routing``
    Surviving placements and simulation jobs correspond one-to-one: a
    session whose final state is a placement has exactly one
    :class:`~repro.fleet.simulator.FleetJob` targeting that platform; an
    evicted-and-failed session has none; no job exists for a session
    that never held a surviving placement.

``failover_no_double_routing``
    Replaying placements, a session never holds two platforms at once:
    a second admit/reroute while one placement is live is a violation,
    as is an eviction of a session that is not placed, an eviction from
    a platform with no declared outage open at that instant, or a
    reroute *onto* a platform inside an open outage window.

``admission_consistency``
    The trace is consistent with an honest outage-aware replay of the
    admission pass: per-platform occupancy (slots released at
    ``admit_ms + duration_ms``, evictions releasing early) never exceeds
    ``max_sessions``, each record's ``active_before`` snapshot equals
    the replayed occupancy, admissions and reroutes only target healthy
    platforms with free capacity, and capacity-rejections / capacity
    retries occur only when every *healthy* platform is full.

``frame_conservation``
    Fleet aggregates equal the sum of their parts: every admitted session
    has exactly one :class:`~repro.sim.results.SimulationResult` (and no
    result exists for a session that was never admitted), and the
    per-platform / fleet-total frame counters equal the sums over the
    underlying session results — aggregation cannot drift from the
    simulations it summarizes.

The oracle reuses :class:`~repro.sim.invariants.Violation` and
:class:`~repro.sim.invariants.TraceInvariantError`, so fleet checks
compose with engine checks in test suites and the fuzz harness.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from repro.fleet.metrics import FleetResult
from repro.fleet.policies import (
    ADMITTED,
    EVICTED,
    FAILED,
    REASON_CAPACITY,
    REJECTED,
    REROUTED,
    RETRY,
    THROTTLED,
)
from repro.fleet.simulator import (
    SESSION_RETRY_BUDGET,
    AdmissionRecord,
    FleetJob,
    FleetPlan,
)
from repro.fleet.spec import FleetSpec
from repro.sim.invariants import TraceInvariantError, Violation

#: First-decision outcomes — exactly one per submitted session.
_FIRST_OUTCOMES = (ADMITTED, REJECTED, THROTTLED)
#: Fault-recovery outcomes — only ever follow a first decision.
_RECOVERY_OUTCOMES = (EVICTED, REROUTED, RETRY, FAILED)
#: The full closed vocabulary of admission-record outcomes.
_OUTCOMES = _FIRST_OUTCOMES + _RECOVERY_OUTCOMES
#: Outcomes that leave the session placed on a platform.
_PLACEMENTS = (ADMITTED, REROUTED)
#: Final states a session may legally end the trace in.
_FINAL_OUTCOMES = (ADMITTED, REROUTED, REJECTED, THROTTLED, FAILED)


def check_session_conservation(records: Sequence[AdmissionRecord]) -> list[Violation]:
    """Every session resolves exactly once through a legal outcome chain."""
    violations: list[Violation] = []
    seen: set[int] = set()
    counts = {outcome: 0 for outcome in _FIRST_OUTCOMES}
    # session_id -> last outcome, driving the per-session state machine.
    last: dict[int, str] = {}
    # session_id -> retries since its latest eviction.
    retries: dict[int, int] = {}
    for record in records:
        sid = record.session_id
        if record.outcome not in _OUTCOMES:
            violations.append(
                Violation(
                    "session_conservation",
                    f"unknown outcome {record.outcome!r}",
                    record.time_ms,
                    sid,
                )
            )
            continue
        if record.outcome in _FIRST_OUTCOMES:
            if sid in seen:
                violations.append(
                    Violation(
                        "session_conservation",
                        f"session {sid} decided more than once",
                        record.time_ms,
                        sid,
                    )
                )
                continue
            seen.add(sid)
            counts[record.outcome] += 1
        else:
            previous = last.get(sid)
            if previous is None:
                violations.append(
                    Violation(
                        "session_conservation",
                        f"{record.outcome!r} for a session that was never submitted",
                        record.time_ms,
                        sid,
                    )
                )
                continue
            legal = {
                EVICTED: _PLACEMENTS,
                REROUTED: (EVICTED, RETRY),
                RETRY: (EVICTED, RETRY),
                FAILED: (RETRY,),
            }[record.outcome]
            if previous not in legal:
                violations.append(
                    Violation(
                        "session_conservation",
                        f"{record.outcome!r} after {previous!r} "
                        f"(legal predecessors: {', '.join(legal)})",
                        record.time_ms,
                        sid,
                    )
                )
            if record.outcome == EVICTED:
                retries[sid] = 0
            elif record.outcome == RETRY:
                retries[sid] = retries.get(sid, 0) + 1
                if retries[sid] > SESSION_RETRY_BUDGET:
                    violations.append(
                        Violation(
                            "session_conservation",
                            f"retry {retries[sid]} of session {sid} since its "
                            f"eviction exceeds the budget of {SESSION_RETRY_BUDGET}",
                            record.time_ms,
                            sid,
                        )
                    )
        last[sid] = record.outcome
    if seen and seen != set(range(len(seen))):
        violations.append(
            Violation(
                "session_conservation",
                f"session ids are not dense 0..{len(seen) - 1}",
            )
        )
    if sum(counts.values()) != len(seen):
        violations.append(
            Violation(
                "session_conservation",
                f"outcome counts {counts} do not sum to {len(seen)} submissions",
            )
        )
    for sid in sorted(last):
        if last[sid] not in _FINAL_OUTCOMES:
            violations.append(
                Violation(
                    "session_conservation",
                    f"session {sid} left unresolved in state {last[sid]!r}",
                    request_id=sid,
                )
            )
    return violations


def check_no_double_routing(
    records: Sequence[AdmissionRecord], jobs: Sequence[FleetJob]
) -> list[Violation]:
    """Surviving placements and simulation jobs correspond one-to-one.

    A session's *surviving* placement is its last admitted/rerouted
    record not undone by a later eviction — the placement whose
    simulation actually ran to completion.  Evicted placements' jobs are
    destroyed by the outage, so they must not appear in the job list.
    """
    violations: list[Violation] = []
    surviving: dict[int, AdmissionRecord] = {}
    for record in records:
        if record.outcome in _PLACEMENTS:
            if record.platform_index is None:
                violations.append(
                    Violation(
                        "no_double_routing",
                        f"{record.outcome} session has no platform",
                        record.time_ms,
                        record.session_id,
                    )
                )
                continue
            surviving[record.session_id] = record
        elif record.outcome == EVICTED:
            if record.platform_index is None:
                violations.append(
                    Violation(
                        "no_double_routing",
                        "evicted session carries no platform",
                        record.time_ms,
                        record.session_id,
                    )
                )
            surviving.pop(record.session_id, None)
        elif record.platform_index is not None:
            violations.append(
                Violation(
                    "no_double_routing",
                    f"{record.outcome} session routed to platform "
                    f"{record.platform_index}",
                    record.time_ms,
                    record.session_id,
                )
            )
    job_sessions: set[int] = set()
    for job in jobs:
        if job.session_id in job_sessions:
            violations.append(
                Violation(
                    "no_double_routing",
                    f"session {job.session_id} has more than one job",
                    job.admit_ms,
                    job.session_id,
                )
            )
            continue
        job_sessions.add(job.session_id)
        record = surviving.get(job.session_id)
        if record is None:
            violations.append(
                Violation(
                    "no_double_routing",
                    f"job exists for session {job.session_id} with no "
                    "surviving placement",
                    job.admit_ms,
                    job.session_id,
                )
            )
        elif record.platform_index != job.platform_index:
            violations.append(
                Violation(
                    "no_double_routing",
                    f"session {job.session_id} placed on platform "
                    f"{record.platform_index} but its job targets "
                    f"{job.platform_index}",
                    job.admit_ms,
                    job.session_id,
                )
            )
    for session_id in sorted(set(surviving) - job_sessions):
        record = surviving[session_id]
        violations.append(
            Violation(
                "no_double_routing",
                f"placed session {session_id} has no simulation job",
                record.time_ms,
                session_id,
            )
        )
    return violations


def check_failover_no_double_routing(
    spec: FleetSpec, records: Sequence[AdmissionRecord]
) -> list[Violation]:
    """No session ever holds two platforms; failover respects outages.

    Replays placements with natural expiry at
    ``placement time + duration``: a second admit/reroute while a
    placement is live, an eviction of an unplaced session, an eviction
    from a platform with no open declared outage, or a reroute onto a
    platform inside an open outage window are all violations.
    """
    violations: list[Violation] = []

    def outage_open(index: int, time_ms: float) -> bool:
        return any(
            outage.platform_index == index and outage.active_at(time_ms)
            for outage in spec.outages
        )

    # session_id -> (platform_index, end_ms)
    placed: dict[int, tuple[int, float]] = {}
    for record in records:
        sid = record.session_id
        live = placed.get(sid)
        if live is not None and live[1] <= record.time_ms:
            del placed[sid]  # natural expiry
            live = None
        if record.outcome in _PLACEMENTS:
            if live is not None:
                violations.append(
                    Violation(
                        "failover_no_double_routing",
                        f"session placed on platform {record.platform_index} "
                        f"while still holding platform {live[0]}",
                        record.time_ms,
                        sid,
                    )
                )
            if record.outcome == REROUTED and record.platform_index is not None:
                if outage_open(record.platform_index, record.time_ms):
                    violations.append(
                        Violation(
                            "failover_no_double_routing",
                            f"reroute onto platform {record.platform_index} "
                            "inside an open outage window",
                            record.time_ms,
                            sid,
                        )
                    )
            if record.platform_index is not None:
                placed[sid] = (
                    record.platform_index,
                    record.time_ms + record.duration_ms,
                )
        elif record.outcome == EVICTED:
            if live is None:
                violations.append(
                    Violation(
                        "failover_no_double_routing",
                        "eviction of a session that holds no platform",
                        record.time_ms,
                        sid,
                    )
                )
            elif live[0] != record.platform_index:
                violations.append(
                    Violation(
                        "failover_no_double_routing",
                        f"eviction names platform {record.platform_index} but "
                        f"the session is placed on platform {live[0]}",
                        record.time_ms,
                        sid,
                    )
                )
            if record.platform_index is not None and not outage_open(
                record.platform_index, record.time_ms
            ):
                violations.append(
                    Violation(
                        "failover_no_double_routing",
                        f"eviction from platform {record.platform_index} with "
                        "no declared outage open at that instant",
                        record.time_ms,
                        sid,
                    )
                )
            placed.pop(sid, None)
    return violations


def check_admission_consistency(
    spec: FleetSpec, records: Sequence[AdmissionRecord]
) -> list[Violation]:
    """The trace matches an honest outage-aware replay of the admission pass."""
    violations: list[Violation] = []
    capacities = [platform.max_sessions for platform in spec.platforms]
    active = [0] * len(capacities)
    # (end_ms, session_id, platform, generation); evictions invalidate
    # pending releases through the per-session generation counter.
    releases: list[tuple[float, int, int, int]] = []
    placement: dict[int, tuple[int, int]] = {}  # session_id -> (platform, gen)
    generation: dict[int, int] = {}

    def healthy(index: int, time_ms: float) -> bool:
        return not any(
            outage.platform_index == index and outage.active_at(time_ms)
            for outage in spec.outages
        )

    def no_healthy_slot(time_ms: float) -> bool:
        return not any(
            active[i] < capacities[i] and healthy(i, time_ms)
            for i in range(len(capacities))
        )

    for record in records:
        while releases and releases[0][0] <= record.time_ms:
            _, sid, index, gen = heapq.heappop(releases)
            current = placement.get(sid)
            if current is None or current[1] != gen:
                continue  # evicted earlier; stale release
            del placement[sid]
            active[index] -= 1
        if tuple(active) != record.active_before:
            violations.append(
                Violation(
                    "admission_consistency",
                    f"active_before snapshot {record.active_before} does not match "
                    f"replayed occupancy {tuple(active)}",
                    record.time_ms,
                    record.session_id,
                )
            )
        if record.outcome in _PLACEMENTS and record.platform_index is not None:
            index = record.platform_index
            if not 0 <= index < len(capacities):
                violations.append(
                    Violation(
                        "admission_consistency",
                        f"platform index {index} out of range",
                        record.time_ms,
                        record.session_id,
                    )
                )
                continue
            if active[index] >= capacities[index]:
                violations.append(
                    Violation(
                        "admission_consistency",
                        f"{record.outcome} to full platform {index} "
                        f"({active[index]}/{capacities[index]} active)",
                        record.time_ms,
                        record.session_id,
                    )
                )
            if not healthy(index, record.time_ms):
                violations.append(
                    Violation(
                        "admission_consistency",
                        f"{record.outcome} to platform {index} inside an open "
                        "outage window",
                        record.time_ms,
                        record.session_id,
                    )
                )
            gen = generation.get(record.session_id, 0) + 1
            generation[record.session_id] = gen
            placement[record.session_id] = (index, gen)
            active[index] += 1
            heapq.heappush(
                releases,
                (
                    record.time_ms + record.duration_ms,
                    record.session_id,
                    index,
                    gen,
                ),
            )
        elif record.outcome == EVICTED:
            current = placement.pop(record.session_id, None)
            if current is not None:
                active[current[0]] -= 1
            # An eviction of an unplaced session is failover_no_double_
            # routing's finding; the snapshot check above flags the drift.
        elif (
            record.outcome == REJECTED and record.reason == REASON_CAPACITY
        ) or record.outcome == RETRY:
            if not no_healthy_slot(record.time_ms):
                violations.append(
                    Violation(
                        "admission_consistency",
                        f"capacity {record.outcome} while occupancy {tuple(active)} "
                        f"leaves free slots on healthy platforms "
                        f"(capacities {tuple(capacities)})",
                        record.time_ms,
                        record.session_id,
                    )
                )
    return violations


def check_frame_conservation(result: FleetResult) -> list[Violation]:
    """Aggregated frame counters equal the sums over session results."""
    violations: list[Violation] = []
    plan = result.plan
    # Sessions owed a simulation result are exactly those holding a
    # surviving job — an evicted-then-failed session legitimately has none.
    job_by_session = {job.session_id: job for job in plan.jobs}
    expected_ids = set(job_by_session)
    result_ids = set(result.session_results)
    for session_id in sorted(expected_ids - result_ids):
        violations.append(
            Violation(
                "frame_conservation",
                f"placed session {session_id} has no simulation result",
                request_id=session_id,
            )
        )
    for session_id in sorted(result_ids - expected_ids):
        violations.append(
            Violation(
                "frame_conservation",
                f"simulation result for session {session_id} that holds no job",
                request_id=session_id,
            )
        )

    expected_frames = [0] * len(plan.spec.platforms)
    for session_id in sorted(result_ids & expected_ids):
        expected_frames[job_by_session[session_id].platform_index] += (
            result.session_results[session_id].total_frames
        )
    for stats in result.platform_stats:
        if stats.total_frames != expected_frames[stats.index]:
            violations.append(
                Violation(
                    "frame_conservation",
                    f"platform {stats.index} reports {stats.total_frames} frames "
                    f"but its session results sum to "
                    f"{expected_frames[stats.index]}",
                )
            )
    if result.total_frames != sum(expected_frames):
        violations.append(
            Violation(
                "frame_conservation",
                f"fleet total {result.total_frames} frames != session sum "
                f"{sum(expected_frames)}",
            )
        )
    return violations


def audit_plan(plan: FleetPlan) -> list[Violation]:
    """Run every trace-only invariant over an admission plan."""
    violations = check_session_conservation(plan.records)
    violations.extend(check_no_double_routing(plan.records, plan.jobs))
    violations.extend(check_admission_consistency(plan.spec, plan.records))
    violations.extend(check_failover_no_double_routing(plan.spec, plan.records))
    return violations


def audit_fleet(result: FleetResult) -> list[Violation]:
    """Run every fleet invariant over a full fleet result."""
    violations = audit_plan(result.plan)
    violations.extend(check_frame_conservation(result))
    return violations


def assert_fleet_invariants(result: FleetResult) -> None:
    """Raise :class:`TraceInvariantError` if any fleet invariant fails."""
    violations = audit_fleet(result)
    if violations:
        raise TraceInvariantError(violations)
