"""The fleet simulator: admission/routing tier over per-platform engines.

A fleet run has two phases with very different cost profiles, split so the
expensive one shards over the existing execution backends:

1. **Admission pass** (:meth:`FleetSimulator.plan`) — serial and cheap.
   The user populations are unrolled into a time-ordered session-request
   stream (:func:`repro.workloads.users.session_requests`); each request
   is offered to the spec's routing policy against the fleet's
   instantaneous occupancy (sessions hold a platform slot from admission
   until ``admit_ms + session_duration_ms``).  The pass emits one
   :class:`AdmissionRecord` per request — the fleet's event trace, which
   the invariant oracle (:mod:`repro.fleet.invariants`) replays — and one
   picklable :class:`FleetJob` per *admitted* session.
2. **Session simulations** (:meth:`FleetSimulator.run`) — embarrassingly
   parallel.  Every admitted session is one full per-platform
   :class:`~repro.sim.engine.SimulationEngine` run, described by the
   :class:`~repro.experiments.jobs.CellJob` embedded in its
   :class:`FleetJob` and executed through
   :func:`repro.experiments.harness.execute_jobs` — so fleet sessions use
   the same serial/process backends and the same content-addressed
   :class:`~repro.experiments.store.ResultStore` as grid cells.

Determinism contract (the serial/process parity tests pin this down):

* the admission pass is a pure function of the :class:`FleetSpec` — the
  request stream is sorted, the policy is consulted in stream order, and
  slot releases are processed from a heap keyed ``(end_ms, session_id)``;
* each session's simulation seed is derived arithmetically
  (``spec.seed * 1_000_003 + session_id`` — never through ``str.__hash__``),
  so every session is a distinct, reproducible simulation;
* session results are keyed by ``session_id`` and aggregated in id order,
  making the full :class:`~repro.fleet.metrics.FleetResult` bit-for-bit
  identical across backends and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.experiments.harness import execute_jobs
from repro.experiments.jobs import CellJob
from repro.fleet.policies import (
    ADMITTED,
    EVICTED,
    FAILED,
    REASON_CAPACITY,
    REASON_FAILOVER,
    REASON_OUTAGE,
    REROUTED,
    RETRY,
    FleetLoadView,
    PlatformLoad,
    _least_loaded_index,
    make_routing_policy,
)
from repro.fleet.spec import FleetSpec
from repro.sim import SimulationResult
from repro.workloads.users import session_requests

#: Multiplier folding the global session id into the per-session seed;
#: a large prime keeps derived seeds distinct across fleet seeds.
SESSION_SEED_STRIDE = 1_000_003

#: Re-offers after the immediate one for an evicted session that found no
#: healthy platform with a free slot, before it terminally fails.
SESSION_RETRY_BUDGET = 1

#: Base re-offer backoff: attempt *n* waits
#: ``SESSION_RETRY_BACKOFF_MS * 2**(n-1)`` fleet-clock ms.
SESSION_RETRY_BACKOFF_MS = 50.0


def session_seed(fleet_seed: int, session_id: int) -> int:
    """The simulation seed of one admitted session.

    Pure integer arithmetic — unlike ``hash(str)`` it is immune to
    ``PYTHONHASHSEED`` and identical in every interpreter session.
    """
    return fleet_seed * SESSION_SEED_STRIDE + session_id


@dataclass(frozen=True)
class AdmissionRecord:
    """One admission-tier decision — the fleet trace's unit record.

    Attributes:
        time_ms: fleet-clock time of the request.
        session_id: global request id (assigned in stream order).
        user_id: submitting user (``"<population>/<index>"``).
        population: the user's population name.
        scenario: scenario the session runs (if admitted).
        outcome: a first decision (``"admitted"``, ``"rejected"``,
            ``"throttled"``) or — on faulted fleets — a recovery step
            (``"evicted"``, ``"rerouted"``, ``"retry"``, ``"failed"``).
        platform_index: target platform for admitted/rerouted sessions,
            the *lost* platform for evictions, else ``None``.
        reason: policy-supplied reason for non-admission (``"capacity"``,
            ``"fair_share"``) or the fault-recovery cause (``"outage"``,
            ``"failover"``), empty for admissions.
        duration_ms: how long the session holds its slot once admitted;
            the *remaining* window on recovery records.
        active_before: per-platform active-session counts at decision time
            (before this admission took effect) — the oracle replays the
            admission pass and checks these snapshots bit-for-bit.
    """

    time_ms: float
    session_id: int
    user_id: str
    population: str
    scenario: str
    outcome: str
    platform_index: Optional[int]
    reason: str
    duration_ms: float
    active_before: Tuple[int, ...]

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {
            "time_ms": self.time_ms,
            "session_id": self.session_id,
            "user_id": self.user_id,
            "population": self.population,
            "scenario": self.scenario,
            "outcome": self.outcome,
            "platform_index": self.platform_index,
            "reason": self.reason,
            "duration_ms": self.duration_ms,
            "active_before": list(self.active_before),
        }


@dataclass(frozen=True)
class FleetJob:
    """A picklable description of one admitted session's simulation.

    Wraps the :class:`~repro.experiments.jobs.CellJob` that actually runs
    the per-platform engine, plus the fleet-level identity (session, user,
    platform index) the aggregation layer needs.  The simulation outcome
    is a pure function of the embedded cell, so :meth:`cache_key`
    delegates to it — sessions describing the identical simulation share
    one entry in the content-addressed result store.
    """

    session_id: int
    user_id: str
    population: str
    platform_index: int
    platform_name: str
    admit_ms: float
    cell: CellJob

    def to_dict(self) -> dict:
        """JSON-serializable description (session identity + cell spec)."""
        return {
            "session_id": self.session_id,
            "user_id": self.user_id,
            "population": self.population,
            "platform_index": self.platform_index,
            "platform_name": self.platform_name,
            "admit_ms": self.admit_ms,
            "cell": self.cell.to_dict(),
        }

    def cache_key(self) -> str:
        """Content key of the simulation — the embedded cell's key."""
        return self.cell.cache_key()

    def run(self) -> SimulationResult:
        """Execute the session's platform simulation."""
        return self.cell.run()


@dataclass(frozen=True)
class FleetPlan:
    """Output of the admission pass: the fleet trace plus runnable jobs."""

    spec: FleetSpec
    records: Tuple[AdmissionRecord, ...]
    jobs: Tuple[FleetJob, ...]

    @property
    def submitted(self) -> int:
        """Total session requests offered to the admission tier.

        Counts first-decision records only — fault-recovery records
        (evicted / rerouted / retry / failed) re-describe sessions that
        were already submitted.
        """
        return sum(
            1
            for record in self.records
            if record.outcome in ("admitted", "rejected", "throttled")
        )

    def outcome_counts(self) -> dict[str, int]:
        """``{outcome: count}`` over every admission record."""
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.outcome] = counts.get(record.outcome, 0) + 1
        return counts


class FleetSimulator:
    """Simulates a fleet of platforms behind a routing/admission tier.

    One instance is bound to one :class:`FleetSpec`.  :meth:`plan` runs
    the (cheap, serial, deterministic) admission pass; :meth:`run`
    additionally executes every admitted session's platform simulation on
    an execution backend and aggregates the fleet-level result.
    """

    def __init__(self, spec: FleetSpec):
        self.spec = spec

    # ------------------------------------------------------------------ #
    # phase 1: admission/routing
    # ------------------------------------------------------------------ #
    def plan(self) -> FleetPlan:
        """Route every session request; emit the fleet trace and jobs.

        Slot lifecycle: an admitted session occupies its platform from its
        arrival until ``arrival + session_duration_ms``; a slot ending at
        exactly time ``t`` is free again for a request arriving at ``t``
        (releases are drained before each decision — including outage
        transitions, so a session whose slot expires exactly when the
        outage begins escaped it).

        With declared outages the pass becomes a small event loop: outage
        begin/end transitions interleave with session requests and retry
        re-offers, ordered ``(time, transitions-first, declaration/stream
        order)`` so the schedule is a pure function of the spec.  An
        outage begin evicts every session active on the platform (sorted
        by session id); each evicted session is immediately re-offered to
        the least-loaded healthy platform (ties by index) for its
        *remaining* window, retrying with exponential backoff up to
        :data:`SESSION_RETRY_BUDGET` extra attempts before terminally
        failing.  An evicted placement's simulation job is discarded —
        the outage destroyed that work — and a reroute creates a fresh
        job for the remaining window, so jobs always describe exactly the
        placements that survived.
        """
        spec = self.spec
        requests = session_requests(spec.users, spec.duration_ms, spec.seed)
        policy = make_routing_policy(spec.policy)
        labels = spec.platform_labels()

        active = [0] * len(spec.platforms)
        user_active: dict[str, int] = {}
        # Open-outage count per platform (overlapping windows nest).
        outage_open = [0] * len(spec.platforms)
        # session_id -> (platform_index, end_ms, user_id, generation); the
        # generation makes stale release-heap entries detectable after an
        # eviction re-placed (or dropped) the session.
        placement: dict[int, tuple[int, float, str, int]] = {}
        generation: dict[int, int] = {}
        # (end_ms, session_id, platform_index, user_id, generation).
        releases: list[tuple[float, int, int, str, int]] = []

        records: list[AdmissionRecord] = []
        # Insertion-ordered; eviction deletes, reroute re-inserts, so the
        # final tuple lists exactly the surviving placements.
        jobs: dict[int, FleetJob] = {}

        # Event heap: (time, prio, tie, kind, payload).  Outage transitions
        # (prio 0) beat requests/retries (prio 1) at equal times, with
        # recoveries before activations; requests tie-break by stream
        # order, retries by (session, attempt).  Fault-free specs enqueue
        # requests only, in stream order — the historical schedule.
        events: list[tuple[float, int, tuple, str, object]] = []
        for session_id, request in enumerate(requests):
            events.append(
                (request.arrival_ms, 1, (0, session_id), "request", request)
            )
        for index, outage in enumerate(spec.outages):
            events.append((outage.start_ms, 0, (1, index), "outage_begin", index))
            events.append((outage.end_ms, 0, (0, index), "outage_end", index))
        heapq.heapify(events)

        def drain_releases(now: float) -> None:
            while releases and releases[0][0] <= now:
                _, sid, index, user_id, gen = heapq.heappop(releases)
                current = placement.get(sid)
                if current is None or current[3] != gen:
                    continue  # the session was evicted; stale entry
                del placement[sid]
                active[index] -= 1
                user_active[user_id] -= 1

        def place(sid: int, index: int, end_ms: float, user_id: str) -> None:
            gen = generation.get(sid, 0) + 1
            generation[sid] = gen
            placement[sid] = (index, end_ms, user_id, gen)
            active[index] += 1
            user_active[user_id] = user_active.get(user_id, 0) + 1
            heapq.heappush(releases, (end_ms, sid, index, user_id, gen))

        def make_job(sid: int, request, index: int, admit_ms: float, duration_ms: float):
            platform = spec.platforms[index]
            return FleetJob(
                session_id=sid,
                user_id=request.user_id,
                population=request.population,
                platform_index=index,
                platform_name=labels[index],
                admit_ms=admit_ms,
                cell=CellJob(
                    scenario=request.scenario,
                    platform=platform.platform,
                    scheduler=platform.scheduler,
                    duration_ms=duration_ms,
                    seed=session_seed(spec.seed, sid),
                    cascade_probability=request.cascade_probability,
                ),
            )

        def record(now, sid, request, outcome, index, reason, duration_ms) -> None:
            records.append(
                AdmissionRecord(
                    time_ms=now,
                    session_id=sid,
                    user_id=request.user_id,
                    population=request.population,
                    scenario=request.scenario,
                    outcome=outcome,
                    platform_index=index,
                    reason=reason,
                    duration_ms=duration_ms,
                    active_before=tuple(active),
                )
            )

        def attempt_reroute(now, sid, request, end_ms, attempt) -> None:
            """One failover re-offer for an evicted session."""
            remaining = end_ms - now
            if remaining > 0.0:
                view = self._view(active, user_active, outage_open)
                index = _least_loaded_index(view.loads)
            else:
                index = None  # the session's window elapsed during backoff
            if index is not None:
                record(now, sid, request, REROUTED, index, REASON_FAILOVER, remaining)
                place(sid, index, end_ms, request.user_id)
                jobs[sid] = make_job(sid, request, index, now, remaining)
                return
            if remaining > 0.0 and attempt <= SESSION_RETRY_BUDGET:
                record(now, sid, request, RETRY, None, REASON_CAPACITY, remaining)
                backoff = SESSION_RETRY_BACKOFF_MS * (2.0 ** (attempt - 1))
                heapq.heappush(
                    events,
                    (
                        now + backoff,
                        1,
                        (1, sid, attempt),
                        "retry",
                        (sid, request, end_ms, attempt + 1),
                    ),
                )
                return
            record(now, sid, request, FAILED, None, REASON_CAPACITY, max(remaining, 0.0))

        # Retry re-offers land on the heap mid-loop, so pop explicitly.
        session_request_meta: dict[int, object] = {}
        while events:
            now, _prio, _tie, kind, payload = heapq.heappop(events)
            drain_releases(now)
            if kind == "request":
                request = payload
                sid = len(session_request_meta)
                session_request_meta[sid] = request
                decision = policy.route(
                    request, self._view(active, user_active, outage_open)
                )
                record(
                    now, sid, request, decision.outcome,
                    decision.platform_index, decision.reason,
                    request.session_duration_ms,
                )
                if decision.outcome != ADMITTED:
                    continue
                index = decision.platform_index
                place(sid, index, now + request.session_duration_ms, request.user_id)
                jobs[sid] = make_job(
                    sid, request, index, now, request.session_duration_ms
                )
            elif kind == "outage_begin":
                outage = spec.outages[payload]
                target = outage.platform_index
                outage_open[target] += 1
                if outage_open[target] > 1:
                    continue  # nested window: sessions already evicted
                victims = sorted(
                    sid for sid, (index, _, _, _) in placement.items()
                    if index == target
                )
                for sid in victims:
                    index, end_ms, user_id, _gen = placement[sid]
                    request = session_request_meta[sid]
                    remaining = end_ms - now
                    record(now, sid, request, EVICTED, index, REASON_OUTAGE, remaining)
                    del placement[sid]
                    active[index] -= 1
                    user_active[user_id] -= 1
                    # The placement's simulation never finished: drop it.
                    jobs.pop(sid, None)
                    attempt_reroute(now, sid, request, end_ms, attempt=1)
            elif kind == "outage_end":
                outage = spec.outages[payload]
                outage_open[outage.platform_index] -= 1
            elif kind == "retry":
                sid, request, end_ms, attempt = payload
                attempt_reroute(now, sid, request, end_ms, attempt)
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown fleet event kind {kind!r}")
        return FleetPlan(
            spec=spec, records=tuple(records), jobs=tuple(jobs.values())
        )

    def _view(
        self,
        active: list[int],
        user_active: dict[str, int],
        outage_open: list[int],
    ) -> FleetLoadView:
        """Immutable load snapshot handed to the routing policy."""
        spec = self.spec
        return FleetLoadView(
            loads=tuple(
                PlatformLoad(
                    index=index,
                    name=platform.name,
                    max_sessions=platform.max_sessions,
                    active=active[index],
                    healthy=outage_open[index] == 0,
                )
                for index, platform in enumerate(spec.platforms)
            ),
            user_active=dict(user_active),
            total_users=spec.total_users,
            total_capacity=spec.total_capacity,
        )

    # ------------------------------------------------------------------ #
    # phase 2: session simulations + aggregation
    # ------------------------------------------------------------------ #
    def run(self, backend=None, workers=None, store=None):
        """Execute the fleet end to end and aggregate the result.

        Args:
            backend: execution backend name or instance (``"serial"`` /
                ``"process"``), defaulting per
                :func:`repro.experiments.default_execution`.
            workers: pool size for the process backend.
            store: optional content-addressed
                :class:`~repro.experiments.store.ResultStore`; session
                simulations already persisted are loaded, not re-run.

        Returns:
            :class:`~repro.fleet.metrics.FleetResult`.
        """
        from repro.fleet.metrics import aggregate_fleet

        plan = self.plan()
        results = execute_jobs(plan.jobs, backend=backend, workers=workers, store=store)
        session_results = {
            job.session_id: result for job, result in zip(plan.jobs, results)
        }
        return aggregate_fleet(plan, session_results)


def simulate_fleet(spec: FleetSpec, backend=None, workers=None, store=None):
    """One-call convenience wrapper: plan, simulate, aggregate."""
    return FleetSimulator(spec).run(backend=backend, workers=workers, store=store)
