"""Fleet-level metric aggregation from per-session simulation results.

The fleet tier never invents new measurements — it *aggregates* the
per-session :class:`~repro.sim.results.SimulationResult` objects the
existing engine already produces, attributed through the admission trace:

* :class:`UserStats` — per-user admission accounting (submitted /
  admitted / rejected / throttled, plus rates) and latency quantiles over
  the user's completed sessions, estimated with the bounded-memory P²
  algorithm (:class:`~repro.metrics.quantiles.StreamingQuantiles`).  The
  quantile stream is fed one sample per (session, task-with-completions)
  pair — the task's mean completed-frame latency — in session-id order,
  so the estimate is a deterministic function of the fleet spec.
* :class:`PlatformStats` — per-platform load: sessions served, peak
  concurrent sessions (from the admission trace's ``active_before``
  snapshots), frames, violations, energy and mean accelerator
  utilization.
* :class:`FleetResult` — the whole picture: spec echo, admission trace,
  per-user and per-platform aggregates, fleet totals, and the raw
  ``session_results`` keyed by session id.  ``to_dict()`` is the parity
  surface: two runs of one spec must produce byte-identical payloads
  regardless of execution backend or ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from repro.fleet.policies import (
    ADMITTED,
    EVICTED,
    FAILED,
    REJECTED,
    REROUTED,
    RETRY,
    THROTTLED,
)
from repro.fleet.simulator import AdmissionRecord, FleetPlan
from repro.metrics.quantiles import StreamingQuantiles
from repro.sim import SimulationResult


@dataclass
class UserStats:
    """Admission accounting and latency quantiles of one user.

    The fault-recovery counters (``evicted`` / ``rerouted`` / ``retried``
    / ``failed_sessions``) serialize only when nonzero, so fault-free
    payloads stay byte-identical to historical ones.
    """

    user_id: str
    population: str
    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    throttled: int = 0
    total_frames: int = 0
    violated_frames: int = 0
    latency_quantiles: Optional[dict] = None
    evicted: int = 0
    rerouted: int = 0
    retried: int = 0
    failed_sessions: int = 0

    @property
    def rejection_rate(self) -> float:
        """Capacity-rejected over submitted sessions."""
        return self.rejected / self.submitted if self.submitted else 0.0

    @property
    def violation_rate(self) -> float:
        """Deadline-violated frames over all frames of the user's sessions."""
        return self.violated_frames / self.total_frames if self.total_frames else 0.0

    def to_dict(self) -> dict:
        """JSON-serializable form (fault counters only when nonzero)."""
        payload = {
            "user_id": self.user_id,
            "population": self.population,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "throttled": self.throttled,
            "total_frames": self.total_frames,
            "violated_frames": self.violated_frames,
            "latency_quantiles": (
                dict(self.latency_quantiles) if self.latency_quantiles else None
            ),
        }
        if self.evicted:
            payload["evicted"] = self.evicted
        if self.rerouted:
            payload["rerouted"] = self.rerouted
        if self.retried:
            payload["retried"] = self.retried
        if self.failed_sessions:
            payload["failed_sessions"] = self.failed_sessions
        return payload


@dataclass
class PlatformStats:
    """Aggregated load and outcomes of one fleet platform."""

    index: int
    name: str
    platform: str
    scheduler: str
    max_sessions: int
    sessions: int = 0
    peak_active: int = 0
    total_frames: int = 0
    violated_frames: int = 0
    total_energy_mj: float = 0.0
    utilization_sum: float = 0.0
    evictions: int = 0

    @property
    def mean_utilization(self) -> float:
        """Mean (over sessions) of the session's mean accelerator utilization."""
        return self.utilization_sum / self.sessions if self.sessions else 0.0

    @property
    def violation_rate(self) -> float:
        """Deadline-violated frames over all frames served by the platform."""
        return self.violated_frames / self.total_frames if self.total_frames else 0.0

    def to_dict(self) -> dict:
        """JSON-serializable form (``evictions`` only when nonzero)."""
        payload = {
            "index": self.index,
            "name": self.name,
            "platform": self.platform,
            "scheduler": self.scheduler,
            "max_sessions": self.max_sessions,
            "sessions": self.sessions,
            "peak_active": self.peak_active,
            "total_frames": self.total_frames,
            "violated_frames": self.violated_frames,
            "total_energy_mj": self.total_energy_mj,
            "mean_utilization": self.mean_utilization,
        }
        if self.evictions:
            payload["evictions"] = self.evictions
        return payload


@dataclass
class FleetResult:
    """Everything a fleet run produced, aggregated and attributable.

    Attributes:
        plan: the admission pass output (spec, trace, jobs).
        session_results: per-admitted-session simulation results, keyed by
            global session id.
        user_stats: per-user aggregates keyed by user id (sorted).
        platform_stats: per-platform aggregates, in platform order.
    """

    plan: FleetPlan
    session_results: Mapping[int, SimulationResult]
    user_stats: dict[str, UserStats] = field(default_factory=dict)
    platform_stats: Tuple[PlatformStats, ...] = ()

    # ------------------------------------------------------------------ #
    # fleet totals
    # ------------------------------------------------------------------ #
    @property
    def records(self) -> Tuple[AdmissionRecord, ...]:
        """The admission trace."""
        return self.plan.records

    @property
    def submitted(self) -> int:
        """Total session requests across every user (:attr:`FleetPlan.submitted`)."""
        return self.plan.submitted

    @property
    def admitted(self) -> int:
        """Sessions admitted and simulated."""
        return self.plan.outcome_counts().get(ADMITTED, 0)

    @property
    def rejected(self) -> int:
        """Sessions rejected for capacity."""
        return self.plan.outcome_counts().get(REJECTED, 0)

    @property
    def throttled(self) -> int:
        """Sessions throttled by per-user fair share."""
        return self.plan.outcome_counts().get(THROTTLED, 0)

    @property
    def evicted(self) -> int:
        """Eviction events (outage killed an active placement)."""
        return self.plan.outcome_counts().get(EVICTED, 0)

    @property
    def rerouted(self) -> int:
        """Failover reroutes (evicted session re-placed elsewhere)."""
        return self.plan.outcome_counts().get(REROUTED, 0)

    @property
    def retried(self) -> int:
        """Backoff re-offer attempts that found no capacity (and waited)."""
        return self.plan.outcome_counts().get(RETRY, 0)

    @property
    def failed(self) -> int:
        """Sessions terminally failed by outages (budget/capacity exhausted)."""
        return self.plan.outcome_counts().get(FAILED, 0)

    @property
    def goodput_sessions(self) -> int:
        """Sessions whose final placement survived to produce a result.

        ``admitted`` counts *throughput* — every session that ever held a
        slot, including ones an outage later destroyed; goodput counts
        only the sessions whose simulation actually completed.  The two
        are equal on a fault-free fleet.
        """
        return len(self.plan.jobs)

    @property
    def rejection_rate(self) -> float:
        """Rejected over submitted sessions, fleet-wide."""
        return self.rejected / self.submitted if self.submitted else 0.0

    @property
    def total_frames(self) -> int:
        """Frames measured across every admitted session."""
        return sum(stats.total_frames for stats in self.platform_stats)

    def _totals(self) -> dict[str, int]:
        """The fleet totals, read from :meth:`FleetPlan.outcome_counts`.

        Fault accounting is included only for faulted specs, keeping
        fault-free payloads byte-identical to historical ones.
        """
        counts = self.plan.outcome_counts()
        totals = {
            "submitted": self.plan.submitted,
            "admitted": counts.get(ADMITTED, 0),
            "rejected": counts.get(REJECTED, 0),
            "throttled": counts.get(THROTTLED, 0),
        }
        if self.plan.spec.outages:
            totals["evicted"] = counts.get(EVICTED, 0)
            totals["rerouted"] = counts.get(REROUTED, 0)
            totals["retried"] = counts.get(RETRY, 0)
            totals["failed"] = counts.get(FAILED, 0)
            totals["goodput_sessions"] = self.goodput_sessions
        return totals

    def to_dict(self) -> dict:
        """JSON-serializable form — the backend-parity surface.

        Session results are keyed by stringified session id and emitted in
        id order; user stats in user-id order; platform stats in platform
        order.  Nothing in the payload depends on dict iteration order of
        runtime state, so serial and process backends serialize identically.
        """
        return {
            "spec": self.plan.spec.to_dict(),
            "totals": self._totals(),
            "records": [record.to_dict() for record in self.plan.records],
            "users": {
                user_id: stats.to_dict()
                for user_id, stats in sorted(self.user_stats.items())
            },
            "platforms": [stats.to_dict() for stats in self.platform_stats],
            "sessions": {
                str(session_id): self.session_results[session_id].to_dict()
                for session_id in sorted(self.session_results)
            },
        }

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        spec = self.plan.spec
        totals = self._totals()
        lines = [
            f"fleet of {len(spec.platforms)} platforms, {spec.total_users} users, "
            f"policy={spec.policy} ({spec.duration_ms:.0f} ms, seed {spec.seed})",
            f"  sessions: submitted={totals['submitted']} admitted={totals['admitted']} "
            f"rejected={totals['rejected']} throttled={totals['throttled']} "
            f"(rejection rate {self.rejection_rate:.1%})",
        ]
        if spec.outages:
            lines.append(
                f"  faults: evicted={totals['evicted']} rerouted={totals['rerouted']} "
                f"retried={totals['retried']} failed={totals['failed']} "
                f"goodput={totals['goodput_sessions']}/{totals['admitted']} sessions"
            )
        for stats in self.platform_stats:
            lines.append(
                f"  platform[{stats.index}] {stats.name}: "
                f"sessions={stats.sessions} peak={stats.peak_active}/{stats.max_sessions} "
                f"frames={stats.total_frames} violations={stats.violated_frames} "
                f"({stats.violation_rate:.1%}) "
                f"util={stats.mean_utilization:.1%} energy={stats.total_energy_mj:.1f} mJ"
            )
        for user_id, stats in sorted(self.user_stats.items()):
            quantiles = ""
            if stats.latency_quantiles:
                quantiles = (
                    f" latency p50/p95/p99="
                    f"{stats.latency_quantiles.get('p50', 0.0):.2f}/"
                    f"{stats.latency_quantiles.get('p95', 0.0):.2f}/"
                    f"{stats.latency_quantiles.get('p99', 0.0):.2f} ms"
                )
            lines.append(
                f"  user {user_id}: submitted={stats.submitted} "
                f"admitted={stats.admitted} rejected={stats.rejected} "
                f"throttled={stats.throttled}{quantiles}"
            )
        return "\n".join(lines)


def aggregate_fleet(
    plan: FleetPlan,
    session_results: Mapping[int, SimulationResult],
) -> FleetResult:
    """Fold per-session results into per-user/per-platform fleet metrics.

    Deterministic by construction: users are initialized in spec order,
    the admission trace is consumed in record (= time) order, and session
    results are folded in session-id order.
    """
    spec = plan.spec
    labels = spec.platform_labels()

    user_stats: dict[str, UserStats] = {}
    for population in spec.users:
        for user_id in population.user_ids():
            user_stats[user_id] = UserStats(user_id=user_id, population=population.name)

    platform_stats = tuple(
        PlatformStats(
            index=index,
            name=labels[index],
            platform=platform.platform,
            scheduler=platform.scheduler,
            max_sessions=platform.max_sessions,
        )
        for index, platform in enumerate(spec.platforms)
    )

    for record in plan.records:
        stats = user_stats[record.user_id]
        if record.outcome == ADMITTED:
            stats.submitted += 1
            stats.admitted += 1
            platform = platform_stats[record.platform_index]
            platform.sessions += 1
            platform.peak_active = max(
                platform.peak_active, record.active_before[record.platform_index] + 1
            )
        elif record.outcome == REJECTED:
            stats.submitted += 1
            stats.rejected += 1
        elif record.outcome == THROTTLED:
            stats.submitted += 1
            stats.throttled += 1
        elif record.outcome == EVICTED:
            # Fault-recovery records describe an already-submitted session;
            # they never increment ``submitted``.
            stats.evicted += 1
            platform_stats[record.platform_index].evictions += 1
        elif record.outcome == REROUTED:
            stats.rerouted += 1
            platform = platform_stats[record.platform_index]
            platform.sessions += 1
            platform.peak_active = max(
                platform.peak_active, record.active_before[record.platform_index] + 1
            )
        elif record.outcome == RETRY:
            stats.retried += 1
        elif record.outcome == FAILED:
            stats.failed_sessions += 1

    job_by_session = {job.session_id: job for job in plan.jobs}
    quantiles: dict[str, StreamingQuantiles] = {}
    for session_id in sorted(session_results):
        result = session_results[session_id]
        job = job_by_session.get(session_id)
        if job is None:
            # A result for a session that was never admitted: don't fold it
            # into any aggregate — the fleet oracle's frame_conservation
            # check reports it.
            continue
        user = user_stats[job.user_id]
        platform = platform_stats[job.platform_index]
        stream = quantiles.setdefault(job.user_id, StreamingQuantiles())
        for task_stats in result.task_stats.values():
            user.total_frames += task_stats.total_frames
            user.violated_frames += task_stats.violated_frames
            platform.total_frames += task_stats.total_frames
            platform.violated_frames += task_stats.violated_frames
            if task_stats.completed_frames:
                stream.add(task_stats.mean_latency_ms)
        platform.total_energy_mj += result.total_energy_mj
        if result.accelerator_stats:
            # Left to right, not sum(): from Python 3.12 on, sum() compensates
            # float rounding, so its last bit would depend on the version.
            utilization = 0.0
            for acc in result.accelerator_stats:
                utilization += acc.utilization
            platform.utilization_sum += utilization / len(result.accelerator_stats)

    for user_id, stream in quantiles.items():
        summary = stream.summary()
        if summary is not None:
            user_stats[user_id].latency_quantiles = dict(summary)

    return FleetResult(
        plan=plan,
        session_results=dict(session_results),
        user_stats=user_stats,
        platform_stats=platform_stats,
    )
