"""Per-user and per-session workload identity for fleet-scale simulation.

One :class:`~repro.sim.engine.SimulationEngine` simulates one platform; the
fleet layer (:mod:`repro.fleet`) simulates *many* platforms behind an
admission tier fed by a population of users.  This module supplies the
workload side of that picture:

* a :class:`UserSpec` describes a *population* of identical users — how
  many there are, which scenario preset each of their sessions runs, how
  long a session's simulated window is, and how sessions arrive over the
  fleet window (any registered
  :class:`~repro.workloads.traffic.ArrivalProcess`, reusing the exact
  traffic registry head tasks use);
* :func:`session_requests` unrolls one or more populations into the
  deterministic, time-ordered stream of :class:`SessionRequest`\\ s the
  admission tier consumes.

Key invariants:

* **Determinism** — every user's session-arrival stream is driven by a
  ``random.Random`` seeded from a *string* (SHA-512-based, never
  ``PYTHONHASHSEED``-salted), keyed ``(fleet seed, user id)``.  The stream
  is therefore bit-for-bit identical across processes, interpreter
  sessions and execution backends, which is what lets fleet runs shard
  over the process pool and land in the content-addressed result store.
* **Ordering** — :func:`session_requests` returns requests sorted by
  ``(arrival_ms, user_id, session_index)``; the admission tier never has
  to disambiguate ties itself.
* **Identity** — ``user_id`` is ``"<population>/<index>"`` and session ids
  are assigned globally by arrival order, so every admission record and
  every per-session simulation can be attributed to exactly one user.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from repro.workloads.scenarios import DEFAULT_CASCADE_PROBABILITY, scenario_names
from repro.workloads.traffic import (
    ArrivalProcess,
    PeriodicArrival,
    arrival_process_from_dict,
    reject_unknown_keys,
)

#: Session arrivals used when a :class:`UserSpec` does not override them:
#: strictly periodic at the population's nominal rate, no jitter.
DEFAULT_SESSION_TRAFFIC = PeriodicArrival(jitter_ms=0.0)


@dataclass(frozen=True)
class _SessionSource:
    """Duck-typed stand-in for a ``TaskSpec`` when streaming *sessions*.

    :meth:`ArrivalProcess.frames` only reads ``task.name`` and
    ``task.period_ms``; sessions have no model, so this tiny shim is all
    the traffic registry needs to emit session arrivals for one user.
    """

    name: str
    period_ms: float


@dataclass(frozen=True)
class UserSpec:
    """A population of identical users submitting sessions to the fleet.

    A spec is built only from scalars (and a frozen
    :class:`~repro.workloads.traffic.ArrivalProcess`), so it is picklable,
    hashable, and JSON round-trippable via :meth:`to_dict` /
    :meth:`from_dict` — the same contract every other job-spec dataclass
    in the repo honours.

    Attributes:
        name: population name, unique within a fleet spec (user ids are
            ``"<name>/<i>"``).
        users: number of users in the population.
        scenario: scenario preset every session of these users runs
            (``repro.workloads.scenario_names()``).
        sessions_per_minute: mean session-arrival rate *per user*; the
            nominal inter-session period is ``60000 / sessions_per_minute``
            milliseconds.
        session_duration_ms: simulated window length of one admitted
            session (each admitted session is one full
            :class:`~repro.sim.engine.SimulationEngine` run).
        traffic: how sessions arrive over the fleet window; any registered
            :class:`~repro.workloads.traffic.ArrivalProcess` (``None`` =
            strictly periodic, no jitter).  Deadlines emitted by the
            process are ignored — sessions have no deadline, only an
            admission decision.
        cascade_probability: ML-cascade trigger probability of the session
            scenario (forwarded to the per-session simulation).
    """

    name: str
    users: int
    scenario: str
    sessions_per_minute: float = 30.0
    session_duration_ms: float = 400.0
    traffic: Optional[ArrivalProcess] = None
    cascade_probability: float = DEFAULT_CASCADE_PROBABILITY

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("population name must be non-empty")
        if "/" in self.name:
            raise ValueError(
                f"population name {self.name!r} must not contain '/' "
                "(reserved for user ids)"
            )
        if self.users < 1:
            raise ValueError(f"population {self.name!r}: users must be >= 1")
        if self.scenario not in scenario_names():
            raise ValueError(
                f"population {self.name!r}: unknown scenario {self.scenario!r} "
                f"(known: {', '.join(scenario_names())})"
            )
        if self.sessions_per_minute <= 0:
            raise ValueError(
                f"population {self.name!r}: sessions_per_minute must be positive"
            )
        if self.session_duration_ms <= 0:
            raise ValueError(
                f"population {self.name!r}: session_duration_ms must be positive"
            )
        if not 0.0 <= self.cascade_probability <= 1.0:
            raise ValueError(
                f"population {self.name!r}: cascade_probability must be in [0, 1]"
            )

    @property
    def session_period_ms(self) -> float:
        """Nominal inter-session gap of one user, in milliseconds."""
        return 60_000.0 / self.sessions_per_minute

    def user_ids(self) -> list[str]:
        """Stable ids of every user in the population."""
        return [f"{self.name}/{index}" for index in range(self.users)]

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        payload = {
            "name": self.name,
            "users": self.users,
            "scenario": self.scenario,
            "sessions_per_minute": self.sessions_per_minute,
            "session_duration_ms": self.session_duration_ms,
            "cascade_probability": self.cascade_probability,
        }
        if self.traffic is not None:
            payload["traffic"] = self.traffic.to_dict()
        return payload

    @classmethod
    def from_dict(cls, data: Mapping) -> "UserSpec":
        """Rebuild from :meth:`to_dict` output."""
        reject_unknown_keys(cls, data)
        payload = dict(data)
        traffic = payload.get("traffic")
        if traffic is not None:
            payload["traffic"] = arrival_process_from_dict(traffic)
        return cls(**payload)


@dataclass(frozen=True)
class SessionRequest:
    """One user's request to start a session, as seen by the admission tier.

    Attributes:
        arrival_ms: fleet-clock time the request is made.
        user_id: ``"<population>/<index>"`` of the submitting user.
        population: name of the :class:`UserSpec` the user belongs to.
        scenario: scenario preset the session would run if admitted.
        session_duration_ms: simulated window of the session.
        cascade_probability: forwarded to the per-session simulation.
        session_index: per-user session counter (0, 1, ...).
    """

    arrival_ms: float
    user_id: str
    population: str
    scenario: str
    session_duration_ms: float
    cascade_probability: float
    session_index: int


def session_arrival_rng(seed: int, user_id: str) -> random.Random:
    """The per-user session-arrival RNG.

    Seeded from a string, mirroring
    :func:`repro.workloads.frames.task_arrival_rng`: ``random.Random(str)``
    seeds via SHA-512 and is stable across interpreter sessions, unlike
    ``str.__hash__`` (PYTHONHASHSEED-salted).
    """
    return random.Random(f"fleet-sessions:{seed}:{user_id}")


def user_session_stream(
    spec: UserSpec,
    user_index: int,
    duration_ms: float,
    seed: int,
) -> Iterator[SessionRequest]:
    """Lazily yield one user's session requests over the fleet window."""
    user_id = f"{spec.name}/{user_index}"
    process = spec.traffic if spec.traffic is not None else DEFAULT_SESSION_TRAFFIC
    source = _SessionSource(name=user_id, period_ms=spec.session_period_ms)
    rng = session_arrival_rng(seed, user_id)
    for frame in process.frames(source, start_ms=0.0, end_ms=duration_ms, rng=rng):
        yield SessionRequest(
            arrival_ms=frame.arrival_ms,
            user_id=user_id,
            population=spec.name,
            scenario=spec.scenario,
            session_duration_ms=spec.session_duration_ms,
            cascade_probability=spec.cascade_probability,
            session_index=frame.frame_id,
        )


def session_requests(
    populations: Sequence[UserSpec],
    duration_ms: float,
    seed: int,
) -> list[SessionRequest]:
    """The full, time-ordered session-request stream of a fleet window.

    Requests are sorted by ``(arrival_ms, user_id, session_index)`` so the
    admission tier processes them in one deterministic order regardless of
    how the per-user streams interleave.

    Raises:
        ValueError: if population names collide or the window is empty.
    """
    if duration_ms <= 0:
        raise ValueError("duration_ms must be positive")
    names = [spec.name for spec in populations]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate population names: {names}")
    requests: list[SessionRequest] = []
    for spec in populations:
        for user_index in range(spec.users):
            requests.extend(user_session_stream(spec, user_index, duration_ms, seed))
    requests.sort(key=lambda req: (req.arrival_ms, req.user_id, req.session_index))
    return requests
