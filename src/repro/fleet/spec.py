"""Declarative fleet descriptions: platforms, user populations, policy.

A :class:`FleetSpec` is the single input of a fleet simulation — N
heterogeneous platforms (each a :class:`PlatformSpec`: accelerator preset +
scheduler + session capacity), a set of user populations
(:class:`~repro.workloads.users.UserSpec`), one routing/admission policy
name, a window length and a seed.  Like every other job-spec dataclass in
the repo it is frozen, built only from preset names and scalars, picklable,
and JSON round-trippable (:meth:`FleetSpec.to_dict` /
:meth:`FleetSpec.from_dict`), so one spec fully determines a fleet run
bit-for-bit on any execution backend.

Validation happens eagerly in ``__post_init__`` against the live
registries (platform presets, scheduler names, routing policies, scenario
presets), so a malformed spec fails at construction — before any
simulation budget is spent — with a message naming the alternatives.

Fault declarations ride the spec too: a :class:`FleetOutage` marks one
platform down over a half-open window ``[start, end)``.  Sessions active
on the platform when the outage begins are evicted and re-offered to the
healthy remainder of the fleet with a bounded retry budget and
exponential backoff (:mod:`repro.fleet.simulator`).  Outages serialize
*only when declared*, so the canonical key (and therefore every
content-addressed artifact) of a fault-free spec is byte-identical to
pre-fault builds.

``from_dict`` rejects a key that is not a field with a ``ValueError``
naming it, so a hand-written spec with a typo or a retired option fails
as a usage error instead of being silently ignored or crashing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Tuple

from repro.hardware import all_platform_names
from repro.schedulers import scheduler_names
from repro.workloads import scenario_names
from repro.workloads.traffic import reject_unknown_keys
from repro.workloads.users import UserSpec

#: Default session capacity of one platform (concurrently active sessions).
DEFAULT_MAX_SESSIONS = 4


@dataclass(frozen=True)
class FleetOutage:
    """One declared platform outage: a target and a half-open time window.

    While the window ``[start_ms, start_ms + duration_ms)`` is open the
    platform admits nothing; sessions active on it at ``start_ms`` are
    evicted (their in-flight work is lost) and re-offered to the rest of
    the fleet.  A session whose slot releases exactly at
    ``start_ms`` completed first — releases drain before fault
    transitions, mirroring the engine's heap priorities.
    """

    platform_index: int
    start_ms: float
    duration_ms: float

    def __post_init__(self) -> None:
        if self.platform_index < 0:
            raise ValueError(
                f"platform_index must be >= 0, got {self.platform_index}"
            )
        if self.start_ms < 0.0:
            raise ValueError(f"start_ms must be >= 0, got {self.start_ms}")
        if self.duration_ms <= 0.0:
            raise ValueError(f"duration_ms must be positive, got {self.duration_ms}")

    @property
    def end_ms(self) -> float:
        """Recovery instant; the window is half-open ``[start, end)``."""
        return self.start_ms + self.duration_ms

    def active_at(self, time_ms: float) -> bool:
        """True while the outage is in effect (half-open window)."""
        return self.start_ms <= time_ms < self.end_ms

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return {
            "platform_index": self.platform_index,
            "start_ms": self.start_ms,
            "duration_ms": self.duration_ms,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FleetOutage":
        """Rebuild from :meth:`to_dict` output."""
        reject_unknown_keys(cls, data)
        return cls(
            platform_index=int(data["platform_index"]),
            start_ms=float(data["start_ms"]),
            duration_ms=float(data["duration_ms"]),
        )


@dataclass(frozen=True)
class PlatformSpec:
    """One platform of the fleet: accelerator preset, scheduler, capacity.

    Attributes:
        platform: accelerator platform preset name
            (``repro.hardware.all_platform_names()``).
        scheduler: scheduler driving this platform
            (``repro.schedulers.scheduler_names()``).
        max_sessions: how many sessions may be active on the platform at
            once — the admission tier's capacity notion; the platform's
            ``allocated fraction`` is ``active / max_sessions``.
        name: optional display label; defaults to
            ``"<platform>+<scheduler>"`` (indices keep duplicates apart).
    """

    platform: str
    scheduler: str
    max_sessions: int = DEFAULT_MAX_SESSIONS
    name: str = ""

    def __post_init__(self) -> None:
        if self.platform not in all_platform_names():
            raise ValueError(
                f"unknown platform preset {self.platform!r}; "
                f"available: {', '.join(all_platform_names())}"
            )
        if self.scheduler not in scheduler_names():
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; "
                f"available: {', '.join(scheduler_names())}"
            )
        if self.max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1 (got {self.max_sessions})")
        if not self.name:
            object.__setattr__(self, "name", f"{self.platform}+{self.scheduler}")

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return {
            "platform": self.platform,
            "scheduler": self.scheduler,
            "max_sessions": self.max_sessions,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PlatformSpec":
        """Rebuild from :meth:`to_dict` output."""
        reject_unknown_keys(cls, data)
        return cls(**dict(data))


@dataclass(frozen=True)
class FleetSpec:
    """Everything a fleet simulation needs, by value.

    Attributes:
        platforms: the fleet's platforms, in routing order (policies that
            scan break ties by this index).
        users: the user populations submitting sessions.
        policy: routing/admission policy name
            (``repro.fleet.routing_policy_names()``).
        duration_ms: fleet-clock window over which sessions arrive.
        seed: master seed; per-user arrival streams and per-session
            simulation seeds are all derived from it deterministically.
        outages: declared platform outages (empty = the historical
            always-healthy fleet; serialized only when non-empty).
    """

    platforms: Tuple[PlatformSpec, ...]
    users: Tuple[UserSpec, ...]
    policy: str = "round_robin"
    duration_ms: float = 2000.0
    seed: int = 0
    outages: Tuple[FleetOutage, ...] = ()

    def __post_init__(self) -> None:
        # Accept lists for ergonomic construction; store tuples (hashable).
        if not isinstance(self.platforms, tuple):
            object.__setattr__(self, "platforms", tuple(self.platforms))
        if not isinstance(self.users, tuple):
            object.__setattr__(self, "users", tuple(self.users))
        if not self.platforms:
            raise ValueError("a fleet needs at least one platform")
        if not self.users:
            raise ValueError("a fleet needs at least one user population")
        population_names = [spec.name for spec in self.users]
        if len(set(population_names)) != len(population_names):
            raise ValueError(f"duplicate population names: {population_names}")
        for spec in self.users:
            if spec.scenario not in scenario_names():
                raise ValueError(
                    f"population {spec.name!r}: unknown scenario {spec.scenario!r}; "
                    f"available: {', '.join(scenario_names())}"
                )
        from repro.fleet.policies import routing_policy_names

        if self.policy not in routing_policy_names():
            raise ValueError(
                f"unknown routing policy {self.policy!r}; "
                f"available: {', '.join(routing_policy_names())}"
            )
        if self.duration_ms <= 0:
            raise ValueError(f"duration_ms must be positive (got {self.duration_ms})")
        if not isinstance(self.outages, tuple):
            object.__setattr__(self, "outages", tuple(self.outages))
        for outage in self.outages:
            if outage.platform_index >= len(self.platforms):
                raise ValueError(
                    f"outage targets platform {outage.platform_index} but the "
                    f"fleet has only {len(self.platforms)} platform(s)"
                )

    @property
    def total_users(self) -> int:
        """Number of individual users across every population."""
        return sum(spec.users for spec in self.users)

    @property
    def total_capacity(self) -> int:
        """Summed session capacity of every platform."""
        return sum(spec.max_sessions for spec in self.platforms)

    def platform_labels(self) -> list[str]:
        """Display labels, disambiguated by index when presets repeat."""
        labels = [spec.name for spec in self.platforms]
        seen: dict[str, int] = {}
        unique = []
        for label in labels:
            count = seen.get(label, 0)
            seen[label] = count + 1
            unique.append(label if count == 0 else f"{label}#{count}")
        return unique

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`).

        Outages are emitted only when declared, so fault-free specs keep
        their historical canonical keys (and store/artifact content
        addresses).
        """
        payload = {
            "platforms": [spec.to_dict() for spec in self.platforms],
            "users": [spec.to_dict() for spec in self.users],
            "policy": self.policy,
            "duration_ms": self.duration_ms,
            "seed": self.seed,
        }
        if self.outages:
            payload["outages"] = [outage.to_dict() for outage in self.outages]
        return payload

    @classmethod
    def from_dict(cls, data: Mapping) -> "FleetSpec":
        """Rebuild from :meth:`to_dict` output."""
        reject_unknown_keys(cls, data)
        payload = dict(data)
        payload["platforms"] = tuple(
            PlatformSpec.from_dict(item) for item in payload["platforms"]
        )
        payload["users"] = tuple(UserSpec.from_dict(item) for item in payload["users"])
        payload["outages"] = tuple(
            FleetOutage.from_dict(item) for item in payload.get("outages", [])
        )
        return cls(**payload)

    def canonical_key(self) -> str:
        """Canonical JSON of the spec — stable across processes/sessions."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
