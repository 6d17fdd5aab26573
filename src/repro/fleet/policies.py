"""Pluggable routing/admission policies of the fleet tier.

A policy answers one question: *given the fleet's instantaneous load,
what happens to this session request?*  The answer is a
:class:`RoutingDecision` — admit to a platform, reject, or throttle —
computed from a read-only :class:`FleetLoadView` snapshot (per-platform
occupancy, per-user active-session counts).  The admission pass in
:mod:`repro.fleet.simulator` owns all mutation; policies never touch the
occupancy state themselves, which keeps every policy trivially replayable
by the fleet invariant oracle.

Policies
--------
``round_robin``
    A rotating cursor over the platforms; the first platform at or after
    the cursor with free capacity wins.  Cheap, stateless per-request
    except for the cursor, and load-oblivious.
``least_loaded``
    The platform with the smallest allocated fraction
    (``active / max_sessions``), ties broken by absolute active count and
    then platform index — the smallest-queue-depth heuristic of classic
    load balancers.
``fair_share``
    Per-user fair sharing with throttling: a user already holding its
    fair share of the fleet's session capacity
    (``ceil(total_capacity / live contenders)``, at least 1, where the
    contenders are the currently active users plus the requester) is
    *throttled* (a distinct outcome from capacity rejection, accounted
    separately); otherwise the request is routed least-loaded.

Shared semantics: every policy rejects with reason ``"capacity"`` when no
platform has a free session slot — throttling is about *who* asks,
rejection about *whether anyone* fits.

Determinism: a policy instance is created fresh per admission pass via
:func:`make_routing_policy` and consulted in request order, so any
internal state (the round-robin cursor) is a pure function of the request
stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.users import SessionRequest

#: Decision outcomes (also the vocabulary of admission records/metrics).
ADMITTED = "admitted"
REJECTED = "rejected"
THROTTLED = "throttled"

#: Fault-recovery outcomes (admission-record vocabulary only — no policy
#: ever returns them; the simulator's failover machinery emits them).
#: ``evicted``/``retry`` are intermediate, ``rerouted`` is a placement
#: like ``admitted``, ``failed`` is terminal.
EVICTED = "evicted"
REROUTED = "rerouted"
RETRY = "retry"
FAILED = "failed"

#: Reject reason when every platform is at capacity.
REASON_CAPACITY = "capacity"
#: Throttle reason when a user exceeds its fair share.
REASON_FAIR_SHARE = "fair_share"
#: Eviction/failure reason when a platform outage kills the session.
REASON_OUTAGE = "outage"
#: Reroute reason when failover re-admits an evicted session.
REASON_FAILOVER = "failover"


@dataclass(frozen=True)
class PlatformLoad:
    """Read-only occupancy snapshot of one platform.

    ``healthy`` is the admission tier's view of declared platform
    outages: a platform inside an open outage window is unhealthy and —
    through :attr:`has_capacity` — invisible to every routing policy, so
    no policy needs fault-specific logic to avoid dead platforms.
    """

    index: int
    name: str
    max_sessions: int
    active: int
    healthy: bool = True

    @property
    def has_capacity(self) -> bool:
        """Whether one more session fits (dead platforms never do)."""
        return self.healthy and self.active < self.max_sessions

    @property
    def allocated_fraction(self) -> float:
        """Fraction of the platform's session slots currently held."""
        return self.active / self.max_sessions


@dataclass(frozen=True)
class FleetLoadView:
    """The instantaneous fleet state a policy may consult.

    Attributes:
        loads: per-platform occupancy, in platform order.
        user_active: active-session count per user id (absent = 0).
        total_users: number of individual users across all populations.
        total_capacity: summed ``max_sessions`` of every platform.
    """

    loads: Sequence[PlatformLoad]
    user_active: Mapping[str, int]
    total_users: int
    total_capacity: int

    def active_sessions(self, user_id: str) -> int:
        """How many sessions a user currently holds."""
        return self.user_active.get(user_id, 0)

    @property
    def active_users(self) -> int:
        """Users currently holding at least one session."""
        return sum(1 for count in self.user_active.values() if count > 0)


@dataclass(frozen=True)
class RoutingDecision:
    """A policy's verdict on one session request."""

    outcome: str  # ADMITTED | REJECTED | THROTTLED
    platform_index: Optional[int] = None
    reason: str = ""


def _least_loaded_index(loads: Sequence[PlatformLoad]) -> Optional[int]:
    """Index of the least-loaded platform with capacity, or ``None``."""
    candidates = [load for load in loads if load.has_capacity]
    if not candidates:
        return None
    best = min(candidates, key=lambda load: (load.allocated_fraction, load.active, load.index))
    return best.index


class RoutingPolicy:
    """Base class of every routing/admission policy."""

    #: Registry name; subclasses override.
    kind = "abstract"

    def route(self, request: "SessionRequest", view: FleetLoadView) -> RoutingDecision:
        """Decide the fate of one session request (never mutates state)."""
        raise NotImplementedError


@dataclass
class RoundRobinPolicy(RoutingPolicy):
    """Rotate a cursor over the platforms, skipping full ones."""

    cursor: int = 0

    kind = "round_robin"

    def route(self, request: "SessionRequest", view: FleetLoadView) -> RoutingDecision:
        count = len(view.loads)
        for offset in range(count):
            index = (self.cursor + offset) % count
            if view.loads[index].has_capacity:
                self.cursor = (index + 1) % count
                return RoutingDecision(ADMITTED, platform_index=index)
        return RoutingDecision(REJECTED, reason=REASON_CAPACITY)


@dataclass
class LeastLoadedPolicy(RoutingPolicy):
    """Route to the platform with the smallest allocated fraction."""

    kind = "least_loaded"

    def route(self, request: "SessionRequest", view: FleetLoadView) -> RoutingDecision:
        index = _least_loaded_index(view.loads)
        if index is None:
            return RoutingDecision(REJECTED, reason=REASON_CAPACITY)
        return RoutingDecision(ADMITTED, platform_index=index)


@dataclass
class FairSharePolicy(RoutingPolicy):
    """Throttle users holding their fair share; route the rest least-loaded.

    The share divides the fleet's session capacity by the number of *live
    contenders* — users currently holding at least one session, plus the
    requesting user when they hold none — not by the declared population
    (``view.total_users``).  Dividing by the declared count diluted the
    share whenever only a few of many declared users were active: the
    active users were throttled against capacity nobody else was using.
    Live contention converges to the declared-population share exactly
    when every declared user is active, and otherwise lets the users who
    actually showed up split the idle capacity.
    """

    kind = "fair_share"

    def fair_share(self, view: FleetLoadView, user_id: Optional[str] = None) -> int:
        """Max sessions one user may hold concurrently under this view.

        Args:
            view: the instantaneous fleet load snapshot.
            user_id: the requesting user; they count as a contender even
                before their first session is admitted.  Without a user id
                the share is computed over the currently active users
                alone (at least 1, so an idle fleet never divides by 0).
        """
        contenders = view.active_users
        if user_id is not None and view.active_sessions(user_id) == 0:
            contenders += 1
        contenders = max(1, contenders)
        return max(1, math.ceil(view.total_capacity / contenders))

    def route(self, request: "SessionRequest", view: FleetLoadView) -> RoutingDecision:
        if view.active_sessions(request.user_id) >= self.fair_share(view, request.user_id):
            return RoutingDecision(THROTTLED, reason=REASON_FAIR_SHARE)
        index = _least_loaded_index(view.loads)
        if index is None:
            return RoutingDecision(REJECTED, reason=REASON_CAPACITY)
        return RoutingDecision(ADMITTED, platform_index=index)


#: Factories for every routing policy, keyed by canonical name.
ROUTING_POLICIES: dict[str, Callable[[], RoutingPolicy]] = {
    RoundRobinPolicy.kind: RoundRobinPolicy,
    LeastLoadedPolicy.kind: LeastLoadedPolicy,
    FairSharePolicy.kind: FairSharePolicy,
}


def routing_policy_names() -> list[str]:
    """Names of every registered routing policy."""
    return list(ROUTING_POLICIES)


def make_routing_policy(name: str) -> RoutingPolicy:
    """Build a fresh policy instance by registry name.

    Raises:
        KeyError: for unknown names (message lists the alternatives).
    """
    try:
        factory = ROUTING_POLICIES[name]
    except KeyError:
        known = ", ".join(routing_policy_names())
        raise KeyError(f"unknown routing policy {name!r}; available: {known}") from None
    return factory()
