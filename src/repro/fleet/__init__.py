"""Cluster-scale fleet simulation: N platforms behind an admission tier.

The ROADMAP's north star is simulating *fleets* of heterogeneous
accelerator platforms serving many users, not one platform serving one
scenario.  This package is that tier:

* :mod:`repro.fleet.spec` — the declarative, picklable
  :class:`FleetSpec` / :class:`PlatformSpec` inputs;
* :mod:`repro.fleet.policies` — pluggable routing/admission policies
  (round-robin, least-loaded, per-user fair-share with throttling);
* :mod:`repro.fleet.simulator` — the two-phase
  :class:`FleetSimulator`: a deterministic serial admission pass, then
  per-session platform simulations as picklable :class:`FleetJob` objects
  sharded over the existing execution backends and result store;
* :mod:`repro.fleet.metrics` — per-user / per-platform aggregation into a
  :class:`FleetResult` (P² latency quantiles, rejection accounting);
* :mod:`repro.fleet.invariants` — the fleet-level invariant oracle
  (session conservation, no double-routing, outage-aware admission
  consistency, failover no-double-routing, frame conservation).

The whole layer rides *on top of* the single-platform engine: every
admitted session is an ordinary
:class:`~repro.experiments.jobs.CellJob` simulation, so fleet results are
bit-for-bit reproducible across backends exactly like grid results.
"""

from repro.fleet.invariants import (
    assert_fleet_invariants,
    audit_fleet,
    audit_plan,
    check_admission_consistency,
    check_failover_no_double_routing,
    check_frame_conservation,
    check_no_double_routing,
    check_session_conservation,
)
from repro.fleet.metrics import FleetResult, PlatformStats, UserStats, aggregate_fleet
from repro.fleet.policies import (
    ADMITTED,
    EVICTED,
    FAILED,
    REASON_CAPACITY,
    REASON_FAILOVER,
    REASON_FAIR_SHARE,
    REASON_OUTAGE,
    REJECTED,
    REROUTED,
    RETRY,
    ROUTING_POLICIES,
    THROTTLED,
    FairSharePolicy,
    FleetLoadView,
    LeastLoadedPolicy,
    PlatformLoad,
    RoundRobinPolicy,
    RoutingDecision,
    RoutingPolicy,
    make_routing_policy,
    routing_policy_names,
)
from repro.fleet.simulator import (
    AdmissionRecord,
    FleetJob,
    FleetPlan,
    FleetSimulator,
    session_seed,
    simulate_fleet,
)
from repro.fleet.spec import FleetOutage, FleetSpec, PlatformSpec

__all__ = [
    "ADMITTED",
    "EVICTED",
    "FAILED",
    "REASON_CAPACITY",
    "REASON_FAILOVER",
    "REASON_FAIR_SHARE",
    "REASON_OUTAGE",
    "REJECTED",
    "REROUTED",
    "RETRY",
    "THROTTLED",
    "AdmissionRecord",
    "FairSharePolicy",
    "FleetJob",
    "FleetLoadView",
    "FleetOutage",
    "FleetPlan",
    "FleetResult",
    "FleetSimulator",
    "FleetSpec",
    "LeastLoadedPolicy",
    "PlatformLoad",
    "PlatformSpec",
    "PlatformStats",
    "ROUTING_POLICIES",
    "RoundRobinPolicy",
    "RoutingDecision",
    "RoutingPolicy",
    "UserStats",
    "aggregate_fleet",
    "assert_fleet_invariants",
    "audit_fleet",
    "audit_plan",
    "check_admission_consistency",
    "check_failover_no_double_routing",
    "check_frame_conservation",
    "check_no_double_routing",
    "check_session_conservation",
    "make_routing_policy",
    "routing_policy_names",
    "session_seed",
    "simulate_fleet",
]
