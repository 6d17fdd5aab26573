"""Fleet tier: specs, routing policies, admission planning, and the oracle.

The contracts under test mirror the engine-level suites one tier up:

* a ``FleetSpec`` is a validated, picklable, JSON-round-trippable value;
* the admission pass is a pure function of the spec (deterministic
  records and jobs, capacity respected, fair share enforced);
* serial and process execution of one spec produce a bit-for-bit
  identical ``FleetResult.to_dict()`` payload, independent of
  ``PYTHONHASHSEED``;
* the fleet invariant oracle accepts every honest run and trips the
  *targeted* invariant — and only that one — on hand-corrupted traces.
"""

import dataclasses
import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.experiments import ResultStore
from repro.fleet import (
    ADMITTED,
    EVICTED,
    FAILED,
    REASON_CAPACITY,
    REASON_FAIR_SHARE,
    REASON_OUTAGE,
    REJECTED,
    REROUTED,
    RETRY,
    THROTTLED,
    AdmissionRecord,
    FairSharePolicy,
    FleetLoadView,
    FleetOutage,
    FleetSimulator,
    FleetSpec,
    PlatformLoad,
    PlatformSpec,
    aggregate_fleet,
    assert_fleet_invariants,
    audit_fleet,
    audit_plan,
    check_admission_consistency,
    check_failover_no_double_routing,
    check_frame_conservation,
    check_no_double_routing,
    check_session_conservation,
    make_routing_policy,
    routing_policy_names,
    session_seed,
    simulate_fleet,
)
from repro.sim.invariants import TraceInvariantError
from repro.sim.results import AcceleratorStats
from repro.workloads import SessionRequest, UserSpec, session_requests


def small_spec(policy="least_loaded", max_sessions=2, users=2, seed=0):
    """A three-platform heterogeneous fleet small enough for unit tests."""
    return FleetSpec(
        platforms=(
            PlatformSpec("4k_2ws", "fcfs_dynamic", max_sessions=max_sessions),
            PlatformSpec("4k_1ws_2os", "dream_full", max_sessions=max_sessions),
            PlatformSpec("8k_2os", "dream_mapscore", max_sessions=max_sessions),
        ),
        users=(
            UserSpec("mobile", users=users, scenario="ar_call",
                     sessions_per_minute=600.0, session_duration_ms=120.0),
            UserSpec("vr", users=1, scenario="vr_gaming",
                     sessions_per_minute=300.0, session_duration_ms=150.0),
        ),
        policy=policy,
        duration_ms=400.0,
        seed=seed,
    )


def faulted_spec(max_sessions=2, users=2):
    """``small_spec`` plus a mid-window outage on platform 0."""
    return dataclasses.replace(
        small_spec(max_sessions=max_sessions, users=users),
        outages=(FleetOutage(platform_index=0, start_ms=100.0, duration_ms=150.0),),
    )


def request(arrival_ms=0.0, user_id="mobile/0", session_index=0):
    return SessionRequest(
        arrival_ms=arrival_ms,
        user_id=user_id,
        population="mobile",
        scenario="ar_call",
        session_duration_ms=100.0,
        cascade_probability=0.5,
        session_index=session_index,
    )


def view(active, user_active=None, total_users=4):
    loads = tuple(
        PlatformLoad(index=i, name=f"p{i}", max_sessions=cap, active=act)
        for i, (act, cap) in enumerate(active)
    )
    return FleetLoadView(
        loads=loads,
        user_active=dict(user_active or {}),
        total_users=total_users,
        total_capacity=sum(cap for _, cap in active),
    )


class TestUserSpec:
    def test_round_trips_through_dict(self):
        spec = UserSpec("mobile", users=3, scenario="ar_call",
                        sessions_per_minute=120.0, session_duration_ms=250.0)
        assert UserSpec.from_dict(spec.to_dict()) == spec

    def test_user_ids_are_population_scoped(self):
        spec = UserSpec("vr", users=2, scenario="vr_gaming")
        assert spec.user_ids() == ["vr/0", "vr/1"]

    @pytest.mark.parametrize("kwargs", [
        {"name": ""},
        {"name": "a/b"},
        {"users": 0},
        {"sessions_per_minute": 0.0},
        {"session_duration_ms": -1.0},
        {"cascade_probability": 1.5},
        {"scenario": "no_such_scenario"},
    ])
    def test_rejects_invalid_fields(self, kwargs):
        base = dict(name="mobile", users=1, scenario="ar_call")
        base.update(kwargs)
        with pytest.raises((ValueError, KeyError)):
            UserSpec(**base)

    def test_session_requests_are_time_ordered_and_deterministic(self):
        populations = (
            UserSpec("a", users=2, scenario="ar_call", sessions_per_minute=600.0),
            UserSpec("b", users=1, scenario="vr_gaming", sessions_per_minute=300.0),
        )
        first = session_requests(populations, duration_ms=500.0, seed=3)
        second = session_requests(populations, duration_ms=500.0, seed=3)
        assert first == second
        assert first, "expected at least one session in 500 ms"
        times = [r.arrival_ms for r in first]
        assert times == sorted(times)

    def test_session_requests_rejects_duplicate_populations(self):
        spec = UserSpec("dup", users=1, scenario="ar_call")
        with pytest.raises(ValueError):
            session_requests((spec, spec), duration_ms=100.0, seed=0)


class TestFleetSpec:
    def test_round_trips_through_dict_and_pickle(self):
        spec = small_spec()
        assert FleetSpec.from_dict(spec.to_dict()) == spec
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert spec.canonical_key() == FleetSpec.from_dict(spec.to_dict()).canonical_key()

    def test_capacity_and_user_totals(self):
        spec = small_spec(max_sessions=2, users=2)
        assert spec.total_capacity == 6
        assert spec.total_users == 3  # 2 mobile + 1 vr

    def test_duplicate_platform_names_get_distinct_labels(self):
        spec = FleetSpec(
            platforms=(
                PlatformSpec("4k_2ws", "fcfs_dynamic"),
                PlatformSpec("4k_2ws", "fcfs_dynamic"),
            ),
            users=(UserSpec("u", users=1, scenario="ar_call"),),
        )
        labels = spec.platform_labels()
        assert len(set(labels)) == 2

    @pytest.mark.parametrize("mutation", [
        {"platforms": ()},
        {"users": ()},
        {"policy": "no_such_policy"},
        {"duration_ms": 0.0},
    ])
    def test_rejects_invalid_specs(self, mutation):
        base = small_spec()
        fields = {
            "platforms": base.platforms,
            "users": base.users,
            "policy": base.policy,
            "duration_ms": base.duration_ms,
            "seed": base.seed,
        }
        fields.update(mutation)
        with pytest.raises(ValueError):
            FleetSpec(**fields)

    def test_rejects_unknown_presets(self):
        with pytest.raises(ValueError):
            PlatformSpec("no_such_platform", "fcfs_dynamic")
        with pytest.raises(ValueError):
            PlatformSpec("4k_2ws", "no_such_scheduler")
        with pytest.raises(ValueError):
            FleetSpec(
                platforms=(PlatformSpec("4k_2ws", "fcfs_dynamic"),),
                users=(
                    UserSpec("a", users=1, scenario="ar_call"),
                    UserSpec("a", users=1, scenario="vr_gaming"),
                ),
            )


class TestRoutingPolicies:
    def test_registry_contains_the_documented_policies(self):
        assert {"round_robin", "least_loaded", "fair_share"} <= set(routing_policy_names())
        with pytest.raises(KeyError):
            make_routing_policy("no_such_policy")

    def test_round_robin_cycles_and_skips_full_platforms(self):
        policy = make_routing_policy("round_robin")
        v = view([(0, 1), (1, 1), (0, 1)])  # platform 1 is full
        first = policy.route(request(), v)
        second = policy.route(request(), v)
        assert (first.outcome, first.platform_index) == (ADMITTED, 0)
        assert (second.outcome, second.platform_index) == (ADMITTED, 2)

    def test_least_loaded_picks_smallest_allocated_fraction(self):
        policy = make_routing_policy("least_loaded")
        decision = policy.route(request(), view([(3, 4), (1, 4), (2, 4)]))
        assert (decision.outcome, decision.platform_index) == (ADMITTED, 1)

    def test_least_loaded_breaks_fraction_ties_by_active_then_index(self):
        policy = make_routing_policy("least_loaded")
        decision = policy.route(request(), view([(2, 4), (1, 2), (1, 2)]))
        # 0.5 everywhere; fewest active first, lowest index among those.
        assert decision.platform_index == 1

    def test_every_policy_rejects_when_all_platforms_are_full(self):
        full = view([(1, 1), (2, 2)])
        for name in routing_policy_names():
            decision = make_routing_policy(name).route(request(), full)
            assert decision.outcome == REJECTED, name
            assert decision.reason == REASON_CAPACITY, name

    def test_fair_share_throttles_a_user_at_its_share(self):
        policy = FairSharePolicy()
        # Capacity 4, two live contenders: share = ceil(4 / 2) = 2.
        v = view([(1, 2), (2, 2)],
                 user_active={"mobile/0": 1, "mobile/1": 2}, total_users=4)
        assert policy.fair_share(v, "mobile/1") == 2
        decision = policy.route(request(user_id="mobile/1"), v)
        assert (decision.outcome, decision.reason) == (THROTTLED, REASON_FAIR_SHARE)
        # mobile/0 holds 1 < 2 and a slot is free: admitted.
        other = policy.route(request(user_id="mobile/0"), v)
        assert other.outcome == ADMITTED

    def test_fair_share_divides_by_live_contenders_not_declared_users(self):
        policy = FairSharePolicy()
        # 100 declared users but only ONE has shown up.  The declared-
        # population share would be ceil(4 / 100) = 1 and throttle the
        # lone active user against idle capacity; the live share is the
        # whole fleet.
        v = view([(1, 2), (0, 2)], user_active={"mobile/0": 1}, total_users=100)
        assert v.active_users == 1
        assert policy.fair_share(v, "mobile/0") == 4
        decision = policy.route(request(user_id="mobile/0"), v)
        assert decision.outcome == ADMITTED
        # A second user joining counts as a contender before admission:
        # share drops to ceil(4 / 2) = 2 but they hold 0, so they fit.
        assert policy.fair_share(v, "mobile/7") == 2
        assert policy.route(request(user_id="mobile/7"), v).outcome == ADMITTED

    def test_fair_share_converges_to_declared_share_under_full_contention(self):
        policy = FairSharePolicy()
        # All 4 declared users live on a capacity-4 fleet: the live share
        # equals the declared-population share, ceil(4 / 4) = 1.
        v = view([(2, 2), (2, 2)],
                 user_active={f"mobile/{i}": 1 for i in range(4)}, total_users=4)
        assert policy.fair_share(v, "mobile/0") == 1
        assert policy.route(request(user_id="mobile/0"), v).outcome == THROTTLED
        # A fifth user passes the share gate (holds 0) but nobody fits:
        # capacity rejection, not throttling.
        fifth = policy.route(request(user_id="mobile/4"), v)
        assert (fifth.outcome, fifth.reason) == (REJECTED, REASON_CAPACITY)

    def test_fair_share_divides_capacity_and_never_by_zero(self):
        v = view([(2, 4), (2, 4)],
                 user_active={"mobile/0": 2, "mobile/1": 2}, total_users=4)
        # Two live contenders over capacity 8: share 4.
        assert FairSharePolicy().fair_share(v, "mobile/0") == 4
        # An idle fleet never divides by zero.
        assert FairSharePolicy().fair_share(view([(0, 4)])) == 4


class TestAdmissionPlanning:
    def test_plan_is_deterministic(self):
        spec = small_spec()
        first = FleetSimulator(spec).plan()
        second = FleetSimulator(spec).plan()
        assert first.records == second.records
        assert [job.cache_key() for job in first.jobs] == [
            job.cache_key() for job in second.jobs
        ]

    def test_overloaded_fleet_rejects_and_stays_consistent(self):
        spec = small_spec(max_sessions=1, users=4)
        plan = FleetSimulator(spec).plan()
        counts = plan.outcome_counts()
        assert counts[REJECTED] > 0, "expected capacity rejections at max_sessions=1"
        assert counts[ADMITTED] > 0
        assert audit_plan(plan) == []

    def test_fair_share_throttles_heavy_users(self):
        spec = small_spec(policy="fair_share", max_sessions=1, users=4)
        plan = FleetSimulator(spec).plan()
        counts = plan.outcome_counts()
        assert counts[THROTTLED] > 0, "expected fair-share throttling under contention"
        assert audit_plan(plan) == []

    def test_fleet_jobs_pickle_and_reuse_cell_cache_keys(self):
        plan = FleetSimulator(small_spec()).plan()
        assert plan.jobs, "expected admitted sessions"
        job = plan.jobs[0]
        restored = pickle.loads(pickle.dumps(job))
        assert restored == job
        assert job.cache_key() == job.cell.cache_key()

    def test_session_seeds_are_distinct_per_session(self):
        seeds = [session_seed(0, sid) for sid in range(50)]
        assert len(set(seeds)) == len(seeds)
        assert session_seed(1, 0) != session_seed(0, 0)


class TestFleetExecution:
    def test_serial_and_process_results_are_bit_identical(self):
        spec = small_spec()
        serial = simulate_fleet(spec, backend="serial")
        process = simulate_fleet(spec, backend="process", workers=2)
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            process.to_dict(), sort_keys=True
        )
        assert audit_fleet(serial) == []

    def test_store_serves_repeat_sessions_from_cache(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path / "cache")
        first = simulate_fleet(spec, store=store)
        assert store.stats()["writes"] > 0
        rerun_store = ResultStore(tmp_path / "cache")
        second = simulate_fleet(spec, store=rerun_store)
        assert rerun_store.stats()["misses"] == 0
        assert rerun_store.stats()["hits"] > 0
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )

    def test_aggregates_cover_every_user_and_platform(self):
        result = simulate_fleet(small_spec())
        spec = result.plan.spec
        user_ids = [uid for pop in spec.users for uid in pop.user_ids()]
        assert sorted(result.user_stats) == sorted(user_ids)
        assert len(result.platform_stats) == len(spec.platforms)
        assert sum(s.submitted for s in result.user_stats.values()) == result.submitted
        admitted_users = [s for s in result.user_stats.values() if s.admitted]
        assert admitted_users, "expected at least one admitted user"
        quantified = [s for s in admitted_users if s.latency_quantiles]
        assert quantified, "admitted sessions should produce latency quantiles"
        for stats in quantified:
            assert set(stats.latency_quantiles) == {"count", "p50", "p95", "p99"}
        description = result.describe()
        for label in spec.platform_labels():
            assert label in description

    def test_assert_fleet_invariants_accepts_an_honest_run(self):
        assert_fleet_invariants(simulate_fleet(small_spec()))

    def test_platform_totals_are_added_left_to_right(self):
        # sum() compensates float rounding from Python 3.12 on; these values
        # round differently under it, so the payload would depend on the version.
        fleet = simulate_fleet(small_spec())
        job = fleet.plan.jobs[0]
        accelerators = tuple(
            AcceleratorStats(acc_id, f"acc{acc_id}", "ws", energy, 0.0, 0, 0, utilization)
            for acc_id, (energy, utilization) in enumerate(
                ((1e16, 1.0), (1.0, 1e-16), (1.0, 1e-16))
            )
        )
        session = dataclasses.replace(
            fleet.session_results[job.session_id], accelerator_stats=accelerators
        )
        refolded = aggregate_fleet(fleet.plan, {job.session_id: session})
        platform = refolded.platform_stats[job.platform_index]
        assert platform.total_energy_mj == 1e16
        assert platform.utilization_sum == 1.0 / 3


class TestCrossSessionDeterminism:
    """Fleet results must not depend on interpreter-level randomization."""

    def _fleet_digest_under_hash_seed(self, hash_seed: str) -> str:
        repo_root = os.path.join(os.path.dirname(__file__), "..")
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(repo_root, "src"), repo_root,
                          env.get("PYTHONPATH", "")])
        )
        script = (
            "import json\n"
            "from tests.test_fleet import small_spec\n"
            "from repro.fleet import simulate_fleet\n"
            "result = simulate_fleet(small_spec())\n"
            "print(json.dumps(result.to_dict(), sort_keys=True))\n"
        )
        output = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True,
        )
        return output.stdout.strip()

    def test_fleet_payload_is_identical_across_hash_seeds(self):
        assert (
            self._fleet_digest_under_hash_seed("1")
            == self._fleet_digest_under_hash_seed("2")
        )


class TestOracleCorruption:
    """Each hand-corrupted trace trips exactly the targeted invariant."""

    @pytest.fixture(scope="class")
    def honest(self):
        return simulate_fleet(small_spec(max_sessions=1, users=4))

    @staticmethod
    def _invariants(violations):
        return {v.invariant for v in violations}

    def test_honest_run_is_clean(self, honest):
        assert audit_fleet(honest) == []

    def test_duplicate_session_id(self, honest):
        records = honest.records
        corrupted = records + (records[0],)
        violations = check_session_conservation(corrupted)
        assert self._invariants(violations) == {"session_conservation"}

    def test_unknown_outcome(self, honest):
        records = list(honest.records)
        records[0] = dataclasses.replace(records[0], outcome="vanished")
        violations = check_session_conservation(records)
        assert self._invariants(violations) == {"session_conservation"}

    def test_leaked_session_id(self, honest):
        records = list(honest.records)
        records[-1] = dataclasses.replace(
            records[-1], session_id=records[-1].session_id + 100
        )
        violations = check_session_conservation(records)
        assert self._invariants(violations) == {"session_conservation"}

    @staticmethod
    def _chain(*outcomes):
        """Hand-built records of one session: admitted, then ``outcomes``
        (``session_conservation`` reads only the outcome chain)."""
        return [
            AdmissionRecord(
                time_ms=10.0 * step, session_id=0, user_id="mobile/0",
                population="mobile", scenario="ar_call", outcome=outcome,
                platform_index=None, reason="", duration_ms=100.0,
                active_before=(0, 0, 0),
            )
            for step, outcome in enumerate((ADMITTED, *outcomes))
        ]

    def test_retry_budget_is_per_eviction(self):
        records = self._chain(EVICTED, RETRY, REROUTED, EVICTED, RETRY, FAILED)
        assert check_session_conservation(records) == []

    def test_failure_straight_after_eviction(self):
        """An eviction always re-offers the session before it can fail."""
        violations = check_session_conservation(self._chain(EVICTED, FAILED))
        assert [v.message for v in violations] == [
            "'failed' after 'evicted' (legal predecessors: retry)"
        ]

    def test_retries_beyond_the_budget(self):
        violations = check_session_conservation(
            self._chain(EVICTED, RETRY, RETRY, FAILED)
        )
        assert [v.message for v in violations] == [
            "retry 2 of session 0 since its eviction exceeds the budget of 1"
        ]

    def test_admitted_session_without_a_job(self, honest):
        plan = honest.plan
        violations = check_no_double_routing(plan.records, plan.jobs[1:])
        assert self._invariants(violations) == {"no_double_routing"}
        assert "has no simulation job" in violations[0].message

    def test_session_with_two_jobs(self, honest):
        plan = honest.plan
        violations = check_no_double_routing(
            plan.records, plan.jobs + (plan.jobs[0],)
        )
        assert self._invariants(violations) == {"no_double_routing"}

    def test_job_platform_disagrees_with_admission(self, honest):
        plan = honest.plan
        jobs = list(plan.jobs)
        jobs[0] = dataclasses.replace(
            jobs[0], platform_index=(jobs[0].platform_index + 1) % 3
        )
        violations = check_no_double_routing(plan.records, jobs)
        assert self._invariants(violations) == {"no_double_routing"}

    def test_rejected_session_carrying_a_platform(self, honest):
        records = list(honest.records)
        index = next(
            i for i, r in enumerate(records) if r.outcome == REJECTED
        )
        records[index] = dataclasses.replace(records[index], platform_index=0)
        violations = check_no_double_routing(records, honest.plan.jobs)
        assert self._invariants(violations) == {"no_double_routing"}

    def test_tampered_occupancy_snapshot(self, honest):
        spec = honest.plan.spec
        records = list(honest.records)
        snapshot = list(records[0].active_before)
        snapshot[0] += 1
        records[0] = dataclasses.replace(records[0], active_before=tuple(snapshot))
        violations = check_admission_consistency(spec, records)
        assert "admission_consistency" in self._invariants(violations)

    def test_admission_to_a_full_platform(self, honest):
        spec = honest.plan.spec  # max_sessions=1 everywhere
        admitted = [r for r in honest.records if r.outcome == ADMITTED][:2]
        # Rewrite the second admission onto the first one's platform while
        # the first session is still active.
        first, second = admitted[0], admitted[1]
        records = []
        for record in honest.records:
            if record.session_id == second.session_id:
                active = list(record.active_before)
                active[first.platform_index] = 1
                record = dataclasses.replace(
                    record,
                    platform_index=first.platform_index,
                    active_before=tuple(active),
                )
            records.append(record)
        violations = check_admission_consistency(spec, records)
        assert "admission_consistency" in self._invariants(violations)

    def test_capacity_rejection_with_free_slots(self, honest):
        spec = honest.plan.spec
        # A hand-crafted trace whose snapshot replays cleanly (everything
        # idle) but claims a capacity rejection — the free-slot branch.
        idle = tuple(0 for _ in spec.platforms)
        records = [
            dataclasses.replace(
                honest.records[0],
                session_id=0,
                outcome=REJECTED,
                platform_index=None,
                reason=REASON_CAPACITY,
                active_before=idle,
            )
        ]
        violations = check_admission_consistency(spec, records)
        assert self._invariants(violations) == {"admission_consistency"}
        assert any("free slots" in v.message for v in violations)

    def test_missing_session_result(self, honest):
        session_results = dict(honest.session_results)
        dropped = sorted(session_results)[0]
        del session_results[dropped]
        corrupted = aggregate_fleet(honest.plan, session_results)
        violations = check_frame_conservation(corrupted)
        assert self._invariants(violations) == {"frame_conservation"}
        assert any("has no simulation result" in v.message for v in violations)

    def test_result_for_a_never_admitted_session(self, honest):
        session_results = dict(honest.session_results)
        some_result = next(iter(session_results.values()))
        session_results[10_000] = some_result
        corrupted = aggregate_fleet(honest.plan, session_results)
        violations = check_frame_conservation(corrupted)
        assert self._invariants(violations) == {"frame_conservation"}

    def test_inflated_platform_frame_counter(self, honest):
        stats = list(honest.platform_stats)
        stats[0] = dataclasses.replace(stats[0], total_frames=stats[0].total_frames + 1)
        corrupted = dataclasses.replace(honest, platform_stats=tuple(stats))
        violations = check_frame_conservation(corrupted)
        assert self._invariants(violations) == {"frame_conservation"}

    def test_assert_raises_on_violation(self, honest):
        session_results = dict(honest.session_results)
        del session_results[sorted(session_results)[0]]
        corrupted = aggregate_fleet(honest.plan, session_results)
        with pytest.raises(TraceInvariantError):
            assert_fleet_invariants(corrupted)


class TestFleetFaults:
    """Declared outages evict, fail over, and keep the accounting honest."""

    def test_outage_validation(self):
        with pytest.raises(ValueError, match="platform_index"):
            FleetOutage(platform_index=-1, start_ms=0.0, duration_ms=1.0)
        with pytest.raises(ValueError, match="start_ms"):
            FleetOutage(platform_index=0, start_ms=-1.0, duration_ms=1.0)
        with pytest.raises(ValueError, match="duration_ms"):
            FleetOutage(platform_index=0, start_ms=0.0, duration_ms=0.0)
        outage = FleetOutage(platform_index=0, start_ms=10.0, duration_ms=5.0)
        assert outage.active_at(10.0) and not outage.active_at(15.0)

    def test_spec_rejects_an_outage_on_a_missing_platform(self):
        outage = FleetOutage(platform_index=9, start_ms=0.0, duration_ms=1.0)
        with pytest.raises(ValueError, match="only 3 platform"):
            dataclasses.replace(small_spec(), outages=(outage,))

    def test_faulted_spec_round_trips(self):
        spec = faulted_spec()
        assert FleetSpec.from_dict(spec.to_dict()) == spec
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert spec.canonical_key() != small_spec().canonical_key()

    def test_fault_free_spec_serializes_without_fault_knobs(self):
        assert "outages" not in json.dumps(small_spec().to_dict())

    def test_totals_carry_fault_block_only_with_outages(self):
        healthy = simulate_fleet(small_spec()).to_dict()["totals"]
        faulted = simulate_fleet(faulted_spec()).to_dict()["totals"]
        for key in ("evicted", "rerouted", "retried", "failed", "goodput_sessions"):
            assert key not in healthy
            assert key in faulted

    def test_outage_evicts_and_reroutes(self):
        result = simulate_fleet(faulted_spec())
        assert result.evicted > 0
        assert result.rerouted > 0
        evictions = [r for r in result.records if r.outcome == EVICTED]
        assert evictions and all(r.reason == REASON_OUTAGE for r in evictions)
        outage = result.plan.spec.outages[0]
        for record in result.records:
            if record.outcome in (ADMITTED, REROUTED) and record.platform_index == 0:
                assert not outage.active_at(record.time_ms)
        assert audit_fleet(result) == []

    def test_contended_outage_retries_and_drops_goodput(self):
        result = simulate_fleet(faulted_spec(max_sessions=1, users=4))
        assert result.retried > 0
        assert result.failed > 0
        assert result.goodput_sessions == len(result.plan.jobs)
        assert result.goodput_sessions < result.admitted
        assert audit_fleet(result) == []

    def test_faulted_runs_are_deterministic_and_backend_agnostic(self):
        spec = faulted_spec(max_sessions=1, users=4)
        serial = simulate_fleet(spec, backend="serial")
        process = simulate_fleet(spec, backend="process", workers=2)
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            process.to_dict(), sort_keys=True
        )


class TestFaultedCrossSessionDeterminism:
    """Faulted fleet payloads must also survive hash randomization."""

    def _digest(self, hash_seed: str) -> str:
        repo_root = os.path.join(os.path.dirname(__file__), "..")
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(repo_root, "src"), repo_root,
                          env.get("PYTHONPATH", "")])
        )
        script = (
            "import json\n"
            "from tests.test_fleet import faulted_spec\n"
            "from repro.fleet import simulate_fleet\n"
            "result = simulate_fleet(faulted_spec(max_sessions=1, users=4))\n"
            "print(json.dumps(result.to_dict(), sort_keys=True))\n"
        )
        output = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True,
        )
        return output.stdout.strip()

    def test_faulted_payload_is_identical_across_hash_seeds(self):
        assert self._digest("1") == self._digest("2")


class TestFailoverOracleCorruption:
    """Hand-corrupted failover traces trip failover_no_double_routing."""

    @pytest.fixture(scope="class")
    def honest(self):
        return simulate_fleet(faulted_spec())

    @staticmethod
    def _violations(spec, records):
        return check_failover_no_double_routing(spec, records)

    def test_honest_failover_trace_is_clean(self, honest):
        assert self._violations(honest.plan.spec, honest.records) == []

    def test_reroute_onto_a_platform_inside_its_outage(self, honest):
        records = list(honest.records)
        index = next(i for i, r in enumerate(records) if r.outcome == REROUTED)
        records[index] = dataclasses.replace(records[index], platform_index=0)
        violations = self._violations(honest.plan.spec, records)
        assert {v.invariant for v in violations} == {"failover_no_double_routing"}
        assert any("outage window" in v.message for v in violations)

    def test_eviction_from_a_healthy_platform(self, honest):
        records = list(honest.records)
        index = next(i for i, r in enumerate(records) if r.outcome == EVICTED)
        records[index] = dataclasses.replace(records[index], platform_index=1)
        violations = self._violations(honest.plan.spec, records)
        assert {v.invariant for v in violations} == {"failover_no_double_routing"}
        assert any("no declared outage" in v.message for v in violations)

    def test_eviction_of_an_unplaced_session(self, honest):
        eviction = next(r for r in honest.records if r.outcome == EVICTED)
        # Re-evict the same session long after every placement expired.
        stray = dataclasses.replace(eviction, time_ms=10_000.0)
        records = list(honest.records) + [stray]
        violations = self._violations(honest.plan.spec, records)
        assert {v.invariant for v in violations} == {"failover_no_double_routing"}
        assert any("holds no platform" in v.message for v in violations)

    def test_double_placement_of_a_live_session(self, honest):
        admissions = [r for r in honest.records if r.outcome == ADMITTED]
        first = admissions[0]
        duplicate = dataclasses.replace(
            first, time_ms=first.time_ms + first.duration_ms / 2
        )
        records = sorted(
            list(honest.records) + [duplicate], key=lambda r: r.time_ms
        )
        violations = self._violations(honest.plan.spec, records)
        assert any("while still holding" in v.message for v in violations)
