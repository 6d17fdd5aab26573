"""Dispatch elision + event coalescing: bit-for-bit parity and effectiveness.

The fast engine may skip ``schedule()`` calls its scheduler's declared
:class:`~repro.schedulers.base.WakeHint` proves inert, and may coalesce
same-timestamp events around provably-inert dispatches.  These tests
differential-run every registered scheduler with elision forced off vs on
(results ``to_dict()``, full traces and final stats must be identical),
check that saturated stretches actually elide, exercise coalescing with a
deliberately colliding traffic model, pin every engine counter where
arrivals, completions, fault edges and retries collide, and pin down the
supporting pool counter semantics.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterator

import pytest

from repro.experiments.jobs import generated_context, shared_context
from repro.hardware import CostTable
from repro.schedulers import make_scheduler, scheduler_names
from repro.schedulers.base import WakeHint
from repro.schedulers.planaria import MIN_FRACTION
from repro.sim import RequestPool, SimulationEngine, Tracer
from repro.sim.faults import FaultSpec
from repro.sim.request import InferenceRequest
from repro.workloads import GeneratorSpec
from repro.workloads.scenario import Scenario, TaskSpec
from repro.workloads.traffic import ArrivalProcess, Frame
from repro.models import zoo

#: Generated scenarios swept by the elision differential (satellite: >= 10),
#: sampling all four bundled traffic models so stochastic arrivals are
#: covered, not just periodic sensors.
ELISION_SCENARIO_COUNT = 10

_SPEC = GeneratorSpec(
    seed=11, traffic_models=("periodic", "poisson", "bursty", "load_scaled")
)
_PLATFORM = "4k_1ws_2os"
_DURATION_MS = 150.0


def _normalize(records):
    mapping: dict[int, int] = {}
    return [
        replace(record, request_id=mapping.setdefault(record.request_id, len(mapping)))
        for record in records
    ]


def _run(scenario, platform, cost_table, scheduler_name, duration_ms=_DURATION_MS, **kwargs):
    tracer = Tracer()
    engine = SimulationEngine(
        scenario=scenario,
        platform=platform,
        scheduler=make_scheduler(scheduler_name),
        duration_ms=duration_ms,
        seed=0,
        cost_table=cost_table,
        tracer=tracer,
        **kwargs,
    )
    result = engine.run()
    return result, _normalize(tracer.records), engine


# --------------------------------------------------------------------- #
# differential: elision off vs on
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("index", range(ELISION_SCENARIO_COUNT))
def test_generated_scenarios_identical_with_elision_off_vs_on(index):
    scenario, platform, cost_table = generated_context(_SPEC, index, _PLATFORM)
    for scheduler_name in scheduler_names():
        off_result, off_trace, off_engine = _run(
            scenario, platform, cost_table, scheduler_name, dispatch_elision=False
        )
        on_result, on_trace, on_engine = _run(
            scenario, platform, cost_table, scheduler_name, dispatch_elision=True
        )
        label = f"{scenario.name} / {scheduler_name}"
        assert on_result.to_dict() == off_result.to_dict(), f"result mismatch: {label}"
        assert on_trace == off_trace, f"trace mismatch: {label}"
        assert on_engine.events_processed == off_engine.events_processed, label
        # Final stats objects agree field-for-field (to_dict covers the
        # serialized form; compare the dataclasses too for completeness).
        assert on_result.task_stats == off_result.task_stats, label
        assert on_result.accelerator_stats == off_result.accelerator_stats, label
        # Elision-off keeps the historical per-event dispatch path.
        assert off_engine.dispatches_elided == 0
        assert off_engine.events_coalesced == 0
        # Rounds + elisions must cover at least one dispatch per event.
        assert (
            on_engine.dispatch_rounds + on_engine.dispatches_elided
            >= on_engine.events_processed
        )


def test_preset_scenarios_identical_with_elision_off_vs_on():
    for scenario_name in ("ar_call", "vr_gaming"):
        scenario, platform, cost_table = shared_context(scenario_name, _PLATFORM, 0.5)
        for scheduler_name in scheduler_names():
            off_result, off_trace, _ = _run(
                scenario, platform, cost_table, scheduler_name,
                duration_ms=300.0, dispatch_elision=False,
            )
            on_result, on_trace, _ = _run(
                scenario, platform, cost_table, scheduler_name,
                duration_ms=300.0, dispatch_elision=True,
            )
            assert on_result.to_dict() == off_result.to_dict()
            assert on_trace == off_trace


# --------------------------------------------------------------------- #
# effectiveness: saturated stretches elide
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("scheduler_name", ["planaria", "dream_fixed", "dream_smartdrop"])
def test_saturated_cell_elides_dispatches(scheduler_name):
    """ar_call saturates the platform; schedule() calls must drop >= 2x."""
    scenario, platform, cost_table = shared_context("ar_call", _PLATFORM, 0.5)
    _, _, off_engine = _run(
        scenario, platform, cost_table, scheduler_name,
        duration_ms=400.0, dispatch_elision=False,
    )
    _, _, on_engine = _run(
        scenario, platform, cost_table, scheduler_name,
        duration_ms=400.0, dispatch_elision=True,
    )
    assert on_engine.dispatches_elided > 0
    assert on_engine.dispatch_rounds + on_engine.dispatches_elided == off_engine.dispatch_rounds
    assert off_engine.dispatch_rounds >= 2 * on_engine.dispatch_rounds * 0.98, (
        f"expected >=~2x schedule() reduction, got "
        f"{off_engine.dispatch_rounds} -> {on_engine.dispatch_rounds}"
    )


def test_reference_mode_never_elides():
    scenario, platform, cost_table = shared_context("ar_call", _PLATFORM, 0.5)
    _, _, engine = _run(
        scenario, platform, cost_table, "planaria", duration_ms=200.0, mode="reference"
    )
    assert engine.dispatches_elided == 0
    assert engine.events_coalesced == 0
    assert engine.dispatch_rounds >= engine.events_processed


# --------------------------------------------------------------------- #
# same-timestamp event coalescing
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class _AlignedArrival(ArrivalProcess):
    """Strictly periodic frames that ignore the per-task phase offset.

    Head tasks are normally phase-staggered so simultaneous arrivals are
    rare; this test-only process pins every task to the same grid so the
    engine sees same-timestamp event groups on every period.
    """

    kind = "test_aligned"
    period_ms: float = 10.0

    def frames(self, task, start_ms, end_ms, rng, default_jitter_ms=0.0) -> Iterator[Frame]:
        index = 0
        time_ms = 0.0
        while time_ms < end_ms:
            yield Frame(
                task_name=task.name,
                frame_id=index,
                arrival_ms=time_ms,
                deadline_ms=time_ms + task.period_ms,
            )
            index += 1
            time_ms = index * self.period_ms


def _aligned_scenario() -> Scenario:
    process = _AlignedArrival(period_ms=8.0)
    return Scenario(
        name="aligned_pair",
        description="two tasks with deliberately colliding arrivals",
        tasks=(
            TaskSpec("det_a", zoo.build_ssd_mobilenet_v2(resolution=512, task="a"), fps=30, traffic=process),
            TaskSpec("det_b", zoo.build_ssd_mobilenet_v2(resolution=512, task="b"), fps=30, traffic=process),
        ),
    )


def test_coalescing_drains_simultaneous_events_bit_for_bit():
    from repro.hardware import CostTable, make_platform

    scenario = _aligned_scenario()
    platform = make_platform(_PLATFORM)
    cost_table = CostTable.build(platform, scenario.all_model_graphs())

    results = {}
    for elide in (False, True):
        tracer = Tracer()
        engine = SimulationEngine(
            scenario=scenario,
            platform=platform,
            scheduler=make_scheduler("fcfs_dynamic"),
            duration_ms=400.0,
            seed=0,
            cost_table=cost_table,
            tracer=tracer,
            dispatch_elision=elide,
        )
        result = engine.run()
        results[elide] = (result.to_dict(), _normalize(tracer.records), engine)

    on_engine = results[True][2]
    assert on_engine.events_coalesced > 0, "aligned arrivals should coalesce"
    assert results[True][0] == results[False][0]
    assert results[True][1] == results[False][1]
    assert results[True][2].events_processed == results[False][2].events_processed


#: Fault settings of the collision pins.  ``grid_faults`` opens its outage
#: at 83 ms, so the outage retries (``RETRY_BACKOFF_MS`` = 5 ms later, at
#: 88 ms) and every other edge (104, 160, 200 and 240 ms) land on the
#: aligned scenario's 8 ms arrival grid: fault edges and retries collide
#: with arrivals and completions, and at 200 ms a recovery and an
#: activation fire together.  ``stacked_faults`` opens and closes two
#: stalls at one instant.  The edges of one instant share one dispatch.
_COLLISION_FAULTS = {
    "no_faults": (),
    "grid_faults": (
        FaultSpec("platform_outage", start_ms=83.0, duration_ms=21.0),
        FaultSpec("accel_degrade", start_ms=160.0, duration_ms=40.0, acc_id=0, magnitude=0.5),
        FaultSpec("transient_stall", start_ms=200.0, duration_ms=40.0, acc_id=1, magnitude=2.0),
    ),
    "stacked_faults": (
        FaultSpec("transient_stall", start_ms=304.0, duration_ms=16.0, acc_id=1, magnitude=2.0),
        FaultSpec("transient_stall", start_ms=304.0, duration_ms=16.0, acc_id=2, magnitude=2.0),
    ),
}

_ENGINE_COUNTERS = (
    "events_processed",
    "dispatch_rounds",
    "dispatches_elided",
    "events_coalesced",
    "peak_event_heap",
    "requests_aborted",
    "requests_retried",
    "requests_failed",
)

#: Fast-engine counters of the aligned scenario (400 ms on 4k_1ws_2os), in
#: ``_ENGINE_COUNTERS`` order.
_COLLISION_COUNTERS = {
    ("fcfs_dynamic", "no_faults"): (191, 91, 191, 48, 5, 0, 0, 0),
    ("fcfs_dynamic", "grid_faults"): (193, 82, 192, 48, 13, 3, 3, 0),
    ("fcfs_dynamic", "stacked_faults"): (193, 89, 191, 50, 9, 0, 0, 0),
    ("planaria", "no_faults"): (8300, 8197, 8300, 48, 8, 0, 0, 0),
    ("planaria", "grid_faults"): (8312, 8198, 8311, 50, 13, 3, 3, 0),
    ("planaria", "stacked_faults"): (8304, 8197, 8302, 50, 12, 0, 0, 0),
    ("dream_fixed", "no_faults"): (8300, 8200, 8300, 48, 5, 0, 0, 0),
    ("dream_fixed", "grid_faults"): (8312, 8201, 8311, 50, 13, 3, 3, 0),
    ("dream_fixed", "stacked_faults"): (8304, 8200, 8302, 50, 9, 0, 0, 0),
    ("dream_full", "no_faults"): (7698, 7716, 7588, 0, 5, 0, 0, 0),
    ("dream_full", "grid_faults"): (8241, 8260, 8121, 0, 13, 3, 3, 0),
    ("dream_full", "stacked_faults"): (7701, 7718, 7588, 0, 9, 0, 0, 0),
}


@pytest.mark.parametrize("faults", sorted(_COLLISION_FAULTS))
@pytest.mark.parametrize("scheduler_name", ("fcfs_dynamic", "planaria", "dream_fixed", "dream_full"))
def test_colliding_events_pin_every_engine_counter(scheduler_name, faults):
    """Elision and coalescing counts where arrivals, completions, fault
    edges and retries share instants.  Only an elided first round whose
    next event is an arrival or a completion at the same instant counts
    as coalesced; a fault edge or a retry next in line does not."""
    from repro.hardware import CostTable, make_platform

    scenario = _aligned_scenario()
    platform = make_platform(_PLATFORM)
    engine = SimulationEngine(
        scenario=scenario,
        platform=platform,
        scheduler=make_scheduler(scheduler_name),
        duration_ms=400.0,
        seed=0,
        cost_table=CostTable.build(platform, scenario.all_model_graphs()),
        faults=_COLLISION_FAULTS[faults],
    )
    expected = dict(zip(_ENGINE_COUNTERS, _COLLISION_COUNTERS[scheduler_name, faults]))
    assert engine.run().engine_counters == expected


# --------------------------------------------------------------------- #
# wake-hint declarations + counter surface
# --------------------------------------------------------------------- #


def test_bundled_wake_hints_match_scheduler_contracts():
    assert make_scheduler("fcfs_dynamic").wake_hint() == WakeHint(min_free_fraction=1.0)
    assert make_scheduler("fcfs_static").wake_hint() == WakeHint(min_free_fraction=1.0)
    assert make_scheduler("veltair").wake_hint() == WakeHint(min_free_fraction=1.0)
    assert make_scheduler("planaria").wake_hint() == WakeHint(min_free_fraction=MIN_FRACTION)
    # DREAM's bookkeeping is only idempotent within one instant, and within
    # that instant no drop can newly appear after a drop-free consultation
    # (see DreamScheduler.wake_hint), so every variant — SmartDrop
    # included — keeps the idle-accelerator capacity gate.  The
    # fixed-parameter baseline has no per-call state at all, so it also
    # drops the same-instant restriction.
    assert make_scheduler("dream_fixed").wake_hint() == WakeHint(
        min_free_fraction=1.0, same_instant_only=False
    )
    for name in ("dream_mapscore", "dream_smartdrop", "dream_full"):
        assert make_scheduler(name).wake_hint() == WakeHint(
            min_free_fraction=1.0, same_instant_only=True
        )


def test_default_wake_hint_is_conservative():
    from repro.schedulers.base import Scheduler
    from repro.sim.decisions import SchedulingDecision

    class Opaque(Scheduler):
        def schedule(self, view):
            return SchedulingDecision.empty()

    assert Opaque().wake_hint() is None


def test_engine_counters_on_result_but_not_serialized():
    scenario, platform, cost_table = shared_context("ar_call", _PLATFORM, 0.5)
    result, _, engine = _run(scenario, platform, cost_table, "planaria", duration_ms=200.0)
    counters = result.engine_counters
    assert counters is not None
    assert counters["events_processed"] == engine.events_processed
    assert counters["dispatch_rounds"] == engine.dispatch_rounds
    assert counters["dispatches_elided"] == engine.dispatches_elided
    assert counters["events_coalesced"] == engine.events_coalesced
    assert "engine_counters" not in result.to_dict()

    # Counters are diagnostics, not measurements: equality ignores them, so
    # fast/reference parity is unaffected by mode-dependent elision counts.
    ref_result, _, _ = _run(
        scenario, platform, cost_table, "planaria", duration_ms=200.0, mode="reference"
    )
    assert ref_result.engine_counters["dispatches_elided"] == 0
    assert result == ref_result


# --------------------------------------------------------------------- #
# pool counters backing the elision layer
# --------------------------------------------------------------------- #


def _request(task="t", arrival=0.0, deadline=100.0):
    return InferenceRequest(
        task_name=task,
        model=zoo.build_kws_res8(),
        frame_id=0,
        arrival_ms=arrival,
        deadline_ms=deadline,
        rng=random.Random(0),
    )


def test_pool_has_pending_and_versions_track_membership():
    pool = RequestPool({"t": 5.0})
    assert pool.pending_snapshot() == ()
    membership = pool.membership_version

    request = _request()
    pool.add(request)
    assert pool.pending_snapshot() == (request,)
    assert pool.membership_version > membership

    membership = pool.membership_version
    request.mark_running()
    pool.note_dispatched(request)
    # Dispatch transitions are not membership changes...
    assert pool.membership_version == membership
    # ...but they move the request from the pending to the running view.
    assert pool.pending_snapshot() == ()
    assert pool.running_snapshot() == (request,)

    pool.remove(request)
    assert pool.membership_version > membership
    assert pool.pending_snapshot() == ()
    assert pool.running_snapshot() == ()


def test_collect_stale_keeps_entries_that_are_not_yet_due():
    pool = RequestPool({"t": 5.0})
    request = _request(deadline=10.0)
    pool.add(request)
    assert pool.collect_stale(10.0) == []
    assert pool.collect_stale(15.0) == []  # deadline + grace not yet strictly passed
    # The early returns above must not consume the entry.
    assert pool.collect_stale(15.1) == [request]


def test_scheduler_memo_caches_stay_bounded_by_live_requests():
    """Per-request memo entries must be evicted when requests finish.

    Without eviction the caches grow O(total frames ever seen), defeating
    the streaming engine's bounded-memory promise on long windows.
    """
    scenario, platform, cost_table = shared_context("ar_call", _PLATFORM, 0.5)
    for scheduler_name in ("dream_full", "planaria"):
        scheduler = make_scheduler(scheduler_name)
        engine = SimulationEngine(
            scenario=scenario,
            platform=platform,
            scheduler=scheduler,
            duration_ms=1000.0,
            seed=0,
            cost_table=cost_table,
        )
        engine.run()
        live_bound = len(scenario.tasks) * 4  # only in-flight leftovers remain
        if scheduler_name == "planaria":
            assert len(scheduler._remaining_cache) <= live_bound
        else:
            assert len(scheduler.dispatch_engine._statics_cache) <= live_bound
            assert len(scheduler.map_score_engine._to_go_cache) <= live_bound
            assert len(scheduler.frame_drop_engine._to_go_cache) <= live_bound


def test_suffix_memos_stay_bounded_by_distinct_suffixes():
    """Shared statics and memoized suffix totals are per suffix, not per request.

    A window three times as long runs three times the requests but reaches
    no new suffix of a static model: DREAM's shared-statics table and a
    fresh cost table's suffix memo of those models hold as many entries
    after 3000 ms as after 1000 ms.  SkipNet's contiguous tails (past the
    last skipped block) still appear as new skip patterns are sampled,
    within the L(L+1)/2 bound.
    """
    scenario, platform, _ = shared_context("ar_call", _PLATFORM, 0.5)
    layers = {model.name: model.num_layers for model in scenario.all_model_graphs()}
    static = {
        task.default_model.name
        for task in scenario.tasks
        if not task.default_model.is_dynamic
    }
    sizes = []
    for duration_ms in (1000.0, 3000.0):
        cost_table = CostTable.build(platform, scenario.all_model_graphs())
        scheduler = make_scheduler("dream_full")
        SimulationEngine(
            scenario=scenario,
            platform=platform,
            scheduler=scheduler,
            duration_ms=duration_ms,
            seed=0,
            cost_table=cost_table,
        ).run()
        memos = (cost_table._suffix_total, cost_table._suffix_best)
        for memo in memos:
            for name, count in Counter(key[0] for key in memo).items():
                assert count <= layers[name] * (layers[name] + 1) // 2
        sizes.append(
            (
                len(scheduler.dispatch_engine._suffix_statics),
                [sum(key[0] in static for key in memo) for memo in memos],
            )
        )
    assert sizes[0] == sizes[1]
    assert sizes[0][0] == sum(layers[name] for name in static)
