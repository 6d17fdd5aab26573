"""Engine parity: results and traces bit-for-bit across both modes.

The fast engine (the event loop over the incremental pool, cached views
and flat-array costing, with dispatch elision) must be *observationally
indistinguishable* from the retained reference path (the same loop over
the scan-based components) — with and without injected faults.
These tests run generated scenarios across every registered scheduler on
both engine paths and compare ``SimulationResult.to_dict()``, the full
event traces and the mode-independent engine counters; with elision off,
every engine counter and every finished-hook call must match too.
Request ids come from a process-global counter, so traces are compared
after normalizing ids by order of first appearance (relative order — all
the engine ever relies on — is preserved by the mapping).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.jobs import generated_context, shared_context
from repro.schedulers import make_scheduler, scheduler_names
from repro.schedulers.fcfs import DynamicFcfsScheduler
from repro.sim import FAULT_KINDS, SimulationEngine, Tracer, sample_fault_plan
from repro.sim.request import InferenceRequest
from repro.sim.results import SimulationResult
from repro.workloads import GeneratorSpec, arrival_process_names

#: Generated scenarios swept by the parity matrix (satellite requirement: >= 10).
PARITY_SCENARIO_COUNT = 10

#: Generated scenarios swept by the traffic-model parity matrix.
TRAFFIC_PARITY_SCENARIO_COUNT = 4

_SPEC = GeneratorSpec(seed=7)
#: Same zoo, but head-task arrivals sample every registered traffic model.
_TRAFFIC_SPEC = GeneratorSpec(
    seed=11, traffic_models=tuple(arrival_process_names()), name_prefix="traffic"
)
_PLATFORM = "4k_1ws_2os"
_DURATION_MS = 150.0

#: Generator seeds of the fault parity sweep (scenario 0 of each).
FAULT_PARITY_SEEDS = (0, 1, 3)

#: Engine counters that do not depend on the mode (elision only exists in
#: fast mode, so rounds/elided/coalesced legitimately differ).
_MODE_INDEPENDENT_COUNTERS = (
    "events_processed",
    "peak_event_heap",
    "requests_aborted",
    "requests_retried",
    "requests_failed",
)


def _normalize(records):
    mapping: dict[int, int] = {}
    return [
        replace(record, request_id=mapping.setdefault(record.request_id, len(mapping)))
        for record in records
    ]


def _run(scenario, platform, cost_table, scheduler_name, mode,
         duration_ms=_DURATION_MS, seed=0, **engine_kwargs):
    tracer = Tracer()
    engine = SimulationEngine(
        scenario=scenario,
        platform=platform,
        scheduler=make_scheduler(scheduler_name),
        duration_ms=duration_ms,
        seed=seed,
        cost_table=cost_table,
        tracer=tracer,
        mode=mode,
        **engine_kwargs,
    )
    result = engine.run()
    counters = {name: getattr(engine, name) for name in _MODE_INDEPENDENT_COUNTERS}
    return result.to_dict(), _normalize(tracer.records), counters


def _assert_parity(scenario, platform, cost_table, scheduler_name, duration_ms, seed=0,
                   **engine_kwargs):
    """Fast and reference runs must be identical."""
    label = f"{scenario.name} / {scheduler_name}"
    fast = _run(scenario, platform, cost_table, scheduler_name, "fast",
                duration_ms=duration_ms, seed=seed, **engine_kwargs)
    ref = _run(scenario, platform, cost_table, scheduler_name, "reference",
               duration_ms=duration_ms, seed=seed, **engine_kwargs)
    assert fast[0] == ref[0], f"result mismatch: {label}"
    assert fast[1] == ref[1], f"trace mismatch: {label}"
    assert fast[2] == ref[2], f"counter mismatch: {label}"
    return fast[0]


@pytest.mark.parametrize("index", range(PARITY_SCENARIO_COUNT))
def test_generated_scenarios_bitwise_parity_across_all_schedulers(index):
    scenario, platform, cost_table = generated_context(_SPEC, index, _PLATFORM)
    for scheduler_name in scheduler_names():
        _assert_parity(scenario, platform, cost_table, scheduler_name, _DURATION_MS)


@pytest.mark.parametrize("index", range(TRAFFIC_PARITY_SCENARIO_COUNT))
def test_traffic_model_scenarios_parity_across_kernels(index):
    scenario, platform, cost_table = generated_context(_TRAFFIC_SPEC, index, _PLATFORM)
    for scheduler_name in scheduler_names():
        _assert_parity(scenario, platform, cost_table, scheduler_name, _DURATION_MS)


@pytest.mark.parametrize("scheduler_name", scheduler_names())
def test_preset_scenario_parity(scheduler_name):
    scenario, platform, cost_table = shared_context("ar_call", _PLATFORM, 0.5)
    _assert_parity(scenario, platform, cost_table, scheduler_name, 300.0)


@pytest.mark.parametrize("scheduler_name", scheduler_names())
def test_vr_gaming_parity(scheduler_name):
    """The quick basket's other preset (``benchmarks/test_perf_engine.py``)."""
    scenario, platform, cost_table = shared_context("vr_gaming", _PLATFORM, 0.5)
    _assert_parity(scenario, platform, cost_table, scheduler_name, 400.0)


@pytest.mark.parametrize("scheduler_name", ("fcfs_dynamic", "planaria", "dream_full"))
@pytest.mark.parametrize("index", range(2))
def test_kv_batch_generated_parity(index, scheduler_name):
    """kv_batch scenarios: budgets, batch dilation and interaction turns."""
    scenario, platform, cost_table = generated_context(
        GeneratorSpec(resource_model="kv_batch"), index, _PLATFORM
    )
    _assert_parity(scenario, platform, cost_table, scheduler_name, 400.0,
                   resource_model="kv_batch")


@pytest.mark.parametrize("scheduler_name", ("dream_smartdrop", "dream_full"))
@pytest.mark.parametrize("scenario_name", ("vr_gaming", "ar_social"))
def test_smartdrop_parity_on_deep_queues(scenario_name, scheduler_name):
    """Cells where SmartDrop drops frames and its fast scan takes every exit.

    The sweeps above average under two pending requests per SmartDrop call
    and drop nothing.  Here the droppable-task set empties as budgets are
    spent, and Condition 2 is completed by pending and by running requests.
    """
    scenario, platform, cost_table = shared_context(scenario_name, "4k_2ws", 0.5)
    result = _assert_parity(scenario, platform, cost_table, scheduler_name, 400.0)
    assert SimulationResult.from_dict(result).dropped_frames > 0


def test_supernet_switch_keeps_the_smartdrop_memo(monkeypatch):
    """A request switching variant already has its pre-switch memo entry.

    The reference SmartDrop scan memoizes ``minimum_to_go`` for every pending
    request before dispatch, so after a switch the memo holds the pre-switch
    value until the first layer completes.  The fast scan skips requests of
    non-droppable tasks, so DREAM-Full fills their entry before switching.
    """
    scenario, platform, cost_table = shared_context("vr_gaming", "4k_2ws", 0.5)
    scheduler = make_scheduler("dream_full")
    switched, cold = [], []
    switch_variant = InferenceRequest.switch_variant

    def checked_switch(request, variant):
        entry = scheduler.frame_drop_engine._to_go_cache.get(request.request_id)
        switched.append(request.request_id)
        if entry is None or entry[0] != request.next_position:
            cold.append(request.request_id)
        switch_variant(request, variant)

    monkeypatch.setattr(InferenceRequest, "switch_variant", checked_switch)
    SimulationEngine(
        scenario=scenario, platform=platform, scheduler=scheduler,
        duration_ms=400.0, seed=0, cost_table=cost_table,
    ).run()
    assert switched and not cold


@pytest.mark.parametrize("kind", FAULT_KINDS)
@pytest.mark.parametrize("generator_seed", FAULT_PARITY_SEEDS)
def test_fault_plans_bitwise_parity_across_all_schedulers(generator_seed, kind):
    """Faulted runs: fault edges, aborts, retries and expiries in lockstep."""
    scenario, platform, cost_table = generated_context(
        GeneratorSpec(seed=generator_seed), 0, _PLATFORM
    )
    plan = sample_fault_plan(
        seed=1, duration_ms=_DURATION_MS, accelerators=len(platform.accelerators),
        kinds=(kind,),
    )
    for scheduler_name in scheduler_names():
        _assert_parity(scenario, platform, cost_table, scheduler_name, _DURATION_MS,
                       seed=1, faults=plan)


def test_kv_batch_outage_parity(outages_failing_one_request):
    """kv_batch under outages that exhaust one request's retry budget."""
    scenario, platform, cost_table = generated_context(
        GeneratorSpec(resource_model="kv_batch"), 0, _PLATFORM
    )

    def run(faults):
        return _run(scenario, platform, cost_table, "fcfs_dynamic", "fast", 300.0,
                    resource_model="kv_batch", faults=faults)[1]

    plan, target = outages_failing_one_request(run)
    assert [r.event for r in run(plan) if (r.task_name, r.frame_id) == target][-1] == "failed"
    for scheduler_name in ("fcfs_dynamic", "planaria", "dream_full"):
        _assert_parity(scenario, platform, cost_table, scheduler_name, 300.0,
                       resource_model="kv_batch", faults=plan)


def _engine(scheduler, duration_ms=250.0, **kwargs):
    scenario, platform, cost_table = shared_context("ar_call", _PLATFORM, 0.5)
    return SimulationEngine(
        scenario=scenario,
        platform=platform,
        scheduler=scheduler,
        duration_ms=duration_ms,
        cost_table=cost_table,
        **kwargs,
    )


@pytest.mark.parametrize("scheduler_name", scheduler_names())
def test_engine_counters_identical_across_loops(scheduler_name):
    """With elision off fast mode dispatches exactly like reference mode.

    The plan opens every fault kind, so fault edges, outage aborts and
    retries are counted too.
    """
    plan = sample_fault_plan(seed=0, duration_ms=250.0, accelerators=3)
    reference_engine = _engine(make_scheduler(scheduler_name), mode="reference", faults=plan)
    reference_engine.run()
    fast_engine = _engine(make_scheduler(scheduler_name), dispatch_elision=False, faults=plan)
    fast_engine.run()
    for counter in (
        "events_processed",
        "dispatch_rounds",
        "dispatches_elided",
        "events_coalesced",
        "peak_event_heap",
        "requests_aborted",
        "requests_retried",
        "requests_failed",
    ):
        assert getattr(fast_engine, counter) == getattr(reference_engine, counter), counter


class _HookRecorder(DynamicFcfsScheduler):
    """FCFS scheduler that also records every finished-hook invocation."""

    name = "hook_recorder"

    def __init__(self):
        super().__init__()
        self.calls: list[tuple[str, int, str, float]] = []

    def on_request_finished(self, request):
        self.calls.append(
            (request.task_name, request.frame_id, request.state.value, request.last_progress_ms)
        )


def test_lifecycle_hooks_fire_identically_across_loops():
    runs = {}
    for mode in ("reference", "fast"):
        scheduler = _HookRecorder()
        _engine(scheduler, mode=mode).run()
        runs[mode] = scheduler.calls
    assert runs["reference"], "recorder saw no hook calls"
    assert runs["fast"] == runs["reference"]


def test_reference_mode_uses_reference_components():
    from repro.hardware.cost_table import ReferenceCostTable
    from repro.sim.queues import ReferenceRequestPool

    scenario, platform, cost_table = shared_context("ar_call", _PLATFORM, 0.5)
    engine = SimulationEngine(
        scenario=scenario,
        platform=platform,
        scheduler=make_scheduler("dream_full"),
        duration_ms=100.0,
        cost_table=cost_table,
        mode="reference",
    )
    assert isinstance(engine.cost_table, ReferenceCostTable)
    assert isinstance(engine._pool, ReferenceRequestPool)
    assert engine._executors[0].fast is False


def test_unknown_mode_rejected():
    scenario, platform, cost_table = shared_context("ar_call", _PLATFORM, 0.5)
    with pytest.raises(ValueError, match="mode"):
        SimulationEngine(
            scenario=scenario,
            platform=platform,
            scheduler=make_scheduler("fcfs_dynamic"),
            duration_ms=100.0,
            cost_table=cost_table,
            mode="warp",
        )


def test_unknown_kernel_rejected():
    """DREAM has one decision path; there is no kernel option to set."""
    scenario, platform, cost_table = shared_context("ar_call", _PLATFORM, 0.5)
    with pytest.raises(TypeError, match="kernel"):
        SimulationEngine(
            scenario=scenario,
            platform=platform,
            scheduler=make_scheduler("fcfs_dynamic"),
            duration_ms=100.0,
            cost_table=cost_table,
            kernel="simd",
        )


def test_unknown_loop_rejected():
    """The mode picks the loop; there is no separate loop option to set."""
    scenario, platform, cost_table = shared_context("ar_call", _PLATFORM, 0.5)
    with pytest.raises(TypeError, match="loop"):
        SimulationEngine(
            scenario=scenario,
            platform=platform,
            scheduler=make_scheduler("fcfs_dynamic"),
            duration_ms=100.0,
            cost_table=cost_table,
            loop="turbo",
        )


def test_engine_counts_events():
    scenario, platform, cost_table = shared_context("ar_call", _PLATFORM, 0.5)
    engine = SimulationEngine(
        scenario=scenario,
        platform=platform,
        scheduler=make_scheduler("fcfs_dynamic"),
        duration_ms=200.0,
        cost_table=cost_table,
    )
    engine.run()
    assert engine.events_processed > 0
    # Every event triggers a dispatch, but wake-hint elision may satisfy it
    # without consulting the scheduler; rounds + elisions covers them all.
    assert engine.dispatch_rounds + engine.dispatches_elided >= engine.events_processed
    assert engine.dispatch_rounds > 0

    # With elision forced off the historical invariant holds exactly.
    engine_off = SimulationEngine(
        scenario=scenario,
        platform=platform,
        scheduler=make_scheduler("fcfs_dynamic"),
        duration_ms=200.0,
        cost_table=cost_table,
        dispatch_elision=False,
    )
    engine_off.run()
    assert engine_off.dispatches_elided == 0
    assert engine_off.dispatch_rounds >= engine_off.events_processed
