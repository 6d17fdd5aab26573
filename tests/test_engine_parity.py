"""Decision-path parity: results and traces bit-for-bit across the axis.

The fast engine (the production event loop over the incremental pool,
cached views and flat-array costing) must be *observationally
indistinguishable* from the retained reference path (the heap loop over
the scan-based components), and the NumPy vector decision kernel
(``kernel="vector"``) from both — with and without injected faults.
These tests run generated scenarios across every registered scheduler on
every decision path and compare ``SimulationResult.to_dict()``, the full
event traces and the mode-independent engine counters.  Request ids come
from a process-global counter, so traces are compared after normalizing
ids by order of first appearance (relative order — all the engine ever
relies on — is preserved by the mapping).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.jobs import generated_context, shared_context
from repro.hardware.vector_view import HAVE_NUMPY
from repro.schedulers import make_scheduler, scheduler_names
from repro.sim import FAULT_KINDS, SimulationEngine, Tracer, sample_fault_plan
from repro.workloads import GeneratorSpec, arrival_process_names

#: Generated scenarios swept by the parity matrix (satellite requirement: >= 10).
PARITY_SCENARIO_COUNT = 10

#: Generated scenarios swept by the traffic-model kernel-parity matrix.
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
                   vector=True, **engine_kwargs):
    """Fast, reference and (when available) vector runs must be identical."""
    label = f"{scenario.name} / {scheduler_name}"
    fast = _run(scenario, platform, cost_table, scheduler_name, "fast",
                duration_ms=duration_ms, seed=seed, **engine_kwargs)
    ref = _run(scenario, platform, cost_table, scheduler_name, "reference",
               duration_ms=duration_ms, seed=seed, **engine_kwargs)
    assert fast[0] == ref[0], f"result mismatch: {label}"
    assert fast[1] == ref[1], f"trace mismatch: {label}"
    assert fast[2] == ref[2], f"counter mismatch: {label}"
    if not (vector and HAVE_NUMPY):
        return
    vec = _run(scenario, platform, cost_table, scheduler_name, "fast",
               duration_ms=duration_ms, seed=seed, kernel="vector", **engine_kwargs)
    assert vec[0] == fast[0], f"vector-kernel result mismatch: {label}"
    assert vec[1] == fast[1], f"vector-kernel trace mismatch: {label}"
    assert vec[2] == fast[2], f"vector-kernel counter mismatch: {label}"


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
                       seed=1, vector=False, faults=plan)


def test_kv_batch_outage_parity():
    """kv_batch under an outage, with no retry budget: aborts fail terminally."""
    scenario, platform, cost_table = generated_context(
        GeneratorSpec(resource_model="kv_batch"), 0, _PLATFORM
    )
    plan = sample_fault_plan(
        seed=0, duration_ms=300.0, accelerators=len(platform.accelerators),
        kinds=("platform_outage",),
    )
    for scheduler_name in ("fcfs_dynamic", "planaria", "dream_full"):
        _assert_parity(scenario, platform, cost_table, scheduler_name, 300.0,
                       resource_model="kv_batch", faults=plan, retry_budget=0)


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
    scenario, platform, cost_table = shared_context("ar_call", _PLATFORM, 0.5)
    with pytest.raises(ValueError, match="kernel"):
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


def test_vector_kernel_requires_fast_mode():
    scenario, platform, cost_table = shared_context("ar_call", _PLATFORM, 0.5)
    with pytest.raises(ValueError, match="fast"):
        SimulationEngine(
            scenario=scenario,
            platform=platform,
            scheduler=make_scheduler("fcfs_dynamic"),
            duration_ms=100.0,
            cost_table=cost_table,
            mode="reference",
            kernel="vector",
        )


@pytest.mark.skipif(not HAVE_NUMPY, reason="vector kernel requires numpy")
def test_vector_kernel_binds_to_dream():
    from repro.core.vector_kernel import VectorDecisionKernel

    scenario, platform, cost_table = shared_context("ar_call", _PLATFORM, 0.5)
    engine = SimulationEngine(
        scenario=scenario,
        platform=platform,
        scheduler=make_scheduler("dream_full"),
        duration_ms=100.0,
        cost_table=cost_table,
        kernel="vector",
    )
    engine.run()
    scheduler = engine.scheduler
    assert isinstance(scheduler.vector_kernel, VectorDecisionKernel)
    assert scheduler.dispatch_engine.kernel is scheduler.vector_kernel
    assert scheduler.frame_drop_engine.kernel is scheduler.vector_kernel


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
