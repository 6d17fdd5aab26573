"""Unit and integration tests for the baseline schedulers and DREAM."""

import ast
import random
from itertools import accumulate
from pathlib import Path

import pytest

import repro.sim.engine
from repro.experiments.jobs import shared_context
from repro.schedulers import SCHEDULER_FACTORIES, make_scheduler, scheduler_names
from repro.schedulers.veltair import BLOCK_LATENCY_MS, VeltairScheduler
from repro.sim import SimulationEngine, Tracer, run_simulation
from repro.sim.request import InferenceRequest


def _engine_scheduler_calls() -> set[str]:
    """Names of every ``self.scheduler.<name>(...)`` call in the engine."""
    tree = ast.parse(Path(repro.sim.engine.__file__).read_text(encoding="utf-8"))
    return {
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "scheduler"
        and isinstance(node.func.value.value, ast.Name)
        and node.func.value.value.id == "self"
    }


def test_every_protocol_method_the_engine_calls_has_an_override():
    """A scheduler method the engine calls exists only while a registry
    scheduler defines it itself: a hook that no scheduler overrides is
    dead weight on every event.  ``schedule`` is abstract, so every
    scheduler defines it."""
    called = _engine_scheduler_calls()
    assert {"bind", "schedule", "on_request_finished"} <= called
    classes = {type(factory()) for factory in SCHEDULER_FACTORIES.values()}
    unused = sorted(
        name for name in called - {"schedule"}
        if not any(name in vars(cls) for cls in classes)
    )
    assert unused == []


class TestRegistry:
    def test_all_names_instantiate(self):
        for name in scheduler_names():
            scheduler = make_scheduler(name)
            assert scheduler.name == name

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            make_scheduler("round_robin_3000")

    def test_factories_return_fresh_instances(self):
        first, second = make_scheduler("dream_full"), make_scheduler("dream_full")
        assert first is not second


def _dream_info(optimization, frame_drop, supernet):
    return {
        "alpha": 1.0, "beta": 1.0, "radius": 0.5, "updates": 0,
        "enabled": optimization, "objective": "uxcost",
        "config": {
            "parameter_optimization": optimization,
            "frame_drop": frame_drop,
            "supernet_switching": supernet,
            "objective": "uxcost",
        },
        "supernet_switches": 0,
        "frame_drops": 0,
    }


#: ``info()`` of every registry scheduler right after ``bind`` on the tiny
#: scenario.  It lands in ``SimulationResult.scheduler_info``, so it is part
#: of every stored result and benchmark digest.
_BOUND_INFO = {
    "fcfs_static": {"task_to_accelerator": {"context": 0, "heavy": 1, "vision": 0, "cascade": 1}},
    "fcfs_dynamic": {},
    "veltair": {"block_latency_ms": 0.75},
    "planaria": {"fission_threshold": 2, "min_fraction": 0.5},
    "dream_fixed": _dream_info(False, False, False),
    "dream_mapscore": _dream_info(True, False, False),
    "dream_smartdrop": _dream_info(True, True, False),
    "dream_full": _dream_info(True, True, True),
}


@pytest.mark.parametrize("scheduler_name", scheduler_names())
def test_bound_scheduler_info_is_pinned(tiny_scenario, tiny_platform, tiny_cost_table,
                                        scheduler_name):
    scheduler = make_scheduler(scheduler_name)
    scheduler.bind(tiny_platform, tiny_cost_table, tiny_scenario)
    info = dict(scheduler.info())
    expected = _BOUND_INFO[scheduler_name]
    assert info == expected
    assert list(info) == list(expected)


@pytest.mark.parametrize("scheduler_name", scheduler_names())
def test_every_scheduler_completes_work(tiny_scenario, tiny_platform, scheduler_name):
    """Integration: every policy drives the tiny scenario without stalling."""
    result = run_simulation(
        scenario=tiny_scenario,
        platform=tiny_platform,
        scheduler=make_scheduler(scheduler_name),
        duration_ms=600.0,
        seed=7,
    )
    assert result.total_frames > 0
    total_completed = sum(stats.completed_frames for stats in result.task_stats.values())
    assert total_completed > 0
    assert result.total_energy_mj > 0
    assert 0.0 <= result.overall_violation_rate <= 1.0
    assert result.uxcost >= 0.0


class TestSchedulerBehaviour:
    def test_static_fcfs_pins_tasks(self, tiny_scenario, tiny_platform, tiny_cost_table):
        scheduler = make_scheduler("fcfs_static")
        scheduler.bind(tiny_platform, tiny_cost_table, tiny_scenario)
        mapping = scheduler.info()["task_to_accelerator"]
        assert set(mapping) == set(tiny_scenario.task_names)
        assert all(0 <= acc_id < len(tiny_platform) for acc_id in mapping.values())

    def test_veltair_blocks_close_at_the_latency_budget(self):
        """A block of n layers: the average latencies of its first n-1 sum
        below the budget, and either all n reach it or the block is the
        whole remaining path.  ``vr_gaming`` has blocks of both kinds."""
        scenario, platform, cost_table = shared_context("vr_gaming", "4k_1ws_2os", 0.5)
        scheduler = VeltairScheduler()
        scheduler.bind(platform, cost_table, scenario)
        closed_by = set()
        for spec in scenario.tasks:
            request = InferenceRequest(spec.name, spec.default_model, 0, 0.0, 100.0,
                                       rng=random.Random(0))
            path = list(request.remaining_path())
            size = scheduler.block_size(request)
            # Prefix sums left to right, as block_size accumulates them.
            prefix = list(accumulate(
                (cost_table.average_latency(request.model_name, index) for index in path[:size]),
                initial=0.0,
            ))
            assert prefix[size - 1] < BLOCK_LATENCY_MS
            if prefix[size] >= BLOCK_LATENCY_MS:
                closed_by.add("budget")
            else:
                assert size == len(path)
                closed_by.add("path end")
        assert closed_by == {"budget", "path end"}

    def test_dream_tracks_parameters(self, tiny_scenario, tiny_platform):
        scheduler = make_scheduler("dream_mapscore")
        run_simulation(tiny_scenario, tiny_platform, scheduler, duration_ms=500.0, seed=3)
        info = scheduler.info()
        assert 0.0 <= info["alpha"] <= 2.0
        assert 0.0 <= info["beta"] <= 2.0
        assert info["config"]["parameter_optimization"] is True

    def test_dream_fixed_never_moves_parameters(self, tiny_scenario, tiny_platform):
        scheduler = make_scheduler("dream_fixed")
        run_simulation(tiny_scenario, tiny_platform, scheduler, duration_ms=500.0, seed=3)
        assert scheduler.adaptivity_engine.alpha == pytest.approx(1.0)
        assert scheduler.adaptivity_engine.beta == pytest.approx(1.0)


class TestEngineInvariants:
    def test_determinism_same_seed(self, tiny_scenario, tiny_platform):
        first = run_simulation(tiny_scenario, tiny_platform, make_scheduler("dream_full"), 500.0, seed=11)
        second = run_simulation(tiny_scenario, tiny_platform, make_scheduler("dream_full"), 500.0, seed=11)
        assert first.uxcost == pytest.approx(second.uxcost)
        assert first.total_energy_mj == pytest.approx(second.total_energy_mj)

    def test_different_seeds_differ(self, tiny_scenario, tiny_platform):
        first = run_simulation(tiny_scenario, tiny_platform, make_scheduler("fcfs_dynamic"), 500.0, seed=1)
        second = run_simulation(tiny_scenario, tiny_platform, make_scheduler("fcfs_dynamic"), 500.0, seed=2)
        # Dynamic paths and cascades are stochastic, so at least the energy differs.
        assert first.total_energy_mj != pytest.approx(second.total_energy_mj)

    def test_tracer_records_consistent_story(self, tiny_scenario, tiny_platform):
        tracer = Tracer()
        engine = SimulationEngine(
            scenario=tiny_scenario,
            platform=tiny_platform,
            scheduler=make_scheduler("dream_smartdrop"),
            duration_ms=400.0,
            seed=5,
            tracer=tracer,
        )
        engine.run()
        dispatches = tracer.events("dispatch")
        arrivals = tracer.events("arrival") + tracer.events("cascade_arrival")
        assert dispatches and arrivals
        # Every dispatched request must have arrived first.
        arrived_ids = {record.request_id for record in arrivals}
        assert all(record.request_id in arrived_ids for record in dispatches)

    def test_cascade_requests_only_after_parent(self, tiny_scenario, tiny_platform):
        tracer = Tracer()
        engine = SimulationEngine(
            scenario=tiny_scenario,
            platform=tiny_platform,
            scheduler=make_scheduler("fcfs_dynamic"),
            duration_ms=500.0,
            seed=9,
            tracer=tracer,
        )
        engine.run()
        cascade_arrivals = tracer.events("cascade_arrival")
        assert all(record.task_name == "cascade" for record in cascade_arrivals)

    def test_measurement_window_excludes_tail_frames(self, tiny_scenario, tiny_platform):
        result = run_simulation(
            tiny_scenario, tiny_platform, make_scheduler("fcfs_dynamic"), duration_ms=500.0, seed=4
        )
        # 30 FPS task over 500 ms: at most 15 frames have deadlines inside the window.
        assert result.task_stats["vision"].total_frames <= 15

    def test_accelerator_utilization_bounded(self, tiny_scenario, tiny_platform):
        result = run_simulation(
            tiny_scenario, tiny_platform, make_scheduler("planaria"), duration_ms=500.0, seed=6
        )
        for acc in result.accelerator_stats:
            assert 0.0 <= acc.utilization <= 1.0

    def test_invalid_duration_rejected(self, tiny_scenario, tiny_platform):
        with pytest.raises(ValueError):
            SimulationEngine(tiny_scenario, tiny_platform, make_scheduler("fcfs_dynamic"), duration_ms=0.0)

    def test_variant_counts_recorded_for_supernet_task(self, tiny_scenario, tiny_platform):
        result = run_simulation(
            tiny_scenario, tiny_platform, make_scheduler("dream_full"), duration_ms=600.0, seed=2
        )
        mix = result.variant_mix("context")
        if mix:
            assert sum(mix.values()) == pytest.approx(1.0)
