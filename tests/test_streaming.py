"""Streaming arrivals: O(tasks) heap occupancy and materialized-path parity."""

from __future__ import annotations

import pytest

from repro.experiments.jobs import generated_context, shared_context
from repro.schedulers import make_scheduler
from repro.sim import SimulationEngine, Tracer, audit_trace
from repro.workloads import (
    GeneratorSpec,
    Scenario,
    TaskSpec,
    build_scenario,
    generate_frames,
    scenario_names,
)
from repro.workloads.traffic import BurstyArrival, PeriodicArrival, PoissonArrival


def _streamed_arrivals(scenario, platform, cost_table, duration_ms, seed=0):
    """(task, frame, time) head-arrival stream observed by a real engine run."""
    tracer = Tracer()
    engine = SimulationEngine(
        scenario=scenario,
        platform=platform,
        scheduler=make_scheduler("fcfs_dynamic"),
        duration_ms=duration_ms,
        seed=seed,
        cost_table=cost_table,
        tracer=tracer,
    )
    engine.run()
    arrivals = [
        (record.task_name, record.frame_id, record.time_ms)
        for record in tracer.records
        if record.event == "arrival"
    ]
    return engine, arrivals


class TestStreamingParity:
    """The lazy per-task iterators must replay generate_frames() exactly."""

    @pytest.mark.parametrize("scenario_name", ["ar_call", "vr_gaming", "drone_indoor"])
    def test_preset_scenarios_stream_the_materialized_frames(self, scenario_name):
        scenario, platform, cost_table = shared_context(scenario_name, "4k_1ws_2os", 0.5)
        _, streamed = _streamed_arrivals(scenario, platform, cost_table, 400.0)
        materialized = [
            (frame.task_name, frame.frame_id, frame.arrival_ms)
            for frame in generate_frames(scenario, duration_ms=400.0, seed=0)
        ]
        # Frames arriving at the very end may still be streamed after the
        # last completion drains; the engine processes every frame the
        # materialized path generates.
        assert streamed == materialized

    def test_generated_traffic_scenarios_stream_the_materialized_frames(self):
        spec = GeneratorSpec(seed=5, traffic_models=("poisson", "bursty", "load_scaled"))
        for index in range(3):
            scenario, platform, cost_table = generated_context(spec, index, "4k_1ws_2os")
            _, streamed = _streamed_arrivals(scenario, platform, cost_table, 300.0)
            materialized = [
                (frame.task_name, frame.frame_id, frame.arrival_ms)
                for frame in generate_frames(scenario, duration_ms=300.0, seed=0)
            ]
            assert streamed == materialized, scenario.name


class TestHeapBoundedness:
    def test_peak_heap_is_o_tasks_not_o_frames(self):
        """The acceptance bar: a long window on the densest Table-3
        scenario keeps the event heap bounded by tasks + in-flight slots."""
        densest = max(
            scenario_names(),
            key=lambda name: sum(task.fps for task in build_scenario(name).head_tasks),
        )
        scenario, platform, cost_table = shared_context(densest, "4k_1ws_2os", 0.5)
        engine = SimulationEngine(
            scenario=scenario,
            platform=platform,
            scheduler=make_scheduler("fcfs_dynamic"),
            duration_ms=10_000.0,
            cost_table=cost_table,
        )
        result = engine.run()
        total_frames = sum(stats.total_frames for stats in result.task_stats.values())
        assert total_frames > 1000  # genuinely long run
        assert engine.peak_event_heap <= 4 * (len(scenario.tasks) + len(platform))
        assert engine.peak_event_heap < total_frames / 10

    def test_peak_heap_counts_both_modes_identically(self):
        scenario, platform, cost_table = shared_context("ar_call", "4k_1ws_2os", 0.5)
        peaks = {}
        for mode in ("fast", "reference"):
            engine = SimulationEngine(
                scenario=scenario,
                platform=platform,
                scheduler=make_scheduler("dream_full"),
                duration_ms=300.0,
                cost_table=cost_table,
                mode=mode,
            )
            engine.run()
            peaks[mode] = engine.peak_event_heap
        assert peaks["fast"] == peaks["reference"] > 0


class TestStreamingWithTrafficModels:
    @pytest.mark.parametrize(
        "traffic", [PoissonArrival(rate_scale=2.0), BurstyArrival(burst_rate_scale=6.0)]
    )
    def test_engine_runs_cleanly_under_stochastic_traffic(
        self, tiny_models, het_4k_platform, traffic
    ):
        scenario = Scenario(
            name=f"stream_{traffic.kind}",
            tasks=(
                TaskSpec("vision", tiny_models["alpha"], fps=30, traffic=traffic),
                TaskSpec("heavy", tiny_models["beta"], fps=15),
            ),
        )
        tracer = Tracer()
        engine = SimulationEngine(
            scenario=scenario,
            platform=het_4k_platform,
            scheduler=make_scheduler("fcfs_dynamic"),
            duration_ms=2000.0,
            tracer=tracer,
        )
        result = engine.run()
        assert not audit_trace(tracer, scenario=scenario, result=result)
        assert result.task_stats["vision"].total_frames > 0

    def test_out_of_order_arrivals_are_clamped_monotone(self, tiny_models, het_4k_platform):
        """Pathological jitter (amplitude > period) can emit frame k+1
        before frame k; the engine clamps so simulated time never reverses."""
        scenario = Scenario(
            name="pathological_jitter",
            tasks=(
                TaskSpec(
                    "vision",
                    tiny_models["alpha"],
                    fps=30,
                    traffic=PeriodicArrival(jitter_ms=5 * 1000.0 / 30),
                ),
            ),
        )
        tracer = Tracer()
        engine = SimulationEngine(
            scenario=scenario,
            platform=het_4k_platform,
            scheduler=make_scheduler("fcfs_dynamic"),
            duration_ms=1000.0,
            tracer=tracer,
        )
        engine.run()
        times = [record.time_ms for record in tracer.records]
        assert times == sorted(times)
        arrivals = [
            record.time_ms for record in tracer.records if record.event == "arrival"
        ]
        assert arrivals == sorted(arrivals)
