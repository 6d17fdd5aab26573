"""Traffic models: arrival processes, spec plumbing and generation parity."""

from __future__ import annotations

import random

import pytest

from repro.workloads import (
    GeneratorSpec,
    Scenario,
    ScenarioGenerator,
    TaskSpec,
    arrival_process_from_dict,
    arrival_process_names,
    generate_frames,
    make_arrival_process,
)
from repro.workloads.generator import DEFAULT_TRAFFIC_MODELS
from repro.workloads.traffic import (
    BurstyArrival,
    LoadScaledArrival,
    PeriodicArrival,
    PoissonArrival,
)


class TestRegistry:
    def test_all_models_registered(self):
        assert arrival_process_names() == ["periodic", "poisson", "bursty", "load_scaled"]

    def test_make_by_name(self):
        process = make_arrival_process("poisson", rate_scale=2.0)
        assert isinstance(process, PoissonArrival)
        assert process.rate_scale == 2.0

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="periodic"):
            make_arrival_process("fractal")

    @pytest.mark.parametrize(
        "process",
        [
            PeriodicArrival(jitter_ms=1.5),
            PoissonArrival(rate_scale=0.5),
            BurstyArrival(burst_rate_scale=6.0, mean_idle_ms=150.0),
            LoadScaledArrival(start_scale=0.5, end_scale=3.0),
        ],
    )
    def test_dict_round_trip(self, process):
        assert arrival_process_from_dict(process.to_dict()) == process

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            PoissonArrival(rate_scale=0.0)
        with pytest.raises(ValueError):
            BurstyArrival(mean_burst_ms=-1.0)
        with pytest.raises(ValueError):
            LoadScaledArrival(start_scale=0.0)
        with pytest.raises(ValueError):
            PeriodicArrival(jitter_ms=-0.5)


class TestProcessSemantics:
    def _task(self, tiny_scenario):
        return tiny_scenario.task("vision")  # 30 FPS head

    @pytest.mark.parametrize("kind", ["periodic", "poisson", "bursty", "load_scaled"])
    def test_common_contract(self, tiny_scenario, kind):
        """Deadlines are one period, ids are sequential, arrivals sorted."""
        task = self._task(tiny_scenario)
        process = make_arrival_process(kind)
        frames = list(
            process.frames(task, 0.0, 2000.0, random.Random(1), default_jitter_ms=0.5)
        )
        assert frames, f"{kind} produced no frames in 2 s at 30 FPS"
        assert [frame.frame_id for frame in frames] == list(range(len(frames)))
        arrivals = [frame.arrival_ms for frame in frames]
        assert arrivals == sorted(arrivals)
        for frame in frames:
            assert frame.deadline_ms == pytest.approx(frame.arrival_ms + task.period_ms)
            assert frame.task_name == task.name

    @pytest.mark.parametrize("kind", ["periodic", "poisson", "bursty", "load_scaled"])
    def test_deterministic_per_rng_seed(self, tiny_scenario, kind):
        task = self._task(tiny_scenario)
        process = make_arrival_process(kind)
        first = list(process.frames(task, 0.0, 1000.0, random.Random(9), 0.5))
        second = list(process.frames(task, 0.0, 1000.0, random.Random(9), 0.5))
        assert first == second

    def test_periodic_override_beats_engine_default_jitter(self, tiny_scenario):
        task = self._task(tiny_scenario)
        pinned = list(
            PeriodicArrival(jitter_ms=0.0).frames(
                task, 0.0, 500.0, random.Random(0), default_jitter_ms=5.0
            )
        )
        assert all(
            frame.arrival_ms == pytest.approx(index * task.period_ms)
            for index, frame in enumerate(pinned)
        )

    def test_jittered_frame_may_spill_past_window_end(self, tiny_scenario):
        """Documented semantics: the *nominal* time is bounded by end_ms,
        so the last jittered arrival may land at or past the window end.
        Such a frame's deadline always exceeds the window, so it can never
        be measured — and both generation paths agree on it."""
        task = self._task(tiny_scenario)
        period = task.period_ms
        end_ms = 3.5 * period  # nominal times 0..3 periods are in-window
        rng = random.Random(3)
        frames = list(
            PeriodicArrival(jitter_ms=period).frames(task, 0.0, end_ms, rng)
        )
        assert len(frames) == 4  # bounded by nominal, not by arrival
        spilled = [frame for frame in frames if frame.arrival_ms >= end_ms]
        # With jitter == period the last nominal spills with probability
        # 0.5; seed 3 was checked to produce a spilled frame.
        assert spilled, "expected at least one jittered arrival past end_ms"
        for frame in spilled:
            assert frame.deadline_ms > end_ms

    def test_poisson_rate_scale_shifts_volume(self, tiny_scenario):
        task = self._task(tiny_scenario)
        slow = list(PoissonArrival(0.25).frames(task, 0.0, 20000.0, random.Random(3)))
        fast = list(PoissonArrival(4.0).frames(task, 0.0, 20000.0, random.Random(3)))
        nominal = 20000.0 / task.period_ms
        assert len(slow) < nominal < len(fast)

    def test_bursty_silent_idle_produces_gaps(self, tiny_scenario):
        task = self._task(tiny_scenario)
        process = BurstyArrival(
            burst_rate_scale=8.0, idle_rate_scale=0.0, mean_burst_ms=100.0, mean_idle_ms=100.0
        )
        frames = list(process.frames(task, 0.0, 20000.0, random.Random(5)))
        assert frames
        gaps = [
            second.arrival_ms - first.arrival_ms
            for first, second in zip(frames, frames[1:])
        ]
        # Bursts pack arrivals ~8x the nominal rate; idle phases are silent,
        # so some gap must dwarf the in-burst mean of period / 8.
        assert min(gaps) < task.period_ms / 2
        assert max(gaps) > task.period_ms

    def test_load_scaled_ramps_up(self, tiny_scenario):
        task = self._task(tiny_scenario)
        process = LoadScaledArrival(start_scale=1.0, end_scale=4.0, jitter_ms=0.0)
        frames = list(process.frames(task, 0.0, 10000.0, random.Random(0)))
        first_half = sum(1 for frame in frames if frame.arrival_ms < 5000.0)
        second_half = len(frames) - first_half
        assert second_half > 1.5 * first_half


class TestTaskSpecTraffic:
    def test_cascaded_task_rejects_traffic(self, tiny_models):
        with pytest.raises(ValueError, match="cascaded"):
            TaskSpec(
                "child",
                tiny_models["alpha"],
                fps=30,
                depends_on="parent",
                traffic=PoissonArrival(),
            )

    def test_describe_mentions_traffic(self, tiny_models):
        scenario = Scenario(
            name="traffic_demo",
            tasks=(
                TaskSpec("vision", tiny_models["alpha"], fps=30, traffic=PoissonArrival()),
            ),
        )
        assert "traffic=poisson" in scenario.describe()

    def test_generate_frames_respects_task_traffic(self, tiny_models):
        periodic = Scenario(
            name="p", tasks=(TaskSpec("vision", tiny_models["alpha"], fps=30),)
        )
        poisson = Scenario(
            name="q",
            tasks=(
                TaskSpec("vision", tiny_models["alpha"], fps=30, traffic=PoissonArrival()),
            ),
        )
        periodic_frames = generate_frames(periodic, duration_ms=1000.0, seed=0)
        poisson_frames = generate_frames(poisson, duration_ms=1000.0, seed=0)
        assert [f.arrival_ms for f in periodic_frames] != [
            f.arrival_ms for f in poisson_frames
        ]


class TestGeneratorTrafficSampling:
    def test_default_spec_key_unchanged_by_traffic_feature(self):
        """The canonical key (cache keys, RNG seeds) of a
        periodic-only spec must not mention traffic at all."""
        spec = GeneratorSpec()
        assert "traffic" not in spec.canonical_key()
        assert "traffic_models" not in spec.to_dict()

    def test_default_spec_generates_periodic_only(self):
        generator = ScenarioGenerator(GeneratorSpec())
        for index in range(5):
            for task in generator.generate(index).tasks:
                assert task.traffic is None

    def test_non_default_spec_round_trips(self):
        spec = GeneratorSpec(traffic_models=("poisson", "bursty"))
        assert spec.to_dict()["traffic_models"] == ["poisson", "bursty"]
        assert GeneratorSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_traffic_model_rejected(self):
        with pytest.raises(ValueError, match="unknown traffic model"):
            GeneratorSpec(traffic_models=("tidal",))
        with pytest.raises(ValueError, match="non-empty"):
            GeneratorSpec(traffic_models=())

    def test_sampling_assigns_processes_to_heads_only(self):
        spec = GeneratorSpec(
            seed=11, min_tasks=4, max_tasks=6, traffic_models=("poisson", "bursty", "load_scaled")
        )
        generator = ScenarioGenerator(spec)
        sampled_kinds = set()
        for index in range(8):
            for task in generator.generate(index).tasks:
                if task.depends_on is not None:
                    assert task.traffic is None
                elif task.traffic is not None:
                    sampled_kinds.add(task.traffic.kind)
        assert sampled_kinds >= {"poisson", "bursty"}

    def test_sampling_is_deterministic(self):
        spec = GeneratorSpec(seed=3, traffic_models=("periodic", "poisson"))
        first = [ScenarioGenerator(spec).generate(i).describe() for i in range(6)]
        second = [ScenarioGenerator(spec).generate(i).describe() for i in range(6)]
        assert first == second

    def test_default_constant_matches_registry(self):
        assert set(DEFAULT_TRAFFIC_MODELS) <= set(arrival_process_names())
