"""Unit tests for scenarios, frame generation and task-level dynamicity."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.models.layers import fc
from repro.models.graph import ModelGraph
from repro.workloads import build_scenario, generate_frames, scenario_names
from repro.workloads.dynamicity import PhasedWorkload, WorkloadPhase
from repro.workloads.scenario import Scenario, TaskSpec
from repro.workloads.scenarios import DEFAULT_CASCADE_PROBABILITY


def _model(name):
    return ModelGraph(name=name, layers=(fc(f"{name}.fc", 64, 64),))


class TestTaskSpec:
    def test_period(self):
        task = TaskSpec("t", _model("m"), fps=60)
        assert task.period_ms == pytest.approx(1000.0 / 60.0)

    def test_invalid_fps(self):
        with pytest.raises(ValueError):
            TaskSpec("t", _model("m"), fps=0)

    def test_self_dependency_rejected(self):
        with pytest.raises(ValueError):
            TaskSpec("t", _model("m"), fps=30, depends_on="t")


class TestScenarioStructure:
    def test_duplicate_task_names_rejected(self):
        with pytest.raises(ValueError):
            Scenario("s", (TaskSpec("a", _model("m1"), 30), TaskSpec("a", _model("m2"), 30)))

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ValueError):
            Scenario("s", (TaskSpec("a", _model("m1"), 30, depends_on="ghost"),))

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            Scenario(
                "s",
                (
                    TaskSpec("a", _model("m1"), 30, depends_on="b"),
                    TaskSpec("b", _model("m2"), 30, depends_on="a"),
                ),
            )

    def test_duplicate_model_names_rejected(self):
        with pytest.raises(ValueError):
            Scenario("s", (TaskSpec("a", _model("m"), 30), TaskSpec("b", _model("m"), 30)))

    def test_chain_queries(self, tiny_scenario):
        assert tiny_scenario.task("cascade").depends_on == "vision"
        assert not tiny_scenario.is_chain_tail("vision")
        assert tiny_scenario.is_chain_tail("cascade")
        assert tiny_scenario.dependency_chain("cascade") == ["vision", "cascade"]

    def test_head_tasks(self, tiny_scenario):
        heads = {task.name for task in tiny_scenario.head_tasks}
        assert heads == {"vision", "heavy", "context"}

    def test_all_model_graphs_includes_supernet_variants(self, tiny_scenario):
        names = tiny_scenario.model_names()
        assert "super_heavy" in names and "super_light" in names


class TestPaperScenarios:
    @pytest.mark.parametrize("name", scenario_names())
    def test_builds_and_has_tasks(self, name):
        scenario = build_scenario(name)
        assert len(scenario) >= 3

    def test_table3_task_counts(self):
        assert len(build_scenario("vr_gaming")) == 6
        assert len(build_scenario("ar_call")) == 3
        assert len(build_scenario("drone_outdoor")) == 3
        assert len(build_scenario("drone_indoor")) == 4
        assert len(build_scenario("ar_social")) == 5

    def test_cascade_probability_propagates(self):
        scenario = build_scenario("vr_gaming", cascade_probability=0.9)
        assert scenario.task("hand_pose_estimation").trigger_probability == 0.9
        assert scenario.task("translation").trigger_probability == 0.9

    def test_default_cascade_probability_is_half(self):
        scenario = build_scenario("ar_social")
        assert scenario.task("face_verification").trigger_probability == DEFAULT_CASCADE_PROBABILITY

    def test_supernet_tasks_present(self):
        assert build_scenario("vr_gaming").task("context_understanding").is_supernet
        assert build_scenario("ar_social").task("context_understanding").is_supernet

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            build_scenario("vr_minesweeper")


class TestFrames:
    def test_frame_deadlines_one_period_after_arrival(self, tiny_scenario):
        frames = generate_frames(tiny_scenario, duration_ms=500.0, seed=0)
        for frame in frames:
            task = tiny_scenario.task(frame.task_name)
            assert frame.deadline_ms == pytest.approx(frame.arrival_ms + task.period_ms)

    def test_frame_counts_match_rates(self, tiny_scenario):
        frames = generate_frames(tiny_scenario, duration_ms=1000.0, seed=0)
        per_task = {}
        for frame in frames:
            per_task[frame.task_name] = per_task.get(frame.task_name, 0) + 1
        assert per_task["vision"] in (29, 30, 31)
        assert per_task["heavy"] in (14, 15, 16)

    def test_frames_sorted_by_arrival(self, tiny_scenario):
        frames = generate_frames(tiny_scenario, duration_ms=400.0, seed=3)
        arrivals = [frame.arrival_ms for frame in frames]
        assert arrivals == sorted(arrivals)

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_generation_is_deterministic_per_seed(self, tiny_scenario, seed):
        first = generate_frames(tiny_scenario, duration_ms=300.0, seed=seed)
        second = generate_frames(tiny_scenario, duration_ms=300.0, seed=seed)
        assert [(f.task_name, f.arrival_ms) for f in first] == [
            (f.task_name, f.arrival_ms) for f in second
        ]


class TestPhasedWorkload:
    def test_invalid_duration(self, tiny_scenario):
        with pytest.raises(ValueError):
            WorkloadPhase(tiny_scenario, 0.0)

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            PhasedWorkload(phases=())
