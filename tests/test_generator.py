"""Property-based tests for the randomized scenario generator.

No hypothesis dependency is assumed; the same ground is covered with
seeded loops over many (spec, index) points: every generated scenario must
re-validate through ``Scenario``, have acyclic bounded-depth cascade
chains, respect every spec parameter, and be bit-identical across
processes and ``PYTHONHASHSEED`` values (the determinism contract the
parallel harness and the result store rely on).
"""

import os
import pickle
import subprocess
import sys

import pytest

from repro.workloads import GeneratorSpec, ScenarioGenerator
from repro.workloads.generator import MODEL_POOL
from repro.workloads.scenario import Scenario


class TestGeneratorSpec:
    def test_defaults_are_valid(self):
        GeneratorSpec()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_tasks": 0},
            {"min_tasks": 4, "max_tasks": 2},
            {"max_tasks": len(MODEL_POOL) + 1},
            {"fps_choices": ()},
            {"fps_choices": (30.0, -1.0)},
            {"chain_probability": 1.5},
            {"max_cascade_depth": -1},
            {"trigger_probability_range": (0.9, 0.3)},
            {"trigger_probability_range": (-0.1, 0.5)},
            {"name_prefix": ""},
        ],
    )
    def test_invalid_specs_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GeneratorSpec(**kwargs)

    def test_json_round_trip(self):
        spec = GeneratorSpec(seed=9, max_tasks=4, fps_choices=(15.0, 30.0))
        assert GeneratorSpec.from_dict(spec.to_dict()) == spec

    def test_pickle_round_trip(self):
        spec = GeneratorSpec(seed=9)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_canonical_key_distinguishes_specs(self):
        assert GeneratorSpec(seed=1).canonical_key() != GeneratorSpec(seed=2).canonical_key()
        assert GeneratorSpec(seed=1).canonical_key() == GeneratorSpec(seed=1).canonical_key()


class TestGeneratedScenarios:
    """Seeded-loop properties over a population of generated scenarios."""

    SPECS = (
        GeneratorSpec(seed=0),
        GeneratorSpec(seed=1, min_tasks=1, max_tasks=3, max_cascade_depth=0),
        GeneratorSpec(seed=2, max_tasks=6, chain_probability=0.9, resolution_sweep=False),
    )
    COUNT = 8

    def _population(self):
        for spec in self.SPECS:
            generator = ScenarioGenerator(spec)
            for index in range(self.COUNT):
                yield spec, generator.generate(index)

    def test_every_scenario_revalidates(self):
        for _, scenario in self._population():
            # Re-running the Scenario validation from scratch must succeed
            # (duplicate names, unknown deps and cycles all raise here).
            rebuilt = Scenario(
                name=scenario.name, tasks=scenario.tasks, description=scenario.description
            )
            assert rebuilt.task_names == scenario.task_names

    def test_task_counts_and_fps_respect_spec(self):
        for spec, scenario in self._population():
            assert spec.min_tasks <= len(scenario) <= spec.max_tasks
            for task in scenario:
                assert task.fps in spec.fps_choices

    def test_chains_are_acyclic_and_depth_bounded(self):
        for spec, scenario in self._population():
            assert scenario.head_tasks, "every scenario needs at least one head"
            for task in scenario:
                chain = scenario.dependency_chain(task.name)  # raises on cycles
                assert len(chain) - 1 <= spec.max_cascade_depth
                if task.depends_on is not None:
                    low, high = spec.trigger_probability_range
                    assert low <= task.trigger_probability <= high

    def test_cascades_disabled_when_depth_zero(self):
        spec = GeneratorSpec(seed=1, min_tasks=1, max_tasks=3, max_cascade_depth=0)
        generator = ScenarioGenerator(spec)
        for index in range(self.COUNT):
            assert all(task.is_head for task in generator.generate(index))

    def test_model_names_unique_across_tasks(self):
        for _, scenario in self._population():
            names = scenario.model_names()
            assert len(names) == len(set(names))

    def test_population_is_diverse(self):
        spec = GeneratorSpec(seed=2, max_tasks=6, chain_probability=0.9)
        generator = ScenarioGenerator(spec)
        scenarios = [generator.generate(index) for index in range(12)]
        task_counts = {len(scenario) for scenario in scenarios}
        assert len(task_counts) > 1, "task counts should vary across indices"
        assert any(
            task.depends_on is not None for scenario in scenarios for task in scenario
        ), "a high chain probability should produce cascades"

    def test_same_index_is_deterministic(self):
        spec = GeneratorSpec(seed=4)
        first = ScenarioGenerator(spec).generate(3)
        second = ScenarioGenerator(GeneratorSpec(seed=4)).generate(3)
        assert first.describe() == second.describe()
        assert pickle.dumps(first) == pickle.dumps(second)

    def test_different_indices_differ(self):
        generator = ScenarioGenerator(GeneratorSpec(seed=4))
        assert generator.generate(0).describe() != generator.generate(1).describe()

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            ScenarioGenerator(GeneratorSpec()).generate(-1)

    def test_scenario_name_matches_generate(self):
        generator = ScenarioGenerator(GeneratorSpec(seed=6))
        assert generator.generate(5).name == generator.scenario_name(5)


class TestCrossHashSeedStability:
    """Generated scenarios are identical across interpreter sessions.

    Extends the PR-1 ``PYTHONHASHSEED`` regression: the whole pipeline —
    spec -> scenario -> frame arrivals -> pickle bytes — must not depend on
    salted string hashing, or pool workers and the content-keyed store
    would silently disagree between sessions.
    """

    SCRIPT = (
        "import hashlib, pickle\n"
        "from repro.workloads import GeneratorSpec, ScenarioGenerator\n"
        "from repro.workloads.frames import generate_frames\n"
        "scenario = ScenarioGenerator(GeneratorSpec(seed=5)).generate(2)\n"
        "frames = generate_frames(scenario, duration_ms=200.0, seed=0)\n"
        "blob = pickle.dumps((scenario.describe(),\n"
        "    [(f.task_name, f.frame_id, f.arrival_ms) for f in frames]))\n"
        "print(hashlib.sha256(blob).hexdigest())\n"
    )

    def _fingerprint_under_hash_seed(self, hash_seed: str) -> str:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(os.path.dirname(__file__), "..", "src"),
                          env.get("PYTHONPATH", "")])
        )
        output = subprocess.run(
            [sys.executable, "-c", self.SCRIPT], env=env, check=True,
            capture_output=True, text=True,
        )
        return output.stdout.strip()

    def test_fingerprint_identical_across_hash_seeds(self):
        assert self._fingerprint_under_hash_seed("1") == self._fingerprint_under_hash_seed("2")
