"""The pluggable execution-resource models (``repro.sim.resource_models``).

Covers the registry, the ``kv_batch`` physics (charge table,
budget/batch admission, batch-dilated pricing), engine integration with the
trace-invariant oracle, cross-mode parity under ``kv_batch``,
the generator's kv sampling (budgets + interaction turns, with draw
conservation against the default spec), the differential resource axis,
and PYTHONHASHSEED-independence of a full kv run.
"""

import dataclasses
import os
import subprocess
import sys

import pytest

from repro.hardware.cost_table import activation_footprint_bytes
from repro.sim import SimulationEngine, Tracer, audit_trace, make_resource_model
from repro.sim.resource_models import (
    KV_BUDGET_RATIO,
    MAX_BATCH,
    KvBatchModel,
    RESOURCE_MODEL_NAMES,
    default_kv_budget_bytes,
    resource_model_names,
)
from repro.schedulers import make_scheduler
from repro.workloads import GeneratorSpec, ScenarioGenerator
from repro.workloads.scenario import Scenario, TaskSpec


class TestRegistry:
    def test_registry_names(self):
        assert RESOURCE_MODEL_NAMES == ("pe_fraction", "kv_batch")
        assert resource_model_names() == ["pe_fraction", "kv_batch"]

    def test_default_model_is_none(self, tiny_scenario):
        # pe_fraction short-circuits to the executor's inlined arithmetic.
        assert make_resource_model("pe_fraction", tiny_scenario) is None

    def test_kv_batch_builds(self, tiny_scenario):
        model = make_resource_model("kv_batch", tiny_scenario)
        assert isinstance(model, KvBatchModel)
        assert model.budget_bytes == default_kv_budget_bytes(tiny_scenario)

    def test_unknown_name_lists_sorted_registry(self, tiny_scenario):
        with pytest.raises(ValueError, match="kv_batch, pe_fraction"):
            make_resource_model("gpu_hours", tiny_scenario)

    def test_engine_rejects_unknown_model(self, tiny_scenario, tiny_platform,
                                          tiny_cost_table):
        with pytest.raises(ValueError, match="kv_batch, pe_fraction"):
            SimulationEngine(
                scenario=tiny_scenario,
                platform=tiny_platform,
                scheduler=make_scheduler("fcfs_dynamic"),
                duration_ms=100.0,
                seed=0,
                cost_table=tiny_cost_table,
                resource_model="gpu_hours",
            )


class TestKvBatchPhysics:
    def test_charges_follow_footprints(self, tiny_scenario):
        model = KvBatchModel(tiny_scenario)
        for graph in tiny_scenario.all_model_graphs():
            expected = min(
                1.0, activation_footprint_bytes(graph) / model.budget_bytes
            )
            assert model._charges[graph.name] == expected

    def test_derived_budget_fits_two_largest(self, tiny_scenario):
        largest = max(
            activation_footprint_bytes(graph)
            for graph in tiny_scenario.all_model_graphs()
        )
        assert default_kv_budget_bytes(tiny_scenario) == KV_BUDGET_RATIO * largest

    def test_oversized_model_is_clamped_to_run_alone(self, tiny_scenario):
        # A budget smaller than every footprint must clamp charges to 1.0,
        # not starve: the model can still run, just exclusively.
        model = KvBatchModel(dataclasses.replace(tiny_scenario, kv_budget_bytes=1.0))
        assert all(charge == 1.0 for charge in model._charges.values())

    def test_scenario_budget_overrides_derived(self, tiny_models):
        scenario = Scenario(
            name="pinned",
            tasks=(TaskSpec("vision", tiny_models["alpha"], fps=30),),
            kv_budget_bytes=12345.0,
        )
        model = KvBatchModel(scenario)
        assert model.budget_bytes == 12345.0


class _EngineRunner:
    """Run the tiny scenario under one engine configuration."""

    @staticmethod
    def run(scenario, platform, cost_table, scheduler="dream_full",
            resource_model="kv_batch", mode="fast",
            with_tracer=True, duration_ms=300.0):
        tracer = Tracer() if with_tracer else None
        engine = SimulationEngine(
            scenario=scenario,
            platform=platform,
            scheduler=make_scheduler(scheduler),
            duration_ms=duration_ms,
            seed=0,
            cost_table=cost_table,
            tracer=tracer,
            mode=mode,
            resource_model=resource_model,
        )
        return engine.run(), tracer


class TestKvBatchEngine:
    @pytest.mark.parametrize("scheduler", ["fcfs_dynamic", "planaria", "dream_full"])
    def test_trace_passes_full_oracle(self, tiny_scenario, tiny_platform,
                                      tiny_cost_table, scheduler):
        result, tracer = _EngineRunner.run(
            tiny_scenario, tiny_platform, tiny_cost_table, scheduler=scheduler
        )
        violations = audit_trace(tracer, scenario=tiny_scenario, result=result)
        assert violations == []

    def test_kv_dispatches_record_memory_fraction(self, tiny_scenario, tiny_platform,
                                                  tiny_cost_table):
        _, tracer = _EngineRunner.run(tiny_scenario, tiny_platform, tiny_cost_table)
        dispatches = [rec for rec in tracer.records if rec.event == "dispatch"]
        assert dispatches
        assert all(rec.memory_fraction is not None for rec in dispatches)
        assert all("memory_fraction=" in rec.detail for rec in dispatches)

    def test_default_dispatches_do_not(self, tiny_scenario, tiny_platform,
                                       tiny_cost_table):
        _, tracer = _EngineRunner.run(
            tiny_scenario, tiny_platform, tiny_cost_table,
            resource_model="pe_fraction",
        )
        dispatches = [rec for rec in tracer.records if rec.event == "dispatch"]
        assert dispatches
        assert all(rec.memory_fraction is None for rec in dispatches)

    def test_kv_differs_from_default_physics(self, tiny_scenario, tiny_platform,
                                             tiny_cost_table):
        kv_result, _ = _EngineRunner.run(
            tiny_scenario, tiny_platform, tiny_cost_table, with_tracer=False
        )
        pe_result, _ = _EngineRunner.run(
            tiny_scenario, tiny_platform, tiny_cost_table,
            resource_model="pe_fraction", with_tracer=False,
        )
        # Different capacity semantics must actually change the simulation
        # (otherwise the new model is dead code).
        assert kv_result.to_dict() != pe_result.to_dict()

    def test_mode_and_loop_parity_under_kv(self, tiny_scenario, tiny_platform,
                                           tiny_cost_table):
        # Both modes run one loop, over different components.
        canonical, _ = _EngineRunner.run(
            tiny_scenario, tiny_platform, tiny_cost_table, with_tracer=False
        )
        result, _ = _EngineRunner.run(
            tiny_scenario, tiny_platform, tiny_cost_table,
            with_tracer=False, mode="reference",
        )
        assert result.to_dict() == canonical.to_dict()

    def test_batch_cap_bounds_concurrency(self, tiny_scenario, tiny_platform,
                                          tiny_cost_table):
        _, tracer = _EngineRunner.run(tiny_scenario, tiny_platform, tiny_cost_table)
        in_flight: dict[int, set] = {}
        peak = 0
        for rec in tracer.records:
            key = (rec.task_name, rec.frame_id)
            if rec.event == "dispatch":
                slots = in_flight.setdefault(rec.acc_id, set())
                slots.add(key)
                peak = max(peak, len(slots))
            elif rec.event == "layers_complete":
                for slots in in_flight.values():
                    slots.discard(key)
        assert peak <= MAX_BATCH


class TestGeneratorKvSampling:
    def test_default_spec_has_no_kv_budget(self):
        scenario = ScenarioGenerator(GeneratorSpec(seed=0)).generate(0)
        assert scenario.kv_budget_bytes is None
        assert not any(task.interaction for task in scenario)

    def test_kv_spec_samples_budget(self):
        spec = GeneratorSpec(seed=0, resource_model="kv_batch")
        for index in range(6):
            scenario = ScenarioGenerator(spec).generate(index)
            assert scenario.kv_budget_bytes is not None
            largest = max(
                activation_footprint_bytes(graph)
                for graph in scenario.all_model_graphs()
            )
            # Sampled ratio lives in [1.5, 3.0] x the largest footprint.
            assert 1.5 * largest <= scenario.kv_budget_bytes <= 3.0 * largest

    def test_default_canonical_key_is_unchanged(self):
        # Draw conservation for stored artifacts: a default spec's dict —
        # and therefore its canonical RNG key and every historical
        # content-store key derived from it — must not mention the new
        # field, while kv specs key differently.
        base = GeneratorSpec(seed=3)
        assert "resource_model" not in base.canonical_key()
        kv = GeneratorSpec(seed=3, resource_model="kv_batch")
        assert kv.canonical_key() != base.canonical_key()

    def test_kv_generation_is_deterministic(self):
        first = ScenarioGenerator(GeneratorSpec(seed=3, resource_model="kv_batch")).generate(2)
        second = ScenarioGenerator(GeneratorSpec(seed=3, resource_model="kv_batch")).generate(2)
        assert first.describe() == second.describe()
        assert first.kv_budget_bytes == second.kv_budget_bytes

    def test_kv_cascades_become_interactions(self):
        spec = GeneratorSpec(seed=2, max_tasks=6, chain_probability=0.9,
                             resource_model="kv_batch")
        scenarios = [ScenarioGenerator(spec).generate(index) for index in range(8)]
        dependents = [
            task for scenario in scenarios for task in scenario
            if task.depends_on is not None
        ]
        assert dependents, "a high chain probability should produce chains"
        assert all(task.interaction for task in dependents)

    def test_unknown_resource_model_lists_sorted_registry(self):
        with pytest.raises(ValueError, match="kv_batch, pe_fraction"):
            GeneratorSpec(resource_model="gpu_hours")

    def test_unknown_traffic_model_lists_sorted_registry(self):
        with pytest.raises(ValueError) as excinfo:
            GeneratorSpec(traffic_models=("tidal",))
        message = str(excinfo.value)
        known = message.split("available: ")[1]
        assert known == ", ".join(sorted(known.split(", ")))

    def test_round_trip_preserves_resource_model(self):
        spec = GeneratorSpec(seed=1, resource_model="kv_batch")
        assert GeneratorSpec.from_dict(spec.to_dict()) == spec
        # The default spec's dict stays byte-compatible with old artifacts.
        assert "resource_model" not in GeneratorSpec(seed=1).to_dict()


class TestScenarioValidation:
    def test_interaction_requires_dependency(self, tiny_models):
        with pytest.raises(ValueError, match="interaction"):
            TaskSpec("turn", tiny_models["alpha"], fps=30, interaction=True)

    def test_non_positive_kv_budget_rejected(self, tiny_models):
        with pytest.raises(ValueError, match="kv_budget_bytes must be positive"):
            Scenario(
                name="bad",
                tasks=(TaskSpec("vision", tiny_models["alpha"], fps=30),),
                kv_budget_bytes=0.0,
            )


class TestDifferentialResourceAxis:
    def test_resource_axis_audits_secondary_model(self, tiny_scenario, tiny_platform,
                                                  tiny_cost_table):
        from repro.experiments.differential import run_differential

        report = run_differential(
            tiny_scenario, tiny_platform, ["fcfs_dynamic", "dream_full"],
            duration_ms=300.0, seed=0, cost_table=tiny_cost_table,
            resource_models=("pe_fraction", "kv_batch"),
        )
        assert report.ok
        assert not report.harness_errors
        assert report.resource_models == ("pe_fraction", "kv_batch")
        assert set(report.resource_runs) == {
            "fcfs_dynamic@resource:kv_batch",
            "dream_full@resource:kv_batch",
        }
        assert report.to_artifact()["resource_models"] == ["pe_fraction", "kv_batch"]


class TestCrossHashSeedStability:
    """A full kv_batch pipeline run is identical across interpreter sessions."""

    SCRIPT = (
        "import hashlib, json\n"
        "from repro.schedulers import make_scheduler\n"
        "from repro.sim import SimulationEngine\n"
        "from repro.hardware import make_platform\n"
        "from repro.workloads import GeneratorSpec, ScenarioGenerator\n"
        "spec = GeneratorSpec(seed=5, resource_model='kv_batch')\n"
        "scenario = ScenarioGenerator(spec).generate(1)\n"
        "engine = SimulationEngine(scenario=scenario,\n"
        "    platform=make_platform('4k_1ws_2os'),\n"
        "    scheduler=make_scheduler('dream_full'), duration_ms=300.0,\n"
        "    seed=0, resource_model='kv_batch')\n"
        "blob = json.dumps(engine.run().to_dict(), sort_keys=True)\n"
        "print(hashlib.sha256(blob.encode()).hexdigest())\n"
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
