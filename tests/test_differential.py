"""Cross-scheduler differential runner and metamorphic properties."""

import pytest

from repro.experiments.differential import (
    KERNEL_AXIS_NAMES,
    DifferentialReport,
    FuzzResult,
    SchedulerRun,
    _check_metamorphic,
    replay_artifact,
    run_differential,
    run_fuzz,
)
from repro.workloads import GeneratorSpec

SCHEDULERS = ["fcfs_dynamic", "planaria", "dream_full"]


class TestRunDifferential:
    def test_clean_report_on_tiny_scenario(self, tiny_scenario, tiny_platform,
                                           tiny_cost_table):
        report = run_differential(
            tiny_scenario, tiny_platform, SCHEDULERS,
            duration_ms=300.0, seed=0, cost_table=tiny_cost_table,
        )
        assert report.ok
        assert not report.harness_errors
        assert set(report.runs) == set(SCHEDULERS)
        assert "OK" in report.describe()

    def test_arrivals_identical_across_schedulers(self, tiny_scenario, tiny_platform,
                                                  tiny_cost_table):
        report = run_differential(
            tiny_scenario, tiny_platform, SCHEDULERS,
            duration_ms=300.0, seed=0, cost_table=tiny_cost_table,
        )
        arrival_sets = {run.arrivals for run in report.runs.values()}
        assert len(arrival_sets) == 1
        assert next(iter(arrival_sets)), "head frames must have arrived"

    def test_tampered_arrivals_trip_metamorphic_check(self, tiny_scenario, tiny_platform,
                                                      tiny_cost_table):
        report = run_differential(
            tiny_scenario, tiny_platform, SCHEDULERS[:2],
            duration_ms=300.0, seed=0, cost_table=tiny_cost_table,
        )
        victim = report.runs[SCHEDULERS[1]]
        report.runs[SCHEDULERS[1]] = SchedulerRun(
            scheduler=victim.scheduler,
            result=victim.result,
            violations=victim.violations,
            arrivals=victim.arrivals[:-1],  # pretend one arrival went missing
        )
        failures = _check_metamorphic(report, tiny_scenario)
        assert any(f.invariant == "identical_arrivals" for f in failures)

    def test_kernel_axis_is_clean_and_recorded(self, tiny_scenario, tiny_platform,
                                               tiny_cost_table):
        report = run_differential(
            tiny_scenario, tiny_platform, SCHEDULERS,
            duration_ms=300.0, seed=0, cost_table=tiny_cost_table,
            kernels=KERNEL_AXIS_NAMES,
        )
        assert report.ok
        assert not report.harness_errors
        assert report.kernels == KERNEL_AXIS_NAMES
        assert report.to_artifact()["kernels"] == list(KERNEL_AXIS_NAMES)
        assert "kernels" in report.describe()

    @pytest.mark.parametrize(
        ("axis", "values", "message"),
        [
            ("kernels", ("python", "simd"), "unknown kernel 'simd'; choose from"),
            ("resource_models", ("pe_fraction", "gpu_hours"),
             "unknown resource model 'gpu_hours'; choose from"),
            ("faults", ("meteor_strike",), "unknown fault kind 'meteor_strike'; choose from"),
        ],
        ids=["kernels", "resource_models", "faults"],
    )
    def test_unknown_axis_value_rejected(self, axis, values, message, tiny_scenario,
                                         tiny_platform, tiny_cost_table):
        with pytest.raises(ValueError, match=message):
            run_differential(
                tiny_scenario, tiny_platform, SCHEDULERS[:1],
                duration_ms=100.0, cost_table=tiny_cost_table,
                **{axis: values},
            )

    def test_divergent_kernel_result_is_a_kernel_parity_failure(
            self, tiny_scenario, tiny_platform, tiny_cost_table, monkeypatch):
        # Make the secondary (reference) run observably different by
        # perturbing its result after the fact: patch SimulationResult
        # equality is not enough — instead shrink the secondary run's
        # duration through the engine kwargs via a targeted wrapper.
        from repro.experiments import differential as mod

        real_engine = mod.SimulationEngine
        calls = {"n": 0}

        class SkewedEngine(real_engine):
            def __init__(self, **kwargs):
                calls["n"] += 1
                if kwargs.get("mode") == "reference":
                    kwargs["duration_ms"] = kwargs["duration_ms"] / 2
                super().__init__(**kwargs)

        monkeypatch.setattr(mod, "SimulationEngine", SkewedEngine)
        report = run_differential(
            tiny_scenario, tiny_platform, SCHEDULERS[:1],
            duration_ms=300.0, seed=0, cost_table=tiny_cost_table,
            kernels=("python", "reference"),
        )
        assert calls["n"] == 2
        assert not report.ok
        assert any(
            f.invariant == "kernel_parity" for f in report.metamorphic_failures
        )

    @pytest.mark.parametrize(
        ("axis", "values", "key"),
        [
            ("kernels", ("python", "reference"), "fcfs_dynamic@reference"),
            ("resource_models", ("pe_fraction", "kv_batch"),
             "fcfs_dynamic@resource:kv_batch"),
            ("faults", ("platform_outage",), "fcfs_dynamic@faults:platform_outage"),
        ],
        ids=["kernels", "resource_models", "faults"],
    )
    def test_crashing_secondary_run_is_captured_per_path(
            self, axis, values, key, tiny_scenario, tiny_platform, tiny_cost_table,
            monkeypatch):
        from repro.experiments import differential as mod

        real_engine = mod.SimulationEngine

        class ExplodingSecondary(real_engine):
            def __init__(self, **kwargs):
                if (
                    kwargs.get("mode", "fast") != "fast"
                    or kwargs.get("resource_model", "pe_fraction") != "pe_fraction"
                    or kwargs.get("faults")
                ):
                    raise RuntimeError("secondary run exploded")
                super().__init__(**kwargs)

        monkeypatch.setattr(mod, "SimulationEngine", ExplodingSecondary)
        report = run_differential(
            tiny_scenario, tiny_platform, ["fcfs_dynamic"],
            duration_ms=100.0, cost_table=tiny_cost_table,
            **{axis: values},
        )
        assert list(report.runs) == ["fcfs_dynamic"]  # canonical run survived
        assert list(report.harness_errors) == [key]
        assert "secondary run exploded" in report.harness_errors[key]
        assert not report.resource_runs and not report.fault_runs
        assert f"harness error in {key}" in report.describe()
        # Artifact scheduler names stay valid registry names for --replay.
        assert report.to_artifact()["schedulers"] == ["fcfs_dynamic"]

    def test_secondary_runs_go_scheduler_major(
            self, tiny_scenario, tiny_platform, tiny_cost_table, monkeypatch):
        from repro.experiments import differential as mod

        real_engine = mod.SimulationEngine
        calls = []

        class RecordingEngine(real_engine):
            def __init__(self, **kwargs):
                kinds = sorted({spec.kind for spec in kwargs["faults"]})
                calls.append(
                    (kwargs["scheduler"].name, kwargs["mode"], kwargs["resource_model"],
                     *kinds)
                )
                super().__init__(**kwargs)

        monkeypatch.setattr(mod, "SimulationEngine", RecordingEngine)
        report = run_differential(
            tiny_scenario, tiny_platform, ["fcfs_dynamic", "dream_full"],
            duration_ms=300.0, seed=0, cost_table=tiny_cost_table,
            kernels=KERNEL_AXIS_NAMES,
            resource_models=("pe_fraction", "kv_batch"),
            faults=("accel_degrade", "platform_outage"),
        )
        assert report.ok
        assert not report.harness_errors
        assert list(report.runs) == ["fcfs_dynamic", "dream_full"]
        assert list(report.resource_runs) == [
            "fcfs_dynamic@resource:kv_batch",
            "dream_full@resource:kv_batch",
        ]
        assert list(report.fault_runs) == [
            "fcfs_dynamic@faults:accel_degrade",
            "fcfs_dynamic@faults:platform_outage",
            "dream_full@faults:accel_degrade",
            "dream_full@faults:platform_outage",
        ]
        # Per scheduler: the canonical run, then resource models, then
        # fault kinds, then kernels.
        assert calls == [
            run
            for scheduler in ("fcfs_dynamic", "dream_full")
            for run in [
                (scheduler, "fast", "pe_fraction"),
                (scheduler, "fast", "kv_batch"),
                (scheduler, "fast", "pe_fraction", "accel_degrade"),
                (scheduler, "fast", "pe_fraction", "platform_outage"),
                (scheduler, "reference", "pe_fraction"),
            ]
        ]

    def test_crashing_scheduler_is_captured_not_raised(self, tiny_scenario, tiny_platform,
                                                       tiny_cost_table, monkeypatch):
        def exploding_make_scheduler(name):
            raise RuntimeError(f"scheduler {name} exploded")

        monkeypatch.setattr(
            "repro.experiments.differential.make_scheduler", exploding_make_scheduler
        )
        report = run_differential(
            tiny_scenario, tiny_platform, ["fcfs_dynamic"],
            duration_ms=100.0, cost_table=tiny_cost_table,
        )
        assert not report.runs
        assert "fcfs_dynamic" in report.harness_errors
        assert "exploded" in report.harness_errors["fcfs_dynamic"]
        assert "harness error" in report.describe()


class TestFuzz:
    SPEC = GeneratorSpec(seed=13, min_tasks=2, max_tasks=3)

    def test_fuzz_sweep_is_clean(self):
        fuzz = run_fuzz(
            self.SPEC, count=2, schedulers=SCHEDULERS, duration_ms=150.0
        )
        assert fuzz.ok
        assert len(fuzz.reports) == 2
        assert not fuzz.failing and not fuzz.erroneous
        assert "2 clean" in fuzz.summary()

    def test_fuzz_rejects_non_positive_count(self):
        with pytest.raises(ValueError):
            run_fuzz(self.SPEC, count=0)

    def test_artifact_replays_to_same_scenario(self):
        fuzz = run_fuzz(
            self.SPEC, count=1, schedulers=SCHEDULERS[:2], duration_ms=150.0
        )
        artifact = fuzz.reports[0].to_artifact()
        assert artifact["generator"] == self.SPEC.to_dict()
        replayed = replay_artifact(artifact)
        assert replayed.scenario_name == fuzz.reports[0].scenario_name
        assert set(replayed.runs) == set(SCHEDULERS[:2])
        assert replayed.ok

    def test_fuzz_kernel_axis_roundtrips_through_replay(self):
        fuzz = run_fuzz(
            self.SPEC, count=1, schedulers=SCHEDULERS[:2], duration_ms=150.0,
            kernels=KERNEL_AXIS_NAMES,
        )
        assert fuzz.ok
        artifact = fuzz.reports[0].to_artifact()
        assert artifact["kernels"] == list(KERNEL_AXIS_NAMES)
        replayed = replay_artifact(artifact)
        assert replayed.kernels == KERNEL_AXIS_NAMES
        assert replayed.ok

    def test_replay_requires_generator_spec(self):
        with pytest.raises(ValueError, match="generator spec"):
            replay_artifact({"scenario_name": "ar_call"})


class TestFaultAxis:
    """The chaos axis: every scheduler re-audited under sampled faults."""

    def test_fault_axis_is_clean_and_recorded(self, tiny_scenario, tiny_platform,
                                              tiny_cost_table):
        report = run_differential(
            tiny_scenario, tiny_platform, SCHEDULERS,
            duration_ms=300.0, seed=0, cost_table=tiny_cost_table,
            faults=("platform_outage",),
        )
        assert report.ok
        assert not report.harness_errors
        assert report.faults == ("platform_outage",)
        expected = {f"{s}@faults:platform_outage" for s in SCHEDULERS}
        assert set(report.fault_runs) == expected
        artifact = report.to_artifact()
        assert artifact["faults"] == ["platform_outage"]
        assert artifact["fault_plans"]["platform_outage"]
        assert "faults platform_outage" in report.describe()

    def test_fault_axis_roundtrips_through_replay(self):
        spec = GeneratorSpec(seed=13, min_tasks=2, max_tasks=3)
        fuzz = run_fuzz(
            spec, count=1, schedulers=SCHEDULERS[:2], duration_ms=150.0,
            faults=("accel_degrade", "transient_stall"),
        )
        assert fuzz.ok
        artifact = fuzz.reports[0].to_artifact()
        assert artifact["faults"] == ["accel_degrade", "transient_stall"]
        replayed = replay_artifact(artifact)
        assert replayed.ok
        assert replayed.faults == ("accel_degrade", "transient_stall")
        assert set(replayed.fault_runs) == set(fuzz.reports[0].fault_runs)
        # Replay re-samples the plans from the recorded seed: bit-identical.
        assert replayed.to_artifact()["fault_plans"] == artifact["fault_plans"]


class TestReportShape:
    def test_failing_report_is_not_ok(self):
        from repro.sim import Violation

        report = DifferentialReport(
            scenario_name="gen-0-0", platform="4k_1ws_2os", duration_ms=100.0, seed=0
        )
        assert report.ok  # empty reports are vacuously clean
        report.metamorphic_failures.append(
            Violation("identical_arrivals", "streams differ")
        )
        assert not report.ok
        fuzz = FuzzResult(spec=GeneratorSpec(), reports=[report])
        assert fuzz.failing == [report]
        assert not fuzz.ok
        payload = report.to_artifact()
        assert payload["metamorphic_failures"][0]["invariant"] == "identical_arrivals"
