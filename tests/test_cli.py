"""The ``repro`` console CLI: grid, figure, bench, list, generate, fuzz, fleet."""

import json

import pytest

from repro.cli import EXIT_INVARIANT_VIOLATION, SMOKE_GRID, build_parser, main


class TestParser:
    def test_requires_a_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_smoke_grid_spans_parity_requirements(self):
        # The CI parity job relies on the smoke grid being non-trivial.
        assert len(SMOKE_GRID["scenarios"]) >= 2
        assert len(SMOKE_GRID["platforms"]) >= 2
        assert len(SMOKE_GRID["schedulers"]) >= 3


class TestList:
    def test_lists_presets(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for needle in (
            "ar_call", "4k_1ws_2os", "dream_full", "serial", "figure7",
            "poisson", "bursty", "load_scaled",
            # Engine axis: resource models.
            "resources:", "pe_fraction", "kv_batch",
        ):
            assert needle in out
        assert "kernels:" not in out


class TestGrid:
    def test_grid_runs_and_writes_json(self, tmp_path, capsys):
        out_file = tmp_path / "grid.json"
        code = main(
            [
                "grid",
                "--scenarios", "ar_call",
                "--platforms", "4k_1ws_2os",
                "--schedulers", "fcfs_dynamic,planaria",
                "--duration-ms", "200",
                "--json", str(out_file),
            ]
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        table = payload["uxcost_table"]["ar_call/4k_1ws_2os"]
        assert set(table) == {"fcfs_dynamic", "planaria"}
        assert "UXCost" in capsys.readouterr().out

    def test_grid_uses_store(self, tmp_path, capsys):
        args = [
            "grid",
            "--scenarios", "ar_call",
            "--platforms", "4k_1ws_2os",
            "--schedulers", "fcfs_dynamic",
            "--duration-ms", "200",
            "--store", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "'hits': 1" in out

    def test_grid_latency_table(self, capsys):
        code = main(
            [
                "grid",
                "--scenarios", "ar_call",
                "--platforms", "4k_1ws_2os",
                "--schedulers", "fcfs_dynamic",
                "--duration-ms", "200",
                "--latency",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "p95_ms" in out
        assert "ar_call/4k_1ws_2os/fcfs_dynamic" in out


class TestFigure:
    def test_unknown_figure_fails(self, capsys):
        assert main(["figure", "99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_figure2_writes_outputs(self, tmp_path, capsys):
        code = main(
            ["figure", "2", "--duration-ms", "200", "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "figure2.txt").is_file()
        payload = json.loads((tmp_path / "figure2.json").read_text())
        assert payload["name"] == "figure2"
        assert len(payload["rows"]) == 4


class TestGenerate:
    def test_generate_prints_and_writes_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        code = main(
            [
                "generate", "--count", "2", "--max-tasks", "3",
                "--generator-seed", "7", "--spec-out", str(spec_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Scenario gen-7-0" in out and "Scenario gen-7-1" in out
        payload = json.loads(spec_path.read_text())
        assert payload["generator"]["seed"] == 7
        assert payload["count"] == 2

    def test_generate_run_executes_grid_with_store(self, tmp_path, capsys):
        code = main(
            [
                "generate", "--count", "1", "--max-tasks", "3",
                "--run", "--schedulers", "fcfs_dynamic",
                "--duration-ms", "150", "--store", str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "UXCost" in out
        assert "gen-0-0/4k_1ws_2os" in out

    def test_invalid_generator_bounds_fail_cleanly(self, capsys):
        code = main(["generate", "--count", "1", "--min-tasks", "5", "--max-tasks", "2"])
        assert code == 2
        assert "min_tasks" in capsys.readouterr().err

    def test_generate_with_traffic_models(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        code = main(
            [
                "generate", "--count", "3", "--min-tasks", "3", "--max-tasks", "4",
                "--generator-seed", "11",
                "--traffic", "poisson,bursty",
                "--spec-out", str(spec_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "traffic=" in out  # at least one sampled non-periodic head
        payload = json.loads(spec_path.read_text())
        assert payload["generator"]["traffic_models"] == ["poisson", "bursty"]

    def test_generate_traffic_all_expands_registry(self, tmp_path):
        from repro.workloads import arrival_process_names

        spec_path = tmp_path / "spec.json"
        assert main(
            ["generate", "--count", "1", "--traffic", "all", "--spec-out", str(spec_path)]
        ) == 0
        payload = json.loads(spec_path.read_text())
        assert payload["generator"]["traffic_models"] == arrival_process_names()

    def test_generate_unknown_traffic_fails_cleanly(self, capsys):
        code = main(["generate", "--count", "1", "--traffic", "tidal"])
        assert code == 2
        assert "unknown traffic model" in capsys.readouterr().err


class TestFuzz:
    def test_fuzz_clean_sweep_exits_zero(self, capsys):
        code = main(
            [
                "fuzz", "--seeds", "1", "--max-tasks", "3",
                "--schedulers", "fcfs_dynamic,dream_full", "--duration-ms", "150",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 clean" in out

    def test_fuzz_with_non_periodic_traffic_exits_zero(self, capsys):
        code = main(
            [
                "fuzz", "--seeds", "2", "--min-tasks", "3", "--max-tasks", "4",
                "--traffic", "poisson,bursty,load_scaled",
                "--schedulers", "fcfs_dynamic,dream_full", "--duration-ms", "150",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 clean" in out

    def test_fuzz_schedulers_all_expands_registry(self, monkeypatch, capsys):
        from repro.experiments.differential import FuzzResult
        from repro.schedulers import scheduler_names

        seen = {}

        def fake_run_fuzz(
            spec, count, schedulers, platform, duration_ms, seed, kernels,
            resource_models, faults,
        ):
            seen["schedulers"] = list(schedulers)
            seen["kernels"] = list(kernels)
            seen["resource_models"] = list(resource_models)
            seen["faults"] = list(faults)
            return FuzzResult(spec=spec, reports=[])

        monkeypatch.setattr("repro.cli.run_fuzz", fake_run_fuzz)
        assert main(["fuzz", "--seeds", "1", "--schedulers", "all"]) == 0
        assert seen["schedulers"] == scheduler_names()
        assert seen["kernels"] == ["python"]
        assert seen["resource_models"] == ["pe_fraction"]
        assert seen["faults"] == []

    def test_fuzz_kernels_all_is_fast_and_reference(self, monkeypatch, capsys):
        from repro.experiments.differential import FuzzResult

        seen = {}

        def fake_run_fuzz(spec, count, **kwargs):
            seen["kernels"] = list(kwargs["kernels"])
            return FuzzResult(spec=spec, reports=[])

        monkeypatch.setattr("repro.cli.run_fuzz", fake_run_fuzz)
        assert main(["fuzz", "--seeds", "1", "--kernels", "all"]) == 0
        assert seen["kernels"] == ["python", "reference"]

    @pytest.mark.parametrize(
        ("option", "value", "message"),
        [
            ("--kernels", "vector", "unknown kernel 'vector'"),
            ("--resource-models", "gpu_hours", "unknown resource model 'gpu_hours'"),
            ("--faults", "meteor_strike", "unknown fault kind 'meteor_strike'"),
        ],
        ids=["kernels", "resource_models", "faults"],
    )
    def test_fuzz_unknown_axis_value_fails_cleanly(self, option, value, message, capsys):
        code = main(["fuzz", "--seeds", "1", option, value])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_fuzz_resource_models_all_upgrades_spec(self, monkeypatch, capsys):
        from repro.experiments.differential import FuzzResult

        seen = {}

        def fake_run_fuzz(spec, count, **kwargs):
            seen["resource_models"] = list(kwargs["resource_models"])
            seen["spec_resource_model"] = spec.resource_model
            return FuzzResult(spec=spec, reports=[])

        monkeypatch.setattr("repro.cli.run_fuzz", fake_run_fuzz)
        assert main(["fuzz", "--seeds", "1", "--resource-models", "all"]) == 0
        out = capsys.readouterr().out
        assert "generating kv_batch scenarios" in out
        assert "x resources pe_fraction+kv_batch" in out
        assert seen["resource_models"] == ["pe_fraction", "kv_batch"]
        # The generator spec is upgraded so the kv axis actually exercises
        # shared budgets and interaction chains.
        assert seen["spec_resource_model"] == "kv_batch"

    def test_fuzz_resource_axis_end_to_end(self, capsys):
        code = main(
            [
                "fuzz", "--seeds", "1", "--max-tasks", "3",
                "--schedulers", "fcfs_dynamic,dream_full",
                "--resource-models", "all", "--duration-ms", "150",
            ]
        )
        assert code == 0
        assert "1 clean" in capsys.readouterr().out

    def test_fuzz_faults_all_expands_kinds(self, monkeypatch, capsys):
        from repro.experiments.differential import FuzzResult
        from repro.sim import FAULT_KINDS

        seen = {}

        def fake_run_fuzz(spec, count, **kwargs):
            seen["faults"] = list(kwargs["faults"])
            return FuzzResult(spec=spec, reports=[])

        monkeypatch.setattr("repro.cli.run_fuzz", fake_run_fuzz)
        assert main(["fuzz", "--seeds", "1", "--faults", "all"]) == 0
        assert seen["faults"] == list(FAULT_KINDS)
        assert "x faults" in capsys.readouterr().out

    def test_fuzz_fault_axis_end_to_end(self, capsys):
        code = main(
            [
                "fuzz", "--seeds", "1", "--max-tasks", "3",
                "--schedulers", "fcfs_dynamic,dream_full",
                "--faults", "all", "--duration-ms", "150",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "x faults accel_degrade+platform_outage+transient_stall" in out
        assert "1 clean" in out

    def test_fuzz_violation_exit_code_and_artifacts(self, tmp_path, monkeypatch, capsys):
        from repro.experiments.differential import DifferentialReport, FuzzResult
        from repro.sim import Violation
        from repro.workloads import GeneratorSpec

        report = DifferentialReport(
            scenario_name="gen-0-0", platform="4k_1ws_2os",
            duration_ms=100.0, seed=0, generator=GeneratorSpec(), generator_index=0,
        )
        report.metamorphic_failures.append(
            Violation("identical_arrivals", "streams differ")
        )
        fuzz = FuzzResult(spec=GeneratorSpec(), reports=[report])
        monkeypatch.setattr("repro.cli.run_fuzz", lambda *a, **k: fuzz)

        artifacts = tmp_path / "artifacts"
        code = main(["fuzz", "--seeds", "1", "--artifacts", str(artifacts)])
        assert code == EXIT_INVARIANT_VIOLATION
        artifact_path = artifacts / "gen-0-0.json"
        assert artifact_path.is_file()
        payload = json.loads(artifact_path.read_text())
        assert payload["generator"]["seed"] == 0
        assert payload["metamorphic_failures"]

    def test_fuzz_harness_error_exit_code(self, monkeypatch, capsys):
        def broken_run_fuzz(*args, **kwargs):
            raise RuntimeError("engine went sideways")

        monkeypatch.setattr("repro.cli.run_fuzz", broken_run_fuzz)
        code = main(["fuzz", "--seeds", "1"])
        assert code == 1
        assert "harness error" in capsys.readouterr().err

    def test_fuzz_replay_artifact(self, tmp_path, capsys):
        from repro.workloads import GeneratorSpec

        artifact = {
            "generator": GeneratorSpec(seed=13, min_tasks=2, max_tasks=3).to_dict(),
            "generator_index": 0,
            "platform": "4k_1ws_2os",
            "duration_ms": 150.0,
            "seed": 0,
            "schedulers": ["fcfs_dynamic"],
        }
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps(artifact))
        code = main(["fuzz", "--replay", str(path)])
        assert code == 0
        assert "gen-13-0" in capsys.readouterr().out


class TestBench:
    def test_bench_emits_machine_readable_json(self, tmp_path, capsys):
        out_file = tmp_path / "BENCH_grid.json"
        code = main(
            [
                "bench",
                "--scenarios", "ar_call",
                "--platforms", "4k_1ws_2os",
                "--schedulers", "fcfs_dynamic,planaria",
                "--duration-ms", "200",
                "--workers", "2",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["benchmark"] == "grid_throughput"
        assert payload["cells"] == 2
        assert payload["parity"] is True
        assert payload["serial"]["cells_per_sec"] > 0
        assert payload["process"]["cells_per_sec"] > 0

    def test_bench_min_speedup_gate(self, tmp_path, capsys):
        # An impossible bar must fail the command (parity still checked first).
        code = main(
            [
                "bench",
                "--scenarios", "ar_call",
                "--platforms", "4k_1ws_2os",
                "--schedulers", "fcfs_dynamic",
                "--duration-ms", "150",
                "--workers", "2",
                "--out", str(tmp_path / "b.json"),
                "--min-speedup", "1000",
            ]
        )
        assert code == 1
        assert "below required" in capsys.readouterr().err


class TestBenchEngine:
    _ARGS = [
        "bench-engine",
        "--scenarios", "ar_call",
        "--platforms", "4k_1ws_2os",
        "--schedulers", "fcfs_dynamic,dream_full",
        "--generated", "1",
        "--duration-ms", "150",
    ]

    def test_bench_engine_emits_labeled_payload(self, tmp_path, capsys):
        out_file = tmp_path / "BENCH_engine.json"
        code = main(self._ARGS + ["--out", str(out_file), "--label", "test"])
        assert code == 0
        payload = json.loads(out_file.read_text())
        entry = payload["test"]
        assert entry["benchmark"] == "engine_throughput"
        assert entry["parity"] is True
        # (1 preset + 1 generated scenario) x 2 schedulers.
        assert entry["totals"]["cells"] == 4
        assert entry["totals"]["events"] > 0
        assert entry["totals"]["fast_events_per_sec"] > 0
        assert entry["totals"]["reference_events_per_sec"] > 0
        out = capsys.readouterr().out
        assert "parity: OK (bit-for-bit)" in out

    def test_bench_engine_kv_smoke_records_separate_payload(self, tmp_path, capsys):
        out_file = tmp_path / "BENCH_engine.json"
        code = main(self._ARGS + ["--kv-smoke", "--out", str(out_file), "--label", "test"])
        assert code == 0
        entry = json.loads(out_file.read_text())["test"]
        smoke = entry["kv_smoke"]
        assert smoke["parity"] is True
        assert smoke["totals"]["events"] > 0
        assert all(cell["resource_model"] == "kv_batch" for cell in smoke["cells"])
        # The smoke cells stay out of the gated basket/cells/totals.
        assert entry["basket"]["schedulers"] == ["fcfs_dynamic", "dream_full"]
        assert all("resource_model" not in cell for cell in entry["cells"])
        assert "kv_batch smoke:" in capsys.readouterr().out

    def test_bench_engine_merges_labels(self, tmp_path, capsys):
        out_file = tmp_path / "BENCH_engine.json"
        assert main(self._ARGS + ["--out", str(out_file), "--label", "a"]) == 0
        assert main(self._ARGS + ["--out", str(out_file), "--label", "b"]) == 0
        payload = json.loads(out_file.read_text())
        assert set(payload) == {"a", "b"}

    def test_bench_engine_baseline_gate(self, tmp_path, capsys):
        out_file = tmp_path / "BENCH_engine.json"
        assert main(self._ARGS + ["--out", str(out_file)]) == 0

        # Same basket against its own baseline: no regression possible
        # beyond noise, so a generous allowance must pass.
        rerun = tmp_path / "rerun.json"
        code = main(
            self._ARGS
            + ["--out", str(rerun), "--baseline", str(out_file), "--max-regression", "0.9"]
        )
        assert code == 0

        # An absurdly fast fabricated baseline must trip the gate.
        baseline = json.loads(out_file.read_text())
        entry = baseline["full"]
        entry["totals"]["speedup"] *= 100.0
        entry["totals"]["fast_events_per_sec"] *= 100.0
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(baseline))
        code = main(
            self._ARGS
            + ["--out", str(rerun), "--baseline", str(doctored), "--max-regression", "0.2"]
        )
        assert code == 1
        assert "regressed" in capsys.readouterr().err

    def test_bench_engine_baseline_read_before_out_overwrites_it(self, tmp_path, capsys):
        # --out and --baseline may be the SAME file (both default to
        # BENCH_engine.json): the gate must compare against the committed
        # numbers, not the payload it just merged into the file.
        shared = tmp_path / "BENCH_engine.json"
        assert main(self._ARGS + ["--out", str(shared)]) == 0
        payload = json.loads(shared.read_text())
        payload["full"]["totals"]["speedup"] *= 100.0
        shared.write_text(json.dumps(payload))
        code = main(
            self._ARGS
            + ["--out", str(shared), "--baseline", str(shared), "--max-regression", "0.2"]
        )
        assert code == 1
        assert "regressed" in capsys.readouterr().err

    def _assert_baseline_rejected_before_the_run(self, baseline, tmp_path, capsys,
                                                  monkeypatch):
        # A bad --baseline must fail before the basket runs (the full one
        # takes minutes per repeat), not after timing every cell.
        def must_not_run(**kwargs):
            raise AssertionError("the basket ran before --baseline was read")

        monkeypatch.setattr("repro.experiments.benchmark.run_engine_bench", must_not_run)
        out_file = tmp_path / "out.json"
        code = main(self._ARGS + ["--out", str(out_file), "--baseline", str(baseline)])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err
        assert not out_file.exists()

    def test_bench_engine_malformed_baseline_is_usage_error(self, tmp_path, capsys,
                                                            monkeypatch):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        self._assert_baseline_rejected_before_the_run(broken, tmp_path, capsys, monkeypatch)

    def test_bench_engine_missing_baseline_is_usage_error(self, tmp_path, capsys,
                                                          monkeypatch):
        self._assert_baseline_rejected_before_the_run(
            tmp_path / "nope.json", tmp_path, capsys, monkeypatch
        )

    def test_bench_engine_basket_mismatch_fails_cleanly(self, tmp_path, capsys):
        out_file = tmp_path / "BENCH_engine.json"
        assert main(self._ARGS + ["--out", str(out_file)]) == 0
        rerun = tmp_path / "rerun.json"
        code = main(
            self._ARGS[:-1]
            + ["100", "--out", str(rerun), "--baseline", str(out_file)]
        )
        assert code == 1
        assert "matching basket" in capsys.readouterr().err

    def test_bench_engine_profile_dump(self, tmp_path, capsys):
        out_file = tmp_path / "BENCH_engine.json"
        profile_file = tmp_path / "engine.prof"
        code = main(
            [
                "bench-engine",
                "--scenarios", "ar_call",
                "--platforms", "4k_1ws_2os",
                "--schedulers", "fcfs_dynamic",
                "--generated", "0",
                "--duration-ms", "150",
                "--out", str(out_file),
                "--profile", str(profile_file),
            ]
        )
        assert code == 0
        assert profile_file.exists()
        assert str(profile_file) in capsys.readouterr().out
        import pstats

        stats = pstats.Stats(str(profile_file))
        assert stats.total_calls > 0

    def test_bench_engine_jobs_parallel_matches_serial_counters(self, tmp_path, capsys):
        serial_out = tmp_path / "serial.json"
        parallel_out = tmp_path / "parallel.json"
        assert main(self._ARGS + ["--out", str(serial_out), "--label", "t"]) == 0
        assert main(
            self._ARGS + ["--out", str(parallel_out), "--label", "t", "--jobs", "2"]
        ) == 0
        serial = json.loads(serial_out.read_text())["t"]
        parallel = json.loads(parallel_out.read_text())["t"]
        assert parallel["parity"] is True
        assert parallel["jobs"] == 2
        # Everything deterministic must be identical across backends: cell
        # order, event counts, and the scheduler-load counters (only the
        # wall-clock fields may differ).
        deterministic = (
            "scenario", "platform", "scheduler", "events",
            "fast_schedule_calls", "fast_dispatches_elided",
            "fast_events_coalesced", "reference_schedule_calls", "parity",
        )
        assert [
            {key: cell[key] for key in deterministic} for cell in serial["cells"]
        ] == [
            {key: cell[key] for key in deterministic} for cell in parallel["cells"]
        ]
        for key in (
            "events", "fast_schedule_calls", "fast_dispatches_elided",
            "fast_events_coalesced", "reference_schedule_calls",
        ):
            assert serial["totals"][key] == parallel["totals"][key]

    def test_bench_engine_rejects_bad_repeats(self, tmp_path, capsys):
        code = main(self._ARGS + ["--out", str(tmp_path / "out.json"), "--repeats", "0"])
        assert code == 2
        assert "repeats" in capsys.readouterr().err

    def test_bench_engine_repeats_recorded(self, tmp_path, capsys):
        out_file = tmp_path / "BENCH_engine.json"
        code = main(
            [
                "bench-engine",
                "--scenarios", "ar_call",
                "--platforms", "4k_1ws_2os",
                "--schedulers", "fcfs_dynamic",
                "--generated", "0",
                "--duration-ms", "150",
                "--repeats", "2",
                "--out", str(out_file),
                "--label", "t",
            ]
        )
        assert code == 0
        assert json.loads(out_file.read_text())["t"]["repeats"] == 2

    def test_bench_engine_jobs_rejects_bare_profile_too(self, tmp_path, capsys):
        # --profile is rejected eagerly, before any cell runs.
        code = main(
            self._ARGS
            + [
                "--out", str(tmp_path / "out.json"),
                "--jobs", "2",
                "--profile", str(tmp_path / "p.prof"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "requires --jobs 1" in err
        # The message explains WHY, not just what: profiling cannot see
        # engine passes running inside worker processes.
        assert "worker processes" in err

    def test_bench_engine_rejects_nonpositive_jobs(self, tmp_path, capsys):
        code = main(self._ARGS + ["--out", str(tmp_path / "out.json"), "--jobs", "0"])
        assert code == 2
        assert "--jobs must be positive" in capsys.readouterr().err

    def test_bench_engine_round_regression_gate(self, tmp_path, capsys):
        out_file = tmp_path / "BENCH_engine.json"
        assert main(self._ARGS + ["--out", str(out_file)]) == 0
        baseline = json.loads(out_file.read_text())
        entry = baseline["full"]
        # A fabricated baseline with far fewer schedule() calls: the fresh
        # run's (identical) count now reads as a >10% regression.
        entry["totals"]["fast_schedule_calls"] = max(
            1, entry["totals"]["fast_schedule_calls"] // 2
        )
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(baseline))
        code = main(
            self._ARGS
            + [
                "--out", str(tmp_path / "rerun.json"),
                "--baseline", str(doctored),
                "--max-regression", "0.9",
            ]
        )
        assert code == 1
        assert "schedule() calls regressed" in capsys.readouterr().err


class TestFleet:
    _FAST = [
        "--duration-ms", "300", "--session-ms", "100",
        "--scenarios", "ar_call", "--users", "2", "--session-rate", "300",
    ]

    def test_fleet_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet"])

    def test_describe_prints_spec_and_admission_plan(self, capsys):
        assert main(["fleet", "describe", *self._FAST]) == 0
        out = capsys.readouterr().out
        assert "fleet spec: 3 platforms" in out
        assert "admission plan:" in out
        assert "admitted=" in out

    def test_run_writes_json_and_passes_the_oracle(self, tmp_path, capsys):
        out_file = tmp_path / "fleet.json"
        code = main(["fleet", "run", *self._FAST, "--json", str(out_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet oracle: OK" in out
        payload = json.loads(out_file.read_text())
        assert set(payload) == {"spec", "totals", "records", "users",
                                "platforms", "sessions"}
        assert payload["totals"]["submitted"] > 0
        assert payload["totals"]["admitted"] == len(payload["sessions"])

    def test_run_replays_a_written_spec(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(["fleet", "run", *self._FAST, "--policy", "fair_share",
                     "--spec-out", str(spec_file), "--json", str(first)]) == 0
        assert main(["fleet", "run", "--spec", str(spec_file),
                     "--json", str(second)]) == 0
        assert json.loads(first.read_text()) == json.loads(second.read_text())

    def test_run_serial_process_parity(self, tmp_path):
        serial = tmp_path / "serial.json"
        process = tmp_path / "process.json"
        assert main(["fleet", "run", *self._FAST, "--backend", "serial",
                     "--json", str(serial)]) == 0
        assert main(["fleet", "run", *self._FAST, "--backend", "process",
                     "--workers", "2", "--json", str(process)]) == 0
        assert json.loads(serial.read_text()) == json.loads(process.read_text())

    def test_unreadable_spec_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["fleet", "run", "--spec", str(bad)]) == 2
        assert "cannot read fleet spec" in capsys.readouterr().err
