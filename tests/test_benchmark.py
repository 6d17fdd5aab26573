"""Engine-throughput benchmark: wall clamping, vector columns, baseline gates."""

import sys
import time

import pytest

from repro.experiments import benchmark as bench_mod
from repro.experiments.benchmark import (
    _MIN_WALL_S,
    EngineBenchJob,
    _per_sec,
    _ratio,
    compare_to_baseline,
    describe,
    host_metadata,
    run_engine_bench,
)
from repro.hardware.vector_view import HAVE_NUMPY


class TestWallClamp:
    """A cell faster than one timer tick must never report 0.0 events/sec."""

    def test_min_wall_is_positive(self):
        assert _MIN_WALL_S > 0.0

    def test_per_sec_with_zero_wall_is_finite_and_positive(self):
        throughput = _per_sec(1000, 0.0)
        assert throughput > 0.0
        assert throughput == 1000 / _MIN_WALL_S

    def test_per_sec_with_measurable_wall_is_untouched(self):
        assert _per_sec(1000, 0.5) == 2000.0

    def test_ratio_with_zero_denominator_is_finite(self):
        assert _ratio(1.0, 0.0) == 1.0 / _MIN_WALL_S
        assert _ratio(3.0, 1.5) == 2.0

    def test_cell_with_frozen_clock_reports_nonzero_throughput(self, monkeypatch):
        # perf_counter returning identical ticks around a run is exactly the
        # quick-basket failure mode: events / 0.0 used to fall back to
        # "0.0 events/sec" and trip the --min-speedup/baseline gates.
        monkeypatch.setattr(time, "perf_counter", lambda: 1234.5)
        job = EngineBenchJob(
            scenario="ar_call", platform="4k_1ws_2os", scheduler="fcfs_dynamic",
            duration_ms=100.0, seed=0,
        )
        cell = job.run()
        assert cell["fast_wall_s"] == 0.0
        assert cell["fast_events_per_sec"] > 0.0
        assert cell["reference_events_per_sec"] > 0.0
        assert cell["speedup"] > 0.0
        if HAVE_NUMPY:
            assert cell["vector_events_per_sec"] > 0.0
            assert cell["vector_speedup"] > 0.0


class TestEngineBench:
    def test_small_basket_parity_and_vector_columns(self):
        payload = run_engine_bench(
            scenarios=["ar_call"], platforms=["4k_1ws_2os"],
            schedulers=["fcfs_dynamic", "dream_full"],
            generated=0, duration_ms=200.0,
        )
        assert payload["parity"] is True
        totals = payload["totals"]
        assert totals["cells"] == 2
        assert totals["fast_events_per_sec"] > 0.0
        for cell in payload["cells"]:
            assert cell["parity"] is True
            if HAVE_NUMPY:
                assert "vector_wall_s" in cell
                assert cell["vector_events_per_sec"] > 0.0
        if HAVE_NUMPY:
            assert totals["vector_events_per_sec"] > 0.0
            assert "vector kernel:" in describe(payload)

    def test_rejects_bad_repeats_and_jobs(self):
        with pytest.raises(ValueError):
            run_engine_bench(["ar_call"], ["4k_1ws_2os"], ["fcfs_dynamic"], jobs=0)
        with pytest.raises(ValueError):
            run_engine_bench(["ar_call"], ["4k_1ws_2os"], ["fcfs_dynamic"], repeats=0)

    def test_payload_records_host_metadata(self):
        payload = run_engine_bench(
            scenarios=["ar_call"], platforms=["4k_1ws_2os"],
            schedulers=["fcfs_dynamic"], generated=0, duration_ms=150.0,
        )
        host = payload["host"]
        assert host["cpu_count"] >= 1
        assert host["python"] == sys.version.split()[0]
        assert host["perf_counter_resolution"] > 0.0
        # cpu_model is best-effort ('' only when /proc/cpuinfo and
        # platform.processor() both come up empty).
        assert isinstance(host["cpu_model"], str)

    def test_host_metadata_is_stable_within_a_process(self):
        assert host_metadata() == host_metadata()


def _payload(machine="m1", speedup=3.0, eps=10_000.0, vector_speedup=1.2,
             vector_eps=12_000.0, rounds=100, host=None):
    payload = {
        "machine": machine,
        "basket": {"scenarios": ["ar_call"]},
        "totals": {
            "speedup": speedup,
            "fast_events_per_sec": eps,
            "vector_speedup": vector_speedup,
            "vector_events_per_sec": vector_eps,
            "fast_schedule_calls": rounds,
        },
    }
    if host is not None:
        payload["host"] = dict(host)
    return payload


_HOST = {"cpu_model": "TestCPU 9000", "cpu_count": 8, "python": "3.12.0"}


class TestBaselineGates:
    def test_matching_payload_passes(self):
        assert compare_to_baseline(_payload(), _payload(), 0.2) == []

    def test_vector_speedup_regression_is_flagged(self):
        current = _payload(vector_speedup=0.8)
        problems = compare_to_baseline(current, _payload(), 0.2)
        assert any("vector/fast speedup" in p for p in problems)

    def test_vector_events_per_sec_gated_on_same_machine_only(self):
        current = _payload(vector_eps=6_000.0)
        problems = compare_to_baseline(current, _payload(), 0.2)
        assert any("vector events/sec" in p for p in problems)
        # Different machine: absolute vector throughput is not comparable.
        problems = compare_to_baseline(
            _payload(machine="m2", vector_eps=6_000.0), _payload(), 0.2
        )
        assert not any("vector events/sec" in p for p in problems)

    def test_baseline_without_vector_columns_is_accepted(self):
        baseline = _payload()
        del baseline["totals"]["vector_speedup"]
        del baseline["totals"]["vector_events_per_sec"]
        assert compare_to_baseline(_payload(), baseline, 0.2) == []

    def test_mismatched_basket_is_rejected(self):
        baseline = _payload()
        baseline["basket"] = {"scenarios": ["vr_gaming"]}
        problems = compare_to_baseline(_payload(), baseline, 0.2)
        assert any("matching basket" in p for p in problems)


class TestHostMismatchWarnings:
    def test_same_host_emits_no_warning(self):
        warnings = []
        problems = compare_to_baseline(
            _payload(host=_HOST), _payload(host=_HOST), 0.2, warnings=warnings
        )
        assert problems == []
        assert warnings == []

    def test_host_mismatch_warns_and_skips_absolute_gates_only(self):
        # Half the absolute throughput on different hardware: not a
        # regression signal, but the skip must be announced, and the
        # within-run ratio gates must keep firing.
        warnings = []
        current = _payload(
            speedup=1.0, eps=5_000.0, vector_eps=6_000.0,
            host=dict(_HOST, cpu_model="OtherCPU 100"),
        )
        problems = compare_to_baseline(
            current, _payload(host=_HOST), 0.2, warnings=warnings
        )
        assert len(warnings) == 1
        assert "cpu_model differs" in warnings[0]
        assert "skipping the absolute events/sec gates" in warnings[0]
        assert not any("events/sec" in p for p in problems)
        assert any("fast/reference speedup regressed" in p for p in problems)

    def test_pre_metadata_baseline_falls_back_to_machine_string(self):
        # Baselines committed before host metadata existed only carry the
        # coarse platform string; a differing string still warns.
        warnings = []
        compare_to_baseline(
            _payload(machine="m2", host=_HOST), _payload(), 0.2, warnings=warnings
        )
        assert len(warnings) == 1
        assert "machine differs" in warnings[0]

    def test_no_warning_list_still_skips_gates_silently(self):
        current = _payload(eps=5_000.0, host=dict(_HOST, cpu_count=2))
        problems = compare_to_baseline(current, _payload(host=_HOST), 0.2)
        assert not any("events/sec" in p for p in problems)


def test_module_constant_tracks_timer_resolution():
    resolution = time.get_clock_info("perf_counter").resolution or 1e-9
    assert _MIN_WALL_S == resolution
