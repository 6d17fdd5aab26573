"""Deterministic fault injection: specs, sampling, and engine recovery.

Three contracts:

* a ``FaultSpec`` is a validated, frozen value, and sampled fault plans
  are pure functions of ``(seed, duration, accelerators, kinds)`` —
  independent of ``PYTHONHASHSEED``;
* the engine under an injected fault plan stays honest: every aborted
  request is retried or terminally failed (never both, never neither),
  nothing dispatches into an outage, degraded capacity is respected, and
  the full trace-invariant oracle passes;
* declaring *no* faults is bit-for-bit identical to the pre-fault engine
  (the zero-cost guarantee the parity suites pin across modes).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.jobs import shared_context
from repro.schedulers import make_scheduler, scheduler_names
from repro.schedulers.fcfs import DynamicFcfsScheduler
from repro.sim import (
    FAULT_KINDS,
    FaultSpec,
    SimulationEngine,
    Tracer,
    audit_trace,
    capacity_at,
    fault_kind_names,
    outage_active,
    sample_fault_plan,
)
from repro.sim.engine import RETRY_BUDGET


def _engine(scenario, platform, cost_table, scheduler="fcfs_dynamic", **kwargs):
    tracer = Tracer()
    engine = SimulationEngine(
        scenario=scenario,
        platform=platform,
        scheduler=make_scheduler(scheduler),
        duration_ms=400.0,
        seed=0,
        cost_table=cost_table,
        tracer=tracer,
        **kwargs,
    )
    return engine, tracer


def _busy_outage(tracer, duration_ms=30.0):
    """An outage window opening at an instant with work in flight.

    Frame processing is bursty, so a fixed instant often finds the
    platform idle; replaying the fault-free trace for a moment with at
    least one open dispatch makes the abort path deterministic.
    """
    open_dispatches = 0
    for record in tracer.records:
        if record.event == "dispatch":
            open_dispatches += 1
            if open_dispatches >= 1 and record.time_ms > 0:
                return FaultSpec(
                    kind="platform_outage",
                    start_ms=record.time_ms + 1e-3,
                    duration_ms=duration_ms,
                )
        elif record.event == "layers_complete":
            open_dispatches = max(0, open_dispatches - 1)
    pytest.fail("fault-free trace had no dispatch to interrupt")


class TestFaultSpec:
    def test_kind_registry(self):
        assert fault_kind_names() == ("accel_degrade", "platform_outage", "transient_stall")
        assert tuple(FAULT_KINDS) == fault_kind_names()

    def test_unknown_kind_lists_registry(self):
        with pytest.raises(ValueError, match="accel_degrade"):
            FaultSpec(kind="meteor_strike", start_ms=0.0, duration_ms=1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="start_ms"):
            FaultSpec(kind="platform_outage", start_ms=-1.0, duration_ms=1.0)
        with pytest.raises(ValueError, match="duration_ms"):
            FaultSpec(kind="platform_outage", start_ms=0.0, duration_ms=0.0)
        with pytest.raises(ValueError, match="magnitude"):
            FaultSpec(kind="accel_degrade", start_ms=0.0, duration_ms=1.0,
                      acc_id=0, magnitude=1.5)

    def test_half_open_window(self):
        spec = FaultSpec(kind="platform_outage", start_ms=10.0, duration_ms=5.0)
        assert spec.end_ms == 15.0
        assert not spec.active_at(9.999)
        assert spec.active_at(10.0)
        assert spec.active_at(14.999)
        assert not spec.active_at(15.0)

    def test_sampling_is_deterministic_and_seed_sensitive(self):
        one = sample_fault_plan(seed=5, duration_ms=400.0, accelerators=3)
        two = sample_fault_plan(seed=5, duration_ms=400.0, accelerators=3)
        other = sample_fault_plan(seed=6, duration_ms=400.0, accelerators=3)
        assert one == two
        assert one != other
        assert all(0.0 <= s.start_ms and s.end_ms <= 400.0 for s in one)

    def test_sampling_ignores_hash_seed(self):
        # The subprocess imports the checkout this file belongs to, and
        # writes no bytecode into it.
        repo_root = Path(__file__).resolve().parents[1]
        script = (
            "from repro.sim import sample_fault_plan;"
            "plan = sample_fault_plan(seed=11, duration_ms=250.0, accelerators=2);"
            "print([s.to_dict() for s in plan])"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={
                    "PYTHONHASHSEED": hash_seed,
                    "PATH": "/usr/bin:/bin",
                    "PYTHONPATH": str(repo_root / "src"),
                    "PYTHONDONTWRITEBYTECODE": "1",
                },
                check=True, capture_output=True, text=True, cwd=repo_root,
            ).stdout
            for hash_seed in ("1", "2")
        }
        plan = sample_fault_plan(seed=11, duration_ms=250.0, accelerators=2)
        assert outputs == {f"{[s.to_dict() for s in plan]}\n"}

    def test_window_composition_helpers(self):
        degrade = FaultSpec(kind="accel_degrade", start_ms=0.0, duration_ms=10.0,
                            acc_id=0, magnitude=0.5)
        outage = FaultSpec(kind="platform_outage", start_ms=5.0, duration_ms=10.0)
        stall = FaultSpec(kind="transient_stall", start_ms=0.0, duration_ms=10.0,
                          acc_id=0, magnitude=2.0)
        plan = (degrade, outage, stall)
        assert capacity_at(plan, acc_id=0, time_ms=2.0) == 0.5
        assert capacity_at(plan, acc_id=0, time_ms=6.0) == 0.0  # outage wins
        assert capacity_at(plan, acc_id=1, time_ms=2.0) == 1.0
        assert not outage_active(plan, 4.999)
        assert outage_active(plan, 5.0)


class TestEngineFaults:
    def test_no_faults_is_bit_for_bit_identical(self, tiny_scenario, tiny_platform,
                                                tiny_cost_table):
        engine, tracer = _engine(tiny_scenario, tiny_platform, tiny_cost_table)
        baseline = engine.run()
        faulted, faulted_tracer = _engine(
            tiny_scenario, tiny_platform, tiny_cost_table, faults=()
        )
        result = faulted.run()
        assert result.to_dict() == baseline.to_dict()
        trace = [(r.event, r.time_ms, r.task_name) for r in tracer.records]
        other = [(r.event, r.time_ms, r.task_name) for r in faulted_tracer.records]
        assert trace == other

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_sampled_plans_audit_clean(self, tiny_scenario, tiny_platform,
                                       tiny_cost_table, kind):
        plan = sample_fault_plan(seed=2, duration_ms=400.0, accelerators=2,
                                 kinds=(kind,))
        engine, tracer = _engine(tiny_scenario, tiny_platform, tiny_cost_table,
                                 faults=plan)
        result = engine.run()
        assert audit_trace(tracer, scenario=tiny_scenario, result=result,
                           faults=plan) == []

    def test_faulted_runs_are_deterministic(self, tiny_scenario, tiny_platform,
                                            tiny_cost_table):
        plan = sample_fault_plan(seed=2, duration_ms=400.0, accelerators=2)
        runs = []
        for _ in range(2):
            engine, _ = _engine(tiny_scenario, tiny_platform, tiny_cost_table,
                                faults=plan)
            runs.append(engine.run().to_dict())
        assert runs[0] == runs[1]

    def test_overlapping_windows_compose_on_the_executor(self, tiny_scenario,
                                                         tiny_platform,
                                                         tiny_cost_table):
        """Open stalls give the largest factor and open degrades the
        smallest capacity, not the latest-opened ones; both return to 1.0
        once every window on the accelerator has closed."""
        windows = tuple(
            FaultSpec(kind=kind, start_ms=start, duration_ms=100.0, acc_id=0,
                      magnitude=magnitude)
            for kind, start, magnitude in (
                ("transient_stall", 100.0, 3.0),
                ("transient_stall", 150.0, 2.0),
                ("accel_degrade", 100.0, 0.25),
                ("accel_degrade", 150.0, 0.5),
            )
        )
        # (now, per-accelerator (stall factor, capacity)) at every
        # consultation; the edges of one instant apply before any of them.
        samples = []

        class Probe(DynamicFcfsScheduler):
            def wake_hint(self):
                return None  # consulted after every event, fault edges included

            def schedule(self, view):
                samples.append((view.now_ms, [
                    (executor._latency_factor, executor._capacity)
                    for executor in engine._executors
                ]))
                return super().schedule(view)

        engine = SimulationEngine(
            scenario=tiny_scenario, platform=tiny_platform, scheduler=Probe(),
            duration_ms=400.0, cost_table=tiny_cost_table, faults=windows,
        )
        engine.run()
        state = dict(samples)
        assert all(acc == state[now] for now, acc in samples)
        healthy = (1.0, 1.0)
        assert state[100.0] == [(3.0, 0.25), healthy]
        both_open = [acc for now, acc in samples if 150.0 <= now < 200.0]
        assert both_open and all(acc == [(3.0, 0.25), healthy] for acc in both_open)
        assert state[200.0] == [(2.0, 0.5), healthy]
        assert state[250.0] == [healthy, healthy]
        after = [acc for now, acc in samples if now > 250.0]
        assert after and all(acc == [healthy, healthy] for acc in after)

    def test_outage_aborts_and_retries_in_flight_work(self, tiny_scenario,
                                                      tiny_platform,
                                                      tiny_cost_table):
        baseline, tracer = _engine(tiny_scenario, tiny_platform, tiny_cost_table)
        baseline.run()
        outage = _busy_outage(tracer)
        engine, faulted_tracer = _engine(
            tiny_scenario, tiny_platform, tiny_cost_table, faults=(outage,)
        )
        result = engine.run()
        assert engine.requests_aborted > 0
        assert engine.requests_retried > 0
        events = [r.event for r in faulted_tracer.records]
        assert "abort" in events and "retry" in events
        assert "fault_begin" in events and "fault_end" in events
        assert audit_trace(faulted_tracer, scenario=tiny_scenario, result=result,
                           faults=(outage,)) == []

    def test_exhausted_retry_budget_fails_terminally(self, tiny_scenario,
                                                     tiny_platform,
                                                     tiny_cost_table,
                                                     outages_failing_one_request):
        def run(faults):
            engine, tracer = _engine(tiny_scenario, tiny_platform, tiny_cost_table,
                                     faults=faults)
            engine.run()
            return tracer.records

        plan, target = outages_failing_one_request(run)
        engine, faulted_tracer = _engine(
            tiny_scenario, tiny_platform, tiny_cost_table, faults=plan,
        )
        result = engine.run()
        events = [r.event for r in faulted_tracer.records
                  if (r.task_name, r.frame_id) == target]
        assert events.count("abort") == RETRY_BUDGET + 1
        assert events.count("retry") == RETRY_BUDGET
        assert events[-1] == "failed"
        assert engine.requests_failed > 0
        assert sum(s.failed_frames for s in result.task_stats.values()) > 0
        assert audit_trace(faulted_tracer, scenario=tiny_scenario, result=result,
                           faults=plan) == []

    def test_fault_counters_serialize_only_when_nonzero(self, tiny_scenario,
                                                        tiny_platform,
                                                        tiny_cost_table):
        engine, _ = _engine(tiny_scenario, tiny_platform, tiny_cost_table)
        payload = engine.run().to_dict()
        blob = json.dumps(payload)
        assert "failed_frames" not in blob
        assert "aborts" not in blob
        assert "retries" not in blob


#: Hand-written plans whose windows meet at 150 ms or end together at
#: 200 ms.  Sampled plans draw continuous starts and lengths, so they
#: practically never put two edges on one instant.
_SHARED_INSTANT_PLANS = {
    "back_to_back_outages": (
        FaultSpec("platform_outage", start_ms=100.0, duration_ms=50.0),
        FaultSpec("platform_outage", start_ms=150.0, duration_ms=50.0),
    ),
    "back_to_back_degrades": (
        FaultSpec("accel_degrade", start_ms=100.0, duration_ms=50.0, acc_id=0, magnitude=0.5),
        FaultSpec("accel_degrade", start_ms=150.0, duration_ms=50.0, acc_id=0, magnitude=0.25),
    ),
    "outage_then_degrade": (
        FaultSpec("platform_outage", start_ms=100.0, duration_ms=50.0),
        FaultSpec("accel_degrade", start_ms=150.0, duration_ms=50.0, acc_id=1, magnitude=0.5),
    ),
    "stall_and_degrade_end_together": (
        FaultSpec("transient_stall", start_ms=100.0, duration_ms=100.0, acc_id=0, magnitude=2.0),
        FaultSpec("accel_degrade", start_ms=150.0, duration_ms=50.0, acc_id=1, magnitude=0.5),
    ),
}


@pytest.mark.parametrize("plan", sorted(_SHARED_INSTANT_PLANS))
def test_fault_edges_of_one_instant_apply_together(plan):
    """Every scheduler passes the fault oracle when windows meet: no work
    is dispatched into the zero-length gap between two windows, or under
    the first of two degrades that replace each other."""
    faults = _SHARED_INSTANT_PLANS[plan]
    scenario, platform, cost_table = shared_context("vr_gaming", "4k_1ws_2os", 0.5)
    for name in scheduler_names():
        tracer = Tracer()
        result = SimulationEngine(
            scenario=scenario, platform=platform, scheduler=make_scheduler(name),
            duration_ms=250.0, cost_table=cost_table, tracer=tracer, faults=faults,
        ).run()
        violations = audit_trace(tracer, scenario=scenario, result=result, faults=faults)
        assert violations == [], f"{plan} / {name}: {violations[:3]}"


class TestEngineRegistryErrors:
    """Unknown registry names fail fast with the sorted registry listed."""

    def _make(self, tiny_scenario, tiny_platform, tiny_cost_table, **kwargs):
        return SimulationEngine(
            scenario=tiny_scenario,
            platform=tiny_platform,
            scheduler=make_scheduler("fcfs_dynamic"),
            duration_ms=100.0,
            cost_table=tiny_cost_table,
            **kwargs,
        )

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"resource_model": "turbo"}, "unknown resource model 'turbo'"),
            ({"mode": "turbo"}, "unknown mode 'turbo'"),
        ],
    )
    def test_unknown_names_list_sorted_registry(self, tiny_scenario, tiny_platform,
                                                tiny_cost_table, kwargs, fragment):
        with pytest.raises(ValueError) as excinfo:
            self._make(tiny_scenario, tiny_platform, tiny_cost_table, **kwargs)
        message = str(excinfo.value)
        assert fragment in message
        listed = message.split("available: ")[1]
        assert listed == ", ".join(sorted(listed.split(", ")))

    def test_kernel_option_rejected(self, tiny_scenario, tiny_platform, tiny_cost_table):
        """The decision-kernel option is gone, not a registry of one."""
        with pytest.raises(TypeError, match="kernel"):
            self._make(tiny_scenario, tiny_platform, tiny_cost_table, kernel="turbo")
