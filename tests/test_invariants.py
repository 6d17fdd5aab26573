"""The trace-invariant oracle: clean runs pass, corrupted traces trip.

Each hand-crafted corrupted trace must trip *exactly* its intended
invariant with a precise message — that precision is what makes oracle
output actionable when the fuzzer finds a real scheduler bug.
"""

import dataclasses
from collections import Counter

import pytest

from repro.schedulers import make_scheduler
from repro.sim import (
    SimulationEngine,
    TraceInvariantError,
    Tracer,
    TraceRecord,
    assert_trace_invariants,
    audit_trace,
)
from repro.models.graph import ModelGraph
from repro.models.layers import fc
from repro.sim.invariants import INVARIANT_NAMES
from repro.sim.results import SimulationResult, TaskStats
from repro.workloads.scenario import Scenario, TaskSpec


def _rec(
    time_ms,
    event,
    task="vision",
    rid=1,
    model="alpha",
    acc=None,
    frame=0,
    pe=None,
    deadline=100.0,
    mem=None,
):
    return TraceRecord(
        time_ms=time_ms,
        event=event,
        task_name=task,
        request_id=rid,
        model_name=model,
        acc_id=acc,
        frame_id=frame,
        pe_fraction=pe,
        deadline_ms=deadline,
        memory_fraction=mem,
    )


def _interaction_scenario():
    """Head task plus a dependent task declared as a multi-turn interaction."""
    ask = ModelGraph(name="ask_model", layers=(fc("ask.fc", 128, 64),))
    reply = ModelGraph(name="reply_model", layers=(fc("reply.fc", 128, 64),))
    return Scenario(
        name="interactive",
        tasks=(
            TaskSpec("ask", ask, fps=30),
            TaskSpec("reply", reply, fps=30, depends_on="ask", interaction=True),
        ),
    )


def _lifecycle(rid=1, task="vision", frame=0, start=0.0, acc=0):
    """A minimal valid request lifecycle: arrival -> dispatch -> complete."""
    return [
        _rec(start, "arrival", task=task, rid=rid, frame=frame),
        _rec(start + 1, "dispatch", task=task, rid=rid, frame=frame, acc=acc, pe=1.0),
        _rec(start + 5, "layers_complete", task=task, rid=rid, frame=frame, acc=acc),
        _rec(start + 5, "complete", task=task, rid=rid, frame=frame, acc=acc),
    ]


def _violated(records, invariant, **kwargs):
    """Violations of one invariant; asserts no *other* invariant tripped."""
    violations = audit_trace(records, **kwargs)
    assert violations, f"expected a {invariant!r} violation, trace passed"
    others = [v for v in violations if v.invariant != invariant]
    assert not others, f"unexpected extra violations: {others}"
    return [v for v in violations if v.invariant == invariant]


class TestCleanRuns:
    @pytest.mark.parametrize("scheduler", ["fcfs_dynamic", "planaria", "dream_full"])
    def test_real_runs_pass_all_invariants(self, tiny_scenario, tiny_platform,
                                           tiny_cost_table, scheduler):
        tracer = Tracer()
        engine = SimulationEngine(
            scenario=tiny_scenario,
            platform=tiny_platform,
            scheduler=make_scheduler(scheduler),
            duration_ms=400.0,
            seed=0,
            cost_table=tiny_cost_table,
            tracer=tracer,
        )
        result = engine.run()
        assert audit_trace(tracer, scenario=tiny_scenario, result=result) == []
        # and the asserting form does not raise
        assert_trace_invariants(tracer, scenario=tiny_scenario, result=result)

    def test_hand_built_lifecycle_passes(self):
        assert audit_trace(_lifecycle()) == []


class TestCorruptedTraces:
    def test_oversubscribed_pe_array(self):
        records = [
            _rec(0.0, "arrival", rid=1),
            _rec(0.0, "arrival", rid=2),
            _rec(1.0, "dispatch", rid=1, acc=0, pe=0.7),
            _rec(1.0, "dispatch", rid=2, acc=0, pe=0.7),
        ]
        (violation,) = _violated(
            records, "no_pe_oversubscription", invariants=["no_pe_oversubscription"]
        )
        assert "oversubscribed" in violation.message
        assert "1.4" in violation.message

    def test_request_on_two_accelerators_at_once(self):
        records = [
            _rec(0.0, "arrival", rid=1),
            _rec(1.0, "dispatch", rid=1, acc=0, pe=0.5),
            _rec(2.0, "dispatch", rid=1, acc=1, pe=0.5),
        ]
        violations = audit_trace(records, invariants=["no_pe_oversubscription"])
        assert any("already in flight" in v.message for v in violations)

    def test_dispatch_before_arrival(self):
        records = [
            _rec(1.0, "dispatch", rid=1, acc=0, pe=1.0),
            _rec(2.0, "arrival", rid=1),
        ]
        violations = audit_trace(records, invariants=["causality"])
        assert any("before any arrival" in v.message for v in violations)

    def test_orphan_cascade_child(self, tiny_scenario):
        # 'cascade' depends on 'vision' in the tiny scenario, but no
        # completion of 'vision' for frame 3 ever happened.
        records = _lifecycle(rid=1, task="vision", frame=1) + [
            _rec(10.0, "cascade_arrival", task="cascade", rid=7, model="gamma", frame=3),
            _rec(12.0, "expired", task="cascade", rid=7, model="gamma", frame=3),
        ]
        violations = _violated(
            records, "cascade_after_parent",
            scenario=tiny_scenario, invariants=["cascade_after_parent"],
        )
        assert "orphan cascade child" in violations[0].message
        assert "'vision'" in violations[0].message

    def test_cascade_arrival_for_head_task(self, tiny_scenario):
        records = [
            _rec(5.0, "cascade_arrival", task="vision", rid=9),
            _rec(6.0, "expired", task="vision", rid=9),
        ]
        violations = audit_trace(
            records, scenario=tiny_scenario, invariants=["cascade_after_parent"]
        )
        assert any("head task" in v.message for v in violations)

    def test_double_finish(self):
        records = _lifecycle(rid=1) + [_rec(9.0, "dropped", rid=1)]
        violations = audit_trace(records, invariants=["conservation"])
        assert any("double finish" in v.message for v in violations)

    def test_leaked_request(self):
        records = [_rec(0.0, "arrival", rid=1)]
        violations = audit_trace(records, invariants=["conservation"])
        assert any("leaked request" in v.message for v in violations)

    def test_terminal_without_arrival(self):
        records = [_rec(3.0, "dropped", rid=5)]
        violations = audit_trace(records, invariants=["conservation"])
        assert any("never arrived" in v.message for v in violations)

    def test_time_travel_within_request(self):
        records = [
            _rec(0.0, "arrival", rid=1),
            _rec(5.0, "dispatch", rid=1, acc=0, pe=1.0),
            _rec(2.0, "layers_complete", rid=1, acc=0),
        ]
        violations = audit_trace(records, invariants=["monotonic_progress"])
        assert any("back in time" in v.message for v in violations)

    def test_event_after_terminal(self):
        records = _lifecycle(rid=1) + [_rec(9.0, "dispatch", rid=1, acc=0, pe=1.0)]
        violations = audit_trace(records, invariants=["monotonic_progress"])
        assert any("after terminal" in v.message for v in violations)

    def test_stats_mismatch(self):
        records = _lifecycle(rid=1, task="vision")
        stats = TaskStats(task_name="vision", total_frames=2, completed_frames=2)
        result = SimulationResult(
            scenario_name="tiny",
            platform_name="tiny_het",
            scheduler_name="fcfs_dynamic",
            duration_ms=200.0,
            seed=0,
            task_stats={"vision": stats},
            accelerator_stats=(),
        )
        violations = _violated(
            records, "stats_consistency", result=result, invariants=["stats_consistency"]
        )
        assert "completed_frames=2 != 1" in violations[0].message

    def test_stats_must_match_the_measured_trace_exactly(self):
        """An under-count trips the check as an over-count does, and a
        completion whose deadline lies past the window counts for neither."""
        late = [
            dataclasses.replace(record, deadline_ms=250.0)
            for record in _lifecycle(rid=2, frame=1, start=10.0)
        ]
        records = _lifecycle(rid=1) + late
        for completed in (0, 1, 2):
            stats = TaskStats(
                task_name="vision", total_frames=completed, completed_frames=completed
            )
            result = SimulationResult(
                scenario_name="tiny",
                platform_name="tiny_het",
                scheduler_name="fcfs_dynamic",
                duration_ms=200.0,
                seed=0,
                task_stats={"vision": stats},
                accelerator_stats=(),
            )
            violations = audit_trace(records, result=result, invariants=["stats_consistency"])
            if completed == 1:
                assert violations == []
            else:
                (violation,) = violations
                assert f"completed_frames={completed} != 1" in violation.message

    def test_assert_form_raises_with_all_messages(self):
        records = [_rec(3.0, "dropped", rid=5)]
        with pytest.raises(TraceInvariantError) as excinfo:
            assert_trace_invariants(records, invariants=["conservation"])
        assert "conservation" in str(excinfo.value)
        assert excinfo.value.violations

    def test_unknown_invariant_name_rejected(self):
        with pytest.raises(ValueError):
            audit_trace([], invariants=["no_such_invariant"])

    def test_oversubscribed_kv_budget(self):
        records = [
            _rec(0.0, "arrival", rid=1),
            _rec(0.0, "arrival", rid=2),
            _rec(1.0, "dispatch", rid=1, acc=0, pe=0.6, mem=0.6),
            _rec(1.0, "dispatch", rid=2, acc=0, pe=0.6, mem=0.6),
        ]
        (violation,) = _violated(
            records,
            "no_memory_oversubscription",
            invariants=["no_memory_oversubscription"],
        )
        assert "KV budget oversubscribed" in violation.message
        assert "1.2" in violation.message

    def test_memory_check_skips_pe_fraction_dispatches(self):
        # Historical traces carry no memory_fraction: vacuously clean.
        assert audit_trace(
            _lifecycle(), invariants=["no_memory_oversubscription"]
        ) == []

    def test_interaction_turn_without_parent_completion(self):
        scenario = _interaction_scenario()
        records = [
            *_lifecycle(rid=1, task="ask"),  # parent completes at t=5.0
            _rec(9.0, "interaction_arrival", task="reply", rid=2, model="reply_model"),
            _rec(9.5, "dispatch", task="reply", rid=2, acc=0, pe=1.0),
            _rec(12.0, "layers_complete", task="reply", rid=2, acc=0),
            _rec(12.0, "complete", task="reply", rid=2, acc=0),
        ]
        (violation,) = _violated(
            records,
            "interaction_causality",
            scenario=scenario,
            invariants=["interaction_causality"],
        )
        assert "without a completion of parent task 'ask'" in violation.message

    def test_interaction_turn_at_parent_completion_passes(self):
        scenario = _interaction_scenario()
        records = [
            *_lifecycle(rid=1, task="ask"),
            _rec(5.0, "interaction_arrival", task="reply", rid=2, model="reply_model"),
            _rec(5.0, "dispatch", task="reply", rid=2, acc=0, pe=1.0),
            _rec(8.0, "layers_complete", task="reply", rid=2, acc=0),
            _rec(8.0, "complete", task="reply", rid=2, acc=0),
        ]
        assert (
            audit_trace(records, scenario=scenario, invariants=["interaction_causality"])
            == []
        )

    def test_interaction_turn_for_non_interaction_task(self):
        scenario = _interaction_scenario()
        records = [
            _rec(0.0, "interaction_arrival", task="ask", rid=3, model="ask_model"),
            _rec(1.0, "dispatch", task="ask", rid=3, acc=0, pe=1.0),
            _rec(2.0, "layers_complete", task="ask", rid=3, acc=0),
            _rec(2.0, "complete", task="ask", rid=3, acc=0),
        ]
        (violation,) = _violated(
            records,
            "interaction_causality",
            scenario=scenario,
            invariants=["interaction_causality"],
        )
        assert "does not declare as an interaction" in violation.message

    def test_registry_covers_all_checkers(self):
        assert set(INVARIANT_NAMES) == {
            "no_pe_oversubscription",
            "no_memory_oversubscription",
            "causality",
            "monotonic_progress",
            "cascade_after_parent",
            "interaction_causality",
            "conservation",
            "stats_consistency",
            "fault_conservation",
            "no_dispatch_while_faulted",
            "degraded_capacity_respected",
        }


class TestStructuredTraceFields:
    """The engine populates the structured fields the oracle consumes."""

    def test_engine_records_structured_fields(self, tiny_scenario, tiny_platform,
                                              tiny_cost_table):
        tracer = Tracer()
        SimulationEngine(
            scenario=tiny_scenario,
            platform=tiny_platform,
            scheduler=make_scheduler("fcfs_dynamic"),
            duration_ms=300.0,
            seed=0,
            cost_table=tiny_cost_table,
            tracer=tracer,
        ).run()
        events = Counter(record.event for record in tracer)
        assert events["arrival"] > 0 and events["dispatch"] > 0
        assert events["complete"] > 0, "terminal completions must be traced"
        for record in tracer:
            assert record.frame_id is not None
            assert record.deadline_ms is not None
            if record.event == "dispatch":
                assert record.pe_fraction is not None and 0 < record.pe_fraction <= 1.0


class TestFaultOracles:
    """Hand-corrupted traces trip exactly the intended fault invariant."""

    def _faulted_lifecycle(self):
        """arrival -> dispatch -> abort -> retry -> dispatch -> complete."""
        return [
            _rec(0.0, "arrival", rid=1),
            _rec(1.0, "dispatch", rid=1, acc=0, pe=1.0),
            _rec(2.0, "abort", rid=1, acc=0),
            _rec(3.0, "retry", rid=1),
            _rec(4.0, "dispatch", rid=1, acc=0, pe=1.0),
            _rec(5.0, "layers_complete", rid=1, acc=0),
            _rec(5.0, "complete", rid=1, acc=0),
        ]

    def test_clean_abort_retry_lifecycle_passes(self):
        assert audit_trace(self._faulted_lifecycle()) == []

    def test_clean_abort_failed_lifecycle_passes(self):
        records = [
            _rec(0.0, "arrival", rid=1),
            _rec(1.0, "dispatch", rid=1, acc=0, pe=1.0),
            _rec(2.0, "abort", rid=1, acc=0),
            _rec(2.0, "failed", rid=1),
        ]
        assert audit_trace(records) == []

    def test_leaked_abort(self):
        records = self._faulted_lifecycle()[:3]
        (violation,) = _violated(
            records, "fault_conservation", invariants=["fault_conservation"]
        )
        assert "neither retried nor terminally failed" in violation.message

    def test_retry_without_abort(self):
        records = [
            _rec(0.0, "arrival", rid=1),
            _rec(1.0, "retry", rid=1),
        ]
        (violation,) = _violated(
            records, "fault_conservation", invariants=["fault_conservation"]
        )
        assert "retry without a preceding abort" in violation.message

    def test_failed_without_abort(self):
        records = [
            _rec(0.0, "arrival", rid=1),
            _rec(1.0, "failed", rid=1),
        ]
        (violation,) = _violated(
            records, "fault_conservation", invariants=["fault_conservation"]
        )
        assert "without a preceding abort" in violation.message

    def test_double_abort(self):
        records = self._faulted_lifecycle()[:3] + [_rec(2.5, "abort", rid=1, acc=0)]
        violations = _violated(
            records, "fault_conservation", invariants=["fault_conservation"]
        )
        assert any("second abort" in v.message for v in violations)

    def test_terminal_with_open_abort(self):
        records = self._faulted_lifecycle()[:3] + [_rec(3.0, "expired", rid=1)]
        (violation,) = _violated(
            records, "fault_conservation", invariants=["fault_conservation"]
        )
        assert "still awaiting retry or failure" in violation.message

    def _outage(self, start=10.0, duration=5.0):
        from repro.sim import FaultSpec

        return (FaultSpec(kind="platform_outage", start_ms=start, duration_ms=duration),)

    def test_dispatch_during_outage(self):
        records = [
            _rec(0.0, "arrival", rid=1),
            _rec(12.0, "dispatch", rid=1, acc=0, pe=1.0),
        ]
        (violation,) = _violated(
            records, "no_dispatch_while_faulted",
            invariants=["no_dispatch_while_faulted"], faults=self._outage(),
        )
        assert "during a declared platform outage" in violation.message

    def test_dispatch_at_recovery_instant_is_legal(self):
        records = [
            _rec(0.0, "arrival", rid=1),
            _rec(15.0, "dispatch", rid=1, acc=0, pe=1.0),
            _rec(16.0, "layers_complete", rid=1, acc=0),
            _rec(16.0, "complete", rid=1, acc=0),
        ]
        assert audit_trace(records, faults=self._outage()) == []

    def _degrade(self, magnitude=0.5):
        from repro.sim import FaultSpec

        return (
            FaultSpec(kind="accel_degrade", start_ms=10.0, duration_ms=10.0,
                      acc_id=0, magnitude=magnitude),
        )

    def test_dispatch_exceeding_degraded_capacity(self):
        records = [
            _rec(0.0, "arrival", rid=1),
            _rec(12.0, "dispatch", rid=1, acc=0, pe=0.7),
        ]
        (violation,) = _violated(
            records, "degraded_capacity_respected",
            invariants=["degraded_capacity_respected"], faults=self._degrade(),
        )
        assert "capping capacity" in violation.message

    def test_dispatch_within_degraded_capacity_passes(self):
        records = [
            _rec(0.0, "arrival", rid=1),
            _rec(12.0, "dispatch", rid=1, acc=0, pe=0.4),
            _rec(13.0, "layers_complete", rid=1, acc=0),
            _rec(13.0, "complete", rid=1, acc=0),
        ]
        assert audit_trace(records, faults=self._degrade()) == []

    def test_other_accelerator_unaffected_by_degrade(self):
        records = [
            _rec(0.0, "arrival", rid=1),
            _rec(12.0, "dispatch", rid=1, acc=1, pe=1.0),
            _rec(13.0, "layers_complete", rid=1, acc=1),
            _rec(13.0, "complete", rid=1, acc=1),
        ]
        assert audit_trace(records, faults=self._degrade()) == []
