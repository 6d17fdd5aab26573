"""The production event loop against the heap-loop spec: counters, hooks, heap.

Bit-for-bit result/trace parity of fast mode
(``SimulationEngine._run_fast_loop``) against the reference mode's heap
loop (``_run_heap_loop``) is asserted by the sweeps in
``test_engine_parity.py``; these tests cover everything around it — every
engine counter matching the spec with elision off, scheduler lifecycle
hooks firing identically, and the streaming heap bound.
"""

from __future__ import annotations

import pytest

from repro.experiments.jobs import shared_context
from repro.schedulers import make_scheduler, scheduler_names
from repro.schedulers.fcfs import DynamicFcfsScheduler
from repro.sim import SimulationEngine, sample_fault_plan

_PLATFORM = "4k_1ws_2os"


def _engine(scheduler, duration_ms=250.0, scenario_name="ar_call", **kwargs):
    scenario, platform, cost_table = shared_context(scenario_name, _PLATFORM, 0.5)
    return SimulationEngine(
        scenario=scenario,
        platform=platform,
        scheduler=scheduler,
        duration_ms=duration_ms,
        cost_table=cost_table,
        **kwargs,
    )


@pytest.mark.parametrize("scheduler_name", scheduler_names())
def test_engine_counters_identical_across_loops(scheduler_name):
    """With elision off the fast loop dispatches exactly like the heap loop.

    The plan opens every fault kind, so fault edges, outage aborts and
    retries are counted too.
    """
    plan = sample_fault_plan(seed=0, duration_ms=250.0, accelerators=3)
    heap_engine = _engine(make_scheduler(scheduler_name), mode="reference", faults=plan)
    heap_engine.run()
    fast_engine = _engine(make_scheduler(scheduler_name), dispatch_elision=False, faults=plan)
    fast_engine.run()
    for counter in (
        "events_processed",
        "dispatch_rounds",
        "dispatches_elided",
        "events_coalesced",
        "peak_event_heap",
        "requests_aborted",
        "requests_retried",
        "requests_failed",
    ):
        assert getattr(fast_engine, counter) == getattr(heap_engine, counter), counter


class _HookRecorder(DynamicFcfsScheduler):
    """FCFS scheduler that also records every lifecycle hook invocation."""

    name = "hook_recorder"

    def __init__(self):
        super().__init__()
        self.calls: list[tuple[str, str, int, float]] = []

    def _note(self, kind, request, now_ms):
        self.calls.append((kind, request.task_name, request.frame_id, now_ms))

    def on_request_arrival(self, request, now_ms):
        self._note("arrival", request, now_ms)

    def on_layers_complete(self, request, now_ms):
        self._note("layers", request, now_ms)

    def on_request_finished(self, request, now_ms):
        self._note("finished", request, now_ms)


def test_lifecycle_hooks_fire_identically_across_loops():
    runs = {}
    for mode in ("reference", "fast"):
        scheduler = _HookRecorder()
        _engine(scheduler, mode=mode).run()
        runs[mode] = scheduler.calls
    assert runs["reference"], "recorder saw no hook calls"
    assert runs["fast"] == runs["reference"]
    kinds = {kind for kind, *_ in runs["fast"]}
    # FCFS dispatches whole models, so requests jump straight from arrival
    # to finished; the layers hook is covered by the hook-elision detection
    # (overridden => called) plus the scheduler sweep in test_engine_parity.
    assert {"arrival", "finished"} <= kinds


def test_fastloop_streaming_heap_stays_bounded():
    """The slot-array loop must keep the O(tasks + slots) heap bound."""
    scenario, platform, _ = shared_context("ar_call", _PLATFORM, 0.5)
    engine = _engine(make_scheduler("fcfs_dynamic"), duration_ms=10_000.0)
    result = engine.run()
    frames = sum(stats.total_frames for stats in result.task_stats.values())
    assert frames > 500
    bound = 4 * (len(scenario.tasks) + len(platform))
    assert engine.peak_event_heap <= bound
