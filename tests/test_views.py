"""The scheduler's view of the system: read-only, live and lazy.

Each engine run hands every ``schedule()`` call the same
:class:`~repro.sim.decisions.SystemView`.  Its request tuples and queue
depths are the pool's snapshots, built only when a scheduler reads them,
and no scheduler may write through it in either engine mode.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.experiments.jobs import shared_context
from repro.schedulers import make_scheduler
from repro.schedulers.base import Scheduler
from repro.sim import ENGINE_MODES, SchedulingDecision, SimulationEngine
from repro.sim.queues import RequestPool

EXAMPLE = Path(__file__).resolve().parents[1] / "examples" / "custom_scheduler.py"


def _run(scheduler, scenario="ar_call", platform="4k_1ws_2os", mode="fast", duration_ms=100.0):
    scenario, platform, cost_table = shared_context(scenario, platform, 0.5)
    engine = SimulationEngine(
        scenario, platform, scheduler, duration_ms=duration_ms, seed=0,
        cost_table=cost_table, mode=mode,
    )
    return engine.run()


def _count_running_snapshots(monkeypatch):
    calls = []
    original = RequestPool.running_snapshot

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(RequestPool, "running_snapshot", counted)
    return calls


class TestLazySnapshots:
    def test_fcfs_never_builds_a_running_snapshot(self, monkeypatch):
        calls = _count_running_snapshots(monkeypatch)
        result = _run(make_scheduler("fcfs_static"), duration_ms=200.0)
        assert result.engine_counters["dispatch_rounds"] > 0
        assert calls == []

    def test_dream_builds_the_running_snapshot_it_reads(self, monkeypatch):
        calls = _count_running_snapshots(monkeypatch)
        _run(make_scheduler("dream_full"), duration_ms=200.0)
        assert len(calls) >= 1


class _Vandal(Scheduler):
    """Tries to write through its view once, recording what each write raised."""

    name = "vandal"

    def __init__(self):
        super().__init__()
        self.raised = {}

    def schedule(self, view):
        if not self.raised:
            writes = {
                "now_ms": lambda: setattr(view, "now_ms", -1.0),
                "pending_requests": lambda: setattr(view, "pending_requests", ()),
                "free_fraction": lambda: setattr(view.accelerators[0], "free_fraction", 0.5),
            }
            for label, write in writes.items():
                try:
                    write()
                except AttributeError:
                    self.raised[label] = True
                else:
                    self.raised[label] = False
        return SchedulingDecision.empty()


@pytest.mark.parametrize("mode", ENGINE_MODES)
def test_views_are_read_only(mode):
    scheduler = _Vandal()
    _run(scheduler, mode=mode, duration_ms=50.0)
    assert scheduler.raised == {
        "now_ms": True, "pending_requests": True, "free_fraction": True,
    }


def test_example_scheduler_agrees_across_engine_modes():
    """``examples/custom_scheduler.py`` is the public-API scheduler outside ``src/``."""
    spec = importlib.util.spec_from_file_location("custom_scheduler_example", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    results = [
        _run(
            module.EdfBestAcceleratorScheduler(), scenario="vr_gaming",
            platform="4k_1os_2ws", mode=mode,
        )
        for mode in ENGINE_MODES
    ]
    assert sum(stats.completed_frames for stats in results[0].task_stats.values()) > 0
    assert results[0].to_dict() == results[1].to_dict()
