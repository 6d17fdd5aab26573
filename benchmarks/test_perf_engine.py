"""Engine gates on the quick basket: dispatch elision and fast/reference speedup.

The quick basket is ``ar_call`` and ``vr_gaming`` on ``4k_1ws_2os`` plus
scenarios 0-1 of the default ``GeneratorSpec()`` on the same platform, each
run with every registered scheduler for 400 ms at seed 0 (32 cells).

* The elision gate runs in tier-1.  It runs the basket on the fast engine
  and pins the summed engine counters exactly.  They are a deterministic
  function of the basket, so a change in them is a change in how often
  ``schedule()`` is consulted, never timing noise.
* The speedup gate (``--run-perf``) runs every cell on both engines,
  asserts result and event-count parity, and fails when the summed
  reference wall time over the summed fast wall time falls below
  ``MIN_SPEEDUP``.

CI runs both with ``python -m pytest benchmarks/test_perf_engine.py
--run-perf -q``.  perfbench (``perfbench/run.py``) is the throughput
measure; these gates only catch regressions.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.jobs import generated_context, shared_context
from repro.schedulers import make_scheduler, scheduler_names
from repro.sim import SimulationEngine
from repro.workloads import GeneratorSpec

_PLATFORM = "4k_1ws_2os"
_DURATION_MS = 400.0

#: Summed fast-engine counters of the quick basket.  With elision off the
#: basket makes 91,813 ``schedule()`` calls.
EXPECTED_COUNTERS = {
    "events_processed": 46_392,
    "dispatch_rounds": 45_884,
    "dispatches_elided": 45_929,
    "events_coalesced": 0,
}

#: 0.8 x the 2.493x fast/reference wall-time ratio recorded for the basket.
MIN_SPEEDUP = 1.99


def _basket():
    """Every (context, scheduler name) cell of the quick basket, in order."""
    contexts = [shared_context(name, _PLATFORM, 0.5) for name in ("ar_call", "vr_gaming")]
    contexts += [generated_context(GeneratorSpec(), index, _PLATFORM) for index in range(2)]
    return [(context, name) for context in contexts for name in scheduler_names()]


def _run(context, scheduler_name: str, mode: str):
    """One cell on one engine: (engine, result, wall seconds of ``run()``)."""
    scenario, platform, cost_table = context
    engine = SimulationEngine(
        scenario=scenario,
        platform=platform,
        scheduler=make_scheduler(scheduler_name),
        duration_ms=_DURATION_MS,
        seed=0,
        cost_table=cost_table,
        mode=mode,
    )
    started = time.perf_counter()
    result = engine.run()
    return engine, result, time.perf_counter() - started


def test_quick_basket_engine_counters():
    totals = dict.fromkeys(EXPECTED_COUNTERS, 0)
    for context, scheduler_name in _basket():
        engine = _run(context, scheduler_name, "fast")[0]
        for counter in totals:
            totals[counter] += getattr(engine, counter)
    assert totals == EXPECTED_COUNTERS


@pytest.mark.perf
def test_fast_engine_speedup_over_reference(capsys):
    fast_s = reference_s = 0.0
    for context, scheduler_name in _basket():
        fast, fast_result, fast_wall = _run(context, scheduler_name, "fast")
        reference, reference_result, reference_wall = _run(context, scheduler_name, "reference")
        label = f"{context[0].name} / {scheduler_name}"
        assert fast_result.to_dict() == reference_result.to_dict(), label
        assert fast.events_processed == reference.events_processed, label
        fast_s += fast_wall
        reference_s += reference_wall
    speedup = reference_s / fast_s
    with capsys.disabled():
        print(
            f"\nquick basket: fast {fast_s:.2f} s, reference {reference_s:.2f} s, "
            f"speedup {speedup:.2f}x (floor {MIN_SPEEDUP}x)"
        )
    assert speedup >= MIN_SPEEDUP
