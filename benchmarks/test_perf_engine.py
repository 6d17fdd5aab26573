"""Opt-in engine-throughput microbenchmark (``pytest benchmarks -m perf --run-perf``).

Times one dense scenario (vr_gaming on the heterogeneous 4K platform — the
heaviest Table-3 cell) on both the optimized and the reference engine, so
hot-loop performance is measurable from pytest as well as from
``repro bench-engine``.  The benchmark asserts result parity and a modest
speedup floor.  CI's engine-speed gate is ``repro bench-engine --quick
--baseline BENCH_engine.json``, which fails when the fast-vs-reference
speedup falls more than 20% below the committed baseline; there is no
fixed speedup target.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.jobs import shared_context
from repro.schedulers import make_scheduler
from repro.sim import SimulationEngine

_SCENARIO = "vr_gaming"
_PLATFORM = "4k_1ws_2os"
_SCHEDULER = "dream_full"
_DURATION_MS = 800.0


def _run(mode: str) -> tuple[dict, int, float]:
    scenario, platform, cost_table = shared_context(_SCENARIO, _PLATFORM, 0.5)
    engine = SimulationEngine(
        scenario=scenario,
        platform=platform,
        scheduler=make_scheduler(_SCHEDULER),
        duration_ms=_DURATION_MS,
        seed=0,
        cost_table=cost_table,
        mode=mode,
    )
    started = time.perf_counter()
    result = engine.run()
    elapsed = time.perf_counter() - started
    return result.to_dict(), engine.events_processed, elapsed


@pytest.mark.perf
def test_engine_events_per_second(benchmark):
    result, events, _ = benchmark.pedantic(lambda: _run("fast"), rounds=3, iterations=1)
    assert events > 0
    rate = events / benchmark.stats["mean"]
    print(f"\n{_SCENARIO}/{_PLATFORM}/{_SCHEDULER}: {events} events, {rate:.0f} events/sec (fast)")


@pytest.mark.perf
def test_fast_engine_beats_reference_with_identical_results():
    fast_result, fast_events, fast_s = _run("fast")
    ref_result, ref_events, ref_s = _run("reference")
    assert fast_result == ref_result
    assert fast_events == ref_events
    speedup = ref_s / fast_s
    print(
        f"\n{_SCENARIO}/{_PLATFORM}/{_SCHEDULER} at {_DURATION_MS:g} ms: "
        f"fast {fast_s * 1000:.1f} ms vs reference {ref_s * 1000:.1f} ms -> {speedup:.2f}x"
    )
    # Loose floor for a single short cell; CI gates the speedup only as a
    # regression of at most 20% against the committed BENCH_engine.json.
    assert speedup > 1.2
