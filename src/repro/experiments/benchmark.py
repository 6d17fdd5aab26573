"""Engine-throughput benchmark: events/sec, with reference-parity checks.

``repro bench-engine`` (and :func:`run_engine_bench` behind it) measures the
simulation hot loop itself, complementing ``repro bench`` which measures
process-pool scaling.  Every cell of a basket — the Table-3 preset grid
plus a fixed set of generated scenarios, across all registered schedulers —
is simulated on each engine path:

* once on the optimized engine (``mode="fast"``: the production event loop
  over the incremental request pool, cached system views and flat-array
  costing), and
* once on the retained reference path (``mode="reference"``: the heap
  event loop over the pre-optimization scan-based pool, per-call cost
  aggregation and view construction),

and the :class:`~repro.sim.results.SimulationResult`\\ s are asserted
bit-for-bit identical across both passes.  Throughput is reported as simulation events
processed per wall-clock second; the speedup is the ratio of the two.

The resulting payload is written to ``BENCH_engine.json`` so the engine's
performance trajectory persists across PRs; CI re-runs a quick basket and
compares against the committed baseline (see :func:`compare_to_baseline`).
"""

from __future__ import annotations

import cProfile
import os
import platform as platform_mod
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro import __version__
from repro.experiments.backends import make_backend
from repro.experiments.jobs import generated_context, shared_context
from repro.schedulers import make_scheduler
from repro.sim import SimulationEngine
from repro.workloads import GeneratorSpec

#: Default simulated window: the engine's own default, which is also the
#: regime the paper evaluates (queues saturate, so the benchmark measures
#: the loaded steady state rather than the idle ramp-up).
DEFAULT_DURATION_MS = 2000.0

#: Shortest wall time a cell is allowed to report.  ``perf_counter`` can
#: return identical ticks around a very fast quick-basket cell, which used
#: to drive the ``events / wall`` division into a ``0.0 events/sec``
#: fallback — silently understating throughput and tripping the
#: baseline gate.  Clamping to the timer's own
#: resolution keeps every ratio finite and honest (a cell genuinely faster
#: than one tick is unmeasurable, not infinitely fast).
_MIN_WALL_S = time.get_clock_info("perf_counter").resolution or 1e-9


def _per_sec(events: int, wall_s: float) -> float:
    """Events/sec with the wall clamped to the timer resolution."""
    return events / max(wall_s, _MIN_WALL_S)


def _ratio(numerator_s: float, denominator_s: float) -> float:
    """Wall-clock ratio with both sides clamped to the timer resolution.

    Clamping both keeps the degenerate case honest: two walls below one
    tick compare as 1.0x (mutually unmeasurable), not 0.0x or infinity.
    """
    return max(numerator_s, _MIN_WALL_S) / max(denominator_s, _MIN_WALL_S)


def _run_once(scenario, platform, scheduler_name: str, cost_table, duration_ms: float,
              seed: int, mode: str,
              resource_model: str = "pe_fraction") -> tuple[dict, SimulationEngine, float]:
    """One simulation; returns (result dict, the engine, wall seconds)."""
    engine = SimulationEngine(
        scenario=scenario,
        platform=platform,
        scheduler=make_scheduler(scheduler_name),
        duration_ms=duration_ms,
        seed=seed,
        cost_table=cost_table,
        mode=mode,
        resource_model=resource_model,
    )
    started = time.perf_counter()
    result = engine.run()
    elapsed = time.perf_counter() - started
    return result.to_dict(), engine, elapsed


def _cpu_model() -> str:
    """The host CPU model string (best effort, '' when undiscoverable)."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform_mod.processor() or ""


def host_metadata() -> dict:
    """Host facts stamped into every bench payload.

    Raw events/sec only transfer between runs on comparable hardware, so
    the payload records what it ran on; :func:`compare_to_baseline` uses
    this to *warn* about cross-host comparisons instead of silently
    skipping the absolute-throughput gates.
    """
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        "perf_counter_resolution": time.get_clock_info("perf_counter").resolution,
    }


@dataclass(frozen=True)
class EngineBenchJob:
    """One picklable bench cell: a (scenario, platform, scheduler) triple
    timed on both engines.

    Carries preset names and scalars only (like
    :class:`~repro.experiments.jobs.CellJob`), so ``repro bench-engine
    --jobs N`` can fan cells out to the existing process backend; each
    worker resolves its (scenario, platform, cost table) context through
    the same process-local LRU cache the serial path uses.  The per-cell
    parity assertion runs inside :meth:`run`, so parallel execution checks
    exactly what the serial path checks.
    """

    scenario: Optional[str]
    platform: str
    scheduler: str
    duration_ms: float
    seed: int
    generator: Optional[GeneratorSpec] = None
    generator_index: int = 0
    repeats: int = 1
    resource_model: str = "pe_fraction"

    def _context(self):
        if self.generator is not None:
            return generated_context(self.generator, self.generator_index, self.platform)
        return shared_context(self.scenario, self.platform, 0.5)

    def run(self, profiler: Optional[cProfile.Profile] = None) -> dict:
        """Time the cell on both engines and return its bench record.

        With ``repeats > 1`` each engine runs that many times and the
        *minimum* wall time is recorded — the standard noise-robust
        estimator (results are deterministic, so repeats differ only in
        scheduling noise; the minimum is the run the machine interfered
        with least).  Both engines get the same treatment, so the
        fast/reference speedup stays an apples-to-apples ratio.
        """
        scenario, platform, cost_table = self._context()
        repeats = max(1, self.repeats)
        resources = self.resource_model
        fast_s = ref_s = float("inf")
        for _ in range(repeats):
            if profiler is not None:
                profiler.enable()
            fast_result, fast_engine, elapsed = _run_once(
                scenario, platform, self.scheduler, cost_table,
                self.duration_ms, self.seed, "fast", resource_model=resources,
            )
            if profiler is not None:
                profiler.disable()
            fast_s = min(fast_s, elapsed)
        for _ in range(repeats):
            ref_result, ref_engine, elapsed = _run_once(
                scenario, platform, self.scheduler, cost_table,
                self.duration_ms, self.seed, "reference",
                resource_model=resources,
            )
            ref_s = min(ref_s, elapsed)
        fast_events = fast_engine.events_processed
        ref_events = ref_engine.events_processed
        cell_parity = fast_result == ref_result and fast_events == ref_events
        cell = {
            "scenario": scenario.name,
            "platform": self.platform,
            "scheduler": self.scheduler,
            "events": fast_events,
            "fast_wall_s": fast_s,
            "reference_wall_s": ref_s,
            "fast_events_per_sec": _per_sec(fast_events, fast_s),
            "reference_events_per_sec": _per_sec(ref_events, ref_s),
            "speedup": _ratio(ref_s, fast_s),
            # Scheduler-load counters: dispatch_rounds counts actual
            # schedule() invocations; the reference engine keeps the exact
            # per-event dispatch path, so its rounds are the pre-elision
            # count the fast engine is measured against.
            "fast_schedule_calls": fast_engine.dispatch_rounds,
            "fast_dispatches_elided": fast_engine.dispatches_elided,
            "fast_events_coalesced": fast_engine.events_coalesced,
            "reference_schedule_calls": ref_engine.dispatch_rounds,
            "parity": cell_parity,
        }
        if resources != "pe_fraction":
            # Default cells stay byte-identical to historical payloads.
            cell["resource_model"] = resources
        return cell


def bench_jobs(
    scenarios: Sequence[str],
    platforms: Sequence[str],
    schedulers: Sequence[str],
    generated: int,
    generator_spec: GeneratorSpec,
    generated_platform: str,
    duration_ms: float,
    seed: int,
    repeats: int = 1,
) -> list[EngineBenchJob]:
    """Expand a bench basket into its ordered list of cell jobs."""
    jobs: list[EngineBenchJob] = []
    for scenario_name in scenarios:
        for platform_name in platforms:
            for scheduler_name in schedulers:
                jobs.append(
                    EngineBenchJob(
                        scenario=scenario_name,
                        platform=platform_name,
                        scheduler=scheduler_name,
                        duration_ms=duration_ms,
                        seed=seed,
                        repeats=repeats,
                    )
                )
    for index in range(generated):
        for scheduler_name in schedulers:
            jobs.append(
                EngineBenchJob(
                    scenario=None,
                    platform=generated_platform,
                    scheduler=scheduler_name,
                    duration_ms=duration_ms,
                    seed=seed,
                    generator=generator_spec,
                    generator_index=index,
                    repeats=repeats,
                )
            )
    return jobs


def kv_smoke_basket() -> dict:
    """The fixed kv_batch smoke basket appended by ``--kv-smoke``.

    Small on purpose: the cells exist to *record* the KV-cache/
    continuous-batching engine's throughput trajectory (and assert its
    fast/reference parity), not to gate regressions —
    :func:`compare_to_baseline` never looks at them.
    """
    return {
        "schedulers": ["fcfs_dynamic", "planaria", "dream_full"],
        "generated": 2,
        "platform": "4k_1ws_2os",
        "duration_ms": 400.0,
    }


def _run_kv_smoke(seed: int, repeats: int) -> dict:
    """Run the kv_batch smoke cells and fold them into a mini payload."""
    basket = kv_smoke_basket()
    spec = GeneratorSpec(resource_model="kv_batch")
    cells = [
        EngineBenchJob(
            scenario=None,
            platform=basket["platform"],
            scheduler=scheduler_name,
            duration_ms=basket["duration_ms"],
            seed=seed,
            generator=spec,
            generator_index=index,
            repeats=repeats,
            resource_model="kv_batch",
        ).run()
        for index in range(basket["generated"])
        for scheduler_name in basket["schedulers"]
    ]
    events = sum(cell["events"] for cell in cells)
    fast_wall = sum(cell["fast_wall_s"] for cell in cells)
    reference_wall = sum(cell["reference_wall_s"] for cell in cells)
    return {
        "basket": {**basket, "generator": spec.to_dict(), "seed": seed},
        "cells": cells,
        "totals": {
            "cells": len(cells),
            "events": events,
            "fast_wall_s": fast_wall,
            "reference_wall_s": reference_wall,
            "fast_events_per_sec": _per_sec(events, fast_wall),
            "reference_events_per_sec": _per_sec(events, reference_wall),
            "speedup": _ratio(reference_wall, fast_wall),
        },
        "parity": all(cell["parity"] for cell in cells),
    }


def run_engine_bench(
    scenarios: Sequence[str],
    platforms: Sequence[str],
    schedulers: Sequence[str],
    generated: int = 3,
    generator_spec: Optional[GeneratorSpec] = None,
    generated_platform: Optional[str] = None,
    duration_ms: float = DEFAULT_DURATION_MS,
    seed: int = 0,
    profile_path: Optional[Path] = None,
    jobs: int = 1,
    repeats: int = 1,
    kv_smoke: bool = False,
) -> dict:
    """Benchmark fast vs reference engine over a basket of cells.

    Args:
        scenarios: preset scenario names (the Table-3 grid by default).
        platforms: platform presets crossed with the preset scenarios.
        schedulers: scheduler names applied to every scenario.
        generated: number of :class:`ScenarioGenerator` scenarios appended
            to the basket (run on ``generated_platform``).
        generator_spec: spec for the generated scenarios (defaults to
            ``GeneratorSpec()`` — the CLI's default generator).
        generated_platform: platform for generated cells (defaults to the
            first entry of ``platforms``).
        duration_ms: simulated window per cell.
        seed: simulation seed shared by every cell.
        profile_path: when set, the optimized passes run under cProfile and
            the stats dump is written here (requires ``jobs=1``).
        jobs: run cells through the existing ``process`` execution backend
            with this pool size (1 = serial, in-process).  Per-cell results,
            counters and the parity assertion are identical either way; on
            a multi-core host (CI runners are 4-vCPU) the wall-clock of the
            *bench itself* shrinks, while per-cell timings — measured
            inside each worker — remain comparable.  On a single-core
            container worker timings contend with each other, so keep
            ``jobs=1`` when the absolute numbers matter.
        repeats: per-cell runs per engine; the minimum wall time is
            recorded (results are deterministic, so repeats only sample
            machine noise).  Use >1 when regenerating a committed
            baseline.
        kv_smoke: additionally run the fixed :func:`kv_smoke_basket` of
            ``resource_model="kv_batch"`` cells and record them under the
            payload's separate ``kv_smoke`` key.  Their parity folds into
            the top-level ``parity`` flag (engine divergence is a bug on
            any resource model), but :func:`compare_to_baseline` ignores
            them — the numbers are recorded, never regression-gated.

    Returns:
        JSON-serializable payload (see the module docstring); ``parity`` is
        False if any cell's results diverged between the two engines.

    Raises:
        ValueError: if ``jobs > 1`` is combined with ``profile_path`` (a
        cProfile capture cannot span pool workers).
    """
    spec = generator_spec or GeneratorSpec()
    generated_platform = generated_platform or (platforms[0] if platforms else "4k_1ws_2os")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 (got {jobs})")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1 (got {repeats})")
    if jobs > 1 and profile_path is not None:
        raise ValueError("profiling requires jobs=1 (cProfile cannot span pool workers)")

    cell_jobs = bench_jobs(
        scenarios, platforms, schedulers, generated, spec,
        generated_platform, duration_ms, seed, repeats=repeats,
    )

    if jobs > 1:
        backend = make_backend("process", workers=jobs)
        cells = backend.run_jobs(cell_jobs)
    else:
        profiler = cProfile.Profile() if profile_path is not None else None
        cells = [job.run(profiler) for job in cell_jobs]
        if profiler is not None and profile_path is not None:
            profile_path.parent.mkdir(parents=True, exist_ok=True)
            profiler.dump_stats(str(profile_path))

    total_events = sum(cell["events"] for cell in cells)
    total_fast = sum(cell["fast_wall_s"] for cell in cells)
    total_reference = sum(cell["reference_wall_s"] for cell in cells)
    parity = all(cell["parity"] for cell in cells)

    fast_eps = _per_sec(total_events, total_fast)
    reference_eps = _per_sec(total_events, total_reference)
    schedule_calls = sum(cell["fast_schedule_calls"] for cell in cells)
    payload = {
        "benchmark": "engine_throughput",
        "repro_version": __version__,
        "python": sys.version.split()[0],
        "machine": platform_mod.platform(),
        "host": host_metadata(),
        "basket": {
            "scenarios": list(scenarios),
            "platforms": list(platforms),
            "schedulers": list(schedulers),
            "generated": generated,
            "generator": spec.to_dict(),
            "generated_platform": generated_platform,
            "duration_ms": duration_ms,
            "seed": seed,
        },
        "cells": cells,
        # cProfile instruments only the optimized passes, so profiled runs
        # report distorted (pessimistic) fast timings — use them for hotspot
        # inspection, never as the recorded benchmark.
        "profiled": profile_path is not None,
        "jobs": jobs,
        "repeats": repeats,
        "totals": {
            "cells": len(cells),
            "events": total_events,
            "fast_wall_s": total_fast,
            "reference_wall_s": total_reference,
            "fast_events_per_sec": fast_eps,
            "reference_events_per_sec": reference_eps,
            "speedup": fast_eps / reference_eps if reference_eps > 0 else 0.0,
            # Deterministic scheduler-load counters (identical across
            # machines for one basket): the quick-basket CI gate fails when
            # fast_schedule_calls regresses against the committed baseline.
            "fast_schedule_calls": schedule_calls,
            "fast_dispatches_elided": sum(
                cell["fast_dispatches_elided"] for cell in cells
            ),
            "fast_events_coalesced": sum(
                cell["fast_events_coalesced"] for cell in cells
            ),
            "reference_schedule_calls": sum(
                cell["reference_schedule_calls"] for cell in cells
            ),
        },
        "parity": parity,
    }
    if kv_smoke:
        smoke = _run_kv_smoke(seed, repeats)
        payload["kv_smoke"] = smoke
        payload["parity"] = parity and smoke["parity"]
    return payload


def baseline_entries(baseline: dict) -> list[dict]:
    """All bench payloads stored in a baseline file.

    ``BENCH_engine.json`` is a dict of labeled payloads (``full``,
    ``quick``, ...) so one committed file covers both the headline Table-3
    run and the CI-sized basket; a bare single payload is also accepted.
    """
    if "totals" in baseline:
        return [baseline]
    return [entry for entry in baseline.values() if isinstance(entry, dict) and "totals" in entry]


def _host_mismatch(payload: dict, match: dict) -> Optional[str]:
    """Why the two payloads' hosts are not comparable (None when they are).

    Compares the structured host metadata when both sides record it (CPU
    model, core count, Python version), falling back to the coarse
    ``machine`` platform string for pre-metadata baselines.
    """
    host, base_host = payload.get("host"), match.get("host")
    if host and base_host:
        for key in ("cpu_model", "cpu_count", "python"):
            if host.get(key) != base_host.get(key):
                return (
                    f"host {key} differs: {host.get(key)!r} vs baseline "
                    f"{base_host.get(key)!r}"
                )
        return None
    if payload.get("machine") != match.get("machine"):
        return (
            f"machine differs: {payload.get('machine')!r} vs baseline "
            f"{match.get('machine')!r}"
        )
    return None


def compare_to_baseline(
    payload: dict,
    baseline: dict,
    max_regression: float,
    max_round_regression: float = 0.1,
    warnings: Optional[list[str]] = None,
) -> list[str]:
    """Regression messages comparing a fresh payload to a committed baseline.

    The baseline entry with the *same basket* as the fresh run is selected
    (durations and cell sets change the measured ratios, so cross-basket
    numbers are not comparable).  The primary comparison is the
    fast/reference *speedup* — a wall-clock ratio measured within one run,
    so it transfers across machines of different absolute speed.  Raw
    events/sec are additionally compared when the recorded host matches
    (absolute throughput on a different host says nothing about a code
    regression); on a host mismatch the skipped absolute gates are
    reported into ``warnings`` (when a list is passed) instead of being
    dropped silently.

    ``fast_schedule_calls`` — the fast engine's dispatch-round /
    ``schedule()``-invocation count over the basket — is compared whenever
    the baseline records it: the count is a deterministic function of the
    basket (no timing noise), so growing it more than
    ``max_round_regression`` means dispatch elision regressed even if the
    wall clock happens to hide it.

    Returns a list of human-readable failure messages (empty = no
    regression beyond the thresholds).
    """
    match = next(
        (
            entry
            for entry in baseline_entries(baseline)
            if entry.get("basket") == payload.get("basket")
        ),
        None,
    )
    if match is None:
        return [
            "baseline has no entry with a matching basket; regenerate it with "
            "the same bench-engine options"
        ]

    problems: list[str] = []
    threshold = 1.0 - max_regression
    current = payload["totals"]
    base = match["totals"]

    mismatch = _host_mismatch(payload, match)
    same_host = mismatch is None
    if mismatch is not None and warnings is not None:
        warnings.append(
            f"{mismatch}; skipping the absolute events/sec gates (wall-clock "
            "ratios are still compared)"
        )

    base_speedup = base.get("speedup")
    if base_speedup:
        ratio = current["speedup"] / base_speedup
        if ratio < threshold:
            problems.append(
                f"fast/reference speedup regressed: {current['speedup']:.2f}x vs "
                f"baseline {base_speedup:.2f}x ({(1.0 - ratio) * 100:.0f}% worse, "
                f"allowed {max_regression * 100:.0f}%)"
            )

    base_eps = base.get("fast_events_per_sec")
    if same_host and base_eps:
        ratio = current["fast_events_per_sec"] / base_eps
        if ratio < threshold:
            problems.append(
                f"events/sec regressed: {current['fast_events_per_sec']:.0f} vs "
                f"baseline {base_eps:.0f} ({(1.0 - ratio) * 100:.0f}% worse, "
                f"allowed {max_regression * 100:.0f}%)"
            )

    base_rounds = base.get("fast_schedule_calls")
    current_rounds = current.get("fast_schedule_calls")
    if base_rounds and current_rounds is not None:
        ratio = current_rounds / base_rounds
        if ratio > 1.0 + max_round_regression:
            problems.append(
                f"dispatch rounds / schedule() calls regressed: "
                f"{current_rounds} vs baseline {base_rounds} "
                f"({(ratio - 1.0) * 100:.0f}% more, allowed "
                f"{max_round_regression * 100:.0f}%)"
            )
    return problems


def describe(payload: dict) -> str:
    """Human-readable summary table of a bench payload."""
    lines = []
    totals = payload["totals"]
    for cell in payload["cells"]:
        counters = ""
        if "fast_schedule_calls" in cell:
            counters = (
                f"  sched {cell['fast_schedule_calls']:>6d}"
                f" (elided {cell['fast_dispatches_elided']}"
                f", coalesced {cell['fast_events_coalesced']})"
            )
        lines.append(
            f"  {cell['scenario']:>18s}/{cell['platform']:<10s} {cell['scheduler']:<16s} "
            f"{cell['events']:>6d} ev  fast {cell['fast_wall_s'] * 1000:7.1f} ms  "
            f"ref {cell['reference_wall_s'] * 1000:8.1f} ms  {cell['speedup']:5.2f}x"
            f"{counters}"
            f"{'' if cell['parity'] else '  PARITY MISMATCH'}"
        )
    lines.append(
        f"total: {totals['cells']} cells, {totals['events']} events | "
        f"fast {totals['fast_events_per_sec']:.0f} ev/s "
        f"({totals['fast_wall_s']:.2f} s) vs reference "
        f"{totals['reference_events_per_sec']:.0f} ev/s "
        f"({totals['reference_wall_s']:.2f} s) -> {totals['speedup']:.2f}x"
    )
    if "fast_schedule_calls" in totals:
        lines.append(
            f"scheduler load: {totals['fast_schedule_calls']} schedule() calls "
            f"({totals['fast_dispatches_elided']} dispatches elided, "
            f"{totals['fast_events_coalesced']} events coalesced; reference "
            f"path made {totals['reference_schedule_calls']})"
        )
    smoke = payload.get("kv_smoke")
    if smoke:
        smoke_totals = smoke["totals"]
        lines.append(
            f"kv_batch smoke: {smoke_totals['cells']} cells, "
            f"{smoke_totals['events']} events | fast "
            f"{smoke_totals['fast_events_per_sec']:.0f} ev/s vs reference "
            f"{smoke_totals['reference_events_per_sec']:.0f} ev/s -> "
            f"{smoke_totals['speedup']:.2f}x (recorded, not gated; parity "
            f"{'OK' if smoke['parity'] else 'MISMATCH'})"
        )
    lines.append(f"parity: {'OK (bit-for-bit)' if payload['parity'] else 'MISMATCH'}")
    if payload.get("profiled"):
        lines.append(
            "note: optimized passes ran under cProfile — timings above are "
            "distorted; use this run for hotspot inspection only"
        )
    return "\n".join(lines)


def default_basket() -> dict:
    """The full Table-3 benchmark basket (used when no options are given)."""
    from repro.schedulers import scheduler_names
    from repro.workloads import scenario_names

    return {
        "scenarios": scenario_names(),
        "platforms": ["4k_1ws_2os", "4k_2ws"],
        "schedulers": scheduler_names(),
        "generated": 3,
        "duration_ms": DEFAULT_DURATION_MS,
    }


def quick_basket() -> dict:
    """A CI-sized basket (~seconds instead of minutes)."""
    from repro.schedulers import scheduler_names

    return {
        "scenarios": ["ar_call", "vr_gaming"],
        "platforms": ["4k_1ws_2os"],
        "schedulers": scheduler_names(),
        "generated": 2,
        "duration_ms": 400.0,
    }


__all__ = [
    "DEFAULT_DURATION_MS",
    "EngineBenchJob",
    "bench_jobs",
    "compare_to_baseline",
    "default_basket",
    "describe",
    "host_metadata",
    "kv_smoke_basket",
    "quick_basket",
    "run_engine_bench",
]
