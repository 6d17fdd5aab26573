"""Turn workload passes into the benchmark's metrics.

:func:`measure` runs one workload for a time budget.  Untraced, it repeats
passes and reports the end-to-end metrics (each op's median over the passes,
scaled by a host reference timed between the ops).  Traced,
it alternates an untraced pass with a pass under the layer wrappers of
:mod:`perfbench.layers` and reports the per-layer metrics (medians over the
traced passes) plus ``trace.overhead``; the deterministic (*det*) metrics
come from the results themselves.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from perfbench.checks import OpLedger
from perfbench.layers import Instrumentation, LayerClock
from perfbench.reference import HostReference
from perfbench.workloads import PassResult, Workload
from repro.metrics.reporting import geometric_mean

#: End-to-end metrics: name -> unit.  Every workload reports every one.
END_TO_END = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name -> unit, in report order.
PER_LAYER = {
    "schedulers.schedule.calls": "count",
    "schedulers.schedule.self_s": "s",
    "schedulers.schedule.share": "ratio",
    "schedulers.schedule.us_per_call": "us",
    "schedulers.hooks.calls": "count",
    "schedulers.hooks.self_s": "s",
    "schedulers.useful_share": "ratio",
    "schedulers.calls_per_event": "ratio",
    "schedulers.elided_share": "ratio",
    "sim.engine.self_s": "s",
    "sim.engine.share": "ratio",
    "sim.engine.us_per_event": "us",
    "sim.engine.events": "count",
    "sim.engine.coalesced": "count",
    "sim.executor.calls": "count",
    "sim.executor.self_s": "s",
    "sim.executor.share": "ratio",
    "sim.executor.start.us_per_call": "us",
    "sim.queues.calls": "count",
    "sim.queues.self_s": "s",
    "sim.queues.share": "ratio",
    "sim.tracer.records": "count",
    "sim.tracer.self_s": "s",
    "sim.tracer.share": "ratio",
    "sim.invariants.audits": "count",
    "sim.invariants.self_s": "s",
    "sim.invariants.share": "ratio",
    "hardware.cost_table.builds": "count",
    "hardware.cost_table.self_s": "s",
    "workloads.build.calls": "count",
    "workloads.build.self_s": "s",
    "experiments.store.gets": "count",
    "experiments.store.puts": "count",
    "experiments.store.hit_ratio": "ratio",
    "experiments.store.get.self_s": "s",
    "experiments.store.put.self_s": "s",
    "experiments.store.warm_wall_s": "s",
    "experiments.harness.self_s": "s",
    "fleet.plan.self_s": "s",
    "fleet.aggregate.self_s": "s",
    "fleet.audit.self_s": "s",
    "metrics.result.self_s": "s",
    "model.acc_utilization": "ratio",
    "model.context_switches": "count",
    "model.drop_rate": "ratio",
    "model.violation_rate": "ratio",
    "model.normalized_energy": "ratio",
    "model.uxcost_geomean": "uxcost",
    "trace.overhead": "ratio",
}

#: Consecutive failing passes after which a run gives up.
MAX_FAILED_PASSES = 3


@dataclass
class Measurement:
    """Metrics of one run plus its op accounting."""

    metrics: dict[str, float]
    ledger: OpLedger
    passes: int
    traced_passes: int = 0
    #: Deterministic per-layer values the untraced run prints beside its
    #: bounded metrics (they vary with the seed, not with the host).
    extra: dict[str, float] = field(default_factory=dict)
    #: Host seconds of every untraced pass's timed ops, in run order.
    pass_walls: list[float] = field(default_factory=list)
    #: ``wall_s`` before scaling by the host reference, and the scale.
    host_wall_s: float = 0.0
    reference_scale: float = 1.0

    def payload(self) -> dict:
        """The contract's result object (the runner's last output line)."""
        units = {**END_TO_END, **PER_LAYER}
        return {
            "correct": self.ledger.failed == 0,
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in self.metrics.items()
            },
        }


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def deterministic_metrics(outcome: PassResult) -> dict[str, float]:
    """The *det* per-layer metrics: exact functions of the results."""
    counted = [r.engine_counters for r in outcome.counted if r.engine_counters]
    events = sum(c["events_processed"] for c in counted)
    rounds = sum(c["dispatch_rounds"] for c in counted)
    elided = sum(c["dispatches_elided"] for c in counted)
    results = outcome.results
    frames = sum(r.total_frames for r in results)
    violated = sum(s.violated_frames for r in results for s in r.task_stats.values())
    utilizations = [
        sum(acc.utilization for acc in r.accelerator_stats) / len(r.accelerator_stats)
        for r in results
        if r.accelerator_stats
    ]
    return {
        "schedulers.calls_per_event": _ratio(rounds, events),
        "schedulers.elided_share": _ratio(elided, rounds + elided),
        "sim.engine.events": float(events),
        "sim.engine.coalesced": float(sum(c["events_coalesced"] for c in counted)),
        "model.acc_utilization": _ratio(sum(utilizations), len(utilizations)),
        "model.context_switches": float(
            sum(acc.context_switches for r in results for acc in r.accelerator_stats)
        ),
        "model.drop_rate": _ratio(sum(r.dropped_frames for r in results), frames),
        "model.violation_rate": _ratio(violated, frames),
        "model.normalized_energy": _ratio(
            sum(r.normalized_energy for r in results), len(results)
        ),
        "model.uxcost_geomean": geometric_mean([r.uxcost for r in results]),
    }


def warm_wall_s(passes: list[PassResult]) -> float:
    """Median warm store re-run of the run's untraced passes (0 if none)."""
    walls = [w for p in passes for w in p.warm_s]
    return statistics.median(walls) if walls else 0.0


def layer_metrics(clock: LayerClock, events: int) -> dict[str, float]:
    """Per-layer timing metrics of one traced pass."""
    total = clock.total_self_s()
    metrics: dict[str, float] = {}

    def share(layer: str) -> float:
        return _ratio(clock.layer(layer)[1], total)

    calls, self_s, useful = clock.layer("schedulers.schedule")
    metrics["schedulers.schedule.calls"] = float(calls)
    metrics["schedulers.schedule.self_s"] = self_s
    metrics["schedulers.schedule.share"] = share("schedulers.schedule")
    metrics["schedulers.schedule.us_per_call"] = _ratio(self_s, calls) * 1e6
    metrics["schedulers.useful_share"] = _ratio(useful, calls)
    calls, self_s, _ = clock.layer("schedulers.hooks")
    metrics["schedulers.hooks.calls"] = float(calls)
    metrics["schedulers.hooks.self_s"] = self_s
    _, self_s, _ = clock.layer("sim.engine")
    metrics["sim.engine.self_s"] = self_s
    metrics["sim.engine.share"] = share("sim.engine")
    metrics["sim.engine.us_per_event"] = _ratio(self_s, events) * 1e6
    for layer in ("sim.executor", "sim.queues"):
        calls, self_s, _ = clock.layer(layer)
        metrics[f"{layer}.calls"] = float(calls)
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.share"] = share(layer)
    calls, self_s, _ = clock.function("sim.executor", "AcceleratorExecutor.start")
    metrics["sim.executor.start.us_per_call"] = _ratio(self_s, calls) * 1e6
    calls, self_s, _ = clock.layer("sim.tracer")
    metrics["sim.tracer.records"] = float(calls)
    metrics["sim.tracer.self_s"] = self_s
    metrics["sim.tracer.share"] = share("sim.tracer")
    calls, self_s, _ = clock.layer("sim.invariants")
    metrics["sim.invariants.audits"] = float(calls)
    metrics["sim.invariants.self_s"] = self_s
    metrics["sim.invariants.share"] = share("sim.invariants")
    gets, get_s, hits = clock.function("experiments.store", "ResultStore.get")
    puts, put_s, _ = clock.function("experiments.store", "ResultStore.put")
    metrics["experiments.store.gets"] = float(gets)
    metrics["experiments.store.puts"] = float(puts)
    metrics["experiments.store.hit_ratio"] = _ratio(hits, gets)
    metrics["experiments.store.get.self_s"] = get_s
    metrics["experiments.store.put.self_s"] = put_s
    for layer in (
        "experiments.harness", "fleet.plan", "fleet.aggregate", "fleet.audit", "metrics.result"
    ):
        metrics[f"{layer}.self_s"] = clock.layer(layer)[1]
    return metrics


def setup_metrics(clock: LayerClock) -> dict[str, float]:
    """Per-layer metrics of the set-up phase."""
    builds, build_s, _ = clock.layer("hardware.cost_table")
    calls, self_s, _ = clock.layer("workloads.build")
    return {
        "hardware.cost_table.builds": float(builds),
        "hardware.cost_table.self_s": build_s,
        "workloads.build.calls": float(calls),
        "workloads.build.self_s": self_s,
    }


def _run_pass(
    workload: Workload, ledger: OpLedger, ops: int, span=contextlib.nullcontext
) -> Optional[PassResult]:
    """One checked pass; a pass that raises fails its ``ops`` ops.

    A full collection first gives every pass the same garbage-collector
    state, so no pass pays for the garbage of the one before it.
    """
    gc.collect()
    try:
        outcome = workload.run_pass(span)
    except Exception as error:  # noqa: BLE001 - a failing pass is a counted error
        ledger.fail_pass(ops, f"{type(error).__name__}: {error}")
        return None
    ledger.check(outcome.ops)
    if outcome.warm_ops:
        ledger.check(outcome.warm_ops)
    return outcome


def measure(
    workload: Workload,
    seconds: float,
    trace: bool,
    ledger: OpLedger,
    setup_s: float = 0.0,
    setup_clock: Optional[LayerClock] = None,
    reference: Optional[HostReference] = None,
) -> Measurement:
    """Run passes of a set-up workload for ``seconds`` and compute metrics.

    Args:
        workload: a workload whose :meth:`~Workload.setup` already ran.
        seconds: time budget; a pass starts only while the previous one
            would still fit in what is left of it (at least one pass, and
            one traced pass when tracing).
        trace: report the per-layer metrics instead of the end-to-end ones.
        ledger: op accounting shared with the caller.
        setup_s: the ``setup_s`` value to report (untraced runs).
        setup_clock: the clock that recorded the set-up phase (traced runs).
        reference: host reference sampled between the untraced ops; its
            scale turns host seconds into ``wall_s`` (unscaled without it).
    """
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    traced_layers: list[dict[str, float]] = []
    clock = LayerClock()
    instrumentation = Instrumentation(clock)
    plain_span = reference.span if reference is not None else contextlib.nullcontext
    failures = 0
    start = began = perf_counter()
    while failures < MAX_FAILED_PASSES:
        now = perf_counter()
        step, began = now - began, now  # the previous iteration's duration
        if plain and (traced or not trace) and now - start + step >= seconds:
            break
        ops = len(plain[0].ops) if plain else 1
        outcome = _run_pass(workload, ledger, ops, plain_span)
        if outcome is None:
            failures += 1
            continue
        failures = 0
        if plain:
            # Only the first pass's results feed the metrics; dropping the
            # rest keeps the heap, and with it garbage-collection cost and
            # peak_rss_mb, independent of how many passes fit in the run.
            outcome.results = outcome.counted = []
        plain.append(outcome)
        if not trace:
            continue
        instrumentation.install()
        clock.reset()
        try:
            outcome = _run_pass(workload, ledger, ops, clock.span)
        finally:
            instrumentation.uninstall()
        if outcome is None:
            failures += 1
            continue
        outcome.results = outcome.counted = []
        traced.append(outcome)
        traced_layers.append(layer_metrics(clock, outcome.events))
    if not plain or (trace and not traced):
        raise RuntimeError(
            f"{workload.name}: no pass completed; first failures: {ledger.failures[:3]}"
        )

    if not trace:
        # Each op's median over the passes, scaled by the host reference
        # sampled between them: on a shared host identical work slows down
        # by up to 1.5x for stretches of seconds to minutes.
        host_wall_s = sum(statistics.median(walls) for walls in zip(*(p.op_walls for p in plain)))
        scale = reference.scale() if reference is not None and reference.samples else 1.0
        wall_s = host_wall_s * scale
        metrics = {
            "wall_s": wall_s,
            "events_per_s": plain[0].events / wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb() - (reference.footprint_mb if reference else 0.0),
        }
        extra = {"model.uxcost_geomean": deterministic_metrics(plain[0])["model.uxcost_geomean"]}
        if plain[0].warm_s:
            extra["experiments.store.warm_wall_s"] = warm_wall_s(plain)
        return Measurement(
            metrics=metrics, ledger=ledger, passes=len(plain), extra=extra,
            pass_walls=[p.wall_s for p in plain], host_wall_s=host_wall_s,
            reference_scale=scale,
        )

    metrics = {name: 0.0 for name in PER_LAYER}
    for name in traced_layers[0]:
        metrics[name] = statistics.median(layers[name] for layers in traced_layers)
    metrics.update(deterministic_metrics(plain[0]))
    metrics["experiments.store.warm_wall_s"] = warm_wall_s(plain)
    if setup_clock is not None:
        metrics.update(setup_metrics(setup_clock))
    metrics["trace.overhead"] = _ratio(
        statistics.median(p.total_s for p in traced),
        statistics.median(p.total_s for p in plain),
    )
    return Measurement(
        metrics={name: metrics[name] for name in PER_LAYER},
        ledger=ledger,
        passes=len(plain),
        traced_passes=len(traced),
    )

