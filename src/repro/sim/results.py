"""Simulation outcomes: per-task statistics and the overall result object.

The :class:`SimulationResult` is the artefact every experiment consumes; it
exposes the paper's metrics directly (UXCost via Algorithm 2, per-task
deadline-violation rates, normalized energy) plus supporting detail
(accelerator utilization, Supernet variant mix for Figure 14, latency
statistics).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.metrics.uxcost import ModelOutcome, UXCostBreakdown, compute_uxcost


@dataclass
class TaskStats:
    """Accumulated outcome of one task over the measurement window.

    ``latency_quantiles`` holds the bounded-memory streaming estimates
    (P² algorithm, see :mod:`repro.metrics.quantiles`) of the completed-
    frame latency distribution as ``{"count": n, "p50": ..., "p95": ...,
    "p99": ...}``, or ``None`` when no measured frame completed.  Unlike
    ``latency_sum_ms`` these are estimates (exact below five samples), but
    they are deterministic functions of the completion stream, so they
    round-trip and compare bit-for-bit.

    The fault-injection counters (``failed_frames`` — measured frames
    terminally failed after an outage exhausted their retry budget, plus
    the raw ``aborts``/``retries`` event counts) serialize only when
    nonzero, so fault-free payloads stay byte-identical to historical
    ones and content-addressed cache keys are preserved.
    """

    task_name: str
    total_frames: int = 0
    completed_frames: int = 0
    violated_frames: int = 0
    dropped_frames: int = 0
    expired_frames: int = 0
    unfinished_frames: int = 0
    actual_energy_mj: float = 0.0
    worst_case_energy_mj: float = 0.0
    latency_sum_ms: float = 0.0
    latency_max_ms: float = 0.0
    variant_counts: Counter = field(default_factory=Counter)
    latency_quantiles: Optional[dict] = None
    failed_frames: int = 0
    aborts: int = 0
    retries: int = 0

    @property
    def violation_rate(self) -> float:
        """Raw violated / total frame rate (no small-number rule)."""
        if self.total_frames == 0:
            return 0.0
        return self.violated_frames / self.total_frames

    @property
    def normalized_energy(self) -> float:
        """Actual energy over worst-case energy for the executed frames."""
        if self.worst_case_energy_mj <= 0:
            return 0.0
        return self.actual_energy_mj / self.worst_case_energy_mj

    @property
    def mean_latency_ms(self) -> float:
        """Mean end-to-end latency of completed frames."""
        if self.completed_frames == 0:
            return 0.0
        return self.latency_sum_ms / self.completed_frames

    def latency_quantile_ms(self, name: str) -> float:
        """One streamed latency quantile (e.g. ``"p95"``), 0.0 when absent."""
        if not self.latency_quantiles:
            return 0.0
        return float(self.latency_quantiles.get(name, 0.0))

    def to_outcome(self) -> ModelOutcome:
        """Convert to the UXCost input record (Algorithm 2 per-model terms)."""
        return ModelOutcome(
            model_name=self.task_name,
            total_frames=self.total_frames,
            violated_frames=self.violated_frames,
            actual_energy_mj=self.actual_energy_mj,
            worst_case_energy_mj=self.worst_case_energy_mj,
        )

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        payload = {
            "task_name": self.task_name,
            "total_frames": self.total_frames,
            "completed_frames": self.completed_frames,
            "violated_frames": self.violated_frames,
            "dropped_frames": self.dropped_frames,
            "expired_frames": self.expired_frames,
            "unfinished_frames": self.unfinished_frames,
            "actual_energy_mj": self.actual_energy_mj,
            "worst_case_energy_mj": self.worst_case_energy_mj,
            "latency_sum_ms": self.latency_sum_ms,
            "latency_max_ms": self.latency_max_ms,
            "variant_counts": dict(self.variant_counts),
            "latency_quantiles": (
                dict(self.latency_quantiles) if self.latency_quantiles else None
            ),
        }
        # Fault counters are omitted when zero: fault-free payloads must
        # stay byte-identical to pre-fault builds (parity surfaces and
        # content-addressed store keys depend on it).
        if self.failed_frames:
            payload["failed_frames"] = self.failed_frames
        if self.aborts:
            payload["aborts"] = self.aborts
        if self.retries:
            payload["retries"] = self.retries
        return payload

    @classmethod
    def from_dict(cls, data: Mapping) -> "TaskStats":
        """Rebuild from :meth:`to_dict` output (pre-quantile payloads load too)."""
        payload = dict(data)
        payload["variant_counts"] = Counter(payload.get("variant_counts", {}))
        return cls(**payload)


@dataclass(frozen=True)
class AcceleratorStats:
    """Accumulated execution statistics of one sub-accelerator."""

    acc_id: int
    name: str
    dataflow: str
    energy_mj: float
    busy_pe_ms: float
    layers_executed: int
    context_switches: int
    utilization: float

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return {
            "acc_id": self.acc_id,
            "name": self.name,
            "dataflow": self.dataflow,
            "energy_mj": self.energy_mj,
            "busy_pe_ms": self.busy_pe_ms,
            "layers_executed": self.layers_executed,
            "context_switches": self.context_switches,
            "utilization": self.utilization,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "AcceleratorStats":
        """Rebuild from :meth:`to_dict` output."""
        return cls(**dict(data))


@dataclass
class SimulationResult:
    """Everything measured during one simulation run.

    ``engine_counters`` carries the engine's hot-loop diagnostics
    (``events_processed``, ``dispatch_rounds``, ``dispatches_elided``,
    ``events_coalesced``, ``peak_event_heap``).  They describe *how* the
    engine executed, not what the simulation measured: the fast engine
    elides provably-inert scheduler consultations while the reference
    engine never does, so the counters legitimately differ between modes
    whose measured results are bit-for-bit identical.  They are therefore
    excluded from equality comparison and from :meth:`to_dict` (parity
    checks and the content-keyed result store see only measurements);
    ``benchmarks/test_perf_engine.py`` pins their quick-basket totals.
    """

    scenario_name: str
    platform_name: str
    scheduler_name: str
    duration_ms: float
    seed: int
    task_stats: dict[str, TaskStats]
    accelerator_stats: tuple[AcceleratorStats, ...]
    scheduler_info: Mapping[str, object] = field(default_factory=dict)
    engine_counters: Optional[Mapping[str, int]] = field(default=None, compare=False)

    # ------------------------------------------------------------------ #
    # headline metrics
    # ------------------------------------------------------------------ #
    @property
    def uxcost_breakdown(self) -> UXCostBreakdown:
        """UXCost and its two factors (Algorithm 2)."""
        return compute_uxcost(stats.to_outcome() for stats in self.task_stats.values())

    @property
    def uxcost(self) -> float:
        """The headline UXCost value."""
        return self.uxcost_breakdown.uxcost

    @property
    def overall_violation_rate(self) -> float:
        """Violated frames over all frames, across every task."""
        total = sum(stats.total_frames for stats in self.task_stats.values())
        if total == 0:
            return 0.0
        violated = sum(stats.violated_frames for stats in self.task_stats.values())
        return violated / total

    @property
    def total_energy_mj(self) -> float:
        """Total energy consumed across all accelerators.

        Added left to right: from Python 3.12 on, ``sum()`` compensates
        float rounding, which would make fleet totals version-dependent.
        """
        total = 0.0
        for acc in self.accelerator_stats:
            total += acc.energy_mj
        return total

    @property
    def normalized_energy(self) -> float:
        """Sum of per-task normalized energies (the UXCost energy factor).

        Added left to right, like :attr:`total_energy_mj`.
        """
        total = 0.0
        for stats in self.task_stats.values():
            total += stats.normalized_energy
        return total

    @property
    def total_frames(self) -> int:
        """Total frames measured across all tasks."""
        return sum(stats.total_frames for stats in self.task_stats.values())

    @property
    def dropped_frames(self) -> int:
        """Total frames proactively dropped by the scheduler."""
        return sum(stats.dropped_frames for stats in self.task_stats.values())

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`).

        Only raw measurements are stored — every headline metric (UXCost,
        violation rates, normalized energy) is a derived property and is
        recomputed on the rebuilt object, so a round-trip preserves all of
        them exactly.  ``scheduler_info`` must itself be JSON-serializable,
        which every bundled scheduler's ``info()`` guarantees.
        """
        return {
            "scenario_name": self.scenario_name,
            "platform_name": self.platform_name,
            "scheduler_name": self.scheduler_name,
            "duration_ms": self.duration_ms,
            "seed": self.seed,
            # Insertion order is preserved deliberately: UXCost sums terms in
            # task order, so reordering would change the result by an ulp.
            "task_stats": {
                name: stats.to_dict() for name, stats in self.task_stats.items()
            },
            "accelerator_stats": [acc.to_dict() for acc in self.accelerator_stats],
            "scheduler_info": dict(self.scheduler_info),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SimulationResult":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            scenario_name=data["scenario_name"],
            platform_name=data["platform_name"],
            scheduler_name=data["scheduler_name"],
            duration_ms=data["duration_ms"],
            seed=data["seed"],
            task_stats={
                name: TaskStats.from_dict(stats)
                for name, stats in data["task_stats"].items()
            },
            accelerator_stats=tuple(
                AcceleratorStats.from_dict(acc) for acc in data["accelerator_stats"]
            ),
            scheduler_info=dict(data.get("scheduler_info", {})),
        )

    def variant_mix(self, task_name: str) -> dict[str, float]:
        """Fraction of a task's executed frames per model variant (Figure 14)."""
        stats = self.task_stats[task_name]
        total = sum(stats.variant_counts.values())
        if total == 0:
            return {}
        return {name: count / total for name, count in sorted(stats.variant_counts.items())}

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        breakdown = self.uxcost_breakdown
        lines = [
            f"{self.scenario_name} on {self.platform_name} with {self.scheduler_name} "
            f"({self.duration_ms:.0f} ms, seed {self.seed})",
            f"  UXCost: {breakdown.uxcost:.4f}  "
            f"(DLV factor {breakdown.overall_violation_rate:.4f}, "
            f"energy factor {breakdown.overall_normalized_energy:.4f})",
        ]
        for task_name, stats in sorted(self.task_stats.items()):
            quantiles = ""
            if stats.latency_quantiles:
                quantiles = (
                    f" p50/p95/p99={stats.latency_quantile_ms('p50'):.2f}/"
                    f"{stats.latency_quantile_ms('p95'):.2f}/"
                    f"{stats.latency_quantile_ms('p99'):.2f} ms"
                )
            lines.append(
                f"  {task_name}: frames={stats.total_frames} "
                f"violations={stats.violated_frames} ({stats.violation_rate:.1%}) "
                f"drops={stats.dropped_frames} "
                f"norm_energy={stats.normalized_energy:.3f} "
                f"mean_latency={stats.mean_latency_ms:.2f} ms{quantiles}"
            )
        for acc in self.accelerator_stats:
            lines.append(
                f"  acc{acc.acc_id} [{acc.dataflow}]: util={acc.utilization:.1%} "
                f"energy={acc.energy_mj:.1f} mJ layers={acc.layers_executed} "
                f"switches={acc.context_switches}"
            )
        return "\n".join(lines)
