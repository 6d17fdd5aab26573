"""Cross-scheduler differential testing over generated scenarios.

The differential runner executes *every* requested scheduler on the same
scenario (typically produced by
:class:`~repro.workloads.generator.ScenarioGenerator`), audits each run
with the trace-invariant oracle (:mod:`repro.sim.invariants`) and then
checks *metamorphic* properties that relate the runs to each other —
properties that hold for any correct scheduler without knowing any golden
output:

* **Identical frame arrivals** — the sensor-frame stream is a function of
  (scenario, seed) only, so every scheduler must observe the exact same
  head-task arrivals (task, frame id, time).
* **Head-frame accounting parity** — every measured head frame is
  accounted exactly once by every scheduler, so per-head-task
  ``total_frames`` must agree across schedulers (cascaded tasks may differ
  legitimately: cascade spawning depends on scheduler-dependent completion
  and RNG interleaving).
* **Feasibility implies liveness** — if the FCFS baseline finishes every
  measured frame of every task without a single deadline violation, the
  scenario is trivially feasible; a scheduler that then completes *zero*
  frames of such a task has deadlocked or starved it (e.g. DREAM must not
  be worse than "do nothing clever" in a trivially feasible scenario).

Per-scheduler harness failures (exceptions out of the engine) are captured
rather than aborting the sweep, so one crashing scheduler still yields a
full report — and the CLI can distinguish *harness errors* from
*invariant violations* in its exit code.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.experiments.jobs import generated_context
from repro.hardware import CostTable, Platform
from repro.schedulers import make_scheduler, scheduler_names
from repro.sim import SimulationEngine, SimulationResult, Tracer, Violation, audit_trace
from repro.sim.faults import FAULT_KINDS, FaultSpec, sample_fault_plan
from repro.sim.resource_models import RESOURCE_MODEL_NAMES
from repro.sim.tracer import TraceRecord
from repro.workloads.generator import GeneratorSpec
from repro.workloads.scenario import Scenario

#: Scheduler used as the feasibility baseline when present.
FEASIBILITY_BASELINE = "fcfs_dynamic"

#: Engine-path axis of the differential harness.  Each name selects a
#: ``mode`` of :class:`~repro.sim.SimulationEngine`: ``"python"`` is the
#: fast production engine and ``"reference"`` the retained
#: pre-optimization engine.  Both must produce bit-for-bit identical
#: results and traces; ``run_differential(kernels=...)`` re-runs every
#: scheduler on each extra axis value and reports any divergence as a
#: ``kernel_parity`` metamorphic failure.
KERNEL_AXIS = {
    "python": "fast",
    "reference": "reference",
}

#: Axis order used by ``--kernels all`` and the parity matrix.
KERNEL_AXIS_NAMES = tuple(KERNEL_AXIS)

#: Execution-resource-model axis: the
#: :data:`~repro.sim.resource_models.RESOURCE_MODEL_NAMES`, passed through
#: as ``SimulationEngine(resource_model=...)``.  Unlike the kernel axis,
#: secondary resource models are **not** parity-compared to the
#: canonical run — different capacity physics legitimately produce
#: different schedules — instead each extra model re-runs every scheduler
#: under the full trace-invariant oracle (which includes the
#: ``no_memory_oversubscription`` and ``interaction_causality`` checks
#: that only bind under ``kv_batch``).
RESOURCE_MODEL_AXIS_NAMES = RESOURCE_MODEL_NAMES

#: Chaos axis: the registered fault kinds of :mod:`repro.sim.faults`.
#: For each requested kind the harness samples a deterministic fault plan
#: (seeded from the run seed) and re-runs every scheduler with injection
#: enabled under the **full trace-invariant oracle**, including the
#: fault-specific checks (``no_dispatch_while_faulted``,
#: ``fault_conservation``, ``degraded_capacity_respected``).  Like the
#: resource-model axis this is re-audit, not parity: a faulted schedule
#: legitimately differs from the fault-free one.
FAULT_AXIS_NAMES = tuple(FAULT_KINDS)


@dataclass(frozen=True)
class SchedulerRun:
    """Outcome of one scheduler on one scenario."""

    scheduler: str
    result: SimulationResult
    violations: tuple[Violation, ...]
    arrivals: tuple[tuple[str, Optional[int], float], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class DifferentialReport:
    """All per-scheduler runs plus cross-scheduler findings for one scenario."""

    scenario_name: str
    platform: str
    duration_ms: float
    seed: int
    runs: dict[str, SchedulerRun] = field(default_factory=dict)
    metamorphic_failures: list[Violation] = field(default_factory=list)
    harness_errors: dict[str, str] = field(default_factory=dict)
    generator: Optional[GeneratorSpec] = None
    generator_index: int = 0
    kernels: tuple[str, ...] = ("python",)
    resource_models: tuple[str, ...] = ("pe_fraction",)
    faults: tuple[str, ...] = ()
    #: Runs under secondary resource models, keyed
    #: ``"<scheduler>@resource:<model>"``; kept out of :attr:`runs` so the
    #: cross-scheduler metamorphic checks only relate runs that share the
    #: same capacity physics.
    resource_runs: dict[str, SchedulerRun] = field(default_factory=dict)
    #: Chaos runs with fault injection enabled, keyed
    #: ``"<scheduler>@faults:<kind>"``; kept out of :attr:`runs` for the
    #: same reason — a faulted schedule is not comparable to a fault-free
    #: one, so these runs feed the invariant oracle only.
    fault_runs: dict[str, SchedulerRun] = field(default_factory=dict)
    #: The sampled fault plan per axis kind (recorded in the artifact so a
    #: failing chaos run replays bit-for-bit).
    fault_plans: dict[str, tuple[FaultSpec, ...]] = field(default_factory=dict)

    @property
    def invariant_violations(self) -> list[tuple[str, Violation]]:
        """Every (scheduler, violation) pair across all runs."""
        return [
            (name, violation)
            for name, run in (
                list(self.runs.items())
                + list(self.resource_runs.items())
                + list(self.fault_runs.items())
            )
            for violation in run.violations
        ]

    @property
    def ok(self) -> bool:
        """True when no invariant or metamorphic property was violated.

        Harness errors are reported separately (:attr:`harness_errors`);
        they make a report *erroneous*, not *violating*.
        """
        return not self.invariant_violations and not self.metamorphic_failures

    def to_artifact(self) -> dict:
        """JSON-serializable record sufficient to replay this scenario.

        The artifact carries the generator spec and index (when the
        scenario was generated), the exact run parameters, and every
        finding — this is what ``repro fuzz`` writes for failing scenarios
        and what ``repro fuzz --replay`` consumes.
        """
        return {
            "scenario_name": self.scenario_name,
            "platform": self.platform,
            "duration_ms": self.duration_ms,
            "seed": self.seed,
            # Harness errors on a secondary kernel are keyed
            # "scheduler@kernel"; strip the suffix so the artifact's
            # scheduler list stays valid registry names for --replay.
            "schedulers": sorted(
                set(self.runs)
                | {name.split("@", 1)[0] for name in self.harness_errors}
            ),
            "kernels": list(self.kernels),
            "resource_models": list(self.resource_models),
            "faults": list(self.faults),
            "fault_plans": {
                kind: [spec.to_dict() for spec in plan]
                for kind, plan in self.fault_plans.items()
            },
            "generator": self.generator.to_dict() if self.generator else None,
            "generator_index": self.generator_index,
            "invariant_violations": [
                {
                    "scheduler": scheduler,
                    "invariant": violation.invariant,
                    "message": violation.message,
                    "time_ms": violation.time_ms,
                    "request_id": violation.request_id,
                }
                for scheduler, violation in self.invariant_violations
            ],
            "metamorphic_failures": [
                {"invariant": violation.invariant, "message": violation.message}
                for violation in self.metamorphic_failures
            ],
            "harness_errors": dict(self.harness_errors),
        }

    def describe(self) -> str:
        """One-line-per-finding human summary."""
        status = "OK" if self.ok and not self.harness_errors else "FAIL"
        axis = f", kernels {'+'.join(self.kernels)}" if len(self.kernels) > 1 else ""
        if len(self.resource_models) > 1:
            axis += f", resources {'+'.join(self.resource_models)}"
        if self.faults:
            axis += f", faults {'+'.join(self.faults)}"
        lines = [
            f"{status} {self.scenario_name} on {self.platform} "
            f"({len(self.runs)} schedulers, {self.duration_ms:g} ms, "
            f"seed {self.seed}{axis})"
        ]
        for scheduler, violation in self.invariant_violations:
            lines.append(f"  {scheduler}: {violation}")
        for violation in self.metamorphic_failures:
            lines.append(f"  metamorphic: [{violation.invariant}] {violation.message}")
        for scheduler, error in self.harness_errors.items():
            lines.append(f"  harness error in {scheduler}: {error.splitlines()[-1]}")
        return "\n".join(lines)


def _head_arrivals(records: Sequence[TraceRecord]) -> tuple[tuple[str, Optional[int], float], ...]:
    """Canonical (task, frame, time) stream of head-task arrivals."""
    return tuple(
        (record.task_name, record.frame_id, record.time_ms)
        for record in records
        if record.event == "arrival"
    )


def _normalized_trace(records: Sequence[TraceRecord]) -> tuple[TraceRecord, ...]:
    """Trace with request ids renumbered by order of first appearance.

    Request ids come from a process-global counter, so two runs of the same
    simulation in one process produce different raw ids; the engine only
    ever relies on their relative order, which the mapping preserves.  This
    is what makes fast-vs-reference traces comparable for equality.
    """
    mapping: dict[int, int] = {}
    return tuple(
        replace(record, request_id=mapping.setdefault(record.request_id, len(mapping)))
        for record in records
    )


def _check_metamorphic(
    report: DifferentialReport, scenario: Scenario
) -> list[Violation]:
    """Cross-scheduler properties over all successful runs."""
    failures: list[Violation] = []
    runs = list(report.runs.values())
    if len(runs) < 2:
        return failures
    reference = runs[0]

    head_names = [task.name for task in scenario.head_tasks]
    for run in runs[1:]:
        if run.arrivals != reference.arrivals:
            failures.append(
                Violation(
                    "identical_arrivals",
                    f"schedulers {reference.scheduler!r} and {run.scheduler!r} saw "
                    f"different head-frame arrival streams for the same seed "
                    f"({len(reference.arrivals)} vs {len(run.arrivals)} arrivals)",
                )
            )
        for task_name in head_names:
            ref_total = reference.result.task_stats[task_name].total_frames
            run_total = run.result.task_stats[task_name].total_frames
            if ref_total != run_total:
                failures.append(
                    Violation(
                        "head_frame_accounting",
                        f"head task {task_name!r}: {reference.scheduler!r} measured "
                        f"{ref_total} frames but {run.scheduler!r} measured {run_total}",
                    )
                )

    baseline = report.runs.get(FEASIBILITY_BASELINE)
    if baseline is not None:
        feasible = all(
            stats.total_frames > 0 and stats.violated_frames == 0
            for stats in baseline.result.task_stats.values()
        )
        if feasible:
            for run in runs:
                for task_name, stats in run.result.task_stats.items():
                    if stats.total_frames > 0 and stats.completed_frames == 0:
                        failures.append(
                            Violation(
                                "feasible_implies_live",
                                f"scenario is feasible under {FEASIBILITY_BASELINE!r} "
                                f"but {run.scheduler!r} completed 0 of "
                                f"{stats.total_frames} frames of task {task_name!r} "
                                "(deadlock/starvation)",
                            )
                        )
    return failures


def run_differential(
    scenario: Scenario,
    platform: Platform,
    schedulers: Sequence[str],
    duration_ms: float = 400.0,
    seed: int = 0,
    cost_table: Optional[CostTable] = None,
    generator: Optional[GeneratorSpec] = None,
    generator_index: int = 0,
    kernels: Sequence[str] = ("python",),
    resource_models: Sequence[str] = ("pe_fraction",),
    faults: Sequence[str] = (),
) -> DifferentialReport:
    """Run every scheduler on one scenario and audit all invariants.

    Args:
        scenario: the workload under test (generated or preset).
        platform: hardware platform shared by all runs.
        schedulers: scheduler registry names to execute.
        duration_ms: simulated window per run.
        seed: simulation seed shared by all runs (the basis of the
            identical-arrivals metamorphic property).
        cost_table: optional prebuilt cost table (built once otherwise).
        generator / generator_index: provenance, recorded in the artifact
            so a failing generated scenario can be replayed from its spec.
        kernels: engine-path axis (:data:`KERNEL_AXIS` names).  The first
            entry is the canonical run that feeds the invariant oracle and
            the cross-scheduler metamorphic checks; every further entry
            re-runs each scheduler on that engine path and any divergence
            in results or (id-normalized) traces is a ``kernel_parity``
            metamorphic failure.  A crash on a secondary path is recorded
            as harness error ``"<scheduler>@<kernel>"``.
        resource_models: execution-resource-model axis
            (:data:`RESOURCE_MODEL_AXIS_NAMES`).  The first entry is the
            model every engine-path run uses; each further entry re-runs
            every scheduler under that model with the **full invariant
            oracle** (no parity comparison: different capacity physics
            legitimately schedule differently), with findings recorded in
            :attr:`DifferentialReport.resource_runs` and crashes keyed
            ``"<scheduler>@resource:<model>"``.
        faults: chaos axis (:data:`FAULT_AXIS_NAMES`).  For each kind a
            deterministic fault plan is sampled from the run seed
            (:func:`~repro.sim.faults.sample_fault_plan`) and every
            scheduler re-runs with injection enabled under the full
            invariant oracle including the fault-specific checks.  Runs
            land in :attr:`DifferentialReport.fault_runs`, crashes keyed
            ``"<scheduler>@faults:<kind>"``; the sampled plans are recorded
            in the artifact so failures replay bit-for-bit.  Fault runs
            use the canonical engine path.
    """
    for kernel in kernels:
        if kernel not in KERNEL_AXIS:
            raise ValueError(
                f"unknown kernel {kernel!r}; choose from {KERNEL_AXIS_NAMES}"
            )
    if not kernels:
        raise ValueError("kernels must name at least one engine path")
    for model in resource_models:
        if model not in RESOURCE_MODEL_AXIS_NAMES:
            raise ValueError(
                f"unknown resource model {model!r}; "
                f"choose from {RESOURCE_MODEL_AXIS_NAMES}"
            )
    if not resource_models:
        raise ValueError("resource_models must name at least one model")
    for kind in faults:
        if kind not in FAULT_AXIS_NAMES:
            raise ValueError(
                f"unknown fault kind {kind!r}; choose from {FAULT_AXIS_NAMES}"
            )
    cost_table = cost_table or CostTable.build(platform, scenario.all_model_graphs())
    report = DifferentialReport(
        scenario_name=scenario.name,
        platform=platform.name,
        duration_ms=duration_ms,
        seed=seed,
        generator=generator,
        generator_index=generator_index,
        kernels=tuple(kernels),
        resource_models=tuple(resource_models),
        faults=tuple(faults),
    )
    canonical, *extra_kernels = kernels
    canonical_resources, *extra_resources = resource_models
    fault_plans = {
        kind: sample_fault_plan(
            seed=seed,
            duration_ms=duration_ms,
            accelerators=len(platform.accelerators),
            kinds=(kind,),
        )
        for kind in faults
    }
    report.fault_plans = dict(fault_plans)
    kernel_failures: list[Violation] = []

    def _run(
        scheduler_name: str,
        axis_name: str,
        resource_model: str = canonical_resources,
        fault_plan: tuple[FaultSpec, ...] = (),
    ) -> tuple[SimulationResult, Tracer]:
        tracer = Tracer()
        engine = SimulationEngine(
            scenario=scenario,
            platform=platform,
            scheduler=make_scheduler(scheduler_name),
            duration_ms=duration_ms,
            seed=seed,
            cost_table=cost_table,
            tracer=tracer,
            mode=KERNEL_AXIS[axis_name],
            resource_model=resource_model,
            faults=fault_plan,
        )
        return engine.run(), tracer

    for scheduler_name in schedulers:
        try:
            result, tracer = _run(scheduler_name, canonical)
        except Exception:  # noqa: BLE001 - a crashing scheduler is a finding
            report.harness_errors[scheduler_name] = traceback.format_exc()
            continue
        violations = audit_trace(tracer, scenario=scenario, result=result)
        report.runs[scheduler_name] = SchedulerRun(
            scheduler=scheduler_name,
            result=result,
            violations=tuple(violations),
            arrivals=_head_arrivals(tracer.records),
        )
        for resource_model in extra_resources:
            try:
                rm_result, rm_tracer = _run(scheduler_name, canonical, resource_model)
            except Exception:  # noqa: BLE001 - a crashing model is a finding
                report.harness_errors[
                    f"{scheduler_name}@resource:{resource_model}"
                ] = traceback.format_exc()
                continue
            rm_violations = audit_trace(rm_tracer, scenario=scenario, result=rm_result)
            report.resource_runs[
                f"{scheduler_name}@resource:{resource_model}"
            ] = SchedulerRun(
                scheduler=scheduler_name,
                result=rm_result,
                violations=tuple(rm_violations),
                arrivals=_head_arrivals(rm_tracer.records),
            )
        for kind, fault_plan in fault_plans.items():
            try:
                f_result, f_tracer = _run(scheduler_name, canonical, fault_plan=fault_plan)
            except Exception:  # noqa: BLE001 - a crashing chaos run is a finding
                report.harness_errors[
                    f"{scheduler_name}@faults:{kind}"
                ] = traceback.format_exc()
                continue
            f_violations = audit_trace(
                f_tracer, scenario=scenario, result=f_result, faults=fault_plan
            )
            report.fault_runs[f"{scheduler_name}@faults:{kind}"] = SchedulerRun(
                scheduler=scheduler_name,
                result=f_result,
                violations=tuple(f_violations),
                arrivals=_head_arrivals(f_tracer.records),
            )
        if not extra_kernels:
            continue
        # Parity axes: the canonical run was audited above, so a
        # bit-identical secondary run needs no second audit — equality of
        # the result dict and the id-normalized trace *is* the oracle gate.
        canonical_dict = result.to_dict()
        canonical_trace = _normalized_trace(tracer.records)
        for axis_name in extra_kernels:
            try:
                extra_result, extra_tracer = _run(scheduler_name, axis_name)
            except Exception:  # noqa: BLE001 - a crashing path is a finding
                report.harness_errors[f"{scheduler_name}@{axis_name}"] = (
                    traceback.format_exc()
                )
                continue
            if extra_result.to_dict() != canonical_dict:
                kernel_failures.append(
                    Violation(
                        "kernel_parity",
                        f"{scheduler_name}: {axis_name!r} decision path produced "
                        f"a different result than {canonical!r} "
                        f"(seed {seed}, {duration_ms:g} ms)",
                    )
                )
            elif _normalized_trace(extra_tracer.records) != canonical_trace:
                kernel_failures.append(
                    Violation(
                        "kernel_parity",
                        f"{scheduler_name}: {axis_name!r} decision path produced "
                        f"an identical result but a different event trace than "
                        f"{canonical!r} (seed {seed}, {duration_ms:g} ms)",
                    )
                )
    report.metamorphic_failures = _check_metamorphic(report, scenario) + kernel_failures
    return report


@dataclass
class FuzzResult:
    """Outcome of a fuzz sweep: one differential report per scenario."""

    spec: GeneratorSpec
    reports: list[DifferentialReport] = field(default_factory=list)

    @property
    def failing(self) -> list[DifferentialReport]:
        """Reports with invariant or metamorphic violations."""
        return [report for report in self.reports if not report.ok]

    @property
    def erroneous(self) -> list[DifferentialReport]:
        """Reports where at least one scheduler crashed the harness."""
        return [report for report in self.reports if report.harness_errors]

    @property
    def ok(self) -> bool:
        return not self.failing and not self.erroneous

    def summary(self) -> str:
        total = len(self.reports)
        bad = {id(report) for report in self.failing} | {
            id(report) for report in self.erroneous
        }
        return (
            f"{total} scenario(s) fuzzed: {total - len(bad)} clean, "
            f"{len(self.failing)} violating, {len(self.erroneous)} with harness errors"
        )


def run_fuzz(
    spec: GeneratorSpec,
    count: int,
    schedulers: Optional[Sequence[str]] = None,
    platform: str = "4k_1ws_2os",
    duration_ms: float = 400.0,
    seed: int = 0,
    kernels: Sequence[str] = ("python",),
    resource_models: Sequence[str] = ("pe_fraction",),
    faults: Sequence[str] = (),
) -> FuzzResult:
    """Differentially test ``count`` generated scenarios of a spec.

    Each scenario ``i`` of the spec is built through the process-local
    generated-context cache (cost table built once per scenario) and run
    under every scheduler, on every requested decision path (``kernels``),
    execution-resource model (``resource_models``) and chaos fault kind (``faults``, see :func:`run_differential`).
    """
    if count < 1:
        raise ValueError("count must be positive")
    schedulers = list(schedulers) if schedulers else scheduler_names()
    fuzz = FuzzResult(spec=spec)
    for index in range(count):
        scenario, platform_obj, cost_table = generated_context(spec, index, platform)
        fuzz.reports.append(
            run_differential(
                scenario,
                platform_obj,
                schedulers,
                duration_ms=duration_ms,
                seed=seed,
                cost_table=cost_table,
                generator=spec,
                generator_index=index,
                kernels=kernels,
                resource_models=resource_models,
                faults=faults,
            )
        )
    return fuzz


def replay_artifact(
    artifact: dict,
    schedulers: Optional[Sequence[str]] = None,
    kernels: Optional[Sequence[str]] = None,
    resource_models: Optional[Sequence[str]] = None,
    faults: Optional[Sequence[str]] = None,
) -> DifferentialReport:
    """Re-run the differential check described by a fuzz artifact.

    Args:
        artifact: a dict as produced by
            :meth:`DifferentialReport.to_artifact` (or at minimum the keys
            ``generator``, ``generator_index``, ``platform``,
            ``duration_ms``, ``seed``).
        schedulers: optional override of the artifact's scheduler list.
        kernels: optional override of the artifact's decision-path axis.
        resource_models: optional override of the artifact's
            execution-resource-model axis.
        faults: optional override of the artifact's chaos axis.  The fault
            plan itself is re-sampled from the recorded seed, which — by
            construction — reproduces the recorded ``fault_plans``
            bit-for-bit.

    Raises:
        ValueError: if the artifact has no generator spec (non-generated
            scenarios are replayed with ``repro grid`` instead).
    """
    if not artifact.get("generator"):
        raise ValueError(
            "artifact has no generator spec; only generated scenarios can be "
            "replayed from a spec file"
        )
    spec = GeneratorSpec.from_dict(artifact["generator"])
    index = int(artifact.get("generator_index", 0))
    platform_name = artifact.get("platform", "4k_1ws_2os")
    scenario, platform_obj, cost_table = generated_context(spec, index, platform_name)
    return run_differential(
        scenario,
        platform_obj,
        list(schedulers) if schedulers else artifact.get("schedulers") or scheduler_names(),
        duration_ms=float(artifact.get("duration_ms", 400.0)),
        seed=int(artifact.get("seed", 0)),
        cost_table=cost_table,
        generator=spec,
        generator_index=index,
        kernels=tuple(kernels) if kernels else tuple(artifact.get("kernels") or ("python",)),
        resource_models=(
            tuple(resource_models)
            if resource_models
            else tuple(artifact.get("resource_models") or ("pe_fraction",))
        ),
        faults=(
            tuple(faults) if faults is not None else tuple(artifact.get("faults") or ())
        ),
    )
