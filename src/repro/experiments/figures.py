"""Per-figure experiment generators.

Each ``figureN`` function reruns the simulations behind one figure of the
paper's evaluation and returns a :class:`FigureResult` whose ``rows`` hold
the same series the paper plots and whose ``text`` is a printable table.
Durations default to values that keep a full regeneration tractable on a
laptop; pass larger ``duration_ms`` for tighter statistics.

Every figure runs each of its simulations as a
:class:`~repro.experiments.jobs.CellJob` through
:func:`repro.experiments.harness.execute_jobs`: Figures 2, 7, 8, 9, 12 and
14 via :func:`~repro.experiments.harness.run_grid` (Figures 12 and 14 once
per cascade probability), Figures 10 and 11 via the optimizer objective of
:mod:`repro.experiments.sweeps`, and Figure 13 directly.  Each therefore
inherits the execution defaults installed with
:func:`repro.experiments.harness.default_execution` — wrap a figure call in
that context manager (or use ``repro figure N --backend process``) to fan
its cells out over a process pool and/or persist them in a
:class:`~repro.experiments.store.ResultStore` without changing any figure
signature.  Results are bit-for-bit identical across backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Optional, Sequence

from repro.core.adaptivity import IterativeParameterOptimizer, OptimizationTrace, ParameterPoint
from repro.core.config import DreamConfig, OptimizationObjective
from repro.experiments.harness import ExperimentCell, GridResult, execute_jobs, run_grid
from repro.experiments.jobs import CellJob
from repro.experiments.sweeps import parameter_grid, uxcost_objective
from repro.hardware.platform import heterogeneous_platform_names, homogeneous_platform_names
from repro.metrics.reporting import format_table, geometric_mean
from repro.workloads import scenario_names


@dataclass
class FigureResult:
    """Structured output of one figure regeneration."""

    name: str
    description: str
    rows: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    text: str = ""

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"{self.name}: {self.description}\n{self.text}"


#: Platform styles used by the motivation experiment (Figure 2).
_FIGURE2_PLATFORMS = ["4k_2ws", "4k_2os", "4k_1ws_2os", "4k_1os_2ws"]

#: Schedulers compared in the main evaluation figures.
_MAIN_SCHEDULERS = ["fcfs_dynamic", "veltair", "planaria", "dream_mapscore", "dream_smartdrop", "dream_full"]


def figure2(duration_ms: float = 800.0, seed: int = 0) -> FigureResult:
    """Figure 2: static vs dynamic FCFS deadline-violation rate on AR_Call."""
    grid = run_grid(
        scenarios=["ar_call"],
        platforms=_FIGURE2_PLATFORMS,
        schedulers=["fcfs_static", "fcfs_dynamic"],
        duration_ms=duration_ms,
        seed=seed,
    )
    rows = []
    reductions = []
    for platform in _FIGURE2_PLATFORMS:
        static = grid.results[ExperimentCell("ar_call", platform, "fcfs_static")]
        dynamic = grid.results[ExperimentCell("ar_call", platform, "fcfs_dynamic")]
        static_rate = static.overall_violation_rate
        dynamic_rate = dynamic.overall_violation_rate
        reduction = 0.0 if static_rate == 0 else 1.0 - dynamic_rate / static_rate
        reductions.append(reduction)
        rows.append(
            {
                "platform": platform,
                "static_violation_rate": static_rate,
                "dynamic_violation_rate": dynamic_rate,
                "reduction": reduction,
            }
        )
    text = format_table(
        ["platform", "static DLV", "dynamic DLV", "reduction"],
        [[r["platform"], r["static_violation_rate"], r["dynamic_violation_rate"], r["reduction"]] for r in rows],
    )
    return FigureResult(
        name="figure2",
        description="Deadline violation rate of static vs dynamic FCFS on AR_Call (paper: ~53% average reduction)",
        rows=rows,
        summary={"mean_reduction": reduce(add, reductions, 0.0) / len(reductions)},
        text=text,
    )


def _main_comparison(platforms: Sequence[str], duration_ms: float, seed: int) -> tuple[GridResult, list[dict]]:
    grid = run_grid(
        scenarios=scenario_names(),
        platforms=list(platforms),
        schedulers=_MAIN_SCHEDULERS,
        duration_ms=duration_ms,
        seed=seed,
    )
    rows = []
    for cell, result in sorted(grid.results.items(), key=lambda item: item[0].key):
        breakdown = result.uxcost_breakdown
        rows.append(
            {
                "scenario": cell.scenario,
                "platform": cell.platform,
                "scheduler": cell.scheduler,
                "uxcost": breakdown.uxcost,
                "violation_rate_factor": breakdown.overall_violation_rate,
                "normalized_energy_factor": breakdown.overall_normalized_energy,
                "overall_violation_rate": result.overall_violation_rate,
                "dropped_frames": result.dropped_frames,
            }
        )
    return grid, rows


def figure7(duration_ms: float = 800.0, seed: int = 0) -> FigureResult:
    """Figure 7: UXCost / DLV rate / energy on heterogeneous platforms."""
    grid, rows = _main_comparison(heterogeneous_platform_names(), duration_ms, seed)
    summary = {
        "dream_full_vs_planaria": grid.geomean_reduction("dream_full", "planaria"),
        "dream_full_vs_veltair": grid.geomean_reduction("dream_full", "veltair"),
        "dream_mapscore_vs_planaria": grid.geomean_reduction("dream_mapscore", "planaria"),
    }
    text = format_table(
        ["scenario", "platform", "scheduler", "UXCost", "DLV factor", "energy factor"],
        [[r["scenario"], r["platform"], r["scheduler"], r["uxcost"], r["violation_rate_factor"], r["normalized_energy_factor"]] for r in rows],
    )
    return FigureResult(
        name="figure7",
        description="Heterogeneous-platform comparison (paper: DREAM cuts UXCost ~32% vs Planaria, ~50% vs Veltair geomean)",
        rows=rows,
        summary=summary,
        text=text,
    )


def figure8(duration_ms: float = 800.0, seed: int = 0) -> FigureResult:
    """Figure 8: UXCost on homogeneous platforms (gap narrows with abundance)."""
    grid, rows = _main_comparison(homogeneous_platform_names(), duration_ms, seed)
    summary = {
        "dream_full_vs_planaria": grid.geomean_reduction("dream_full", "planaria"),
        "dream_full_vs_veltair": grid.geomean_reduction("dream_full", "veltair"),
    }
    text = format_table(
        ["scenario", "platform", "scheduler", "UXCost"],
        [[r["scenario"], r["platform"], r["scheduler"], r["uxcost"]] for r in rows],
    )
    return FigureResult(
        name="figure8",
        description="Homogeneous-platform comparison (paper: smaller but still positive DREAM advantage)",
        rows=rows,
        summary=summary,
        text=text,
    )


def figure9(duration_ms: float = 1500.0, seed: int = 0) -> FigureResult:
    """Figure 9: UXCost improvement breakdown of DREAM's optimizations."""
    scenarios = ["vr_gaming", "ar_social"]
    platforms = ["4k_1ws_2os", "8k_1ws_2os"]
    schedulers = ["dream_fixed", "dream_mapscore", "dream_smartdrop", "dream_full"]
    grid = run_grid(scenarios, platforms, schedulers, duration_ms=duration_ms, seed=seed)
    rows = []
    summary = {}
    for platform in platforms:
        base = geometric_mean(
            [grid.results[ExperimentCell(s, platform, "dream_fixed")].uxcost for s in scenarios]
        )
        for scheduler in schedulers:
            value = geometric_mean(
                [grid.results[ExperimentCell(s, platform, scheduler)].uxcost for s in scenarios]
            )
            improvement = 0.0 if base <= 0 else 1.0 - value / base
            rows.append(
                {
                    "platform": platform,
                    "scheduler": scheduler,
                    "geomean_uxcost": value,
                    "improvement_vs_fixed": improvement,
                }
            )
            summary[f"{platform}/{scheduler}"] = improvement
    text = format_table(
        ["platform", "scheduler", "geomean UXCost", "improvement vs fixed"],
        [[r["platform"], r["scheduler"], r["geomean_uxcost"], r["improvement_vs_fixed"]] for r in rows],
    )
    return FigureResult(
        name="figure9",
        description="Optimization breakdown on VR_Gaming + AR_Social (paper: param opt 49%/21%, +smart drop ~16%/14%, +Supernet 6-9%)",
        rows=rows,
        summary=summary,
        text=text,
    )


#: Platform of Figures 10 and 11 (4K 1OS+2WS).
_FIGURE10_PLATFORM = "4k_1os_2ws"

#: Workload-change cases of Figures 10 and 11.
_FIGURE10_CASES = [
    ("idle->vr_gaming", None, "vr_gaming"),
    ("idle->ar_social", None, "ar_social"),
    ("idle->ar_call", None, "ar_call"),
    ("vr_gaming->ar_social", "vr_gaming", "ar_social"),
]


def _figure10_objectives(duration_ms: float, seed: int) -> dict:
    """One objective per target scenario of :data:`_FIGURE10_CASES`.

    Two cases target ``ar_social``; sharing its objective runs each of
    their common points once.
    """
    return {
        target: uxcost_objective(target, _FIGURE10_PLATFORM, duration_ms=duration_ms, seed=seed)
        for _, _, target in _FIGURE10_CASES
    }


def figure10(duration_ms: float = 300.0, seed: int = 0) -> FigureResult:
    """Figure 10: (alpha, beta) search under workload changes vs the global optimum."""
    rows = []
    traces: dict[str, OptimizationTrace] = {}
    previous_end: Optional[ParameterPoint] = None
    objectives = _figure10_objectives(duration_ms, seed)
    for case_name, previous_scenario, target_scenario in _FIGURE10_CASES:
        objective = objectives[target_scenario]
        if previous_scenario is None:
            # "IDLE": the system boots with arbitrary parameters.
            start = ParameterPoint(1.5, 0.5)
        else:
            start = previous_end or ParameterPoint(1.0, 1.0)
        optimizer = IterativeParameterOptimizer(objective)
        trace = optimizer.optimize(start)
        traces[case_name] = trace
        grid = parameter_grid(objective)
        global_best = min(grid.values())
        gap = 0.0 if global_best <= 0 else trace.final_cost / global_best - 1.0
        rows.append(
            {
                "case": case_name,
                "start": (start.alpha, start.beta),
                "final": (trace.final_point.alpha, trace.final_point.beta),
                "final_cost": trace.final_cost,
                "global_best_cost": global_best,
                "gap_to_global": gap,
                "steps": len(trace.steps),
            }
        )
        if case_name == "idle->vr_gaming":
            previous_end = trace.final_point
    text = format_table(
        ["case", "final alpha", "final beta", "final cost", "grid best", "gap"],
        [[r["case"], r["final"][0], r["final"][1], r["final_cost"], r["global_best_cost"], r["gap_to_global"]] for r in rows],
    )
    result = FigureResult(
        name="figure10",
        description="Parameter search under workload changes (paper: converges within ~2% of the global optimum)",
        rows=rows,
        summary={"mean_gap": reduce(add, [r["gap_to_global"] for r in rows], 0.0) / len(rows)},
        text=text,
    )
    result.summary["traces"] = traces
    return result


def figure11(duration_ms: float = 300.0, seed: int = 0) -> FigureResult:
    """Figure 11: convergence speed of the parameter optimization."""
    rows = []
    objectives = _figure10_objectives(duration_ms, seed)
    for case_name, _, target_scenario in _FIGURE10_CASES:
        objective = objectives[target_scenario]
        start = ParameterPoint(1.5, 0.5)
        optimizer = IterativeParameterOptimizer(objective)
        trace = optimizer.optimize(start)
        costs = trace.costs_per_step()
        (initial,) = objective([start])
        improvements = [0.0 if initial <= 0 else 1.0 - cost / initial for cost in costs]
        rows.append(
            {
                "case": case_name,
                "initial_cost": initial,
                "costs_per_step": costs,
                "improvement_per_step": improvements,
                "improvement_after_2_steps": improvements[1] if len(improvements) > 1 else improvements[-1],
                "steps_to_converge": len(costs),
            }
        )
    text = format_table(
        ["case", "initial cost", "improvement@2 steps", "steps"],
        [[r["case"], r["initial_cost"], r["improvement_after_2_steps"], r["steps_to_converge"]] for r in rows],
    )
    return FigureResult(
        name="figure11",
        description="Optimization convergence (paper: >25% UXCost improvement within two steps, converged within five)",
        rows=rows,
        summary={},
        text=text,
    )


#: Platforms of the cascade-probability sweeps (Figures 12 and 14).
_CASCADE_SWEEP_PLATFORMS = ("4k_1ws_2os", "4k_1os_2ws")


def figure12(duration_ms: float = 800.0, seed: int = 0) -> FigureResult:
    """Figure 12: UXCost while sweeping the ML-cascade probability."""
    scenarios = ("vr_gaming", "ar_social")
    platforms = _CASCADE_SWEEP_PLATFORMS
    schedulers = ["veltair", "planaria", "dream_mapscore", "dream_smartdrop", "dream_full"]
    grids = {
        probability: run_grid(
            scenarios, platforms, schedulers,
            duration_ms=duration_ms, seed=seed, cascade_probability=probability,
        )
        for probability in (0.5, 0.7, 0.9, 0.99)
    }
    rows = []
    for scenario in scenarios:
        for platform in platforms:
            for probability, grid in grids.items():
                for scheduler in schedulers:
                    result = grid.results[ExperimentCell(scenario, platform, scheduler)]
                    rows.append(
                        {
                            "scenario": scenario,
                            "platform": platform,
                            "cascade_probability": probability,
                            "scheduler": scheduler,
                            "uxcost": result.uxcost,
                            "violation_rate": result.overall_violation_rate,
                            "dropped_frames": result.dropped_frames,
                        }
                    )
    text = format_table(
        ["scenario", "platform", "p", "scheduler", "UXCost", "DLV"],
        [[r["scenario"], r["platform"], r["cascade_probability"], r["scheduler"], r["uxcost"], r["violation_rate"]] for r in rows],
    )
    return FigureResult(
        name="figure12",
        description="Cascade-probability sweep (paper: DREAM's advantage grows with load; SmartDrop/Supernet help most at 99%)",
        rows=rows,
        summary={},
        text=text,
    )


def figure13(duration_ms: float = 1200.0, seed: int = 0) -> FigureResult:
    """Figure 13: optimizing DLV-only or energy-only degrades the other metric."""
    objectives = [
        OptimizationObjective.UXCOST,
        OptimizationObjective.DEADLINE_ONLY,
        OptimizationObjective.ENERGY_ONLY,
    ]
    # DREAM-Full under each tuning objective; the UXCost row is the
    # registry's dream_full and comes first in each (scenario, p) block,
    # so every row is compared with its block's UXCost row.
    jobs = [
        CellJob(
            scenario_name,
            "4k_1ws_2os",
            f"dream_{objective.value}",
            duration_ms=duration_ms,
            seed=seed,
            cascade_probability=probability,
            dream=DreamConfig(True, True, True, objective=objective),
        )
        for scenario_name in ("vr_gaming", "ar_social")
        for probability in (0.5, 0.9)
        for objective in objectives
    ]
    rows = []
    reference: Optional[dict] = None
    for job, result in zip(jobs, execute_jobs(jobs)):
        breakdown = result.uxcost_breakdown
        record = {
            "scenario": job.scenario,
            "cascade_probability": job.cascade_probability,
            "objective": job.dream.objective.value,
            "uxcost": breakdown.uxcost,
            "violation_factor": breakdown.overall_violation_rate,
            "energy_factor": breakdown.overall_normalized_energy,
        }
        if job.dream.objective is OptimizationObjective.UXCOST:
            reference = record
        record["uxcost_vs_uxcost_objective"] = (
            record["uxcost"] / reference["uxcost"] if reference["uxcost"] > 0 else 1.0
        )
        rows.append(record)
    text = format_table(
        ["scenario", "p", "objective", "UXCost", "DLV factor", "energy factor"],
        [[r["scenario"], r["cascade_probability"], r["objective"], r["uxcost"], r["violation_factor"], r["energy_factor"]] for r in rows],
    )
    return FigureResult(
        name="figure13",
        description="Optimization-objective ablation (paper: single-metric objectives degrade the other metric and overall UXCost)",
        rows=rows,
        summary={},
        text=text,
    )


def figure14(duration_ms: float = 800.0, seed: int = 0) -> FigureResult:
    """Figure 14: Supernet subnet mix selected by DREAM under load."""
    scenarios = ("vr_gaming", "ar_social")
    platforms = _CASCADE_SWEEP_PLATFORMS
    grids = {
        probability: run_grid(
            scenarios, platforms, ["dream_full"],
            duration_ms=duration_ms, seed=seed, cascade_probability=probability,
        )
        for probability in (0.5, 0.99)
    }
    rows = []
    for scenario_name in scenarios:
        for platform in platforms:
            for probability, grid in grids.items():
                result = grid.results[ExperimentCell(scenario_name, platform, "dream_full")]
                mix = result.variant_mix("context_understanding")
                rows.append(
                    {
                        "scenario": scenario_name,
                        "platform": platform,
                        "cascade_probability": probability,
                        "variant_mix": mix,
                        "original_fraction": mix.get("ofa_original", 0.0),
                        "lighter_fraction": 1.0 - mix.get("ofa_original", 0.0) if mix else 0.0,
                        "supernet_switches": result.scheduler_info.get("supernet_switches", 0),
                    }
                )
    text = format_table(
        ["scenario", "platform", "p", "original fraction", "lighter fraction"],
        [[r["scenario"], r["platform"], r["cascade_probability"], r["original_fraction"], r["lighter_fraction"]] for r in rows],
    )
    return FigureResult(
        name="figure14",
        description="Executed Supernet variants (paper: mostly the original under light load, >40-60% lighter variants under heavy load)",
        rows=rows,
        summary={},
        text=text,
    )


#: All figure generators keyed by name (used by examples and benchmarks).
ALL_FIGURES = {
    "figure2": figure2,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "figure11": figure11,
    "figure12": figure12,
    "figure13": figure13,
    "figure14": figure14,
}
