"""The four benchmark workloads.

Each workload is built from the run's ``--seed``, runs on the serial backend
with the default engine configuration (``mode="fast"``, ``kernel="python"``,
``loop="python"``, ``resource_model="pe_fraction"``), and exposes three
steps:

* :meth:`Workload.setup` builds everything a user pays for before the first
  simulation: scenarios, platforms, cost tables, generated scenarios;
* :meth:`Workload.run_pass` runs the workload's fixed set of ops once, each
  op timed on its own, and returns a :class:`PassResult`;
* :meth:`Workload.close` removes whatever the workload left on disk.

``--seed`` selects one of a workload's :attr:`Workload.INPUT_SEEDS` (the
simulation seeds its inputs are made from), so every seed maps onto inputs
whose outputs are recorded in ``perfbench/expected.json``.  ``scale``
shrinks every simulated window (the tests run far below 1); recordings
exist only for ``scale == 1``.
"""

from __future__ import annotations

import contextlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, ContextManager, Optional, Sequence

from perfbench.checks import Op, digest
from repro.experiments.differential import run_fuzz
from repro.experiments.harness import execute_jobs
from repro.experiments.jobs import generated_context, grid_jobs, shared_context
from repro.experiments.store import ResultStore
from repro.fleet import FleetSimulator, FleetSpec, PlatformSpec, audit_fleet
from repro.schedulers import scheduler_names
from repro.sim import FAULT_KINDS, SimulationResult
from repro.workloads import GeneratorSpec, PoissonArrival, UserSpec

#: Cascade trigger probability of every preset scenario (Table 3's 0.5).
CASCADE_PROBABILITY = 0.5

#: Input seeds of the workloads whose cost barely depends on the seed.
RECORDED_SEEDS = tuple(range(32))

Span = Callable[[], ContextManager]


@dataclass
class PassResult:
    """What one pass of a workload produced and how long it took.

    Attributes:
        op_walls: host seconds of each timed op, in a fixed order (a grid
            cell, a ``run_fuzz`` call, a cold fleet run).
        events: engine events processed by the pass.
        ops: checked ops of the pass.
        results: results behind the UXCost and model statistics.
        counted: results whose engine counters the pass reports.
        warm_s: host seconds of each warm store re-run (``fleet_store``).
        warm_ops: ops of the last warm re-run, checked like ``ops``.
    """

    op_walls: list[float]
    events: int
    ops: list[Op]
    results: list[SimulationResult]
    counted: list[SimulationResult]
    warm_s: list[float] = field(default_factory=list)
    warm_ops: list[Op] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Host seconds of the timed ops."""
        return sum(self.op_walls)

    @property
    def total_s(self) -> float:
        """Host seconds of the whole pass (ops plus warm re-runs)."""
        return self.wall_s + sum(self.warm_s)


def _timed(span: Span, fn: Callable):
    with span():
        start = perf_counter()
        value = fn()
        elapsed = perf_counter() - start
    return value, elapsed


def result_op(key: str, result: SimulationResult, problem: str = "") -> Op:
    """The checked form of one simulation result."""
    counters = dict(result.engine_counters) if result.engine_counters else None
    return Op(key, digest(result.to_dict()), counters, problem)


def events_of(results: Sequence[SimulationResult]) -> int:
    """Engine events summed over results that carry counters."""
    return sum(r.engine_counters["events_processed"] for r in results if r.engine_counters)


class Workload:
    """Common lifecycle of a workload."""

    name = ""
    #: Simulation seeds the inputs are made from; ``--seed`` picks
    #: ``INPUT_SEEDS[seed % len(INPUT_SEEDS)]``.
    INPUT_SEEDS: tuple[int, ...] = RECORDED_SEEDS

    def __init__(self, seed: int, scale: float = 1.0, store_root: Optional[Path] = None):
        self.seed = seed
        self.input_seed = self.INPUT_SEEDS[seed % len(self.INPUT_SEEDS)]
        self.scale = scale
        self.store_root = Path(store_root) if store_root is not None else None

    def setup(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def run_pass(self, span: Span = contextlib.nullcontext) -> PassResult:  # pragma: no cover
        """Run the workload once; ``span`` wraps every timed region."""
        raise NotImplementedError

    def close(self) -> None:
        """Remove what the workload left on disk (nothing, by default)."""


class GridWorkload(Workload):
    """A (scenario x platform x scheduler) grid of preset cells."""

    scenarios: tuple[str, ...] = ()
    platform = ""
    schedulers: tuple[str, ...] = ()
    duration_ms = 0.0

    def setup(self) -> None:
        for scenario in self.scenarios:
            shared_context(scenario, self.platform, CASCADE_PROBABILITY)
        self.jobs = grid_jobs(
            self.scenarios,
            [self.platform],
            self.schedulers,
            duration_ms=self.duration_ms * self.scale,
            seed=self.input_seed,
            cascade_probability=CASCADE_PROBABILITY,
        )

    def run_pass(self, span: Span = contextlib.nullcontext) -> PassResult:
        op_walls, results = [], []
        for job in self.jobs:
            (result,), elapsed = _timed(span, lambda: execute_jobs([job], backend="serial"))
            op_walls.append(elapsed)
            results.append(result)
        return PassResult(
            op_walls=op_walls,
            events=events_of(results),
            ops=[result_op(job.cell.key, result) for job, result in zip(self.jobs, results)],
            results=results,
            counted=results,
        )


class DreamSaturated(GridWorkload):
    """Deep-queue Table-3 cells under the two heaviest DREAM variants.

    The inputs are the same for every ``--seed``: DREAM scores every live
    request on every call, and the mean number of live requests in these
    chaotic deep queues differs by up to 1.8x between simulation seeds, so
    a seed-dependent input would make the wall time a property of the seed.
    """

    name = "dream_saturated"
    INPUT_SEEDS = (0,)
    scenarios = ("vr_gaming", "ar_social")
    platform = "4k_2ws"
    schedulers = ("dream_smartdrop", "dream_full")
    duration_ms = 800.0


class BaselineGrid(GridWorkload):
    """Every Table-3 scenario under the four cheap baseline schedulers."""

    name = "baseline_grid"
    scenarios = ("vr_gaming", "ar_call", "drone_outdoor", "drone_indoor", "ar_social")
    platform = "4k_1ws_2os"
    schedulers = ("fcfs_static", "fcfs_dynamic", "veltair", "planaria")
    duration_ms = 1000.0


class FuzzAudit(Workload):
    """``run_fuzz`` with every scheduler and the three-kind chaos axis.

    One ``run_fuzz`` call per generator seed in :attr:`GENERATOR_SEEDS`
    (scenario index 0 of each), each timed as one op.  Generator seed 2's
    scenario is nearly empty and is skipped.  The inputs are the same for
    every ``--seed``: generated scenarios differ in cost by several times,
    and the sampled fault plans move the engine's event count by about 9%
    between simulation seeds.
    """

    name = "fuzz_audit"
    INPUT_SEEDS = (1,)
    GENERATOR_SEEDS = (0, 1, 3)
    platform = "4k_1ws_2os"
    duration_ms = 150.0
    faults = tuple(FAULT_KINDS)

    def setup(self) -> None:
        self.specs = [GeneratorSpec(seed=seed) for seed in self.GENERATOR_SEEDS]
        self.schedulers = scheduler_names()
        for spec in self.specs:
            generated_context(spec, 0, self.platform)

    def _fuzz(self, spec: GeneratorSpec):
        return run_fuzz(
            spec,
            count=1,
            schedulers=self.schedulers,
            platform=self.platform,
            duration_ms=self.duration_ms * self.scale,
            seed=self.input_seed,
            faults=self.faults,
        )

    def run_pass(self, span: Span = contextlib.nullcontext) -> PassResult:
        op_walls: list[float] = []
        ops: list[Op] = []
        canonical: list[SimulationResult] = []
        counted: list[SimulationResult] = []
        for spec in self.specs:
            fuzz, elapsed = _timed(span, lambda: self._fuzz(spec))
            op_walls.append(elapsed)
            for report in fuzz.reports:
                metamorphic = "; ".join(str(v) for v in report.metamorphic_failures)
                for key, run in [*report.runs.items(), *report.fault_runs.items()]:
                    problems = [str(v) for v in run.violations]
                    if metamorphic and key in report.runs:
                        problems.append(metamorphic)
                    ops.append(
                        result_op(f"{report.scenario_name}/{key}", run.result, "; ".join(problems))
                    )
                    counted.append(run.result)
                    if key in report.runs:
                        canonical.append(run.result)
                for key, error in report.harness_errors.items():
                    ops.append(
                        Op(f"{report.scenario_name}/{key}", None, None, error.strip()[-200:])
                    )
        return PassResult(
            op_walls=op_walls,
            events=events_of(counted),
            ops=ops,
            results=canonical,
            counted=counted,
        )


class FleetStore(Workload):
    """Mixed-scheduler fleets behind ``least_loaded``, cold then warm.

    A pass runs :attr:`FLEETS` independent fleet windows (seeds
    ``input_seed * FLEETS + k``), each timed as one op: the cold runs write
    every admitted session into one fresh :class:`ResultStore` (admission
    plan, session simulations, store writes, aggregation and the fleet
    oracle); then the pass re-runs all of them :attr:`WARM_REPEATS` times
    against the filled store (plan, store reads, aggregation, oracle).

    Three populations of the lighter Table-3 scenarios arrive as Poisson
    streams well above the fleet's session capacity, so admission control
    rejects most requests and the number of admitted sessions, and with it
    the pass's work, barely moves with the seed.
    """

    name = "fleet_store"
    PLATFORMS = (
        ("4k_2ws", "dream_full"),
        ("4k_1ws_2os", "planaria"),
        ("8k_2os", "fcfs_dynamic"),
        ("4k_1ws_2os", "veltair"),
    )
    POPULATIONS = ("ar_call", "drone_indoor", "drone_outdoor")
    FLEETS = 6
    WARM_REPEATS = 10
    users = 4
    sessions_per_minute = 2400.0
    session_ms = 50.0
    max_sessions = 2
    duration_ms = 250.0

    def __init__(self, seed: int, scale: float = 1.0, store_root: Optional[Path] = None):
        super().__init__(seed, scale=scale, store_root=store_root)
        self.store: Optional[ResultStore] = None

    def setup(self) -> None:
        platforms = tuple(
            PlatformSpec(platform, scheduler, self.max_sessions)
            for platform, scheduler in self.PLATFORMS
        )
        users = tuple(
            UserSpec(
                name=scenario,
                users=self.users,
                scenario=scenario,
                sessions_per_minute=self.sessions_per_minute,
                session_duration_ms=self.session_ms,
                traffic=PoissonArrival(),
                cascade_probability=CASCADE_PROBABILITY,
            )
            for scenario in self.POPULATIONS
        )
        self.specs = [
            FleetSpec(
                platforms=platforms,
                users=users,
                policy="least_loaded",
                duration_ms=self.duration_ms * self.scale,
                seed=self.input_seed * self.FLEETS + index,
            )
            for index in range(self.FLEETS)
        ]
        for scenario in self.POPULATIONS:
            for platform, _scheduler in self.PLATFORMS:
                shared_context(scenario, platform, CASCADE_PROBABILITY)

    def _run_fleets(self, specs: Sequence[FleetSpec], store: ResultStore) -> list:
        results = []
        for spec in specs:
            result = FleetSimulator(spec).run(backend="serial", store=store)
            results.append((result, audit_fleet(result)))
        return results

    @staticmethod
    def _ops(fleets) -> list[Op]:
        ops = []
        for index, (result, violations) in enumerate(fleets):
            ops.extend(
                result_op(f"f{index}/s{session_id}", result.session_results[session_id])
                for session_id in sorted(result.session_results)
            )
            problem = "; ".join(str(v) for v in violations)
            ops.append(Op(f"f{index}/fleet", digest(result.to_dict()), None, problem))
        return ops

    def run_pass(self, span: Span = contextlib.nullcontext) -> PassResult:
        if self.store_root is None:
            raise RuntimeError(f"workload {self.name!r} needs a store_root to run passes")
        self.close()
        store = self.store = ResultStore(self.store_root / self.name)
        cold, op_walls = [], []
        for spec in self.specs:
            (fleet,), elapsed = _timed(span, lambda: self._run_fleets([spec], store))
            cold.append(fleet)
            op_walls.append(elapsed)
        warm_s = []
        for _ in range(self.WARM_REPEATS):
            warm, elapsed = _timed(span, lambda: self._run_fleets(self.specs, store))
            warm_s.append(elapsed)
        sessions = [
            result.session_results[sid]
            for result, _ in cold
            for sid in sorted(result.session_results)
        ]
        return PassResult(
            op_walls=op_walls,
            events=events_of(sessions),
            ops=self._ops(cold),
            results=sessions,
            counted=sessions,
            warm_s=warm_s,
            warm_ops=self._ops(warm),
        )

    def close(self) -> None:
        """Remove the workload's store directory."""
        if self.store is not None:
            shutil.rmtree(self.store.root, ignore_errors=True)
            self.store = None


WORKLOADS = {cls.name: cls for cls in (DreamSaturated, BaselineGrid, FuzzAudit, FleetStore)}


def make_workload(
    name: str, seed: int, scale: float = 1.0, store_root: Optional[Path] = None
) -> Workload:
    """Instantiate a workload by name."""
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; available: {', '.join(WORKLOADS)}") from None
    return cls(seed, scale=scale, store_root=store_root)
