"""Job execution shared by all figure generators.

The evaluation is a set of (scenario, platform, scheduler) cells, each
cell being one simulation, and :func:`execute_jobs` is the one way the
experiment layer runs them: grids through :func:`run_grid`, the (alpha,
beta) objective of Figures 10 and 11 (:mod:`repro.experiments.sweeps`)
and Figure 13's objective ablation directly.  The harness is a thin
orchestration layer over three pieces:

* :mod:`repro.experiments.jobs` — every cell is a picklable
  :class:`~repro.experiments.jobs.CellJob` (preset names + scalars, plus
  a :class:`~repro.core.config.DreamConfig` for a DREAM the registry does
  not name) whose ``run()`` builds a fresh scheduler and reuses a
  process-local (scenario, platform, cost-table) context cache, so cost
  tables are still built once per (scenario, platform) pair.
* :mod:`repro.experiments.backends` — jobs execute on a pluggable backend:
  ``serial`` (in-process reference) or ``process``
  (:class:`concurrent.futures.ProcessPoolExecutor`).  Both run the same
  job code, so results are bit-for-bit identical across backends.
* :mod:`repro.experiments.store` — an optional content-keyed on-disk
  :class:`~repro.experiments.store.ResultStore`; cells whose job hash is
  already persisted are skipped and loaded instead of re-simulated.

:func:`default_execution` installs a backend/store for a whole code region,
which is how the ``repro`` CLI routes the ``figure*`` generators through
the process pool and the store without changing their signatures.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Sequence

from repro.experiments.backends import BackendLike, make_backend
from repro.experiments.jobs import CellJob, ExperimentCell, grid_jobs
from repro.experiments.store import ResultStore
from repro.metrics.reporting import geometric_mean
from repro.sim import SimulationResult
from repro.workloads.scenarios import DEFAULT_CASCADE_PROBABILITY

__all__ = [
    "ExperimentCell",
    "GridResult",
    "ExecutionDefaults",
    "default_execution",
    "get_execution_defaults",
    "execute_jobs",
    "run_grid",
]


@dataclass
class GridResult:
    """All simulation results of one grid run."""

    results: dict[ExperimentCell, SimulationResult] = field(default_factory=dict)

    def uxcost_table(self) -> dict[str, dict[str, float]]:
        """Nested mapping ``"scenario/platform" -> scheduler -> UXCost``."""
        table: dict[str, dict[str, float]] = {}
        for cell, result in self.results.items():
            config = f"{cell.scenario}/{cell.platform}"
            table.setdefault(config, {})[cell.scheduler] = result.uxcost
        return table

    def geomean_reduction(self, target: str, baseline: str) -> float:
        """Geomean fractional UXCost reduction of ``target`` vs ``baseline``.

        Computed per (scenario, platform) configuration and aggregated with
        the geometric mean, matching how the paper reports its headline
        numbers.
        """
        ratios = []
        for config, by_scheduler in self.uxcost_table().items():
            if target in by_scheduler and baseline in by_scheduler and by_scheduler[baseline] > 0:
                ratios.append(max(by_scheduler[target], 1e-12) / by_scheduler[baseline])
        if not ratios:
            return 0.0
        return 1.0 - geometric_mean(ratios)

    def to_dict(self) -> dict:
        """JSON-serializable form keyed by ``scenario/platform/scheduler``."""
        return {
            "cells": {
                cell.key: result.to_dict()
                for cell, result in sorted(self.results.items(), key=lambda item: item[0].key)
            }
        }


# --------------------------------------------------------------------- #
# execution defaults (how the CLI re-routes figure generators)
# --------------------------------------------------------------------- #


@dataclass
class ExecutionDefaults:
    """Backend/store applied when a caller does not pass them explicitly."""

    backend: BackendLike = "serial"
    workers: Optional[int] = None
    store: Optional[ResultStore] = None


_defaults = ExecutionDefaults()


def get_execution_defaults() -> ExecutionDefaults:
    """The currently installed execution defaults."""
    return _defaults


@contextmanager
def default_execution(
    backend: Optional[BackendLike] = None,
    workers: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> Iterator[ExecutionDefaults]:
    """Temporarily change the default backend/workers/store.

    Any argument left as ``None`` keeps its current default.  Every
    ``execute_jobs`` call inside the ``with`` body — including the ones made
    deep inside figure generators — picks these up, which lets the CLI run
    an unmodified figure through the process backend::

        with default_execution(backend="process", workers=4):
            figures.figure7()
    """
    global _defaults
    previous = _defaults
    _defaults = replace(
        previous,
        backend=backend if backend is not None else previous.backend,
        workers=workers if workers is not None else previous.workers,
        store=store if store is not None else previous.store,
    )
    try:
        yield _defaults
    finally:
        _defaults = previous


# --------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------- #


def execute_jobs(
    jobs: Sequence[CellJob],
    backend: Optional[BackendLike] = None,
    workers: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> list[SimulationResult]:
    """Execute cell jobs on a backend, consulting the store first.

    Cells already persisted in the store are loaded instead of re-run; the
    remainder is dispatched to the backend in one batch and persisted on
    completion.  Results come back in job order regardless of cache state.

    Args:
        jobs: the cell jobs to compute.
        backend: backend name or instance; defaults per
            :func:`default_execution` (initially ``"serial"``).
        workers: pool size for the ``process`` backend.
        store: optional :class:`ResultStore`; defaults per
            :func:`default_execution` (initially no store).
    """
    defaults = get_execution_defaults()
    resolved = make_backend(
        backend if backend is not None else defaults.backend,
        workers=workers if workers is not None else defaults.workers,
    )
    store = store if store is not None else defaults.store

    jobs = list(jobs)
    results: list[Optional[SimulationResult]] = [None] * len(jobs)
    pending: list[tuple[int, CellJob]] = []
    if store is None:
        pending = list(enumerate(jobs))
    else:
        for index, job in enumerate(jobs):
            cached = store.get(job)
            if cached is None:
                pending.append((index, job))
            else:
                results[index] = cached
    if pending:
        computed = resolved.run_jobs([job for _, job in pending])
        for (index, job), result in zip(pending, computed):
            results[index] = result
            if store is not None:
                store.put(job, result)
    return results  # type: ignore[return-value]


def run_grid(
    scenarios: Sequence[str],
    platforms: Sequence[str],
    schedulers: Sequence[str],
    duration_ms: float = 1000.0,
    seed: int = 0,
    cascade_probability: float = DEFAULT_CASCADE_PROBABILITY,
    backend: Optional[BackendLike] = None,
    workers: Optional[int] = None,
    store: Optional[ResultStore] = None,
) -> GridResult:
    """Run the full (scenario x platform x scheduler) grid.

    Each cell becomes a :class:`CellJob` executed on the selected backend.
    Cost tables are built once per (scenario, platform) pair per process —
    exactly as the paper's offline cost-model stage would — via the
    process-local context cache, and every cell gets a fresh scheduler, so
    serial and process backends produce bit-for-bit identical results.

    Args:
        scenarios / platforms / schedulers: preset names spanning the grid.
        duration_ms: simulated window length per cell.
        seed: seed shared by every cell (each cell's simulation re-seeds
            from it deterministically).
        cascade_probability: ML-cascade trigger probability.
        backend: ``"serial"`` (default), ``"process"``, or a backend
            instance; see :func:`default_execution`.
        workers: pool size for the ``process`` backend.
        store: optional result cache; hits skip simulation entirely.
    """
    jobs = grid_jobs(
        scenarios,
        platforms,
        schedulers,
        duration_ms=duration_ms,
        seed=seed,
        cascade_probability=cascade_probability,
    )
    results = execute_jobs(jobs, backend=backend, workers=workers, store=store)
    return GridResult(results={job.cell: result for job, result in zip(jobs, results)})
