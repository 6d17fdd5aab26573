"""Experiment harness: regenerate every figure of the paper's evaluation.

Each ``figure*`` function in :mod:`repro.experiments.figures` runs the
simulations behind one figure of the paper and returns a structured result
plus a plain-text table with the same rows/series the paper plots.  The
``benchmarks/`` directory wraps each one in a pytest-benchmark target, and
the ``repro`` console CLI (:mod:`repro.cli`) drives grids, figures and
throughput benchmarks from the command line.

Execution is cell-parallel: grids expand into picklable
:class:`~repro.experiments.jobs.CellJob` specs executed on a pluggable
backend (:mod:`repro.experiments.backends` — ``serial`` or a
``ProcessPoolExecutor``-based ``process`` pool) with optional content-keyed
on-disk persistence (:mod:`repro.experiments.store`).
"""

from repro.experiments.backends import (
    BACKEND_FACTORIES,
    JobTimeoutError,
    ProcessBackend,
    SerialBackend,
    backend_names,
    make_backend,
)
from repro.experiments.harness import (
    ExecutionDefaults,
    ExperimentCell,
    GridResult,
    default_execution,
    execute_jobs,
    get_execution_defaults,
    run_cell,
    run_grid,
    run_phased_workload,
)
from repro.experiments.differential import (
    DifferentialReport,
    FuzzResult,
    SchedulerRun,
    replay_artifact,
    run_differential,
    run_fuzz,
)
from repro.experiments.jobs import CellJob, PhasedJob, generated_cell_jobs, grid_jobs
from repro.experiments.store import ResultStore
from repro.experiments.sweeps import cascade_probability_sweep, uxcost_objective, parameter_grid
from repro.experiments import figures

__all__ = [
    "BACKEND_FACTORIES",
    "CellJob",
    "DifferentialReport",
    "ExecutionDefaults",
    "ExperimentCell",
    "FuzzResult",
    "GridResult",
    "JobTimeoutError",
    "PhasedJob",
    "ProcessBackend",
    "ResultStore",
    "SchedulerRun",
    "SerialBackend",
    "generated_cell_jobs",
    "replay_artifact",
    "run_differential",
    "run_fuzz",
    "backend_names",
    "cascade_probability_sweep",
    "default_execution",
    "execute_jobs",
    "figures",
    "get_execution_defaults",
    "grid_jobs",
    "make_backend",
    "parameter_grid",
    "run_cell",
    "run_grid",
    "run_phased_workload",
    "uxcost_objective",
]
