"""Pluggable execution backends for experiment jobs.

A backend maps a sequence of :class:`~repro.experiments.jobs.CellJob` specs
to their :class:`~repro.sim.SimulationResult` objects, preserving order.
Two backends ship with the harness:

* ``serial`` — runs every job in the calling process (the reference
  implementation; also the fallback for single-job batches).
* ``process`` — fans jobs out to a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Each worker memoizes
  the per-(scenario, platform) context (scenario, platform, cost table)
  through the same :func:`~repro.experiments.jobs.shared_context` cache the
  serial path uses, so both backends execute byte-identical simulation
  code and produce bit-for-bit identical results.

Jobs carry every input by value (preset names + scalars), so the pool can
use either the ``fork`` or ``spawn`` start method; the module-level
:func:`execute_job` entry point keeps job execution picklable under both.

Failure recovery: the process backend accepts an opt-in per-job timeout
(``job_timeout_s``).  A cell that exceeds it is retried **once, serially,
in the parent process** — distinguishing a wedged worker (the serial retry
succeeds and the sweep continues) from a genuinely divergent simulation
(the retry also hangs or raises, surfacing a :class:`JobTimeoutError`
naming the job instead of a silent indefinite hang).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Callable, Optional, Sequence, Union

from repro.experiments.jobs import CellJob
from repro.sim import SimulationResult


class JobTimeoutError(RuntimeError):
    """A cell job exceeded the backend's per-job timeout.

    Raised by :class:`ProcessBackend` only after the serial retry of the
    timed-out cell also failed, so it signals a reproducible problem with
    the job itself, not a transient worker wedge.
    """

    def __init__(self, job: CellJob, timeout_s: float, detail: str):
        self.job = job
        self.timeout_s = timeout_s
        super().__init__(
            f"cell job {job.scenario!r} on {job.platform!r} with "
            f"{job.scheduler!r} exceeded the {timeout_s:g}s per-job timeout "
            f"({detail})"
        )


def execute_job(job: CellJob) -> SimulationResult:
    """Run one job (module-level so process pools can pickle it)."""
    return job.run()


class SerialBackend:
    """Run every job sequentially in the calling process."""

    name = "serial"

    def run_jobs(self, jobs: Sequence[CellJob]) -> list[SimulationResult]:
        """Execute jobs in order and return their results in order."""
        return [execute_job(job) for job in jobs]


class ProcessBackend:
    """Run jobs on a :class:`~concurrent.futures.ProcessPoolExecutor`.

    Args:
        workers: pool size; defaults to ``os.cpu_count()``.
        job_timeout_s: opt-in per-job timeout.  ``None`` (default) keeps
            the historical unbounded ``pool.map`` path.  When set, jobs are
            submitted individually and awaited in order; a job that fails
            to produce a result within the budget is retried once serially
            in the parent process, and a :class:`JobTimeoutError` is raised
            only if that retry also fails — a hung worker degrades one cell
            to serial execution instead of hanging the whole sweep.
    """

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        job_timeout_s: Optional[float] = None,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1 (got {workers})")
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise ValueError(f"job_timeout_s must be positive (got {job_timeout_s})")
        self.workers = workers or os.cpu_count() or 1
        self.job_timeout_s = job_timeout_s

    def run_jobs(self, jobs: Sequence[CellJob]) -> list[SimulationResult]:
        """Execute jobs across the pool, preserving submission order."""
        jobs = list(jobs)
        if len(jobs) <= 1 or self.workers == 1:
            return SerialBackend().run_jobs(jobs)
        workers = min(self.workers, len(jobs))
        if self.job_timeout_s is None:
            # ~4 chunks per worker: contiguous same-(scenario, platform)
            # cells usually land on one worker and share its memoized cost
            # table, and uneven cell durations still load-balance.
            chunksize = max(1, len(jobs) // (workers * 4))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(execute_job, jobs, chunksize=chunksize))
        return self._run_with_timeout(jobs, workers)

    def _run_with_timeout(
        self, jobs: list[CellJob], workers: int
    ) -> list[SimulationResult]:
        """Per-job-timeout path: individual futures, serial retry on timeout.

        The waits are sequential in submission order, so each wait also
        buys queued jobs execution time; a job that times out while merely
        queued behind a slow batch costs one redundant serial run, never a
        wrong result.  A retry that *raises* converts the hang into a
        structured :class:`JobTimeoutError`; a retry that loops forever is
        a simulation bug this backend cannot preempt.
        """
        assert self.job_timeout_s is not None
        results: list[SimulationResult] = []
        clean = True
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = [pool.submit(execute_job, job) for job in jobs]
            for job, future in zip(jobs, futures):
                try:
                    results.append(future.result(timeout=self.job_timeout_s))
                except FuturesTimeoutError:
                    clean = False
                    future.cancel()
                    try:
                        results.append(execute_job(job))
                    except Exception as error:
                        raise JobTimeoutError(
                            job,
                            self.job_timeout_s,
                            f"serial retry also failed: {error}",
                        ) from error
        finally:
            # A wedged worker would make the default joining shutdown hang
            # exactly the way the timeout exists to prevent.
            pool.shutdown(wait=clean, cancel_futures=not clean)
        return results


#: Factories for every execution backend, keyed by canonical name.
BACKEND_FACTORIES: dict[str, Callable[..., object]] = {
    "serial": SerialBackend,
    "process": ProcessBackend,
}

#: Anything accepted where a backend is expected: a name or an instance.
BackendLike = Union[str, SerialBackend, ProcessBackend]


def backend_names() -> list[str]:
    """All registered backend names."""
    return list(BACKEND_FACTORIES)


def make_backend(backend: BackendLike = "serial", workers: Optional[int] = None):
    """Resolve a backend name (or pass an instance through).

    A per-job timeout reaches the harness only through an instance, e.g.
    ``ProcessBackend(workers, job_timeout_s=...)``.

    Args:
        backend: ``"serial"``, ``"process"``, or an object with a
            ``run_jobs`` method (returned unchanged).
        workers: pool size, only meaningful for the ``process`` backend.

    Raises:
        ValueError: if the name is not registered.
    """
    if not isinstance(backend, str):
        if not hasattr(backend, "run_jobs"):
            raise TypeError(f"not an execution backend: {backend!r}")
        return backend
    try:
        factory = BACKEND_FACTORIES[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; available: {backend_names()}"
        ) from None
    if factory is ProcessBackend:
        return ProcessBackend(workers=workers)
    return factory()
