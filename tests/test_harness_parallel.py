"""Parallel execution backend: job specs, backends, and serial/process parity.

The contract under test is the tentpole guarantee of the experiment layer:
a grid cell is a picklable job spec, and executing the same jobs on the
``serial`` and ``process`` backends produces bit-for-bit identical results.
"""

import os
import pickle
import subprocess
import sys
import time

import pytest

from repro.core.config import dream_fixed
from repro.experiments import (
    CellJob,
    JobTimeoutError,
    PhasedJob,
    ProcessBackend,
    SerialBackend,
    backend_names,
    default_execution,
    get_execution_defaults,
    grid_jobs,
    make_backend,
    run_grid,
)
from repro.workloads import build_scenario
from repro.workloads.dynamicity import PhasedWorkload, WorkloadPhase

#: Small but non-trivial grid: 1 scenario x 2 platforms x 2 schedulers.
GRID_KWARGS = dict(
    scenarios=["ar_call"],
    platforms=["4k_1ws_2os", "4k_2ws"],
    schedulers=["fcfs_dynamic", "dream_mapscore"],
    duration_ms=250.0,
    seed=0,
)


class TestCellJob:
    def test_job_is_picklable(self):
        job = CellJob("ar_call", "4k_1ws_2os", "fcfs_dynamic", duration_ms=100.0)
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job
        tuned = CellJob("ar_call", "4k_1ws_2os", "dream_fixed", dream=dream_fixed(0.5, 1.5))
        assert pickle.loads(pickle.dumps(tuned)) == tuned

    def test_cache_key_is_stable_and_input_sensitive(self):
        job = CellJob("ar_call", "4k_1ws_2os", "fcfs_dynamic", seed=0)
        assert job.cache_key() == job.cache_key()
        reseeded = CellJob("ar_call", "4k_1ws_2os", "fcfs_dynamic", seed=1)
        assert reseeded.cache_key() != job.cache_key()
        rescheduled = CellJob("ar_call", "4k_1ws_2os", "planaria", seed=0)
        assert rescheduled.cache_key() != job.cache_key()

    def test_cache_keys_are_pinned(self):
        # Keys of repro 1.1.0 at CACHE_FORMAT_VERSION 2: a store written
        # before CellJob named its fields must still be read.
        import repro
        from repro.experiments.jobs import CACHE_FORMAT_VERSION, generated_cell_jobs
        from repro.workloads import GeneratorSpec

        assert (repro.__version__, CACHE_FORMAT_VERSION) == ("1.1.0", 2)
        job = CellJob("ar_call", "4k_1ws_2os", "fcfs_dynamic")
        assert job.to_dict()["engine_kwargs"] == {}
        assert job.cache_key() == (
            "832a15ca75e3b12257e1724105366e805d887663ba7c9d350ca2626bdef14e1b"
        )
        kv = CellJob("ar_call", "4k_1ws_2os", "fcfs_dynamic", resource_model="kv_batch")
        assert kv.to_dict()["engine_kwargs"] == {"resource_model": "kv_batch"}
        assert kv.cache_key() == (
            "ce9c87577d25c001d8de208329a846cf81c96e04e07385ad5186e66c72f2ab2c"
        )
        (generated,) = generated_cell_jobs(
            GeneratorSpec(seed=5, max_tasks=3), 1, ["4k_1ws_2os"], ["dream_full"],
            duration_ms=150.0,
        )
        assert generated.cache_key() == (
            "d97dba6f33f0310b413b05a1165120bcb5bcf06492d8480e02e2705fbd9d38f8"
        )

    def test_dream_config_is_part_of_the_key(self):
        job = CellJob("ar_call", "4k_1ws_2os", "dream_fixed", dream=dream_fixed(1.0, 1.0))
        assert job.to_dict()["dream"] == {
            "enable_parameter_optimization": False,
            "enable_frame_drop": False,
            "enable_supernet_switching": False,
            "alpha": 1.0,
            "beta": 1.0,
            "objective": "uxcost",
        }
        moved = CellJob("ar_call", "4k_1ws_2os", "dream_fixed", dream=dream_fixed(1.5, 1.0))
        assert moved.cache_key() != job.cache_key()
        assert "dream" not in CellJob("ar_call", "4k_1ws_2os", "dream_fixed").to_dict()

    def test_dream_config_runs_instead_of_the_registry(self):
        from repro.core.config import dream_full

        registry = CellJob("ar_call", "4k_1ws_2os", "dream_full", duration_ms=150.0).run()
        named = CellJob(
            "ar_call", "4k_1ws_2os", "dream_full", duration_ms=150.0, dream=dream_full()
        ).run()
        assert named.to_dict() == registry.to_dict()
        tuned = CellJob(
            "ar_call", "4k_1ws_2os", "tuned", duration_ms=150.0, dream=dream_fixed(0.0, 2.0)
        ).run()
        assert tuned.scheduler_name == "tuned"

    def test_generated_job_is_picklable_and_content_addressed(self):
        from repro.experiments.jobs import generated_cell_jobs
        from repro.workloads import GeneratorSpec

        spec = GeneratorSpec(seed=5, max_tasks=3)
        (job,) = generated_cell_jobs(
            spec, 1, ["4k_1ws_2os"], ["fcfs_dynamic"], duration_ms=150.0
        )
        assert job.cell.key == "gen-5-0/4k_1ws_2os/fcfs_dynamic"
        assert pickle.loads(pickle.dumps(job)) == job
        # Another spec (or index) is a different simulation => different key.
        (other,) = generated_cell_jobs(
            GeneratorSpec(seed=6, max_tasks=3), 1, ["4k_1ws_2os"], ["fcfs_dynamic"],
            duration_ms=150.0,
        )
        assert other.cache_key() != job.cache_key()
        # Preset jobs keep their historical content hashes: no generator
        # fields leak into their to_dict payload.
        preset = CellJob("ar_call", "4k_1ws_2os", "fcfs_dynamic")
        assert "generator" not in preset.to_dict()

    def test_generated_job_runs_and_is_deterministic(self):
        from repro.experiments.jobs import generated_cell_jobs
        from repro.workloads import GeneratorSpec

        spec = GeneratorSpec(seed=5, max_tasks=3)
        (job,) = generated_cell_jobs(
            spec, 1, ["4k_1ws_2os"], ["fcfs_dynamic"], duration_ms=150.0
        )
        first = job.run()
        second = job.run()
        assert first.scenario_name == "gen-5-0"
        assert first.to_dict() == second.to_dict()

    def test_generated_job_name_mismatch_is_rejected(self):
        from repro.workloads import GeneratorSpec

        job = CellJob(
            "wrong_name", "4k_1ws_2os", "fcfs_dynamic",
            generator=GeneratorSpec(seed=5, max_tasks=3), generator_index=0,
        )
        with pytest.raises(ValueError, match="does not match"):
            job.run()

    def test_grid_jobs_expands_full_cross_product(self):
        jobs = grid_jobs(["ar_call"], ["4k_1ws_2os", "4k_2ws"], ["fcfs_dynamic"], seed=3)
        assert [job.cell.key for job in jobs] == [
            "ar_call/4k_1ws_2os/fcfs_dynamic",
            "ar_call/4k_2ws/fcfs_dynamic",
        ]
        assert all(job.seed == 3 for job in jobs)


class TestBackends:
    def test_registry_names(self):
        assert set(backend_names()) == {"serial", "process"}

    def test_make_backend_resolves_names(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        backend = make_backend("process", workers=2)
        assert isinstance(backend, ProcessBackend)
        assert backend.workers == 2

    def test_make_backend_passes_instances_through(self):
        backend = SerialBackend()
        assert make_backend(backend) is backend

    def test_make_backend_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("threads")

    def test_process_backend_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ProcessBackend(workers=0)


class _EchoJob:
    """Minimal well-behaved stand-in for a cell job (picklable by reference)."""

    scenario = "echo"
    platform = "fake"
    scheduler = "fake"

    def __init__(self, tag):
        self.tag = tag

    def run(self):
        return self.tag


class _SlowInWorkerJob:
    """Wedges only inside a pool worker; instant in the parent process.

    The construction-time pid travels as pickled data, so a pool worker
    (different pid) sleeps past any reasonable per-job timeout while the
    parent's serial retry of the same job returns immediately.
    """

    scenario = "wedge"
    platform = "fake"
    scheduler = "fake"

    def __init__(self, wedge_s=2.0):
        self.parent_pid = os.getpid()
        self.wedge_s = wedge_s

    def run(self):
        if os.getpid() != self.parent_pid:
            time.sleep(self.wedge_s)
        return "recovered"


class _UnrecoverableJob(_SlowInWorkerJob):
    """Wedges in the worker AND raises on the parent's serial retry."""

    def run(self):
        if os.getpid() != self.parent_pid:
            time.sleep(self.wedge_s)
            return "from-worker"
        raise RuntimeError("reproducible failure")


class TestJobTimeout:
    """Per-job timeout: a wedged worker degrades to serial, never a hang."""

    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ValueError, match="job_timeout_s"):
            ProcessBackend(job_timeout_s=0)

    def test_wedged_worker_recovers_via_serial_retry(self):
        backend = ProcessBackend(workers=2, job_timeout_s=0.3)
        results = backend.run_jobs([_EchoJob("ok"), _SlowInWorkerJob()])
        assert results == ["ok", "recovered"]

    def test_unrecoverable_job_raises_a_structured_error(self):
        backend = ProcessBackend(workers=2, job_timeout_s=0.3)
        bad = _UnrecoverableJob()
        with pytest.raises(JobTimeoutError) as excinfo:
            backend.run_jobs([_EchoJob("ok"), bad])
        assert excinfo.value.job is bad
        message = str(excinfo.value)
        assert "per-job timeout" in message
        assert "serial retry also failed" in message
        assert "'wedge'" in message

    def test_generous_timeout_keeps_real_job_parity(self):
        jobs = grid_jobs(["ar_call"], ["4k_1ws_2os"],
                         ["fcfs_dynamic", "dream_mapscore"],
                         duration_ms=150.0, seed=0)
        serial = SerialBackend().run_jobs(jobs)
        timed = ProcessBackend(workers=2, job_timeout_s=300.0).run_jobs(jobs)
        assert [r.to_dict() for r in timed] == [r.to_dict() for r in serial]


class TestSerialProcessParity:
    def test_uxcost_table_is_bit_for_bit_identical(self):
        serial = run_grid(backend="serial", **GRID_KWARGS)
        process = run_grid(backend="process", workers=2, **GRID_KWARGS)
        assert serial.uxcost_table() == process.uxcost_table()

    def test_full_results_are_identical(self):
        serial = run_grid(backend="serial", **GRID_KWARGS)
        process = run_grid(backend="process", workers=2, **GRID_KWARGS)
        assert set(serial.results) == set(process.results)
        for cell, result in serial.results.items():
            assert result.to_dict() == process.results[cell].to_dict(), cell.key

    def test_default_execution_context_reroutes_run_grid(self):
        baseline = run_grid(**GRID_KWARGS)
        assert get_execution_defaults().backend == "serial"
        with default_execution(backend="process", workers=2) as defaults:
            assert defaults.backend == "process"
            rerouted = run_grid(**GRID_KWARGS)
        assert get_execution_defaults().backend == "serial"
        assert rerouted.uxcost_table() == baseline.uxcost_table()


class TestCrossSessionDeterminism:
    """Results must not depend on interpreter-level randomization.

    Regression test for the frame-jitter RNG being seeded through
    ``str.__hash__`` (salted by PYTHONHASHSEED), which made every
    interpreter session — and thus every spawn-based pool worker and every
    cache entry — see different frame arrivals.
    """

    def _uxcost_under_hash_seed(self, hash_seed: str) -> str:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(os.path.dirname(__file__), "..", "src"),
                          env.get("PYTHONPATH", "")])
        )
        script = (
            "from repro.experiments import CellJob\n"
            "job = CellJob('ar_call', '4k_1ws_2os', 'dream_mapscore',\n"
            "              duration_ms=200.0, seed=0)\n"
            "print(repr(job.run().uxcost))\n"
        )
        output = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True,
        )
        return output.stdout.strip()

    def test_uxcost_is_identical_across_hash_seeds(self):
        assert self._uxcost_under_hash_seed("1") == self._uxcost_under_hash_seed("2")


class TestPhasedDeterminism:
    def _workload(self):
        return PhasedWorkload(
            phases=(
                WorkloadPhase(build_scenario("ar_call"), duration_ms=150.0),
                WorkloadPhase(build_scenario("vr_gaming"), duration_ms=150.0),
            )
        )

    def test_phased_runs_are_deterministic(self):
        first = PhasedJob(self._workload(), "4k_1ws_2os", "dream_full", seed=7).run()
        second = PhasedJob(self._workload(), "4k_1ws_2os", "dream_full", seed=7).run()
        assert [r.to_dict() for r in first] == [r.to_dict() for r in second]

    def test_phase_seeds_are_offset_from_base(self):
        results = PhasedJob(self._workload(), "4k_1ws_2os", "fcfs_dynamic", seed=5).run()
        assert [result.seed for result in results] == [5, 6]
