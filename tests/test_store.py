"""Result persistence: serialization round-trips and the on-disk cache."""

import json

import pytest

from repro.experiments import CellJob, GridResult, ResultStore, run_grid
from repro.sim import SimulationResult

GRID_KWARGS = dict(
    scenarios=["ar_call"],
    platforms=["4k_1ws_2os"],
    schedulers=["fcfs_dynamic", "dream_mapscore"],
    duration_ms=250.0,
    seed=0,
)


@pytest.fixture(scope="module")
def small_grid() -> GridResult:
    return run_grid(**GRID_KWARGS)


class TestRoundTrip:
    def test_simulation_result_json_round_trip(self, small_grid):
        for result in small_grid.results.values():
            restored = SimulationResult.from_dict(json.loads(json.dumps(result.to_dict())))
            assert restored.to_dict() == result.to_dict()
            # Derived metrics must survive exactly, including summation order.
            assert restored.uxcost == result.uxcost
            assert restored.overall_violation_rate == result.overall_violation_rate
            assert restored.normalized_energy == result.normalized_energy
            assert list(restored.task_stats) == list(result.task_stats)

    def test_variant_counts_survive(self, small_grid):
        result = next(iter(small_grid.results.values()))
        restored = SimulationResult.from_dict(result.to_dict())
        for task_name in result.task_stats:
            assert restored.variant_mix(task_name) == result.variant_mix(task_name)


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path, small_grid):
        store = ResultStore(tmp_path / "cache")
        job = CellJob(**{**_job_kwargs(), "scheduler": "fcfs_dynamic"})
        result = job.run()
        assert store.get(job) is None
        store.put(job, result)
        assert job in store
        assert store.get(job).to_dict() == result.to_dict()
        assert store.stats()["entries"] == 1

    def test_stored_text_is_the_json_dumps_of_job_and_result(self, tmp_path):
        store = ResultStore(tmp_path)
        job = CellJob(**{**_job_kwargs(), "scheduler": "dream_mapscore"})
        result = job.run()
        path = store.put(job, result)
        expected = json.dumps({"job": job.to_dict(), "result": result.to_dict()})
        assert path.read_text(encoding="utf-8") == expected
        assert [p.name for p in path.parent.iterdir()] == [path.name]  # no temp file left

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        job = CellJob(**_job_kwargs())
        path = store.path_for(job.cache_key())
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ not json", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert store.get(job) is None
        assert store.misses == 1
        assert store.corrupt == 1

    def test_absent_entry_is_a_plain_miss_not_corruption(self, tmp_path):
        store = ResultStore(tmp_path)
        job = CellJob(**_job_kwargs())
        assert store.get(job) is None
        assert store.misses == 1
        assert store.corrupt == 0

    def test_truncated_entry_recovers_by_recompute_and_overwrite(self, tmp_path):
        store = ResultStore(tmp_path)
        job = CellJob(**_job_kwargs())
        result = job.run()
        store.put(job, result)
        path = store.path_for(job.cache_key())
        # Simulate a torn write from a killed run on a non-atomic
        # filesystem: keep only the first half of the entry's bytes.
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.warns(RuntimeWarning, match="treating as a cache miss"):
            assert store.get(job) is None
        assert store.corrupt == 1
        assert store.stats()["corrupt"] == 1
        # The caller's recompute-and-put overwrites the bad entry in place,
        # after which reads are clean hits again.
        store.put(job, job.run())
        assert store.get(job).to_dict() == result.to_dict()
        assert store.hits == 1
        assert store.corrupt == 1

    def test_run_grid_caches_cells(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_grid(store=store, **GRID_KWARGS)
        assert store.writes == len(first.results)
        assert store.hits == 0
        second = run_grid(store=store, **GRID_KWARGS)
        assert store.hits == len(first.results)
        assert store.writes == len(first.results)  # nothing recomputed
        assert second.uxcost_table() == first.uxcost_table()

    def test_cached_grid_matches_uncached(self, tmp_path, small_grid):
        store = ResultStore(tmp_path)
        run_grid(store=store, **GRID_KWARGS)  # populate
        cached = run_grid(store=store, **GRID_KWARGS)  # all hits
        for cell, result in small_grid.results.items():
            assert cached.results[cell].to_dict() == result.to_dict()

    def test_different_seed_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        run_grid(store=store, **GRID_KWARGS)
        run_grid(store=store, **{**GRID_KWARGS, "seed": 1})
        assert store.writes == 2 * 2  # two cells per seed, none shared
        assert store.hits == 0

    def test_clear_removes_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        run_grid(store=store, **GRID_KWARGS)
        assert len(store) == 2
        assert store.clear() == 2
        assert len(store) == 0


def _job_kwargs() -> dict:
    return dict(
        scenario="ar_call",
        platform="4k_1ws_2os",
        scheduler="fcfs_dynamic",
        duration_ms=250.0,
        seed=0,
    )
