"""Smoke tests for the experiment harness and figure generators.

The full figures are exercised by the benchmarks; these tests run heavily
shortened versions to guarantee the harness plumbing stays correct.
"""

from repro.experiments.figures import figure2
from repro.experiments.harness import run_grid
from repro.experiments.jobs import CellJob
from repro.experiments.sweeps import uxcost_objective


class TestHarness:
    def test_run_cell(self):
        result = CellJob.create(
            "ar_call", "4k_1ws_2os", "fcfs_dynamic", duration_ms=300.0, seed=0
        ).run()
        assert result.scenario_name == "ar_call"
        assert result.platform_name == "4k_1ws_2os"
        assert result.total_frames > 0

    def test_run_grid_and_aggregates(self):
        grid = run_grid(
            scenarios=["ar_call"],
            platforms=["4k_1ws_2os"],
            schedulers=["fcfs_dynamic", "dream_mapscore"],
            duration_ms=300.0,
            seed=0,
        )
        assert len(grid.results) == 2
        table = grid.uxcost_table()
        assert "ar_call/4k_1ws_2os" in table
        reduction = grid.geomean_reduction("dream_mapscore", "fcfs_dynamic")
        assert -5.0 < reduction <= 1.0


class TestSweeps:
    def test_uxcost_objective_returns_positive_costs(self):
        objective = uxcost_objective("ar_call", "4k_1ws_2os", duration_ms=200.0, seed=0)
        cost = objective(1.0, 1.0)
        assert cost > 0.0


class TestFigures:
    def test_figure2_shape(self):
        result = figure2(duration_ms=300.0, seed=0)
        assert result.name == "figure2"
        assert len(result.rows) == 4
        assert "mean_reduction" in result.summary
        assert "platform" in result.text
