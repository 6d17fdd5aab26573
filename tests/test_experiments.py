"""Smoke tests for the experiment harness and figure generators.

The full figures are exercised by the benchmarks; these tests run heavily
shortened versions to guarantee the harness plumbing stays correct.
"""

from repro.core.adaptivity import ParameterPoint
from repro.experiments.figures import figure2, figure13
from repro.experiments.harness import run_grid
from repro.experiments.jobs import CellJob
from repro.experiments.sweeps import uxcost_objective
from repro.sim import SimulationEngine


class TestHarness:
    def test_run_cell(self):
        result = CellJob(
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
    def test_uxcost_objective_returns_positive_costs(self, monkeypatch):
        runs = []
        original = SimulationEngine.run

        def counting_run(engine):
            runs.append(engine)
            return original(engine)

        monkeypatch.setattr(SimulationEngine, "run", counting_run)
        objective = uxcost_objective("ar_call", "4k_1ws_2os", duration_ms=200.0, seed=0)
        p, q = ParameterPoint(1.0, 1.0), ParameterPoint(0.5, 1.5)
        costs = objective([p, p, q])
        # Each distinct point runs once, and a repeated point costs the same.
        assert len(runs) == 2
        assert costs[0] == costs[1] > 0.0 and costs[2] > 0.0
        assert objective([p]) == costs[:1]
        assert len(runs) == 2


class TestFigures:
    def test_figure2_shape(self):
        result = figure2(duration_ms=300.0, seed=0)
        assert result.name == "figure2"
        assert len(result.rows) == 4
        assert "mean_reduction" in result.summary
        assert "platform" in result.text

    def test_figure13_uxcost_rows_are_dream_full(self):
        result = figure13(duration_ms=100.0, seed=0)
        assert len(result.rows) == 12
        for row in result.rows:
            if row["objective"] != "uxcost":
                continue
            registry = CellJob(
                row["scenario"], "4k_1ws_2os", "dream_full", duration_ms=100.0,
                cascade_probability=row["cascade_probability"],
            ).run()
            assert row["uxcost"] == registry.uxcost
            assert row["uxcost_vs_uxcost_objective"] == 1.0
