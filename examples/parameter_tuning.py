"""Tune DREAM's MapScore parameters (alpha, beta) for a deployment.

Reproduces the Section 3.6 workflow in miniature: build the UXCost
objective for one (scenario, platform) pair, run the iterative
shrinking-radius search, compare the result against an exhaustive grid,
and show how a workload change re-uses the previous parameters as the new
starting point (Figures 10 and 11).

Usage::

    python examples/parameter_tuning.py [objective_sim_ms]
"""

from __future__ import annotations

import sys

from repro.core.adaptivity import IterativeParameterOptimizer, ParameterPoint
from repro.experiments.sweeps import parameter_grid, uxcost_objective
from repro.metrics.reporting import format_table


def main() -> None:
    duration_ms = float(sys.argv[1]) if len(sys.argv) > 1 else 250.0
    platform = "4k_1os_2ws"

    print(f"Objective: UXCost of DREAM with fixed (alpha, beta), {duration_ms:.0f} ms windows\n")
    rows = []
    previous_end = None
    for label, scenario in [("boot -> vr_gaming", "vr_gaming"), ("vr_gaming -> ar_social", "ar_social")]:
        objective = uxcost_objective(scenario, platform, duration_ms=duration_ms, seed=0)
        start = previous_end or ParameterPoint(1.5, 0.5)
        optimizer = IterativeParameterOptimizer(objective)
        trace = optimizer.optimize(start)
        grid = parameter_grid(objective)
        grid_best_point, grid_best = min(grid.items(), key=lambda item: item[1])
        rows.append(
            [
                label,
                f"({start.alpha:.2f}, {start.beta:.2f})",
                f"({trace.final_point.alpha:.2f}, {trace.final_point.beta:.2f})",
                trace.final_cost,
                grid_best,
                len(trace.steps),
            ]
        )
        previous_end = trace.final_point
        print(f"{label}: cost per step = {[round(c, 4) for c in trace.costs_per_step()]}")
    print()
    print(
        format_table(
            ["workload change", "start (a,b)", "tuned (a,b)", "tuned UXCost", "grid-best UXCost", "steps"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
