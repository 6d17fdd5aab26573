"""Parameter sweeps shared by Figures 10 and 11.

* :func:`uxcost_objective` — the objective function handed to the
  iterative (alpha, beta) optimizer: one short simulation of a fixed-
  parameter DREAM per evaluation.
* :func:`parameter_grid` — an exhaustive grid evaluation of the (alpha,
  beta) space, used to locate the "global optimum" the paper compares its
  search result against.
"""

from __future__ import annotations

from typing import Callable

from repro.core.config import dream_fixed
from repro.core.dream import DreamScheduler
from repro.experiments.jobs import shared_context
from repro.sim import run_simulation
from repro.workloads.scenarios import DEFAULT_CASCADE_PROBABILITY

#: Values of alpha and of beta that :func:`parameter_grid` crosses: the
#: 25-point grid Figure 10 takes its "global optimum" from.
GRID_VALUES = (0.0, 0.5, 1.0, 1.5, 2.0)


def uxcost_objective(
    scenario_name: str,
    platform_name: str,
    duration_ms: float = 400.0,
    seed: int = 0,
) -> Callable[[float, float], float]:
    """Build an ``f(alpha, beta) -> UXCost`` objective for the offline optimizer.

    Each evaluation runs a short simulation of DREAM with *fixed* (alpha,
    beta) (no online tuning, no frame drop, no Supernet switching, so the
    measurement isolates the MapScore parameters) on the scenario at its
    default cascade probability and returns the run's UXCost.
    """
    scenario, platform, cost_table = shared_context(
        scenario_name, platform_name, DEFAULT_CASCADE_PROBABILITY
    )

    def objective_fn(alpha: float, beta: float) -> float:
        result = run_simulation(
            scenario=scenario,
            platform=platform,
            scheduler=DreamScheduler(
                dream_fixed(alpha, beta), name=f"dream_a{alpha:.2f}_b{beta:.2f}"
            ),
            duration_ms=duration_ms,
            seed=seed,
            cost_table=cost_table,
        )
        return result.uxcost

    return objective_fn


def parameter_grid(
    objective_fn: Callable[[float, float], float],
) -> dict[tuple[float, float], float]:
    """Evaluate the objective on the :data:`GRID_VALUES` grid (Figure 10 backdrop)."""
    return {
        (alpha, beta): objective_fn(alpha, beta)
        for alpha in GRID_VALUES
        for beta in GRID_VALUES
    }
