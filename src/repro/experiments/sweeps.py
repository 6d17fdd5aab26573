"""Parameter sweeps shared by Figures 10 and 11.

* :func:`uxcost_objective` — the objective handed to the iterative
  (alpha, beta) optimizer: one short simulation of a fixed-parameter DREAM
  per distinct point, each a :class:`~repro.experiments.jobs.CellJob` run
  through :func:`~repro.experiments.harness.execute_jobs`, so the
  installed backend and result store apply.
* :func:`parameter_grid` — an exhaustive grid evaluation of the (alpha,
  beta) space, used to locate the "global optimum" the paper compares its
  search result against.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.adaptivity import ParameterPoint
from repro.core.config import dream_fixed
from repro.experiments.harness import execute_jobs
from repro.experiments.jobs import CellJob
from repro.workloads.scenarios import DEFAULT_CASCADE_PROBABILITY

#: Values of alpha and of beta that :func:`parameter_grid` crosses: the
#: 25-point grid Figure 10 takes its "global optimum" from.
GRID_VALUES = (0.0, 0.5, 1.0, 1.5, 2.0)


def uxcost_objective(
    scenario_name: str,
    platform_name: str,
    duration_ms: float = 400.0,
    seed: int = 0,
) -> Callable[[Sequence[ParameterPoint]], list[float]]:
    """Build a ``points -> UXCosts`` objective for the offline optimizer.

    Each point is evaluated by a short simulation of DREAM with *fixed*
    (alpha, beta) (no online tuning, no frame drop, no Supernet switching,
    so the measurement isolates the MapScore parameters) on the scenario
    at its default cascade probability, and costs the run's UXCost.

    The objective remembers every cost it computed, keyed by the exact
    point, and sends only the points of a batch it has not seen to one
    :func:`execute_jobs` call, so each distinct point runs once per
    objective.
    """
    costs: dict[ParameterPoint, float] = {}

    def objective_fn(points: Sequence[ParameterPoint]) -> list[float]:
        new = [point for point in dict.fromkeys(points) if point not in costs]
        jobs = [
            CellJob(
                scenario_name,
                platform_name,
                "dream_fixed",
                duration_ms=duration_ms,
                seed=seed,
                cascade_probability=DEFAULT_CASCADE_PROBABILITY,
                dream=dream_fixed(point.alpha, point.beta),
            )
            for point in new
        ]
        for point, result in zip(new, execute_jobs(jobs)):
            costs[point] = result.uxcost
        return [costs[point] for point in points]

    return objective_fn


def parameter_grid(
    objective_fn: Callable[[Sequence[ParameterPoint]], Sequence[float]],
) -> dict[tuple[float, float], float]:
    """Evaluate the objective on the :data:`GRID_VALUES` grid (Figure 10 backdrop).

    All 25 points go to the objective as one batch.
    """
    points = [ParameterPoint(alpha, beta) for alpha in GRID_VALUES for beta in GRID_VALUES]
    return {
        (point.alpha, point.beta): cost
        for point, cost in zip(points, objective_fn(points))
    }
