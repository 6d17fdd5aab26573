"""MapScore parameter optimization (Sections 3.6 and 4.4).

Two cooperating pieces:

* :class:`IterativeParameterOptimizer` — the paper's offline search
  procedure: sample neighbouring and distant (alpha, beta) pairs around the
  current point, take the two lowest-UXCost samples, move to their
  interpolated point, shrink the sampling radius, repeat until the radius
  falls below a threshold.  Figures 10 and 11 are produced with this
  optimizer (each evaluation being a short simulation; the objective
  gets each step's samples as one batch).

* :class:`OnlineAdaptivityEngine` — the runtime adaptivity engine of
  Figure 4.  It keeps generating valid schedules while *gradually* moving
  (alpha, beta): candidate pairs around the current point are each used for
  one observation window, their windowed UXCost is measured from the frames
  that finished during that window, and the engine then moves to the
  interpolated best point and shrinks its radius — the same search, spread
  over time so it never blocks execution.  A workload change (different set
  of active tasks) resets the search radius, which is how DREAM re-adapts
  after a usage-scenario switch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.core.config import PARAMETER_RANGE, OptimizationObjective
from repro.metrics.uxcost import ModelOutcome, compute_uxcost

#: First sampling radius of both searches, and the radius a workload
#: change resets the online search to.
INITIAL_RADIUS = 0.5
#: A search stops (offline) or pauses until the next workload change
#: (online) once its radius falls below this.
MIN_RADIUS = 0.05
#: Multiplicative radius shrink after each search step or online round.
RADIUS_DECAY = 0.5
#: The offline search's distant samples lie at ``DISTANT_SCALE * radius``.
DISTANT_SCALE = 2.0
#: Observation window (ms) of the online engine: each candidate (alpha,
#: beta) runs for at least this long before its windowed cost is read.
WINDOW_MS = 50.0


@dataclass(frozen=True)
class ParameterPoint:
    """One (alpha, beta) parameter pair."""

    alpha: float
    beta: float

    def clamped(self) -> "ParameterPoint":
        """Clamp both coordinates into :data:`PARAMETER_RANGE`."""
        low, high = PARAMETER_RANGE
        return ParameterPoint(
            alpha=min(max(self.alpha, low), high),
            beta=min(max(self.beta, low), high),
        )

    def offset(self, d_alpha: float, d_beta: float) -> "ParameterPoint":
        """Translated copy."""
        return ParameterPoint(self.alpha + d_alpha, self.beta + d_beta)

    def distance(self, other: "ParameterPoint") -> float:
        """Euclidean distance to another point."""
        return math.hypot(self.alpha - other.alpha, self.beta - other.beta)


@dataclass(frozen=True)
class OptimizationStep:
    """One step of the iterative search."""

    step_index: int
    point: ParameterPoint
    cost: float
    radius: float
    samples: tuple[tuple[ParameterPoint, float], ...] = ()


@dataclass
class OptimizationTrace:
    """Full record of one optimization run (Figures 10 and 11)."""

    steps: list[OptimizationStep] = field(default_factory=list)

    @property
    def final_point(self) -> ParameterPoint:
        """The point the search settled on."""
        if not self.steps:
            raise ValueError("optimization trace has no steps")
        return self.steps[-1].point

    @property
    def final_cost(self) -> float:
        """Cost at the final point."""
        return self.steps[-1].cost

    def costs_per_step(self) -> list[float]:
        """Cost after each step (the Figure 11 convergence curve)."""
        return [step.cost for step in self.steps]


class IterativeParameterOptimizer:
    """Offline (alpha, beta) search with shrinking sampling radius.

    Args:
        objective: callable mapping a sequence of points to their costs,
            in order (lower is better); each cost typically takes one short
            simulation.  :meth:`optimize` asks for each step's candidates
            as one batch and for the interpolated centre as a second.
    """

    def __init__(self, objective: Callable[[Sequence[ParameterPoint]], Sequence[float]]) -> None:
        self.objective = objective

    # ------------------------------------------------------------------ #
    def candidate_points(self, center: ParameterPoint, radius: float) -> list[ParameterPoint]:
        """Neighbouring (at ``radius``) and distant (at ``DISTANT_SCALE*radius``) samples."""
        offsets = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
        points = [center]
        for dx, dy in offsets:
            points.append(center.offset(dx * radius, dy * radius))
        for dx, dy in [(-1, 0), (1, 0), (0, -1), (0, 1)]:
            points.append(center.offset(dx * radius * DISTANT_SCALE, dy * radius * DISTANT_SCALE))
        clamped = [point.clamped() for point in points]
        unique: dict[tuple[float, float], ParameterPoint] = {}
        for point in clamped:
            unique[(round(point.alpha, 6), round(point.beta, 6))] = point
        return list(unique.values())

    @staticmethod
    def interpolate(
        best: tuple[ParameterPoint, float], second: tuple[ParameterPoint, float]
    ) -> ParameterPoint:
        """Move to a point between the two best samples, weighted by their costs."""
        (p1, c1), (p2, c2) = best, second
        total = c1 + c2
        if total <= 0:
            weight = 0.5
        else:
            # The lower-cost point attracts the new center more strongly.
            weight = c2 / total
        return ParameterPoint(
            alpha=p1.alpha * weight + p2.alpha * (1.0 - weight),
            beta=p1.beta * weight + p2.beta * (1.0 - weight),
        )

    def optimize(self, start: ParameterPoint) -> OptimizationTrace:
        """Run the search from ``start`` and return the full trace."""
        trace = OptimizationTrace()
        center = start.clamped()
        radius = INITIAL_RADIUS
        step_index = 0
        while radius >= MIN_RADIUS:
            candidates = self.candidate_points(center, radius)
            samples = list(zip(candidates, self.objective(candidates)))
            samples.sort(key=lambda item: item[1])
            best, second = samples[0], samples[1] if len(samples) > 1 else samples[0]
            center = self.interpolate(best, second).clamped()
            (center_cost,) = self.objective([center])
            # Keep the better of (interpolated center, best raw sample) so a
            # bad interpolation cannot make the trajectory regress.
            if best[1] < center_cost:
                center, center_cost = best
            trace.steps.append(
                OptimizationStep(
                    step_index=step_index,
                    point=center,
                    cost=center_cost,
                    radius=radius,
                    samples=tuple(samples),
                )
            )
            radius *= RADIUS_DECAY
            step_index += 1
        return trace


# --------------------------------------------------------------------------- #
# online adaptivity
# --------------------------------------------------------------------------- #
@dataclass
class _WindowStats:
    """Per-task outcome counters accumulated within one observation window."""

    frames: int = 0
    violations: int = 0
    energy_mj: float = 0.0
    worst_energy_mj: float = 0.0


class OnlineAdaptivityEngine:
    """Runtime (alpha, beta) tuner that never blocks workload execution.

    Args:
        alpha: initial starvation weight.
        beta: initial energy weight.
        objective: windowed metric to minimize (UXCost by default;
            deadline-only / energy-only for the Figure 13 ablation).
        enabled: when False the engine keeps the initial parameters forever
            (the fixed-parameter baseline of Figure 9).
    """

    def __init__(
        self,
        alpha: float = 1.0,
        beta: float = 1.0,
        objective: OptimizationObjective = OptimizationObjective.UXCOST,
        enabled: bool = True,
    ) -> None:
        self.objective = objective
        self.enabled = enabled

        self.current = ParameterPoint(alpha, beta).clamped()
        self._radius = INITIAL_RADIUS
        self._candidates: list[ParameterPoint] = []
        self._candidate_results: list[tuple[ParameterPoint, float]] = []
        self._active_candidate: Optional[ParameterPoint] = None
        self._window_start_ms: Optional[float] = None
        self._window_stats: dict[str, _WindowStats] = {}
        self._known_tasks: frozenset[str] = frozenset()
        self.history: list[tuple[float, float, float, float]] = []
        self.updates = 0

    # ------------------------------------------------------------------ #
    # parameters exposed to MapScore
    # ------------------------------------------------------------------ #
    @property
    def alpha(self) -> float:
        """Current starvation weight."""
        point = self._active_candidate or self.current
        return point.alpha

    @property
    def beta(self) -> float:
        """Current energy weight."""
        point = self._active_candidate or self.current
        return point.beta

    # ------------------------------------------------------------------ #
    # observations
    # ------------------------------------------------------------------ #
    def observe_frame(
        self,
        task_name: str,
        violated: bool,
        energy_mj: float,
        worst_energy_mj: float,
    ) -> None:
        """Record one finished frame into the current observation window."""
        stats = self._window_stats.setdefault(task_name, _WindowStats())
        stats.frames += 1
        if violated:
            stats.violations += 1
        stats.energy_mj += energy_mj
        stats.worst_energy_mj += worst_energy_mj

    def window_cost(self) -> float:
        """Windowed objective value from the frames observed so far.

        UXCost (Algorithm 2) over one :class:`ModelOutcome` per task, or
        one of its two factors under a single-term objective.
        """
        breakdown = compute_uxcost(
            ModelOutcome(name, stats.frames, stats.violations,
                         stats.energy_mj, stats.worst_energy_mj)
            for name, stats in self._window_stats.items()
        )
        return self.objective.cost(breakdown)

    def _observed_frames(self) -> int:
        return sum(stats.frames for stats in self._window_stats.values())

    # ------------------------------------------------------------------ #
    # the tuning state machine
    # ------------------------------------------------------------------ #
    def notify_workload(self, active_tasks: Iterable[str]) -> None:
        """Tell the engine which tasks are currently active.

        A change in the active task set is the paper's workload-change
        trigger: the search radius resets and tuning restarts from the
        current point.
        """
        tasks = frozenset(active_tasks)
        if not tasks:
            return
        if self._known_tasks and tasks != self._known_tasks:
            self._radius = INITIAL_RADIUS
            self._candidates = []
            self._candidate_results = []
            self._active_candidate = None
        self._known_tasks = tasks

    def step(self, now_ms: float) -> None:
        """Advance the tuner; call this at every scheduling point."""
        if not self.enabled:
            return
        if self._window_start_ms is None:
            self._window_start_ms = now_ms
            return
        window_elapsed = now_ms - self._window_start_ms
        if window_elapsed < WINDOW_MS or self._observed_frames() == 0:
            return

        cost = self.window_cost()
        point = self._active_candidate or self.current
        self.history.append((now_ms, point.alpha, point.beta, cost))
        self._window_stats = {}
        self._window_start_ms = now_ms

        if self._radius < MIN_RADIUS:
            # Converged: keep measuring, only restart on workload change.
            return

        if self._active_candidate is None:
            # The just-measured window belongs to the current point; use it
            # to seed the candidate sweep.
            self._candidate_results = [(self.current, cost)]
            self._candidates = self._make_candidates()
            self._advance_candidate()
            return

        self._candidate_results.append((self._active_candidate, cost))
        if not self._advance_candidate():
            self._conclude_round()

    def _make_candidates(self) -> list[ParameterPoint]:
        offsets = [(-1, 0), (1, 0), (0, -1), (0, 1)]
        candidates = []
        for dx, dy in offsets:
            candidate = self.current.offset(dx * self._radius, dy * self._radius)
            candidate = candidate.clamped()
            if candidate.distance(self.current) > 1e-9:
                candidates.append(candidate)
        return candidates

    def _advance_candidate(self) -> bool:
        if self._candidates:
            self._active_candidate = self._candidates.pop(0)
            return True
        self._active_candidate = None
        return False

    def _conclude_round(self) -> None:
        results = sorted(self._candidate_results, key=lambda item: item[1])
        if len(results) >= 2:
            best, second = results[0], results[1]
            self.current = IterativeParameterOptimizer.interpolate(best, second).clamped()
        elif results:
            self.current = results[0][0]
        self._candidate_results = []
        self._radius *= RADIUS_DECAY
        self.updates += 1

    def info(self) -> dict[str, object]:
        """Summary attached to simulation results."""
        return {
            "alpha": self.current.alpha,
            "beta": self.current.beta,
            "radius": self._radius,
            "updates": self.updates,
            "enabled": self.enabled,
            "objective": self.objective.value,
        }
