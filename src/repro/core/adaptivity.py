"""MapScore parameter optimization (Sections 3.6 and 4.4).

Two cooperating pieces:

* :class:`IterativeParameterOptimizer` — the paper's offline search
  procedure: sample neighbouring and distant (alpha, beta) pairs around the
  current point, take the two lowest-UXCost samples, move to their
  interpolated point, shrink the sampling radius, repeat until the radius
  falls below a threshold.  Figures 10 and 11 are produced with this
  optimizer (each evaluation being a short simulation).

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
from typing import Callable, Iterable, Optional

from repro.core.config import OptimizationObjective
from repro.metrics.uxcost import ModelOutcome, compute_uxcost


@dataclass(frozen=True)
class ParameterPoint:
    """One (alpha, beta) parameter pair."""

    alpha: float
    beta: float

    def clamped(self, low: float, high: float) -> "ParameterPoint":
        """Clamp both coordinates into [low, high]."""
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
    evaluations: list[tuple[ParameterPoint, float]] = field(default_factory=list)

    @property
    def best(self) -> tuple[ParameterPoint, float]:
        """Lowest-cost evaluated point."""
        if not self.evaluations:
            raise ValueError("optimization trace has no evaluations")
        return min(self.evaluations, key=lambda item: item[1])

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
        objective: callable evaluating a parameter pair (lower is better);
            each call typically runs one short simulation.
        parameter_range: inclusive search range for both parameters.
        initial_radius: first sampling radius.
        min_radius: stop once the radius falls below this threshold.
        radius_decay: multiplicative radius shrink per step.
        distant_scale: distant samples are placed at ``distant_scale * radius``.
    """

    def __init__(
        self,
        objective: Callable[[float, float], float],
        parameter_range: tuple[float, float] = (0.0, 2.0),
        initial_radius: float = 0.5,
        min_radius: float = 0.05,
        radius_decay: float = 0.5,
        distant_scale: float = 2.0,
    ) -> None:
        low, high = parameter_range
        if high <= low:
            raise ValueError("parameter_range must satisfy low < high")
        if initial_radius <= 0 or min_radius <= 0:
            raise ValueError("radii must be positive")
        if not 0.0 < radius_decay < 1.0:
            raise ValueError("radius_decay must be in (0, 1)")
        self.objective = objective
        self.low, self.high = low, high
        self.initial_radius = initial_radius
        self.min_radius = min_radius
        self.radius_decay = radius_decay
        self.distant_scale = distant_scale

    # ------------------------------------------------------------------ #
    def candidate_points(self, center: ParameterPoint, radius: float) -> list[ParameterPoint]:
        """Neighbouring (at ``radius``) and distant (at ``distant_scale*radius``) samples."""
        offsets = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
        points = [center]
        for dx, dy in offsets:
            points.append(center.offset(dx * radius, dy * radius))
        for dx, dy in [(-1, 0), (1, 0), (0, -1), (0, 1)]:
            points.append(center.offset(dx * radius * self.distant_scale, dy * radius * self.distant_scale))
        clamped = [point.clamped(self.low, self.high) for point in points]
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
        center = start.clamped(self.low, self.high)
        radius = self.initial_radius
        step_index = 0
        while radius >= self.min_radius:
            samples = []
            for point in self.candidate_points(center, radius):
                cost = self.objective(point.alpha, point.beta)
                samples.append((point, cost))
                trace.evaluations.append((point, cost))
            samples.sort(key=lambda item: item[1])
            best, second = samples[0], samples[1] if len(samples) > 1 else samples[0]
            center = self.interpolate(best, second).clamped(self.low, self.high)
            center_cost = self.objective(center.alpha, center.beta)
            trace.evaluations.append((center, center_cost))
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
            radius *= self.radius_decay
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
        parameter_range: search range (the paper uses [0, 2]).
        window_ms: observation window length per candidate.
        initial_radius: sampling radius right after a (re)start.
        min_radius: radius below which tuning pauses.
        objective: windowed metric to minimize (UXCost by default;
            deadline-only / energy-only for the Figure 13 ablation).
        enabled: when False the engine keeps the initial parameters forever
            (the fixed-parameter baseline of Figure 9).
    """

    def __init__(
        self,
        alpha: float = 1.0,
        beta: float = 1.0,
        parameter_range: tuple[float, float] = (0.0, 2.0),
        window_ms: float = 100.0,
        initial_radius: float = 0.5,
        min_radius: float = 0.05,
        objective: OptimizationObjective = OptimizationObjective.UXCOST,
        enabled: bool = True,
    ) -> None:
        self.low, self.high = parameter_range
        self.window_ms = window_ms
        self.initial_radius = initial_radius
        self.min_radius = min_radius
        self.objective = objective
        self.enabled = enabled

        self.current = ParameterPoint(alpha, beta).clamped(self.low, self.high)
        self._radius = initial_radius
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
            self._radius = self.initial_radius
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
        if window_elapsed < self.window_ms or self._observed_frames() == 0:
            return

        cost = self.window_cost()
        point = self._active_candidate or self.current
        self.history.append((now_ms, point.alpha, point.beta, cost))
        self._window_stats = {}
        self._window_start_ms = now_ms

        if self._radius < self.min_radius:
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
            candidate = candidate.clamped(self.low, self.high)
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
            self.current = IterativeParameterOptimizer.interpolate(best, second).clamped(
                self.low, self.high
            )
        elif results:
            self.current = results[0][0]
        self._candidate_results = []
        self._radius *= 0.5
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
