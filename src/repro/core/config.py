"""DREAM configuration presets (Table 4 of the paper).

The three evaluated configurations stack DREAM's optimizations:

* ``DREAM-MapScore``  — MapScore-driven job assignment with online
  (alpha, beta) parameter optimization;
* ``DREAM-SmartDrop`` — MapScore plus the smart frame drop engine;
* ``DREAM-Full``      — SmartDrop plus Supernet switching.

Figure 9 additionally uses a fixed-parameter baseline (alpha = beta = 1,
no optimization), available as :func:`dream_fixed`.  Figure 13 swaps the
optimization objective from UXCost to deadline-violation-rate-only or
energy-only, controlled by :class:`OptimizationObjective`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.uxcost import UXCostBreakdown


class OptimizationObjective(enum.Enum):
    """What the adaptivity engine minimizes when tuning (alpha, beta)."""

    UXCOST = "uxcost"
    DEADLINE_ONLY = "deadline_only"
    ENERGY_ONLY = "energy_only"

    def cost(self, breakdown: "UXCostBreakdown") -> float:
        """The value this objective minimizes: UXCost or one of its two factors."""
        if self is OptimizationObjective.DEADLINE_ONLY:
            return breakdown.overall_violation_rate
        if self is OptimizationObjective.ENERGY_ONLY:
            return breakdown.overall_normalized_energy
        return breakdown.uxcost


@dataclass(frozen=True)
class DreamConfig:
    """Tunable knobs of the DREAM scheduler.

    Attributes:
        enable_parameter_optimization: let the adaptivity engine tune
            (alpha, beta) online; when False the initial values are kept.
        enable_frame_drop: enable the smart frame drop engine.
        enable_supernet_switching: enable runtime Supernet variant switching.
        alpha: initial starvation weight (Algorithm 1, line 15).
        beta: initial energy weight (Algorithm 1, line 15).
        parameter_range: inclusive search range for both parameters
            (the paper constrains them to [0, 2]).
        adaptation_window_ms: length of the observation window after which
            the online adaptivity engine evaluates the current parameters.
        initial_search_radius: first sampling radius of the online tuner.
        min_search_radius: radius below which tuning pauses until a
            workload change re-triggers it.
        objective: metric minimized by the tuner (Figure 13 ablation).
        max_drop_rate: maximum fraction of droppable frames per task over
            the drop window (evaluation uses 20%).
        drop_window_frames: number of recent frames over which the drop
            rate is bounded (the paper's default: 2 drops per 10 frames).
    """

    enable_parameter_optimization: bool = True
    enable_frame_drop: bool = False
    enable_supernet_switching: bool = False
    alpha: float = 1.0
    beta: float = 1.0
    parameter_range: tuple[float, float] = (0.0, 2.0)
    adaptation_window_ms: float = 50.0
    initial_search_radius: float = 0.5
    min_search_radius: float = 0.05
    objective: OptimizationObjective = OptimizationObjective.UXCOST
    max_drop_rate: float = 0.2
    drop_window_frames: int = 10

    def __post_init__(self) -> None:
        low, high = self.parameter_range
        if low < 0 or high <= low:
            raise ValueError("parameter_range must satisfy 0 <= low < high")
        if not low <= self.alpha <= high or not low <= self.beta <= high:
            raise ValueError("alpha and beta must lie within parameter_range")
        if self.adaptation_window_ms <= 0:
            raise ValueError("adaptation_window_ms must be positive")
        if self.initial_search_radius <= 0 or self.min_search_radius <= 0:
            raise ValueError("search radii must be positive")
        if not 0.0 <= self.max_drop_rate <= 1.0:
            raise ValueError("max_drop_rate must be in [0, 1]")
        if self.drop_window_frames <= 0:
            raise ValueError("drop_window_frames must be positive")

    def with_objective(self, objective: OptimizationObjective) -> "DreamConfig":
        """Copy of the config with a different optimization objective."""
        return replace(self, objective=objective)


def dream_fixed(alpha: float = 1.0, beta: float = 1.0) -> DreamConfig:
    """MapScore with fixed parameters and no optimization (Figure 9 baseline)."""
    return DreamConfig(
        enable_parameter_optimization=False,
        enable_frame_drop=False,
        enable_supernet_switching=False,
        alpha=alpha,
        beta=beta,
    )


def dream_mapscore() -> DreamConfig:
    """DREAM-MapScore: score-driven assignment + parameter optimization."""
    return DreamConfig(
        enable_parameter_optimization=True,
        enable_frame_drop=False,
        enable_supernet_switching=False,
    )


def dream_smartdrop() -> DreamConfig:
    """DREAM-SmartDrop: DREAM-MapScore plus the smart frame drop engine."""
    return DreamConfig(
        enable_parameter_optimization=True,
        enable_frame_drop=True,
        enable_supernet_switching=False,
    )


def dream_full() -> DreamConfig:
    """DREAM-Full: all optimizations, including Supernet switching."""
    return DreamConfig(
        enable_parameter_optimization=True,
        enable_frame_drop=True,
        enable_supernet_switching=True,
    )
