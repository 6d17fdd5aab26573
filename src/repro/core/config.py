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
from dataclasses import dataclass
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


#: Inclusive search range of both MapScore parameters (alpha, beta); the
#: paper constrains them to [0, 2] (Sections 3.6 and 4.4).  The offline
#: optimizer and the online adaptivity engine both clamp into it.
PARAMETER_RANGE = (0.0, 2.0)


@dataclass(frozen=True)
class DreamConfig:
    """One DREAM configuration: which engines run, from which (alpha, beta).

    The search range, radii and drop budget are policy constants
    (:data:`PARAMETER_RANGE`, :mod:`repro.core.adaptivity`,
    :mod:`repro.core.frame_drop`), not fields.

    Attributes:
        enable_parameter_optimization: let the adaptivity engine tune
            (alpha, beta) online; when False the initial values are kept.
        enable_frame_drop: enable the smart frame drop engine.
        enable_supernet_switching: enable runtime Supernet variant switching.
        alpha: initial starvation weight (Algorithm 1, line 15).
        beta: initial energy weight (Algorithm 1, line 15).
        objective: metric minimized by the tuner (Figure 13 ablation).
    """

    enable_parameter_optimization: bool = True
    enable_frame_drop: bool = False
    enable_supernet_switching: bool = False
    alpha: float = 1.0
    beta: float = 1.0
    objective: OptimizationObjective = OptimizationObjective.UXCOST

    def __post_init__(self) -> None:
        low, high = PARAMETER_RANGE
        if not low <= self.alpha <= high or not low <= self.beta <= high:
            raise ValueError("alpha and beta must lie within PARAMETER_RANGE")


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
