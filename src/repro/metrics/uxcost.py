"""UXCost — the paper's user-experience cost metric (Algorithm 2).

UXCost is an EDP-like, lower-is-better metric: the product of the summed
per-model deadline-violation rates and the summed per-model normalized
energies over an execution window.  Two details from the paper are easy to
miss and are implemented here exactly:

* a model with *zero* violations contributes ``1 / (2 * total_frames)``
  instead of 0, so a perfect deadline record does not zero out the whole
  product and energy still matters (Algorithm 2, lines 7-8);
* dropped frames are treated as deadline violations (completion = infinity,
  Section 4.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable


@dataclass(frozen=True)
class ModelOutcome:
    """Per-model outcome of one simulated execution window.

    Attributes:
        model_name: the model (task) the outcome belongs to.
        total_frames: frames whose deadline fell inside the window.
        violated_frames: frames that missed their deadline (including
            dropped and abandoned frames).
        actual_energy_mj: energy actually consumed by the model's frames.
        worst_case_energy_mj: energy those frames would have consumed had
            every layer run on its most energy-hungry accelerator.
    """

    model_name: str
    total_frames: int
    violated_frames: int
    actual_energy_mj: float
    worst_case_energy_mj: float

    def __post_init__(self) -> None:
        if self.total_frames < 0 or self.violated_frames < 0:
            raise ValueError("frame counts must be non-negative")
        if self.violated_frames > self.total_frames:
            raise ValueError(
                f"model {self.model_name!r}: violated_frames "
                f"({self.violated_frames}) exceeds total_frames ({self.total_frames})"
            )
        if self.actual_energy_mj < 0 or self.worst_case_energy_mj < 0:
            raise ValueError("energy values must be non-negative")

    @property
    def violation_rate(self) -> float:
        """Rate_DLV with the paper's small-number rule for zero violations."""
        if self.total_frames == 0:
            return 0.0
        if self.violated_frames == 0:
            return 1.0 / (2.0 * self.total_frames)
        return self.violated_frames / self.total_frames

    @property
    def normalized_energy(self) -> float:
        """NormEnergy: actual energy over worst-case energy, in [0, ~1]."""
        if self.worst_case_energy_mj <= 0.0:
            return 0.0
        return self.actual_energy_mj / self.worst_case_energy_mj


@dataclass(frozen=True)
class UXCostBreakdown:
    """UXCost together with its two factors (for Figures 7 and 13)."""

    uxcost: float
    overall_violation_rate: float
    overall_normalized_energy: float
    per_model: tuple[ModelOutcome, ...]

    def describe(self) -> str:
        """One-line summary used in reports."""
        return (
            f"UXCost={self.uxcost:.4f} "
            f"(sum DLV rate={self.overall_violation_rate:.4f}, "
            f"sum norm energy={self.overall_normalized_energy:.4f})"
        )


def compute_uxcost(outcomes: Iterable[ModelOutcome]) -> UXCostBreakdown:
    """Compute UXCost for a set of per-model outcomes (Algorithm 2).

    Args:
        outcomes: one :class:`ModelOutcome` per model in the workload.

    Returns:
        The UXCost value and its two factors.  Models with zero frames in
        the window are ignored (they contribute nothing to either factor).
    """
    outcomes = tuple(outcomes)
    active = [outcome for outcome in outcomes if outcome.total_frames > 0]
    # Summed left to right: sum() compensates from CPython 3.12 on, which
    # would make UXCost depend on the interpreter version.
    overall_rate = reduce(add, [outcome.violation_rate for outcome in active], 0.0)
    overall_energy = reduce(add, [outcome.normalized_energy for outcome in active], 0.0)
    return UXCostBreakdown(
        uxcost=overall_rate * overall_energy,
        overall_violation_rate=overall_rate,
        overall_normalized_energy=overall_energy,
        per_model=outcomes,
    )
