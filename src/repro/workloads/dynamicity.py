"""Task-level dynamicity: workload (usage-scenario) changes over time.

The paper's "Lv 2" dynamicity is the user context switching between usage
scenarios — e.g. a VR gaming session interrupted by an incoming AR call
(Figure 1b).  A :class:`PhasedWorkload` describes such a timeline as an
ordered list of :class:`WorkloadPhase` entries; the experiment harness runs
the phases back-to-back, carrying scheduler state (most importantly DREAM's
tuned ``alpha`` / ``beta`` parameters) across the phase boundary.  That
models DREAM re-adapting after a usage-scenario switch.  No paper figure
runs a phased workload (Figures 10 and 11 run the parameter optimizer
with a fresh scheduler per evaluation);
``tests/test_harness_parallel.py::TestPhasedDeterminism`` exercises them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.workloads.scenario import Scenario


@dataclass(frozen=True)
class WorkloadPhase:
    """One contiguous phase during which a single scenario is active.

    Attributes:
        scenario: the active scenario.
        duration_ms: how long the phase lasts.
    """

    scenario: Scenario
    duration_ms: float

    def __post_init__(self) -> None:
        if self.duration_ms <= 0:
            raise ValueError("phase duration_ms must be positive")


@dataclass(frozen=True)
class PhasedWorkload:
    """A timeline of scenario phases modelling task-level dynamicity.

    Attributes:
        phases: the ordered phases.
        name: optional display name; defaults to the chained scenario names.
    """

    phases: tuple[WorkloadPhase, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("a phased workload needs at least one phase")

    def __iter__(self) -> Iterator[WorkloadPhase]:
        return iter(self.phases)

    def __len__(self) -> int:
        return len(self.phases)

    @property
    def display_name(self) -> str:
        """Human-readable name of the workload timeline."""
        if self.name:
            return self.name
        return " -> ".join(phase.scenario.name for phase in self.phases)

    @property
    def total_duration_ms(self) -> float:
        """Total length of the timeline."""
        return sum(phase.duration_ms for phase in self.phases)

    @property
    def scenarios(self) -> list[Scenario]:
        """The scenarios in phase order."""
        return [phase.scenario for phase in self.phases]

    def phase_boundaries_ms(self) -> list[float]:
        """Absolute start times of each phase."""
        boundaries = [0.0]
        for phase in self.phases[:-1]:
            boundaries.append(boundaries[-1] + phase.duration_ms)
        return boundaries


def single_phase(scenario: Scenario, duration_ms: float) -> PhasedWorkload:
    """Convenience constructor for a workload with no scenario change."""
    return PhasedWorkload(phases=(WorkloadPhase(scenario, duration_ms),))


def context_switch(
    first: Scenario, second: Scenario, phase_duration_ms: float
) -> PhasedWorkload:
    """A two-phase workload modelling one usage-scenario change."""
    return PhasedWorkload(
        phases=(
            WorkloadPhase(first, phase_duration_ms),
            WorkloadPhase(second, phase_duration_ms),
        ),
        name=f"{first.name} -> {second.name}",
    )
