"""Task-level dynamicity: workload (usage-scenario) changes over time.

The paper's "Lv 2" dynamicity is the user context switching between usage
scenarios — e.g. a VR gaming session interrupted by an incoming AR call
(Figure 1b).  A :class:`PhasedWorkload` describes such a timeline as an
ordered list of :class:`WorkloadPhase` entries;
:class:`~repro.experiments.jobs.PhasedJob` runs the phases back-to-back,
carrying scheduler state (most importantly DREAM's tuned ``alpha`` /
``beta`` parameters) across the phase boundary.  That models DREAM
re-adapting after a usage-scenario switch.  No paper figure
runs a phased workload (Figures 10 and 11 run the parameter optimizer
with a fresh scheduler per evaluation);
``tests/test_harness_parallel.py::TestPhasedDeterminism`` exercises them.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """

    phases: tuple[WorkloadPhase, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("a phased workload needs at least one phase")
