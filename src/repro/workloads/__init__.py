"""RTMM workload scenarios (Table 3 of the paper).

A *scenario* is a set of concurrently running ML tasks, each with a target
frame rate, an optional control dependency on another task (ML cascade) and
a model from the zoo — possibly a Supernet with switchable variants or a
model with operator-level dynamicity.

The five scenarios evaluated in the paper are available from
:mod:`repro.workloads.scenarios`:

* ``vr_gaming``     — XRBench-derived VR gaming (hand + eye + audio pipelines)
* ``ar_call``       — XRBench-derived AR call (audio pipeline + SkipNet)
* ``drone_outdoor`` — TrailMAV outdoor navigation
* ``drone_indoor``  — TrailMAV indoor navigation variant
* ``ar_social``     — XRBench-derived AR social interaction
"""

from repro.workloads.scenario import TaskSpec, Scenario
from repro.workloads.traffic import (
    ARRIVAL_PROCESSES,
    ArrivalProcess,
    BurstyArrival,
    LoadScaledArrival,
    PeriodicArrival,
    PoissonArrival,
    arrival_process_from_dict,
    arrival_process_names,
    make_arrival_process,
)
from repro.workloads.frames import Frame, generate_frames, head_arrival_plan
from repro.workloads.scenarios import (
    SCENARIO_BUILDERS,
    build_scenario,
    build_vr_gaming,
    build_ar_call,
    build_drone_outdoor,
    build_drone_indoor,
    build_ar_social,
    scenario_names,
)
from repro.workloads.dynamicity import WorkloadPhase, PhasedWorkload
from repro.workloads.users import SessionRequest, UserSpec, session_requests
from repro.workloads.generator import MODEL_POOL, GeneratorSpec, ScenarioGenerator

__all__ = [
    "MODEL_POOL",
    "GeneratorSpec",
    "ScenarioGenerator",
    "TaskSpec",
    "Scenario",
    "ARRIVAL_PROCESSES",
    "ArrivalProcess",
    "BurstyArrival",
    "LoadScaledArrival",
    "PeriodicArrival",
    "PoissonArrival",
    "arrival_process_from_dict",
    "arrival_process_names",
    "make_arrival_process",
    "Frame",
    "generate_frames",
    "head_arrival_plan",
    "SCENARIO_BUILDERS",
    "build_scenario",
    "build_vr_gaming",
    "build_ar_call",
    "build_drone_outdoor",
    "build_drone_indoor",
    "build_ar_social",
    "scenario_names",
    "WorkloadPhase",
    "PhasedWorkload",
    "SessionRequest",
    "UserSpec",
    "session_requests",
]
