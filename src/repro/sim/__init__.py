"""Discrete-event simulator for multi-accelerator RTMM scheduling.

The simulator plays the role of the authors' in-house evaluation
infrastructure: it streams periodic sensor frames into inference requests,
lets a pluggable scheduler assign layers (or layer blocks, or whole models)
to sub-accelerators, models context-switch overheads and Planaria-style
spatial fission, spawns cascaded requests when control dependencies fire,
and records everything needed to compute the paper's metrics (deadline
violation rate, normalized energy, UXCost).

Typical usage::

    from repro.hardware import make_platform
    from repro.workloads import build_scenario
    from repro.schedulers import make_scheduler
    from repro.sim import SimulationEngine

    engine = SimulationEngine(
        scenario=build_scenario("ar_call"),
        platform=make_platform("4k_1ws_2os"),
        scheduler=make_scheduler("dream_full"),
        duration_ms=2000.0,
        seed=0,
    )
    result = engine.run()
    print(result.uxcost, result.overall_violation_rate)
"""

from repro.sim.request import InferenceRequest, RequestState
from repro.sim.faults import (
    FAULT_KINDS,
    FAULT_MODELS,
    FaultModel,
    FaultSpec,
    capacity_at,
    fault_kind_names,
    outage_active,
    sample_fault_plan,
)
from repro.sim.queues import ReferenceRequestPool, RequestPool
from repro.sim.decisions import Assignment, SchedulingDecision, AcceleratorView, SystemView
from repro.sim.executor import AcceleratorExecutor, RunningSlot
from repro.sim.results import TaskStats, AcceleratorStats, SimulationResult
from repro.sim.tracer import TraceRecord, Tracer
from repro.sim.invariants import (
    INVARIANT_NAMES,
    TraceInvariantError,
    Violation,
    assert_trace_invariants,
    audit_trace,
)
from repro.sim.engine import ENGINE_MODES, SimulationEngine, run_simulation
from repro.sim.resource_models import (
    RESOURCE_MODEL_NAMES,
    KvBatchModel,
    make_resource_model,
    resource_model_names,
)

__all__ = [
    "INVARIANT_NAMES",
    "TraceInvariantError",
    "Violation",
    "assert_trace_invariants",
    "audit_trace",
    "InferenceRequest",
    "RequestState",
    "FAULT_KINDS",
    "FAULT_MODELS",
    "FaultModel",
    "FaultSpec",
    "capacity_at",
    "fault_kind_names",
    "outage_active",
    "sample_fault_plan",
    "RequestPool",
    "ReferenceRequestPool",
    "ENGINE_MODES",
    "RESOURCE_MODEL_NAMES",
    "resource_model_names",
    "make_resource_model",
    "KvBatchModel",
    "Assignment",
    "SchedulingDecision",
    "AcceleratorView",
    "SystemView",
    "AcceleratorExecutor",
    "RunningSlot",
    "TaskStats",
    "AcceleratorStats",
    "SimulationResult",
    "TraceRecord",
    "Tracer",
    "SimulationEngine",
    "run_simulation",
]
