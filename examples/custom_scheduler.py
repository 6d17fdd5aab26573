"""Plug a custom scheduling policy into the simulator.

The library's scheduler interface is three methods: ``bind`` (the
platform, cost table and scenario, once per run), ``schedule`` (the live
system view, at every scheduling point) and the optional
``on_request_finished`` hook.  This example implements a simple
earliest-deadline-first, heterogeneity-aware policy in ~40 lines, reading
the cost table that the inherited ``bind`` stores, and compares it against
dynamic FCFS and DREAM on the VR gaming scenario — the workflow a systems
researcher would use to prototype their own policy against the paper's
baselines.

Usage::

    python examples/custom_scheduler.py [duration_ms]
"""

from __future__ import annotations

import sys

from repro.hardware import make_platform
from repro.metrics.reporting import format_table
from repro.schedulers import make_scheduler
from repro.schedulers.base import Scheduler
from repro.sim import Assignment, SchedulingDecision, SystemView, run_simulation
from repro.workloads import build_scenario


class EdfBestAcceleratorScheduler(Scheduler):
    """Earliest-deadline-first at layer granularity on the fastest idle accelerator."""

    name = "edf_best_acc"

    def schedule(self, view: SystemView) -> SchedulingDecision:
        idle = [acc.acc_id for acc in view.accelerators if acc.is_idle]
        if not idle:
            return SchedulingDecision.empty()
        pending = sorted(
            (request for request in view.pending_requests if request.next_layer() is not None),
            key=lambda request: request.deadline_ms,
        )
        assignments = []
        for request in pending:
            if not idle:
                break
            next_layer = request.next_layer()
            best = min(
                idle,
                key=lambda acc_id: self.cost_table.latency(request.model_name, next_layer, acc_id),
            )
            assignments.append(Assignment(request=request, acc_id=best, layer_count=1))
            idle.remove(best)
        return SchedulingDecision.of(assignments)


def main() -> None:
    duration_ms = float(sys.argv[1]) if len(sys.argv) > 1 else 1000.0
    scenario = build_scenario("vr_gaming")
    platform = make_platform("4k_1os_2ws")
    rows = []
    schedulers = [
        ("fcfs_dynamic", make_scheduler("fcfs_dynamic")),
        ("edf_best_acc (custom)", EdfBestAcceleratorScheduler()),
        ("dream_full", make_scheduler("dream_full")),
    ]
    for label, scheduler in schedulers:
        result = run_simulation(
            scenario=scenario,
            platform=platform,
            scheduler=scheduler,
            duration_ms=duration_ms,
            seed=0,
        )
        rows.append([label, result.uxcost, result.overall_violation_rate, result.normalized_energy])
    print(format_table(["scheduler", "UXCost", "DLV rate", "energy factor"], rows))


if __name__ == "__main__":
    main()
