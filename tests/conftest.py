"""Shared fixtures: a small synthetic scenario and platform for fast tests.

Integration tests that need the real Table 3 scenarios build them directly;
unit tests use the synthetic ``tiny_scenario`` so the whole suite stays
fast and the expected numbers stay hand-checkable.
"""

from __future__ import annotations

import random

import pytest

from repro.hardware import AnalyticalCostModel, CostTable, build_platform, make_platform
from repro.hardware.dataflow import Dataflow
from repro.models.dynamic import LayerSkipping
from repro.models.graph import ModelGraph
from repro.models.layers import conv2d, fc
from repro.models.supernet import Supernet
from repro.sim import FaultSpec
from repro.sim.engine import RETRY_BUDGET
from repro.workloads.scenario import Scenario, TaskSpec


def _make_model(name: str, scale: int = 1, dynamic: bool = False) -> ModelGraph:
    layers = (
        conv2d(f"{name}.conv1", 64, 64, 8, 16 * scale, kernel=3),
        conv2d(f"{name}.conv2", 32, 32, 16 * scale, 32 * scale, kernel=3, stride=2),
        fc(f"{name}.fc", 2048, 256 * scale),
    )
    behavior = LayerSkipping(blocks=((1,),), skip_probability=0.5) if dynamic else None
    if behavior is not None:
        return ModelGraph(name=name, layers=layers, dynamic_behavior=behavior)
    return ModelGraph(name=name, layers=layers)


@pytest.fixture(scope="session")
def tiny_models() -> dict[str, ModelGraph]:
    """Three small hand-checkable models."""
    return {
        "alpha": _make_model("alpha", scale=1),
        "beta": _make_model("beta", scale=2),
        "gamma": _make_model("gamma", scale=1, dynamic=True),
    }


@pytest.fixture(scope="session")
def tiny_supernet() -> Supernet:
    """A two-variant supernet built from scaled copies of the same model."""
    heavy = _make_model("super_heavy", scale=4)
    light = _make_model("super_light", scale=1)
    return Supernet(name="tiny_supernet", variants=(heavy, light))


@pytest.fixture(scope="session")
def tiny_platform():
    """A 2-accelerator heterogeneous platform (1 WS + 1 OS)."""
    return build_platform(
        "tiny_het",
        [(Dataflow.WEIGHT_STATIONARY, 1024), (Dataflow.OUTPUT_STATIONARY, 512)],
    )


@pytest.fixture(scope="session")
def tiny_scenario(tiny_models, tiny_supernet) -> Scenario:
    """Two head tasks, one cascade, one supernet task."""
    return Scenario(
        name="tiny",
        tasks=(
            TaskSpec("vision", tiny_models["alpha"], fps=30),
            TaskSpec("heavy", tiny_models["beta"], fps=15),
            TaskSpec(
                "cascade",
                tiny_models["gamma"],
                fps=30,
                depends_on="vision",
                trigger_probability=0.5,
            ),
            TaskSpec("context", tiny_supernet, fps=15),
        ),
    )


@pytest.fixture(scope="session")
def tiny_cost_table(tiny_platform, tiny_scenario) -> CostTable:
    """Cost table for the synthetic scenario on the synthetic platform."""
    return CostTable.build(tiny_platform, tiny_scenario.all_model_graphs())


@pytest.fixture(scope="session")
def het_4k_platform():
    """The paper's 4K 1WS+2OS preset (used by integration tests)."""
    return make_platform("4k_1ws_2os")


@pytest.fixture()
def rng() -> random.Random:
    """A deterministic random generator."""
    return random.Random(1234)


@pytest.fixture(scope="session")
def cost_model() -> AnalyticalCostModel:
    """A default analytical cost model instance."""
    return AnalyticalCostModel()


def _outages_failing_one_request(run):
    """Outage windows that abort one request ``RETRY_BUDGET + 1`` times.

    ``run(faults)`` simulates under a fault plan and returns its trace
    records.  Each 1 ms window opens 1 µs after a dispatch of the request
    that is still in flight then, found by replaying the run under the
    windows placed so far, so the last abort finds the retry budget spent
    and fails the request.  Returns the plan and the request's
    ``(task, frame)``.
    """
    plan, target = (), None
    for _ in range(RETRY_BUDGET + 1):
        records = run(plan)
        after_ms = plan[-1].end_ms if plan else 0.0
        for index, record in enumerate(records):
            key = (record.task_name, record.frame_id)
            if record.event != "dispatch" or record.time_ms < after_ms or target not in (None, key):
                continue
            end_ms = next((later.time_ms for later in records[index + 1:]
                           if (later.task_name, later.frame_id) == key
                           and later.event in ("layers_complete", "abort")), float("inf"))
            if end_ms > record.time_ms + 1e-3:
                break
        else:
            pytest.fail(f"no dispatch of {target or 'any request'} in flight after {after_ms} ms")
        target = key
        plan += (FaultSpec("platform_outage", start_ms=record.time_ms + 1e-3, duration_ms=1.0),)
    return plan, target


@pytest.fixture(scope="session")
def outages_failing_one_request():
    """``build(run) -> (plan, (task, frame))``: see :func:`_outages_failing_one_request`."""
    return _outages_failing_one_request
