"""Execution-resource models: what accelerator capacity *means*.

Every layer above the executor reasons about capacity through a single
scalar per accelerator — the "free fraction" in ``[0, 1]`` that schedulers
read from their views and that the engine's wake hints predicate on.  A
resource model defines the semantics of that scalar: what fraction of the
accelerator one assignment charges while in flight, whether a new
assignment is admissible right now, and how long the assigned layers take
given the accelerator's current occupancy.

Two models are registered:

``pe_fraction`` (default)
    The paper's spatial-sharing model.  An assignment charges exactly its
    requested ``pe_fraction`` and per-layer latency is
    ``max(compute / pe_fraction, memory) + overhead``.  It has no class:
    :func:`make_resource_model` returns ``None`` for it, and
    :meth:`~repro.sim.executor.AcceleratorExecutor.start` keeps its own
    arithmetic for it.

``kv_batch``
    A vLLM-style continuous-batching executor with a shared KV-cache
    memory budget per accelerator, implemented by :class:`KvBatchModel`,
    whose three methods the executor calls:

    * :meth:`~KvBatchModel.charge_fraction` — an assignment charges
      ``min(1.0, activation_footprint_bytes / budget_bytes)`` of the
      accelerator (the clamp guarantees even a model larger than the
      budget can run alone rather than starve);
    * :meth:`~KvBatchModel.admits` — the charge must fit the free fraction
      and the number of concurrent slots is capped at :data:`MAX_BATCH`;
    * :meth:`~KvBatchModel.dilation` — the executor prices the layers at
      full PE with the same loop as the default model and scales the sum
      by the documented batch-dilation formula

        ``latency = sum(layer latency at full PE) * (1 + BATCH_ALPHA * (B - 1))``

      where ``B = len(slots) + 1`` is the batch size *at dispatch time* —
      in-flight slots are never re-priced, which keeps the event loop
      deterministic and monotone.  The executor adds the context-switch
      costs on top, as for the default model.

The footprint is
:func:`~repro.hardware.cost_table.activation_footprint_bytes`, the one
definition the cost table also prices context switches with.

Determinism rules
-----------------
Model instances are pure functions of the scenario:
no RNG, no wall clock, and charge tables are precomputed over the
scenario's model list in declaration order.  The same scenario + seed
therefore yields the same trace on every run and PYTHONHASHSEED.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.hardware.cost_table import activation_footprint_bytes
from repro.sim.decisions import Assignment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.executor import AcceleratorExecutor
    from repro.workloads.scenario import Scenario

#: Registered resource-model names; ``resource_model_names()`` is the
#: public accessor (mirrors ``scheduler_names()``).
RESOURCE_MODEL_NAMES = ("pe_fraction", "kv_batch")

#: Ratio of the shared KV budget to the largest activation footprint in
#: the scenario when the scenario pins no budget: two "largest" requests
#: fit side by side, so batching is possible but the budget still binds.
KV_BUDGET_RATIO = 2.0

#: Cap on concurrent slots per accelerator under ``kv_batch``.
MAX_BATCH = 4

#: Per-peer latency dilation of the batch formula.
BATCH_ALPHA = 0.25


def resource_model_names() -> list[str]:
    """Names of every registered execution-resource model."""
    return list(RESOURCE_MODEL_NAMES)


def default_kv_budget_bytes(scenario: "Scenario") -> float:
    """The derived KV budget when the scenario does not pin one.

    :data:`KV_BUDGET_RATIO` times the largest activation footprint over
    every model the scenario may execute — deterministic in the scenario's
    declaration order and independent of the platform.
    """
    largest = max(
        (activation_footprint_bytes(graph) for graph in scenario.all_model_graphs()),
        default=0,
    )
    return KV_BUDGET_RATIO * max(1, largest)


class KvBatchModel:
    """Continuous batching under a shared KV-cache memory budget.

    A deterministic pure function of the scenario: the executor consults
    it on admission and pricing but keeps all bookkeeping (running charge
    sums, slot maps) itself.

    Args:
        scenario: the workload; its model list fixes the charge table, and
            its ``kv_budget_bytes`` pins the shared memory budget per
            accelerator (:func:`default_kv_budget_bytes` when unset).
    """

    def __init__(self, scenario: "Scenario") -> None:
        budget_bytes = scenario.kv_budget_bytes
        if budget_bytes is None:
            budget_bytes = default_kv_budget_bytes(scenario)
        self.budget_bytes = float(budget_bytes)
        # Charge table in scenario declaration order: deterministic across
        # runs and PYTHONHASHSEED values.
        self._charges: dict[str, float] = {}
        for graph in scenario.all_model_graphs():
            self._charges[graph.name] = min(
                1.0, activation_footprint_bytes(graph) / self.budget_bytes
            )

    def charge_fraction(self, assignment: Assignment) -> float:
        """KV share of the requested model (clamped so it can run alone)."""
        return self._charges[assignment.request.model_name]

    def admits(self, executor: "AcceleratorExecutor", assignment: Assignment) -> bool:
        """Fits the memory budget AND the batch-size cap."""
        if len(executor.slots) >= MAX_BATCH:
            return False
        return self.charge_fraction(assignment) <= executor.free_fraction + 1e-9

    def dilation(self, batch: int) -> float:
        """Latency multiplier of a dispatch that brings the accelerator to ``batch`` slots."""
        return 1.0 + BATCH_ALPHA * (batch - 1)


def make_resource_model(name: str, scenario: "Scenario") -> Optional[KvBatchModel]:
    """Build the shared resource-model instance for one engine.

    Returns ``None`` for ``pe_fraction``, the executor's own default
    arithmetic, so the executors test one attribute for it.

    Raises:
        ValueError: for unknown names, listing the sorted registry.
    """
    if name == "pe_fraction":
        return None
    if name == "kv_batch":
        return KvBatchModel(scenario)
    known = ", ".join(sorted(RESOURCE_MODEL_NAMES))
    raise ValueError(f"unknown resource model {name!r}; available: {known}")


__all__ = [
    "BATCH_ALPHA",
    "KV_BUDGET_RATIO",
    "KvBatchModel",
    "MAX_BATCH",
    "RESOURCE_MODEL_NAMES",
    "default_kv_budget_bytes",
    "make_resource_model",
    "resource_model_names",
]
