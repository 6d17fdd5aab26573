"""Pluggable execution-resource models: what accelerator capacity *means*.

Every layer above the executor reasons about capacity through a single
scalar per accelerator — the "free fraction" in ``[0, 1]`` that schedulers
read from their frozen views and that the engine's wake hints predicate
on.  A :class:`ResourceModel` defines the semantics of that scalar:

* what fraction of the accelerator one assignment *charges* while it is
  in flight (:meth:`ResourceModel.charge_fraction`),
* whether a new assignment is admissible right now
  (:meth:`ResourceModel.admits`), and
* how long the assigned layers take given the accelerator's current
  occupancy (:meth:`ResourceModel.price_layers`).

Two models are registered:

``pe_fraction`` (default)
    The paper's spatial-sharing model.  An assignment charges exactly its
    requested ``pe_fraction`` and per-layer latency is
    ``max(compute / pe_fraction, memory) + overhead``.  It has no class:
    :func:`make_resource_model` returns ``None`` for it and the executor
    keeps its historical inlined arithmetic, so results are bit-for-bit
    identical to a build without this module (enforced by the
    engine-parity sweep).

``kv_batch``
    A vLLM-style continuous-batching executor with a shared KV-cache
    memory budget per accelerator.  An assignment charges
    ``min(1.0, activation_footprint_bytes / budget_bytes)`` of the
    accelerator (the clamp guarantees even a model larger than the budget
    can run alone rather than starve), admission additionally caps the
    number of concurrent slots at ``max_batch``, and latency follows the
    documented batch-dilation formula

        ``latency = sum(layer latency at full PE) * (1 + alpha * (B - 1))``

    where ``B = len(slots) + 1`` is the batch size *at dispatch time* —
    in-flight slots are never re-priced, which keeps the event loop
    deterministic and monotone.  Context-switch costs add on top exactly
    as in the default model.

Determinism rules
-----------------
Model instances are pure functions of ``(scenario, cost_table, params)``:
no RNG, no wall clock, and charge tables are precomputed over the
scenario's model list in declaration order.  The same scenario + seed
therefore yields the same trace on every run and PYTHONHASHSEED.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.hardware.cost_table import CostTable
from repro.sim.decisions import Assignment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.executor import AcceleratorExecutor
    from repro.workloads.scenario import Scenario

#: Registered resource-model names; ``resource_model_names()`` is the
#: public accessor (mirrors ``scheduler_names()``).
RESOURCE_MODEL_NAMES = ("pe_fraction", "kv_batch")

#: Default ratio of the shared KV budget to the largest activation
#: footprint in the scenario when no explicit budget is configured: two
#: "largest" requests fit side by side, so batching is possible but the
#: budget still binds.
DEFAULT_KV_BUDGET_RATIO = 2.0

#: Default cap on concurrent slots per accelerator under ``kv_batch``.
DEFAULT_MAX_BATCH = 4

#: Default per-peer latency dilation of the batch formula.
DEFAULT_BATCH_ALPHA = 0.25


def resource_model_names() -> list[str]:
    """Names of every registered execution-resource model."""
    return list(RESOURCE_MODEL_NAMES)


def activation_footprint_bytes(model) -> int:
    """Largest live activation footprint of any layer of ``model``.

    The same expression as the cost table's
    :class:`~repro.hardware.cost_table.ModelCostSummary` footprint, usable
    without building a table (the scenario generator samples KV budgets
    before any platform is chosen).
    """
    return max(
        (layer.input_bytes + layer.output_bytes for layer in model.layers),
        default=0,
    )


def default_kv_budget_bytes(scenario: "Scenario") -> float:
    """The derived KV budget when the scenario does not pin one.

    ``DEFAULT_KV_BUDGET_RATIO`` times the largest activation footprint over
    every model the scenario may execute — deterministic in the scenario's
    declaration order and independent of the platform.
    """
    largest = max(
        (activation_footprint_bytes(graph) for graph in scenario.all_model_graphs()),
        default=0,
    )
    return DEFAULT_KV_BUDGET_RATIO * max(1, largest)


class ResourceModel:
    """Protocol for execution-resource models (see the module docstring).

    Subclasses must be deterministic pure functions of their constructor
    arguments; the executor consults them on admission and pricing but
    keeps all bookkeeping (running charge sums, busy horizons, slot maps)
    itself, so every event loop shares one accounting implementation.
    """

    #: Registry name; ``"pe_fraction"`` short-circuits to the executor's
    #: inlined historical arithmetic.
    name: str = "pe_fraction"

    def charge_fraction(self, assignment: Assignment) -> float:
        """Capacity fraction this assignment occupies while in flight."""
        return assignment.pe_fraction

    def admits(self, executor: "AcceleratorExecutor", assignment: Assignment) -> bool:
        """Whether ``executor`` can accept ``assignment`` right now."""
        return self.charge_fraction(assignment) <= executor.free_fraction + 1e-9

    def price_layers(
        self,
        executor: "AcceleratorExecutor",
        request,
        layer_indices: list[int],
        assignment: Assignment,
    ) -> tuple[float, float, float]:
        """(latency_ms, energy_mj, worst_case_energy_mj) of a layer range.

        Context-switch costs are **not** included; the executor prices and
        accounts those identically for every model.
        """
        raise NotImplementedError


class KvBatchModel(ResourceModel):
    """Continuous batching under a shared KV-cache memory budget.

    Args:
        cost_table: the platform's cost table (full-PE latency arrays).
        scenario: the workload; its model list fixes the charge table and
            (when ``scenario.kv_budget_bytes`` is unset) the derived budget.
        budget_bytes: explicit shared memory budget per accelerator;
            defaults to the scenario's ``kv_budget_bytes`` or, failing
            that, :func:`default_kv_budget_bytes`.
        max_batch: maximum concurrent slots per accelerator.
        alpha: per-peer latency dilation of the batch formula.
    """

    name = "kv_batch"

    def __init__(
        self,
        cost_table: CostTable,
        scenario: "Scenario",
        budget_bytes: Optional[float] = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        alpha: float = DEFAULT_BATCH_ALPHA,
    ) -> None:
        if budget_bytes is None:
            budget_bytes = scenario.kv_budget_bytes
        if budget_bytes is None:
            budget_bytes = default_kv_budget_bytes(scenario)
        if budget_bytes <= 0:
            raise ValueError(f"kv budget must be positive (got {budget_bytes})")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1 (got {max_batch})")
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0 (got {alpha})")
        self.cost_table = cost_table
        self.budget_bytes = float(budget_bytes)
        self.max_batch = max_batch
        self.alpha = alpha
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

    def admits(self, executor, assignment) -> bool:
        """Fits the memory budget AND the batch-size cap."""
        if len(executor.slots) >= self.max_batch:
            return False
        return self.charge_fraction(assignment) <= executor.free_fraction + 1e-9

    def price_layers(self, executor, request, layer_indices, assignment):
        """Batch-dilated full-PE latency of the layer range.

        ``B = len(slots) + 1`` is the batch size the accelerator will run
        at once this slot starts; the dilation is applied once, at
        dispatch time, and in-flight slots keep their priced end times.
        One code path serves both engine modes (``layer_arrays`` is shared
        by the fast table and its reference view), so fast/reference
        parity holds under ``kv_batch`` by construction.
        """
        arrays = executor.cost_table.layer_arrays(request.model_name)
        acc_id = executor.acc_id
        latency_arr = arrays.latency[acc_id]
        energy_arr = arrays.energy[acc_id]
        worst_arr = arrays.worst_energy
        duration = 0.0
        energy = 0.0
        worst = 0.0
        for layer_index in layer_indices:
            duration += latency_arr[layer_index]
            energy += energy_arr[layer_index]
            worst += worst_arr[layer_index]
        batch = len(executor.slots) + 1
        duration *= 1.0 + self.alpha * (batch - 1)
        return duration, energy, worst


def make_resource_model(
    name: str,
    cost_table: CostTable,
    scenario: "Scenario",
) -> Optional[ResourceModel]:
    """Build the shared resource-model instance for one engine.

    Returns ``None`` for ``pe_fraction`` — the executor's inlined default
    path — so the hot loop can test a single attribute instead of
    dispatching through the protocol.

    Raises:
        ValueError: for unknown names, listing the sorted registry.
    """
    if name == "pe_fraction":
        return None
    if name == "kv_batch":
        return KvBatchModel(cost_table, scenario)
    known = ", ".join(sorted(RESOURCE_MODEL_NAMES))
    raise ValueError(f"unknown resource model {name!r}; available: {known}")


__all__ = [
    "DEFAULT_BATCH_ALPHA",
    "DEFAULT_KV_BUDGET_RATIO",
    "DEFAULT_MAX_BATCH",
    "KvBatchModel",
    "RESOURCE_MODEL_NAMES",
    "ResourceModel",
    "activation_footprint_bytes",
    "default_kv_budget_bytes",
    "make_resource_model",
    "resource_model_names",
]
