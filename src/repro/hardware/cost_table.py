"""Offline latency / energy tables consumed by every scheduler.

The paper's schedulers receive "latency and energy information for each
layer for each accelerator in the system generated offline using a cost
model or a simulator" (Figure 4).  :class:`CostTable` is that artefact: an
immutable lookup table keyed by (model name, layer index, accelerator id),
built once per (platform, set of models) pair and shared by all schedulers
and the simulator, so every policy sees exactly the same cost estimates.

Performance architecture
------------------------
Scheduler hot loops query the same per-layer aggregates (sum / mean / min
across accelerators) thousands of times per simulated second, so the table
precomputes them once at build time into flat per-model arrays:

* per-(model, accelerator) arrays of ``latency_ms`` / ``energy_mj`` /
  ``compute_ms`` / ``memory_ms`` / launch overhead,
* per-(model, layer) cross-accelerator aggregates (total / average / best
  latency, total energy, worst-layer energy, best accelerator id),
* left-to-right prefix sums of each array, so any cost of layers
  ``[0, k)`` is a single O(1) lookup that is *bit-for-bit identical* to
  the sequential accumulation it replaces (prefix differences with a
  non-zero start are only ulp-accurate and are not used on the parity
  path),
* lazily memoized per-``pe_fraction`` effective-latency arrays (spatial
  fission scales only the compute-bound component), and
* memoized context-switch latency/energy per (model, previous model,
  accelerator) triple.

Every precomputed value is produced by the *same arithmetic expression* as
the scan it replaces, so optimized and reference simulations agree
bit-for-bit.  :meth:`CostTable.reference_view` returns a
:class:`ReferenceCostTable` that shares the underlying entries but answers
every aggregate with the original O(accelerators)-per-call scans — the
retained "pre-optimization" path of the reference engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.hardware.cost_model import AnalyticalCostModel, LayerCost, LayerLike
from repro.hardware.platform import Platform


class ModelGraphLike:
    """Minimal structural interface of a model graph (see repro.models.graph)."""

    name: str
    layers: Sequence[LayerLike]


@dataclass(frozen=True)
class ModelCostSummary:
    """Aggregate costs of one model on one platform.

    Attributes:
        total_macs: total multiply-accumulates of the model.
        best_case_latency_ms: sum over layers of the best per-layer latency.
        worst_case_latency_ms: sum over layers of the worst per-layer latency.
        average_latency_ms: sum over layers of the mean per-layer latency.
        best_case_energy_mj: sum over layers of the lowest per-layer energy.
        worst_case_energy_mj: sum over layers of the highest per-layer energy.
        activation_footprint_bytes: largest live activation footprint of any
            layer (used to price context switches).  Layer byte counts are
            integers, so the footprint is an exact integer byte count.
    """

    total_macs: int
    best_case_latency_ms: float
    worst_case_latency_ms: float
    average_latency_ms: float
    best_case_energy_mj: float
    worst_case_energy_mj: float
    activation_footprint_bytes: int


def _prefix_sums(values: Sequence[float]) -> tuple[float, ...]:
    """Left-to-right running sums: result[k] = sum(values[:k]) sequentially."""
    sums = [0.0]
    acc = 0.0
    for value in values:
        acc += value
        sums.append(acc)
    return tuple(sums)


class _ModelArrays:
    """Flat per-model cost arrays (internal; see the module docstring)."""

    __slots__ = (
        "num_layers",
        "latency",            # [acc_id][layer] -> latency_ms
        "energy",             # [acc_id][layer] -> energy_mj
        "compute",            # [acc_id][layer] -> compute_ms
        "memory",             # [acc_id][layer] -> memory_ms
        "overhead",           # [acc_id][layer] -> latency - max(compute, memory)
        "latency_prefix",     # [acc_id][k] -> sum of latency[:k]
        "energy_prefix",      # [acc_id][k] -> sum of energy[:k]
        "total_latency",      # [layer] -> sum across accelerators
        "average_latency",    # [layer] -> mean across accelerators
        "total_energy",       # [layer] -> sum across accelerators
        "best_latency",       # [layer] -> min across accelerators
        "worst_energy",       # [layer] -> max across accelerators
        "best_acc",           # [layer] -> fastest accelerator id
        "worst_energy_prefix",  # [k] -> sum of worst_energy[:k]
        "full_average_latency",  # sum(total_latency) / num_accelerators
        "acc_rows",             # [layer][acc_id] -> (latency_ms, energy_mj)
    )

    def __init__(self, rows: Sequence[Sequence[LayerCost]], num_accelerators: int) -> None:
        self.num_layers = len(rows)
        self.latency = tuple(
            tuple(row[acc].latency_ms for row in rows) for acc in range(num_accelerators)
        )
        self.energy = tuple(
            tuple(row[acc].energy_mj for row in rows) for acc in range(num_accelerators)
        )
        self.compute = tuple(
            tuple(row[acc].compute_ms for row in rows) for acc in range(num_accelerators)
        )
        self.memory = tuple(
            tuple(row[acc].memory_ms for row in rows) for acc in range(num_accelerators)
        )
        # Launch overhead: same expression as the executor's historical
        # ``latency - max(compute, memory)`` so fission pricing is identical.
        self.overhead = tuple(
            tuple(
                lat - max(comp, mem)
                for lat, comp, mem in zip(self.latency[acc], self.compute[acc], self.memory[acc])
            )
            for acc in range(num_accelerators)
        )
        self.latency_prefix = tuple(_prefix_sums(self.latency[acc]) for acc in range(num_accelerators))
        self.energy_prefix = tuple(_prefix_sums(self.energy[acc]) for acc in range(num_accelerators))
        # Cross-accelerator aggregates, built with the exact expressions the
        # per-call scans used (generator sum / min / max over the row).
        self.total_latency = tuple(sum(c.latency_ms for c in row) for row in rows)
        self.average_latency = tuple(
            sum(c.latency_ms for c in row) / len(row) for row in rows
        )
        self.total_energy = tuple(sum(c.energy_mj for c in row) for row in rows)
        self.best_latency = tuple(min(c.latency_ms for c in row) for row in rows)
        self.worst_energy = tuple(max(c.energy_mj for c in row) for row in rows)
        self.best_acc = tuple(
            min(range(len(row)), key=lambda acc_id: row[acc_id].latency_ms) for row in rows
        )
        self.worst_energy_prefix = _prefix_sums(self.worst_energy)
        self.full_average_latency = (
            sum(self.total_latency) / num_accelerators if num_accelerators else 0.0
        )
        self.acc_rows = tuple(
            tuple((cost.latency_ms, cost.energy_mj) for cost in row) for row in rows
        )


class CostTable:
    """Per-(model, layer, accelerator) latency and energy estimates.

    Use :meth:`build` to construct a table from a platform and a collection
    of model graphs.  Lookups raise ``KeyError`` for unknown models and
    ``IndexError`` for out-of-range layer indices, so scheduler bugs surface
    immediately instead of silently producing bogus scores.
    """

    def __init__(
        self,
        platform: Platform,
        entries: Mapping[str, Sequence[Sequence[LayerCost]]],
        summaries: Mapping[str, ModelCostSummary],
    ) -> None:
        self._platform = platform
        # entries[model_name][layer_index][acc_id] -> LayerCost
        self._entries = {name: tuple(tuple(row) for row in rows) for name, rows in entries.items()}
        self._summaries = dict(summaries)
        num_acc = platform.num_accelerators
        self._arrays = {
            name: _ModelArrays(rows, num_acc) for name, rows in self._entries.items()
        }
        # (model, previous_model, acc_id) -> (latency_ms, energy_mj)
        self._switch_cache: dict[tuple[str, str, int], tuple[float, float]] = {}
        # (model, acc_id, pe_fraction) -> (eff_latency array, its prefix sums)
        self._effective_cache: dict[
            tuple[str, int, float], tuple[tuple[float, ...], tuple[float, ...]]
        ] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        platform: Platform,
        models: Iterable[ModelGraphLike],
        cost_model: AnalyticalCostModel | None = None,
    ) -> "CostTable":
        """Build the table for ``models`` on ``platform``.

        Args:
            platform: the multi-accelerator system.
            models: model graphs; each must have a unique ``name``.
            cost_model: the analytical cost model (a default instance is
                created when omitted).
        """
        cost_model = cost_model or AnalyticalCostModel()
        entries: dict[str, list[list[LayerCost]]] = {}
        summaries: dict[str, ModelCostSummary] = {}
        for model in models:
            if model.name in entries:
                raise ValueError(f"duplicate model name in cost table: {model.name!r}")
            rows: list[list[LayerCost]] = []
            for layer in model.layers:
                rows.append([cost_model.cost(layer, acc) for acc in platform])
            entries[model.name] = rows
            summaries[model.name] = cls._summarize(model, rows)
        return cls(platform, entries, summaries)

    @staticmethod
    def _summarize(
        model: ModelGraphLike, rows: Sequence[Sequence[LayerCost]]
    ) -> ModelCostSummary:
        best_lat = sum(min(c.latency_ms for c in row) for row in rows) if rows else 0.0
        worst_lat = sum(max(c.latency_ms for c in row) for row in rows) if rows else 0.0
        avg_lat = (
            sum(sum(c.latency_ms for c in row) / len(row) for row in rows) if rows else 0.0
        )
        best_energy = sum(min(c.energy_mj for c in row) for row in rows) if rows else 0.0
        worst_energy = sum(max(c.energy_mj for c in row) for row in rows) if rows else 0.0
        footprint = max(
            (layer.input_bytes + layer.output_bytes for layer in model.layers),
            default=0,
        )
        return ModelCostSummary(
            total_macs=sum(layer.macs for layer in model.layers),
            best_case_latency_ms=best_lat,
            worst_case_latency_ms=worst_lat,
            average_latency_ms=avg_lat,
            best_case_energy_mj=best_energy,
            worst_case_energy_mj=worst_energy,
            activation_footprint_bytes=footprint,
        )

    def reference_view(self) -> "ReferenceCostTable":
        """A view answering every aggregate with the original per-call scans.

        The view shares this table's entries and summaries (values are
        bit-for-bit identical either way); only the *cost* of answering a
        query differs.  The reference simulation path uses it, so its
        timings are those of the pre-optimization scans.
        """
        view = ReferenceCostTable.__new__(ReferenceCostTable)
        view._platform = self._platform
        view._entries = self._entries
        view._summaries = self._summaries
        view._arrays = self._arrays
        view._switch_cache = {}
        view._effective_cache = {}
        return view

    # ------------------------------------------------------------------ #
    # basic lookups
    # ------------------------------------------------------------------ #
    @property
    def platform(self) -> Platform:
        """The platform this table was built for."""
        return self._platform

    @property
    def num_accelerators(self) -> int:
        """Number of accelerators in the platform."""
        return self._platform.num_accelerators

    @property
    def model_names(self) -> list[str]:
        """Names of all models present in the table."""
        return sorted(self._entries)

    def __contains__(self, model_name: str) -> bool:
        return model_name in self._entries

    def num_layers(self, model_name: str) -> int:
        """Number of layers recorded for ``model_name``."""
        return len(self._entries[model_name])

    def layer_cost(self, model_name: str, layer_index: int, acc_id: int) -> LayerCost:
        """Full :class:`LayerCost` record for one (layer, accelerator) pair."""
        return self._entries[model_name][layer_index][acc_id]

    def latency(self, model_name: str, layer_index: int, acc_id: int) -> float:
        """EstLatency(layer, acc) in milliseconds (Algorithm 1 input)."""
        return self._arrays[model_name].latency[acc_id][layer_index]

    def energy(self, model_name: str, layer_index: int, acc_id: int) -> float:
        """EstEnergy(layer, acc) in millijoules (Algorithm 1 input)."""
        return self._arrays[model_name].energy[acc_id][layer_index]

    def summary(self, model_name: str) -> ModelCostSummary:
        """Aggregate cost summary for ``model_name``."""
        return self._summaries[model_name]

    # ------------------------------------------------------------------ #
    # flat-array accessors (the optimized executor's hot path)
    # ------------------------------------------------------------------ #
    def layer_arrays(self, model_name: str) -> _ModelArrays:
        """The precomputed flat cost arrays of one model."""
        return self._arrays[model_name]

    def effective_latency_table(
        self, model_name: str, acc_id: int, pe_fraction: float
    ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Per-layer effective latency under spatial fission, with prefix sums.

        ``eff[layer] = max(compute / pe_fraction, memory) + overhead`` — the
        exact expression of
        :meth:`repro.sim.executor.AcceleratorExecutor.effective_layer_latency_ms`
        — memoized per (model, accelerator, fraction).  Schedulers only use
        a handful of fractions (1.0 and the fission halves), so the cache
        stays tiny.  The second element holds left-to-right prefix sums, so
        the latency of layers ``[0, k)`` is ``prefix[k]`` with bit-for-bit
        the same value as sequentially accumulating from 0.0.
        """
        key = (model_name, acc_id, pe_fraction)
        cached = self._effective_cache.get(key)
        if cached is not None:
            return cached
        arrays = self._arrays[model_name]
        eff = tuple(
            max(comp / pe_fraction, mem) + over
            for comp, mem, over in zip(
                arrays.compute[acc_id], arrays.memory[acc_id], arrays.overhead[acc_id]
            )
        )
        value = (eff, _prefix_sums(eff))
        self._effective_cache[key] = value
        return value

    def full_average_latency(self, model_name: str) -> float:
        """Average-across-accelerators latency of the *whole* model.

        Equal (bit-for-bit) to ``remaining_average_latency(model,
        range(num_layers))`` but O(1); used by the Supernet switching policy
        which repeatedly prices entire candidate variants.
        """
        return self._arrays[model_name].full_average_latency

    # ------------------------------------------------------------------ #
    # aggregates used by scheduling policies
    # ------------------------------------------------------------------ #
    def average_latency(self, model_name: str, layer_index: int) -> float:
        """Mean latency of the layer across all accelerators."""
        return self._arrays[model_name].average_latency[layer_index]

    def total_latency(self, model_name: str, layer_index: int) -> float:
        """Sum of the layer's latency over all accelerators."""
        return self._arrays[model_name].total_latency[layer_index]

    def total_energy(self, model_name: str, layer_index: int) -> float:
        """Sum of the layer's energy over all accelerators."""
        return self._arrays[model_name].total_energy[layer_index]

    def worst_layer_energy(self, model_name: str, layer_index: int) -> float:
        """Energy on the most energy-hungry accelerator for the layer.

        Used to accumulate the per-model worst-case energy that normalizes
        UXCost (Algorithm 2, line 5).
        """
        return self._arrays[model_name].worst_energy[layer_index]

    def best_latency(self, model_name: str, layer_index: int) -> float:
        """Latency on the best (fastest) accelerator for the layer."""
        return self._arrays[model_name].best_latency[layer_index]

    def best_accelerator(self, model_name: str, layer_index: int) -> int:
        """Id of the fastest accelerator for the layer."""
        return self._arrays[model_name].best_acc[layer_index]

    def remaining_average_latency(
        self, model_name: str, layer_indices: Sequence[int]
    ) -> float:
        """ToGo(tsk): average-across-accelerators latency of remaining layers.

        Implements Algorithm 1, line 2: for each remaining layer sum the
        per-accelerator latencies, then divide by the accelerator count.
        """
        if not layer_indices:
            return 0.0
        totals = self._arrays[model_name].total_latency
        return sum(map(totals.__getitem__, layer_indices)) / self._platform.num_accelerators

    def remaining_best_latency(
        self, model_name: str, layer_indices: Sequence[int]
    ) -> float:
        """minimum_to_go: remaining time if every layer ran on its best accelerator.

        Used by the smart frame drop engine (Section 4.2.1, Condition 1).
        """
        best = self._arrays[model_name].best_latency
        return sum(map(best.__getitem__, layer_indices))

    def context_switch_energy(
        self, new_model: str, previous_model: str | None, acc_id: int
    ) -> float:
        """CswitchEnergy(tsk, prevTask, acc) in millijoules (Algorithm 1, line 10).

        The cost of flushing the previous model's live activations to DRAM
        and fetching the new model's activations.  Switching to the model
        already resident on the accelerator is free.  Only on-chip state can
        be flushed or prefetched, so the moved bytes are capped at the
        accelerator's SRAM share (activations that never fit on-chip stream
        from DRAM during normal execution and are already charged there).
        """
        if previous_model is None or previous_model == new_model:
            return 0.0
        return self._switch_cost(new_model, previous_model, acc_id)[1]

    def context_switch_latency(
        self, new_model: str, previous_model: str | None, acc_id: int
    ) -> float:
        """Latency overhead (ms) of a context switch on ``acc_id``.

        The moved bytes are capped at the accelerator's SRAM share, matching
        :meth:`context_switch_energy`.
        """
        if previous_model is None or previous_model == new_model:
            return 0.0
        return self._switch_cost(new_model, previous_model, acc_id)[0]

    def _switch_cost(
        self, new_model: str, previous_model: str, acc_id: int
    ) -> tuple[float, float]:
        """Memoized (latency_ms, energy_mj) of one model-switch triple."""
        key = (new_model, previous_model, acc_id)
        cached = self._switch_cache.get(key)
        if cached is not None:
            return cached
        acc = self._platform[acc_id]
        flush = min(self._summaries[previous_model].activation_footprint_bytes, acc.sram_bytes)
        fetch = min(self._summaries[new_model].activation_footprint_bytes, acc.sram_bytes)
        cost = acc.context_switch_cost(flush, fetch)
        value = (cost.latency_ms, cost.energy_mj)
        self._switch_cache[key] = value
        return value

    def worst_case_energy(self, model_name: str) -> float:
        """Worst-case energy of the model (UXCost normalization denominator)."""
        return self._summaries[model_name].worst_case_energy_mj


class ReferenceCostTable(CostTable):
    """The pre-optimization cost table: every aggregate is a per-call scan.

    Values are bit-for-bit identical to :class:`CostTable`'s (the flat
    arrays are built from these very expressions); only the work per query
    differs.  Obtained via :meth:`CostTable.reference_view`; the reference
    simulation mode hands it to schedulers and executors so benchmark
    comparisons measure the historical cost profile.
    """

    def latency(self, model_name: str, layer_index: int, acc_id: int) -> float:
        return self.layer_cost(model_name, layer_index, acc_id).latency_ms

    def energy(self, model_name: str, layer_index: int, acc_id: int) -> float:
        return self.layer_cost(model_name, layer_index, acc_id).energy_mj

    def average_latency(self, model_name: str, layer_index: int) -> float:
        row = self._entries[model_name][layer_index]
        return sum(c.latency_ms for c in row) / len(row)

    def total_latency(self, model_name: str, layer_index: int) -> float:
        row = self._entries[model_name][layer_index]
        return sum(c.latency_ms for c in row)

    def total_energy(self, model_name: str, layer_index: int) -> float:
        row = self._entries[model_name][layer_index]
        return sum(c.energy_mj for c in row)

    def worst_layer_energy(self, model_name: str, layer_index: int) -> float:
        row = self._entries[model_name][layer_index]
        return max(c.energy_mj for c in row)

    def best_latency(self, model_name: str, layer_index: int) -> float:
        row = self._entries[model_name][layer_index]
        return min(c.latency_ms for c in row)

    def best_accelerator(self, model_name: str, layer_index: int) -> int:
        row = self._entries[model_name][layer_index]
        return min(range(len(row)), key=lambda acc_id: row[acc_id].latency_ms)

    def remaining_average_latency(
        self, model_name: str, layer_indices: Sequence[int]
    ) -> float:
        if not layer_indices:
            return 0.0
        total = sum(self.total_latency(model_name, idx) for idx in layer_indices)
        return total / self.num_accelerators

    def remaining_best_latency(
        self, model_name: str, layer_indices: Sequence[int]
    ) -> float:
        return sum(self.best_latency(model_name, idx) for idx in layer_indices)

    def full_average_latency(self, model_name: str) -> float:
        return self.remaining_average_latency(
            model_name, list(range(self.num_layers(model_name)))
        )

    def context_switch_energy(
        self, new_model: str, previous_model: str | None, acc_id: int
    ) -> float:
        if previous_model is None or previous_model == new_model:
            return 0.0
        acc = self._platform[acc_id]
        flush = min(self._summaries[previous_model].activation_footprint_bytes, acc.sram_bytes)
        fetch = min(self._summaries[new_model].activation_footprint_bytes, acc.sram_bytes)
        return acc.context_switch_cost(flush, fetch).energy_mj

    def context_switch_latency(
        self, new_model: str, previous_model: str | None, acc_id: int
    ) -> float:
        if previous_model is None or previous_model == new_model:
            return 0.0
        acc = self._platform[acc_id]
        flush = min(self._summaries[previous_model].activation_footprint_bytes, acc.sram_bytes)
        fetch = min(self._summaries[new_model].activation_footprint_bytes, acc.sram_bytes)
        return acc.context_switch_cost(flush, fetch).latency_ms
