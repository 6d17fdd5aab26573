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
  latency, total energy, worst-layer energy),
* lazily memoized per-``pe_fraction`` effective-latency arrays (spatial
  fission scales only the compute-bound component), and
* memoized context-switch latency/energy per (model, previous model,
  accelerator) triple, priced from each model's
  :func:`activation_footprint_bytes`, with one row of every model's
  switch energy per (previous model, accelerator) pair
  (:meth:`CostTable.switch_energy_row`, read by DREAM's MapScore scan), and
* lazily memoized remaining-work totals (ToGo, ``minimum_to_go``) per
  contiguous run of layers, keyed ``(model, first layer, length)``.

Every precomputed value is produced by the *same arithmetic expression* as
the scan it replaces, so optimized and reference simulations agree
bit-for-bit.  :meth:`CostTable.reference_view` returns a
:class:`ReferenceCostTable` that shares the underlying entries but answers
every aggregate with the original O(accelerators)-per-call scans — the
retained "pre-optimization" path of the reference engine.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable, Mapping, Sequence

from repro.hardware.cost_model import AnalyticalCostModel, LayerCost, LayerLike
from repro.hardware.platform import Platform


class ModelGraphLike:
    """Minimal structural interface of a model graph (see repro.models.graph)."""

    name: str
    layers: Sequence[LayerLike]


def activation_footprint_bytes(model: ModelGraphLike) -> int:
    """Largest live activation footprint of any layer of ``model``.

    Prices context switches (the bytes flushed and fetched) and the
    ``kv_batch`` memory charge.  It needs no table, because the scenario
    generator samples KV budgets before any platform is chosen.  Layer byte
    counts are integers, so the footprint is an exact integer byte count; a
    model with no layers has footprint 0.
    """
    return max(
        (layer.input_bytes + layer.output_bytes for layer in model.layers),
        default=0,
    )


class _ModelArrays:
    """Flat per-model cost arrays (internal; see the module docstring)."""

    __slots__ = (
        "latency",            # [acc_id][layer] -> latency_ms
        "energy",             # [acc_id][layer] -> energy_mj
        "compute",            # [acc_id][layer] -> compute_ms
        "memory",             # [acc_id][layer] -> memory_ms
        "overhead",           # [acc_id][layer] -> latency - max(compute, memory)
        "total_latency",      # [layer] -> sum across accelerators
        "average_latency",    # [layer] -> mean across accelerators
        "total_energy",       # [layer] -> sum across accelerators
        "best_latency",       # [layer] -> min across accelerators
        "worst_energy",       # [layer] -> max across accelerators
        "full_average_latency",  # sum(total_latency) / num_accelerators
        "acc_rows",             # [layer][acc_id] -> (latency_ms, energy_mj)
    )

    def __init__(self, rows: Sequence[Sequence[LayerCost]], num_accelerators: int) -> None:
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
        # Cross-accelerator aggregates, built with the exact expressions the
        # per-call scans used (left-to-right sum / min / max over the row).
        # Every float sum here and below is reduce(add, ..., 0.0): from
        # CPython 3.12 on, sum() compensates rounding, so its totals would
        # differ between interpreter versions.
        self.total_latency = tuple(reduce(add, [c.latency_ms for c in row], 0.0) for row in rows)
        self.average_latency = tuple(
            reduce(add, [c.latency_ms for c in row], 0.0) / len(row) for row in rows
        )
        self.total_energy = tuple(reduce(add, [c.energy_mj for c in row], 0.0) for row in rows)
        self.best_latency = tuple(min(c.latency_ms for c in row) for row in rows)
        self.worst_energy = tuple(max(c.energy_mj for c in row) for row in rows)
        self.full_average_latency = (
            reduce(add, self.total_latency, 0.0) / num_accelerators if num_accelerators else 0.0
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
        footprints: Mapping[str, int],
    ) -> None:
        self._platform = platform
        # entries[model_name][layer_index][acc_id] -> LayerCost
        self._entries = {name: tuple(tuple(row) for row in rows) for name, rows in entries.items()}
        # model_name -> activation_footprint_bytes (context-switch pricing)
        self._footprints = dict(footprints)
        num_acc = platform.num_accelerators
        self._arrays = {
            name: _ModelArrays(rows, num_acc) for name, rows in self._entries.items()
        }
        # (model, previous_model, acc_id) -> (latency_ms, energy_mj)
        self._switch_cache: dict[tuple[str, str, int], tuple[float, float]] = {}
        # (previous_model, acc_id) -> {model: context-switch energy}
        self._switch_rows: dict[tuple[str | None, int], dict[str, float]] = {}
        # (model, acc_id, pe_fraction) -> effective latency per layer
        self._effective_cache: dict[tuple[str, int, float], tuple[float, ...]] = {}
        # (model, first layer, length) -> total / best-case latency of that
        # contiguous run of layers (see _run_total)
        self._suffix_total: dict[tuple[str, int, int], float] = {}
        self._suffix_best: dict[tuple[str, int, int], float] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        platform: Platform,
        models: Iterable[ModelGraphLike],
    ) -> "CostTable":
        """Build the table for ``models`` on ``platform``.

        Args:
            platform: the multi-accelerator system.
            models: model graphs; each must have a unique ``name``.
        """
        cost_model = AnalyticalCostModel()
        entries: dict[str, list[list[LayerCost]]] = {}
        footprints: dict[str, int] = {}
        for model in models:
            if model.name in entries:
                raise ValueError(f"duplicate model name in cost table: {model.name!r}")
            entries[model.name] = [
                [cost_model.cost(layer, acc) for acc in platform] for layer in model.layers
            ]
            footprints[model.name] = activation_footprint_bytes(model)
        return cls(platform, entries, footprints)

    def reference_view(self) -> "ReferenceCostTable":
        """A view answering every aggregate with the original per-call scans.

        The view shares this table's entries and footprints (values are
        bit-for-bit identical either way); only the *cost* of answering a
        query differs.  The reference simulation path uses it, so its
        timings are those of the pre-optimization scans.
        """
        view = ReferenceCostTable.__new__(ReferenceCostTable)
        view._platform = self._platform
        view._entries = self._entries
        view._footprints = self._footprints
        view._arrays = self._arrays
        view._switch_cache = {}
        view._switch_rows = {}
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

    # ------------------------------------------------------------------ #
    # flat-array accessors (the optimized executor's hot path)
    # ------------------------------------------------------------------ #
    def layer_arrays(self, model_name: str) -> _ModelArrays:
        """The precomputed flat cost arrays of one model."""
        return self._arrays[model_name]

    def effective_latency_table(
        self, model_name: str, acc_id: int, pe_fraction: float
    ) -> tuple[float, ...]:
        """Per-layer effective latency under spatial fission.

        ``eff[layer] = max(compute / pe_fraction, memory) + overhead`` — the
        exact expression of
        :meth:`repro.sim.executor.AcceleratorExecutor.effective_layer_latency_ms`
        — memoized per (model, accelerator, fraction).  Schedulers only use
        a handful of fractions (1.0 and the fission halves), so the cache
        stays tiny.
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
        self._effective_cache[key] = eff
        return eff

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

    def remaining_average_latency(
        self, model_name: str, layer_indices: Sequence[int]
    ) -> float:
        """ToGo(tsk): average-across-accelerators latency of remaining layers.

        Implements Algorithm 1, line 2: for each remaining layer sum the
        per-accelerator latencies, then divide by the accelerator count.
        """
        if not layer_indices:
            return 0.0
        total = self._run_total(
            self._suffix_total, self._arrays[model_name].total_latency, model_name, layer_indices
        )
        return total / self._platform.num_accelerators

    def remaining_best_latency(
        self, model_name: str, layer_indices: Sequence[int]
    ) -> float:
        """minimum_to_go: remaining time if every layer ran on its best accelerator.

        Used by the smart frame drop engine (Section 4.2.1, Condition 1).
        """
        return self._run_total(
            self._suffix_best, self._arrays[model_name].best_latency, model_name, layer_indices
        )

    @staticmethod
    def _run_total(
        memo: dict[tuple[str, int, int], float],
        per_layer: Sequence[float],
        model_name: str,
        layer_indices: Sequence[int],
    ) -> float:
        """Left-to-right total of ``per_layer`` over ``layer_indices``.

        Layer indices ascend, as every execution path's do, so a run whose
        last index is its first plus its length minus one is contiguous.
        Every tail of a static or early-exit path is, and its total is
        memoized under ``(model, first layer, length)``: at most L(L+1)/2
        entries for an L-layer model, however many requests run it.  A
        LayerSkipping tail with a skipped block inside it is summed per
        call and not stored, because that key does not determine its
        layers.
        """
        if not layer_indices:
            return 0.0
        first = layer_indices[0]
        length = len(layer_indices)
        contiguous = layer_indices[-1] - first + 1 == length
        if contiguous:
            key = (model_name, first, length)
            total = memo.get(key)
            if total is not None:
                return total
        total = reduce(add, map(per_layer.__getitem__, layer_indices), 0.0)
        if contiguous:
            memo[key] = total
        return total

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

    def switch_energy_row(self, previous_model: str | None, acc_id: int) -> dict[str, float]:
        """``{model: context_switch_energy(model, previous_model, acc_id)}``.

        One entry per model of the table, memoized per ``(previous_model,
        acc_id)``: a MapScore scan reads one switch energy per scored
        request, and the row turns each into a dict lookup.
        """
        key = (previous_model, acc_id)
        row = self._switch_rows.get(key)
        if row is None:
            row = {
                model: self.context_switch_energy(model, previous_model, acc_id)
                for model in self._entries
            }
            self._switch_rows[key] = row
        return row

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
        flush = min(self._footprints[previous_model], acc.sram_bytes)
        fetch = min(self._footprints[new_model], acc.sram_bytes)
        cost = acc.context_switch_cost(flush, fetch)
        value = (cost.latency_ms, cost.energy_mj)
        self._switch_cache[key] = value
        return value


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
        return reduce(add, [c.latency_ms for c in row], 0.0) / len(row)

    def total_latency(self, model_name: str, layer_index: int) -> float:
        row = self._entries[model_name][layer_index]
        return reduce(add, [c.latency_ms for c in row], 0.0)

    def total_energy(self, model_name: str, layer_index: int) -> float:
        row = self._entries[model_name][layer_index]
        return reduce(add, [c.energy_mj for c in row], 0.0)

    def worst_layer_energy(self, model_name: str, layer_index: int) -> float:
        row = self._entries[model_name][layer_index]
        return max(c.energy_mj for c in row)

    def best_latency(self, model_name: str, layer_index: int) -> float:
        row = self._entries[model_name][layer_index]
        return min(c.latency_ms for c in row)

    def remaining_average_latency(
        self, model_name: str, layer_indices: Sequence[int]
    ) -> float:
        if not layer_indices:
            return 0.0
        total = reduce(
            add, [self.total_latency(model_name, idx) for idx in layer_indices], 0.0
        )
        return total / self.num_accelerators

    def remaining_best_latency(
        self, model_name: str, layer_indices: Sequence[int]
    ) -> float:
        return reduce(
            add, [self.best_latency(model_name, idx) for idx in layer_indices], 0.0
        )

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
        flush = min(self._footprints[previous_model], acc.sram_bytes)
        fetch = min(self._footprints[new_model], acc.sram_bytes)
        return acc.context_switch_cost(flush, fetch).energy_mj

    def context_switch_latency(
        self, new_model: str, previous_model: str | None, acc_id: int
    ) -> float:
        if previous_model is None or previous_model == new_model:
            return 0.0
        acc = self._platform[acc_id]
        flush = min(self._footprints[previous_model], acc.sram_bytes)
        fetch = min(self._footprints[new_model], acc.sram_bytes)
        return acc.context_switch_cost(flush, fetch).latency_ms
