"""Accelerator execution state: slots, context switches, energy accounting.

Each sub-accelerator is wrapped in an :class:`AcceleratorExecutor` that
tracks what is running on it, prices context switches between models, and
supports Planaria-style spatial fission by letting multiple assignments
share the PE array (each with a ``pe_fraction``), with latency re-derived
from the cost model's compute/memory breakdown.

Performance architecture
------------------------
In fast mode (the default) the executor answers capacity queries from a
running sum instead of re-aggregating its slots on every call: the
allocated PE fraction is updated on ``start``/``complete`` (reset to
exactly 0.0 whenever the accelerator drains, so binary PE fractions never
accumulate error).  ``start()`` prices every layer range — one layer, a
whole path or a mid-path block, under either resource model — with one
left-to-right loop over three rows of the cost table: the memoized
per-``pe_fraction`` effective latencies (the full-PE latencies under
``kv_batch``), the energies and the worst-case energies.  Schedulers read
the executor live through its :class:`~repro.sim.decisions.AcceleratorView`,
so nothing is cached for them.  The engine's dispatch-elision layer rests
on one property: an executor's free fraction moves only through
``start``/``complete`` and fault transitions (never through the mere
passage of time), so capacity-based wake-hint predicates evaluated
against live executors are always exact.

``fast=False`` retains the historical implementation — per-call slot
scans and a per-layer Python pricing loop — for the reference simulation
mode, the executable spec the fast engine is compared against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.hardware.accelerator import Accelerator
from repro.hardware.cost_table import CostTable
from repro.sim.decisions import Assignment
from repro.sim.request import InferenceRequest
from repro.sim.resource_models import KvBatchModel

_SLOT_COUNTER = itertools.count()


@dataclass(slots=True)
class RunningSlot:
    """One in-flight assignment on an accelerator."""

    slot_id: int
    request: InferenceRequest
    layer_indices: list[int]
    pe_fraction: float
    start_ms: float
    end_ms: float
    energy_mj: float


@dataclass(slots=True)
class ExecutionRecord:
    """What the executor did for one accepted assignment (for tracing)."""

    slot: RunningSlot
    context_switch: bool


class AcceleratorExecutor:
    """Execution state of one sub-accelerator.

    Args:
        accelerator: the hardware description.
        cost_table: offline latency/energy table for all models in play.
        fast: use the running allocation sum and flat-array pricing
            (results are bit-for-bit identical either way; ``False`` keeps
            the historical per-call scans for the reference path).
        resource_model: ``None`` for the default ``pe_fraction`` model,
            or the engine's shared
            :class:`~repro.sim.resource_models.KvBatchModel`, which decides
            admission, the charged fraction and the batch dilation.  All
            bookkeeping (the allocated fraction over *charged* fractions,
            drain resets) is model-independent and lives here once.
    """

    def __init__(
        self,
        accelerator: Accelerator,
        cost_table: CostTable,
        fast: bool = True,
        resource_model: Optional[KvBatchModel] = None,
    ) -> None:
        self.accelerator = accelerator
        self.cost_table = cost_table
        self.fast = fast
        self.resource_model = resource_model
        self.slots: dict[int, RunningSlot] = {}
        self.resident_model: Optional[str] = None
        self.total_energy_mj: float = 0.0
        self.total_busy_pe_ms: float = 0.0
        self.layers_executed: int = 0
        self.context_switches: int = 0
        self._allocated: float = 0.0
        #: Usable capacity fraction (1.0 = healthy).  Only fault injection
        #: moves it (accel_degrade / platform_outage windows); every
        #: fault-free run keeps the constant 1.0, so the historical
        #: arithmetic is reproduced bit-for-bit.
        self._capacity: float = 1.0
        #: Latency inflation factor (1.0 = healthy; transient_stall > 1).
        self._latency_factor: float = 1.0

    # ------------------------------------------------------------------ #
    # capacity queries
    # ------------------------------------------------------------------ #
    @property
    def acc_id(self) -> int:
        """The accelerator's id within the platform."""
        return self.accelerator.acc_id

    @property
    def free_fraction(self) -> float:
        """Unallocated *usable* PE fraction (1.0 = idle and healthy).

        Degraded capacity subtracts from the headroom new admissions see;
        in-flight slots keep running, so the clamp at 0.0 absorbs windows
        where allocations exceed the freshly degraded capacity.  Fast mode
        reads the running allocation sum; the reference path sums the
        slots' PE fractions on every call.
        """
        if self.fast:
            free = self._capacity - self._allocated
            return free if free > 0.0 else 0.0
        return max(0.0, self._capacity - sum(slot.pe_fraction for slot in self.slots.values()))

    def can_accept_assignment(self, assignment: Assignment) -> bool:
        """Whether ``assignment`` fits right now.

        The default model checks the requested ``pe_fraction`` against the
        free fraction; ``kv_batch`` also caps the batch size and charges
        the model's memory share (:meth:`KvBatchModel.admits`).
        """
        if self.resource_model is None:
            return assignment.pe_fraction <= self.free_fraction + 1e-9
        return self.resource_model.admits(self, assignment)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def effective_layer_latency_ms(
        self, model_name: str, layer_index: int, pe_fraction: float
    ) -> float:
        """Latency of one layer when only ``pe_fraction`` of the PEs are used.

        The compute-bound component scales inversely with the PE fraction;
        the memory-bound component and the launch overhead do not (spatial
        fission does not add bandwidth).
        """
        cost = self.cost_table.layer_cost(model_name, layer_index, self.acc_id)
        overhead = cost.latency_ms - max(cost.compute_ms, cost.memory_ms)
        scaled_compute = cost.compute_ms / pe_fraction
        return max(scaled_compute, cost.memory_ms) + overhead

    def _price_layers(
        self,
        request: InferenceRequest,
        layer_indices: list[int],
        pe_fraction: float,
        duration: float,
        energy: float,
    ) -> tuple[float, float, float]:
        """(latency_ms, energy_mj, worst_case_energy_mj) of a layer range.

        Layer costs accumulate onto ``duration`` and ``energy``, left to
        right; the worst-case energy starts at 0.0.  The default model
        prices each layer at ``pe_fraction``; ``kv_batch`` prices it at
        full PE (the batch dilation is applied by :meth:`start`).  Fast
        path: one loop over the cost table's flat rows.  The reference path
        keeps the historical per-layer method calls.
        """
        model_name = request.model_name
        acc_id = self.acc_id
        table = self.cost_table
        full_pe = self.resource_model is not None
        worst = 0.0
        if not self.fast:
            for layer_index in layer_indices:
                if full_pe:
                    duration += table.latency(model_name, layer_index, acc_id)
                else:
                    duration += self.effective_layer_latency_ms(
                        model_name, layer_index, pe_fraction
                    )
                energy += table.energy(model_name, layer_index, acc_id)
                worst += table.worst_layer_energy(model_name, layer_index)
            return duration, energy, worst

        arrays = table.layer_arrays(model_name)
        if full_pe:
            latency_row = arrays.latency[acc_id]
        else:
            latency_row = table.effective_latency_table(model_name, acc_id, pe_fraction)
        energy_row = arrays.energy[acc_id]
        worst_row = arrays.worst_energy
        for layer_index in layer_indices:
            duration += latency_row[layer_index]
            energy += energy_row[layer_index]
            worst += worst_row[layer_index]
        return duration, energy, worst

    def start(self, assignment: Assignment, now: float) -> ExecutionRecord:
        """Begin executing an assignment; returns the created slot record.

        The resource model decides admission and the charged capacity
        fraction.  The default model charges the requested ``pe_fraction``
        and accumulates the layer costs onto the context switch costs.
        ``kv_batch`` charges its memory share, sums the full-PE layer costs
        from 0.0, scales the latency by the dilation at a batch size of
        ``len(slots) + 1`` (pricing runs before the slot is inserted) and
        then adds the switch costs.  The slot's
        ``pe_fraction`` holds the *charged* fraction, which the allocated
        sum, the views and the wake-hint predicates read, so they need no
        model-specific branches.

        Raises:
            ValueError: if the assignment is not admissible right now or
                the request has no remaining layers.
        """
        request = assignment.request
        model = self.resource_model
        if model is None:
            charge = assignment.pe_fraction
            admitted = charge <= self.free_fraction + 1e-9
        else:
            charge = model.charge_fraction(assignment)
            admitted = model.admits(self, assignment)
        if not admitted:
            raise ValueError(
                f"accelerator {self.acc_id} cannot accept request "
                f"{request.request_id} (charge={charge:g}, "
                f"free={self.free_fraction:.3f}, slots={len(self.slots)})"
            )
        layer_indices = request.next_layers(assignment.layer_count)
        if not layer_indices:
            raise ValueError(
                f"request {request.request_id} has no remaining layers to schedule"
            )

        switch = (
            self.resident_model is not None
            and self.resident_model != request.model_name
        )
        switch_latency = 0.0
        switch_energy = 0.0
        if switch:
            switch_latency = self.cost_table.context_switch_latency(
                request.model_name, self.resident_model, self.acc_id
            )
            switch_energy = self.cost_table.context_switch_energy(
                request.model_name, self.resident_model, self.acc_id
            )
            self.context_switches += 1

        if model is None:
            duration, energy, worst_energy = self._price_layers(
                request, layer_indices, charge, switch_latency, switch_energy
            )
        else:
            duration, energy, worst_energy = self._price_layers(
                request, layer_indices, 1.0, 0.0, 0.0
            )
            duration = duration * model.dilation(len(self.slots) + 1) + switch_latency
            energy += switch_energy
        if self._latency_factor != 1.0:
            # transient_stall window: work runs slower but burns the same
            # energy (throttling, not extra computation).
            duration *= self._latency_factor

        slot = RunningSlot(
            slot_id=next(_SLOT_COUNTER),
            request=request,
            layer_indices=layer_indices,
            pe_fraction=charge,
            start_ms=now,
            end_ms=now + duration,
            energy_mj=energy,
        )
        self.slots[slot.slot_id] = slot
        self.resident_model = request.model_name
        self._allocated += charge

        request.mark_running()
        request.energy_mj += energy
        request.worst_case_energy_mj += worst_energy + switch_energy

        self.total_energy_mj += energy
        self.total_busy_pe_ms += duration * charge
        self.layers_executed += len(layer_indices)

        return ExecutionRecord(slot=slot, context_switch=switch)

    def complete(self, slot_id: int, now: float) -> RunningSlot:
        """Finish the slot's layers and release its PEs.

        Raises:
            KeyError: if the slot is unknown (already completed).
        """
        slot = self.slots.pop(slot_id)
        if not self.slots:
            # Draining resets the running sum to exactly 0.0, so incremental
            # float error can never accumulate across busy periods.
            self._allocated = 0.0
        else:
            self._allocated -= slot.pe_fraction
        # The engine is the only caller and always passes the exact slice
        # taken at start() (the request stayed RUNNING in between), so the
        # prefix validation is skipped on the fast path.
        slot.request.record_layers(slot.layer_indices, now, validate=not self.fast)
        return slot

    # ------------------------------------------------------------------ #
    # fault injection (driven by the engine's fault events)
    # ------------------------------------------------------------------ #
    def set_capacity(self, capacity: float) -> None:
        """Change the usable capacity fraction (fault begin/end).

        The free fraction the scheduler sees moves even though no slot
        changed.
        """
        if not 0.0 <= capacity <= 1.0:
            raise ValueError(f"capacity must be in [0, 1], got {capacity}")
        self._capacity = capacity

    def set_latency_factor(self, factor: float) -> None:
        """Change the latency inflation factor (transient_stall begin/end)."""
        if factor < 1.0:
            raise ValueError(f"latency factor must be >= 1, got {factor}")
        self._latency_factor = factor

    def abort_all(self, now: float) -> list[RunningSlot]:
        """Kill every in-flight slot (platform outage); returns the victims.

        The energy already charged stays charged — the work was wasted,
        not refunded — but the *unexecuted* tail of each slot's busy
        PE-time is pro-rated back and its layer count reversed, because
        those layers were never recorded on the request and will be priced
        again on retry.
        """
        if not self.slots:
            return []
        aborted = sorted(self.slots.values(), key=lambda slot: slot.slot_id)
        self.slots.clear()
        self._allocated = 0.0
        for slot in aborted:
            remaining = slot.end_ms - now
            if remaining > 0.0:
                self.total_busy_pe_ms -= remaining * slot.pe_fraction
            self.layers_executed -= len(slot.layer_indices)
        return aborted

    def utilization(self, elapsed_ms: float) -> float:
        """PE-time utilization over an elapsed window."""
        if elapsed_ms <= 0:
            return 0.0
        return min(1.0, self.total_busy_pe_ms / elapsed_ms)
