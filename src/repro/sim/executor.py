"""Accelerator execution state: slots, context switches, energy accounting.

Each sub-accelerator is wrapped in an :class:`AcceleratorExecutor` that
tracks what is running on it, prices context switches between models, and
supports Planaria-style spatial fission by letting multiple assignments
share the PE array (each with a ``pe_fraction``), with latency re-derived
from the cost model's compute/memory breakdown.

Performance architecture
------------------------
In fast mode (the default) the executor answers capacity queries from
incrementally maintained caches instead of re-aggregating its slots on
every call: ``allocated_fraction`` is a running sum updated on
``start``/``complete`` (reset to exactly 0.0 whenever the accelerator
drains, so binary PE fractions never accumulate error), and
``busy_until_ms`` keeps the running max of slot end times.  ``start()``
prices layer ranges from the cost table's precomputed flat arrays and
memoized per-``pe_fraction`` effective-latency tables; a whole-model
dispatch with no context switch is priced O(1) from prefix sums (which are
bit-for-bit equal to the sequential accumulation they replace, because the
range starts at layer 0).  The engine's cached per-accelerator views are
invalidated via :attr:`state_version` — the monotonic counter bumped on
every ``start``/``complete``.  The same property anchors the engine's
dispatch-elision layer: an executor's free fraction can only move through
those two operations (never through the mere passage of time), so
capacity-based wake-hint predicates evaluated against live executors are
always exact.

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
from repro.sim.resource_models import ResourceModel

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
    context_switch_latency_ms: float
    context_switch_energy_mj: float


class AcceleratorExecutor:
    """Execution state of one sub-accelerator.

    Args:
        accelerator: the hardware description.
        cost_table: offline latency/energy table for all models in play.
        fast: use the incremental capacity caches and flat-array pricing
            (results are bit-for-bit identical either way; ``False`` keeps
            the historical per-call scans for the reference path).
        resource_model: optional non-default
            :class:`~repro.sim.resource_models.ResourceModel` defining
            admission and pricing; ``None`` (and the ``pe_fraction`` name)
            keep the executor's inlined historical arithmetic, so the
            default path stays bit-for-bit identical.  All bookkeeping
            (``allocated_fraction`` over *charged* fractions, busy
            horizons, drain resets) is model-independent, so every event
            loop shares this one accounting implementation.
    """

    def __init__(
        self,
        accelerator: Accelerator,
        cost_table: CostTable,
        fast: bool = True,
        resource_model: Optional[ResourceModel] = None,
    ) -> None:
        self.accelerator = accelerator
        self.cost_table = cost_table
        self.fast = fast
        self.resource_model = resource_model
        #: True on the historical PE-fraction path; the hot loops test this
        #: single attribute instead of dispatching through the protocol.
        self.default_resources = (
            resource_model is None or resource_model.name == "pe_fraction"
        )
        self.slots: dict[int, RunningSlot] = {}
        self.resident_model: Optional[str] = None
        self.total_energy_mj: float = 0.0
        self.total_busy_pe_ms: float = 0.0
        self.layers_executed: int = 0
        self.context_switches: int = 0
        #: Bumped on every start/complete; the engine keys its cached
        #: accelerator views on it.
        self.state_version: int = 0
        self._allocated: float = 0.0
        self._busy_until: float = 0.0
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
    def allocated_fraction(self) -> float:
        """Sum of PE fractions of all in-flight assignments."""
        if self.fast:
            return self._allocated
        return sum(slot.pe_fraction for slot in self.slots.values())

    @property
    def free_fraction(self) -> float:
        """Unallocated *usable* PE fraction (1.0 = idle and healthy).

        Degraded capacity subtracts from the headroom new admissions see;
        in-flight slots keep running, so the clamp at 0.0 absorbs windows
        where allocations exceed the freshly degraded capacity.
        """
        return max(0.0, self._capacity - self.allocated_fraction)

    @property
    def capacity_fraction(self) -> float:
        """Current usable capacity (1.0 healthy, < 1 degraded, 0 outage)."""
        return self._capacity

    def busy_until_ms(self, now: float) -> float:
        """Latest end time of in-flight work (``now`` when idle)."""
        if not self.slots:
            return now
        if self.fast:
            return self._busy_until
        return max(slot.end_ms for slot in self.slots.values())

    def running_tasks(self) -> tuple[str, ...]:
        """Task names currently executing on this accelerator."""
        return tuple([slot.request.task_name for slot in self.slots.values()])

    def can_accept(self, pe_fraction: float) -> bool:
        """Whether a new assignment of ``pe_fraction`` fits right now."""
        return pe_fraction <= self.free_fraction + 1e-9

    def can_accept_assignment(self, assignment: Assignment) -> bool:
        """Model-aware admission: delegate to the resource model.

        The default path is the exact arithmetic of :meth:`can_accept`
        (bit-for-bit with the historical check); non-default models may
        additionally cap batch sizes or charge memory fractions.
        """
        if self.default_resources:
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
        self, request: InferenceRequest, layer_indices: list[int], pe_fraction: float
    ) -> tuple[float, float, float]:
        """(latency_ms, energy_mj, worst_case_energy_mj) of a layer range.

        Fast path: flat-array lookups; a full-model dispatch starting at the
        first path position is priced O(1) from the prefix-sum arrays (a
        complete path visits layers ``0..n-1`` in order, so the prefix value
        equals sequential accumulation bit-for-bit).  The reference path
        keeps the historical per-layer method calls.
        """
        model_name = request.model_name
        acc_id = self.acc_id
        if not self.fast:
            duration = 0.0
            energy = 0.0
            worst = 0.0
            for layer_index in layer_indices:
                duration += self.effective_layer_latency_ms(model_name, layer_index, pe_fraction)
                energy += self.cost_table.energy(model_name, layer_index, acc_id)
                worst += self.cost_table.worst_layer_energy(model_name, layer_index)
            return duration, energy, worst

        arrays = self.cost_table.layer_arrays(model_name)
        eff, eff_prefix = self.cost_table.effective_latency_table(model_name, acc_id, pe_fraction)
        count = len(layer_indices)
        if count == 1:
            # Layer-granularity dispatch: three O(1) lookups (accumulating
            # from 0.0 is exact, so this matches the loop bit-for-bit).
            layer_index = layer_indices[0]
            return (
                eff[layer_index],
                arrays.energy[acc_id][layer_index],
                arrays.worst_energy[layer_index],
            )
        if request.next_position == 0 and count == arrays.num_layers:
            # Complete path from layer 0: O(1) prefix-sum pricing.
            return (
                eff_prefix[count],
                arrays.energy_prefix[acc_id][count],
                arrays.worst_energy_prefix[count],
            )
        energy_arr = arrays.energy[acc_id]
        worst_arr = arrays.worst_energy
        duration = 0.0
        energy = 0.0
        worst = 0.0
        for layer_index in layer_indices:
            duration += eff[layer_index]
            energy += energy_arr[layer_index]
            worst += worst_arr[layer_index]
        return duration, energy, worst

    def start(self, assignment: Assignment, now: float) -> ExecutionRecord:
        """Begin executing an assignment; returns the created slot record.

        Raises:
            ValueError: if the accelerator does not have enough free PEs or
                the request has no remaining layers.
        """
        request = assignment.request
        if not self.default_resources:
            return self._start_modelled(assignment, now)
        # Inlined can_accept: one attribute read instead of three chained
        # property calls on the per-dispatch hot path (fast mode only).
        if self.fast:
            free = self._capacity - self._allocated
            acceptable = assignment.pe_fraction <= (free if free > 0.0 else 0.0) + 1e-9
        else:
            acceptable = self.can_accept(assignment.pe_fraction)
        if not acceptable:
            raise ValueError(
                f"accelerator {self.acc_id} has only {self.free_fraction:.2f} free, "
                f"cannot accept pe_fraction={assignment.pe_fraction}"
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

        if switch_latency == 0.0 and switch_energy == 0.0:
            # Accumulating from 0.0 is exact, so the prefix-sum fast path in
            # _price_layers stays bit-for-bit with the historical loop that
            # started from the (zero) switch costs.
            duration, energy, worst_energy = self._price_layers(
                request, layer_indices, assignment.pe_fraction
            )
        else:
            duration = switch_latency
            energy = switch_energy
            worst_energy = 0.0
            if self.fast:
                arrays = self.cost_table.layer_arrays(request.model_name)
                eff, _ = self.cost_table.effective_latency_table(
                    request.model_name, self.acc_id, assignment.pe_fraction
                )
                energy_arr = arrays.energy[self.acc_id]
                worst_arr = arrays.worst_energy
                for layer_index in layer_indices:
                    duration += eff[layer_index]
                    energy += energy_arr[layer_index]
                    worst_energy += worst_arr[layer_index]
            else:
                for layer_index in layer_indices:
                    duration += self.effective_layer_latency_ms(
                        request.model_name, layer_index, assignment.pe_fraction
                    )
                    energy += self.cost_table.energy(
                        request.model_name, layer_index, self.acc_id
                    )
                    worst_energy += self.cost_table.worst_layer_energy(
                        request.model_name, layer_index
                    )

        if self._latency_factor != 1.0:
            # transient_stall window: work runs slower but burns the same
            # energy (throttling, not extra computation).
            duration *= self._latency_factor

        slot = RunningSlot(
            slot_id=next(_SLOT_COUNTER),
            request=request,
            layer_indices=layer_indices,
            pe_fraction=assignment.pe_fraction,
            start_ms=now,
            end_ms=now + duration,
            energy_mj=energy,
        )
        self.slots[slot.slot_id] = slot
        self.resident_model = request.model_name
        self.state_version += 1
        self._allocated += assignment.pe_fraction
        if slot.end_ms > self._busy_until or len(self.slots) == 1:
            self._busy_until = slot.end_ms

        request.mark_running()
        request.energy_mj += energy
        request.worst_case_energy_mj += worst_energy + switch_energy

        self.total_energy_mj += energy
        self.total_busy_pe_ms += duration * assignment.pe_fraction
        self.layers_executed += len(layer_indices)

        return ExecutionRecord(
            slot=slot,
            context_switch=switch,
            context_switch_latency_ms=switch_latency,
            context_switch_energy_mj=switch_energy,
        )

    def _start_modelled(self, assignment: Assignment, now: float) -> ExecutionRecord:
        """The :meth:`start` path for non-default resource models.

        Admission, the charged fraction and the layer pricing come from the
        model; slot bookkeeping is byte-identical to the default path, with
        the slot's ``pe_fraction`` field holding the *charged* capacity
        fraction — the quantity ``allocated_fraction`` sums and the frozen
        views report — so the engine's wake hints and dispatch-elision
        predicates stay sound without any model-specific branches.  Pricing
        runs *before* the slot is inserted, so a batch-aware model sees
        ``len(slots)`` peers at dispatch time (``B = len(slots) + 1``).
        """
        model = self.resource_model
        request = assignment.request
        if not model.admits(self, assignment):
            raise ValueError(
                f"accelerator {self.acc_id} cannot accept request "
                f"{request.request_id} under resource model {model.name!r} "
                f"(free={self.free_fraction:.3f}, slots={len(self.slots)})"
            )
        charge = model.charge_fraction(assignment)
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

        duration, energy, worst_energy = model.price_layers(
            self, request, layer_indices, assignment
        )
        duration += switch_latency
        energy += switch_energy
        if self._latency_factor != 1.0:
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
        self.state_version += 1
        self._allocated += charge
        if slot.end_ms > self._busy_until or len(self.slots) == 1:
            self._busy_until = slot.end_ms

        request.mark_running()
        request.energy_mj += energy
        request.worst_case_energy_mj += worst_energy + switch_energy

        self.total_energy_mj += energy
        self.total_busy_pe_ms += duration * charge
        self.layers_executed += len(layer_indices)

        return ExecutionRecord(
            slot=slot,
            context_switch=switch,
            context_switch_latency_ms=switch_latency,
            context_switch_energy_mj=switch_energy,
        )

    def complete(self, slot_id: int, now: float) -> RunningSlot:
        """Finish the slot's layers and release its PEs.

        Raises:
            KeyError: if the slot is unknown (already completed).
        """
        slot = self.slots.pop(slot_id)
        self.state_version += 1
        if not self.slots:
            # Draining resets the running sum to exactly 0.0, so incremental
            # float error can never accumulate across busy periods.
            self._allocated = 0.0
        else:
            self._allocated -= slot.pe_fraction
            if slot.end_ms >= self._busy_until:
                self._busy_until = max(s.end_ms for s in self.slots.values())
        # The engine is the only caller and always passes the exact slice
        # taken at start() (the request stayed RUNNING in between), so the
        # prefix validation is skipped on the fast path.
        slot.request.record_layers(
            slot.layer_indices, self.acc_id, now, validate=not self.fast
        )
        return slot

    # ------------------------------------------------------------------ #
    # fault injection (driven by the engine's fault events)
    # ------------------------------------------------------------------ #
    def set_capacity(self, capacity: float) -> None:
        """Change the usable capacity fraction (fault begin/end).

        Bumps ``state_version`` so cached accelerator views rebuild — the
        free fraction the scheduler sees moves even though no slot changed.
        """
        if not 0.0 <= capacity <= 1.0:
            raise ValueError(f"capacity must be in [0, 1], got {capacity}")
        if capacity != self._capacity:
            self._capacity = capacity
            self.state_version += 1

    def set_latency_factor(self, factor: float) -> None:
        """Change the latency inflation factor (transient_stall begin/end)."""
        if factor < 1.0:
            raise ValueError(f"latency factor must be >= 1, got {factor}")
        if factor != self._latency_factor:
            self._latency_factor = factor
            self.state_version += 1

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
        self.state_version += 1
        self._allocated = 0.0
        self._busy_until = now
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
