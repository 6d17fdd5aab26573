"""Unit tests for requests, queues, executors and the metric records."""

import random
from dataclasses import replace

import pytest

from repro.metrics.uxcost import ModelOutcome, compute_uxcost
from repro.metrics.reporting import format_table, geometric_mean
from repro.hardware.cost_table import activation_footprint_bytes
from repro.sim import Assignment, ReferenceRequestPool, RequestPool
from repro.sim.executor import AcceleratorExecutor
from repro.sim.resource_models import BATCH_ALPHA, MAX_BATCH, KvBatchModel
from repro.sim.request import InferenceRequest, RequestState
from repro.sim.results import AcceleratorStats, SimulationResult


#: Per-task expiry grace for pools whose test does not exercise expiry.
_GRACE = {"vision": 5.0, "heavy": 10.0}


def _request(tiny_scenario, task="vision", deadline=100.0, arrival=0.0, rng_seed=0):
    task_spec = tiny_scenario.task(task)
    return InferenceRequest(
        task_name=task_spec.name,
        model=task_spec.default_model,
        frame_id=0,
        arrival_ms=arrival,
        deadline_ms=deadline,
        rng=random.Random(rng_seed),
    )


def _start_block(executor, tiny_scenario, block, switch, pe_fraction=1.0, peer=False):
    """Start one priced block of a ``vision`` request on accelerator 0.

    ``block`` is one layer, the whole path, or two layers after the first
    layer ran.  ``switch`` runs a ``heavy`` request first, so the block pays
    a context switch.  ``peer`` leaves one request of the resident model in
    flight, so the block starts beside another slot.  Returns the block's
    record and its start time.
    """
    request = _request(tiny_scenario, task="vision", rng_seed=7)
    now = 0.0
    if block == "mid_path":
        head = executor.start(Assignment(request=request, acc_id=0), now)
        now = head.slot.end_ms
        executor.complete(head.slot.slot_id, now)
    if switch:
        other = _request(tiny_scenario, task="heavy", rng_seed=8)
        first = executor.start(Assignment(request=other, acc_id=0), now)
        now = first.slot.end_ms
        executor.complete(first.slot.slot_id, now)
    if peer:
        resident = _request(tiny_scenario, task="heavy" if switch else "vision", rng_seed=9)
        executor.start(Assignment(request=resident, acc_id=0), now)
    layer_count = {"single": 1, "whole_path": len(request.path), "mid_path": 2}[block]
    record = executor.start(
        Assignment(request=request, acc_id=0, layer_count=layer_count, pe_fraction=pe_fraction),
        now,
    )
    assert record.context_switch is switch
    assert len(record.slot.layer_indices) == layer_count
    return record, now


class TestRequestLifecycle:
    def test_initial_state(self, tiny_scenario):
        request = _request(tiny_scenario)
        assert request.state is RequestState.PENDING
        assert request.next_layer() == 0
        assert not request.started

    def test_record_layers_advances(self, tiny_scenario):
        request = _request(tiny_scenario)
        request.mark_running()
        request.record_layers([0], completion_ms=5.0)
        assert request.next_position == 1
        assert request.last_progress_ms == 5.0

    def test_record_wrong_layers_rejected(self, tiny_scenario):
        request = _request(tiny_scenario)
        request.mark_running()
        with pytest.raises(ValueError):
            request.record_layers([2], completion_ms=1.0)

    def test_completion_and_violation(self, tiny_scenario):
        request = _request(tiny_scenario, deadline=10.0)
        request.mark_running()
        request.record_layers(request.path, completion_ms=12.0)
        assert request.state is RequestState.COMPLETED
        assert request.violated_deadline
        assert request.latency_ms == pytest.approx(12.0)

    def test_drop_counts_as_violation(self, tiny_scenario):
        request = _request(tiny_scenario)
        request.mark_dropped(now=3.0)
        assert request.state is RequestState.DROPPED
        assert request.violated_deadline

    def test_terminal_requests_cannot_transition(self, tiny_scenario):
        request = _request(tiny_scenario)
        request.mark_expired(now=1.0)
        with pytest.raises(ValueError):
            request.mark_running()

    def test_variant_switch_only_before_start(self, tiny_scenario, tiny_supernet):
        task = tiny_scenario.task("context")
        request = InferenceRequest(
            task_name=task.name,
            model=tiny_supernet.default_variant,
            frame_id=0,
            arrival_ms=0.0,
            deadline_ms=50.0,
            rng=random.Random(0),
        )
        request.switch_variant(tiny_supernet.variants[-1])
        assert request.model_name == "super_light"
        request.mark_running()
        request.record_layers([0], completion_ms=1.0)
        with pytest.raises(ValueError):
            request.switch_variant(tiny_supernet.default_variant)

    def test_queue_time(self, tiny_scenario):
        request = _request(tiny_scenario, arrival=10.0, deadline=100.0)
        assert request.queue_time_ms(25.0) == pytest.approx(15.0)

    def test_deadline_before_arrival_rejected(self, tiny_scenario):
        task = tiny_scenario.task("vision")
        with pytest.raises(ValueError):
            InferenceRequest(task.name, task.default_model, 0, arrival_ms=5.0, deadline_ms=1.0)


class TestRequestPool:
    def test_add_remove(self, tiny_scenario):
        pool = RequestPool(_GRACE)
        request = _request(tiny_scenario)
        pool.add(request)
        assert len(pool) == 1
        assert pool.queue_depths(["vision", "heavy"]) == {"vision": 1, "heavy": 0}
        pool.remove(request)
        assert len(pool) == 0
        assert pool.queue_depths(["vision", "heavy"]) == {"vision": 0, "heavy": 0}

    def test_duplicate_add_rejected(self, tiny_scenario):
        pool = RequestPool(_GRACE)
        request = _request(tiny_scenario)
        pool.add(request)
        with pytest.raises(ValueError):
            pool.add(request)

    def test_pending_excludes_running(self, tiny_scenario):
        pool = RequestPool(_GRACE)
        request = _request(tiny_scenario)
        pool.add(request)
        request.mark_running()
        pool.note_dispatched(request)
        assert pool.pending_snapshot() == ()
        assert pool.running_snapshot() == (request,)

    def test_stale_detection(self, tiny_scenario):
        pool = RequestPool({"vision": 5.0})
        request = _request(tiny_scenario, deadline=10.0)
        pool.add(request)
        assert pool.collect_stale(11.0) == []
        assert pool.collect_stale(50.0) == [request]

    @pytest.mark.parametrize("pool_class", [RequestPool, ReferenceRequestPool])
    def test_each_task_expires_after_its_own_grace(self, tiny_scenario, pool_class):
        pool = pool_class({"vision": 5.0, "heavy": 10.0})
        vision = _request(tiny_scenario, task="vision", deadline=10.0)
        heavy = _request(tiny_scenario, task="heavy", deadline=10.0, rng_seed=1)
        pool.add(vision)
        pool.add(heavy)
        assert pool.collect_stale(15.0) == []  # not strictly past 10 + 5
        assert pool.collect_stale(16.0) == [vision]
        pool.remove(vision)  # the engine finalizes what it expires
        assert pool.collect_stale(20.0) == []
        assert pool.collect_stale(21.0) == [heavy]


class TestRequestPoolIncremental:
    """The incremental pool must stay observationally identical to the
    retained reference pool under interleaved add/remove/dispatch/expire."""

    @staticmethod
    def _pools():
        grace = {"vision": 5.0, "heavy": 10.0, "cascade": 0.0, "context": 2.0}
        return RequestPool(grace), ReferenceRequestPool(grace)

    @staticmethod
    def _assert_same(fast, reference, task_names):
        assert len(fast) == len(reference)
        assert fast.pending_snapshot() == reference.pending_snapshot()
        # The fast pool orders running requests by id, the reference pool
        # by pool insertion; a fault retry makes the two differ.
        assert sorted(r.request_id for r in fast.running_snapshot()) == sorted(
            r.request_id for r in reference.running_snapshot()
        )
        assert fast.queue_depths(task_names) == reference.queue_depths(task_names)

    def test_interleaved_operations_match_reference(self, tiny_scenario):
        rng = random.Random(42)
        fast, reference = self._pools()
        task_names = [task.name for task in tiny_scenario.tasks]
        live: list[InferenceRequest] = []
        now = 0.0
        for step in range(400):
            now += rng.uniform(0.0, 3.0)
            op = rng.random()
            if op < 0.45 or not live:
                task = rng.choice(task_names)
                request = _request(
                    tiny_scenario,
                    task=task,
                    arrival=now,
                    deadline=now + rng.uniform(1.0, 40.0),
                    rng_seed=step,
                )
                fast.add(request)
                reference.add(request)
                live.append(request)
            elif op < 0.6:
                request = rng.choice(live)
                if request.state is RequestState.PENDING:
                    request.mark_running()
                    fast.note_dispatched(request)
                    reference.note_dispatched(request)
            elif op < 0.75:
                request = rng.choice(live)
                if request.state is RequestState.RUNNING:
                    request.record_layers([request.next_layer()], completion_ms=now)
                    fast.note_progress(request)
                    reference.note_progress(request)
                    if request.is_finished:
                        fast.remove(request)
                        reference.remove(request)
                        live.remove(request)
            elif op < 0.9:
                request = rng.choice(live)
                if not request.is_finished and request.state is not RequestState.RUNNING:
                    request.mark_dropped(now)
                fast.remove(request)
                reference.remove(request)
                live.remove(request)
            else:
                ref_stale = reference.collect_stale(now)
                fast_stale = fast.collect_stale(now)
                assert [r.request_id for r in fast_stale] == [
                    r.request_id for r in ref_stale
                ]
                for request in fast_stale:
                    request.mark_expired(now)
                    fast.remove(request)
                    reference.remove(request)
                    live.remove(request)
            self._assert_same(fast, reference, task_names)

    def test_remove_is_constant_time_bookkeeping(self, tiny_scenario):
        pool = RequestPool(_GRACE)
        requests = [
            _request(tiny_scenario, arrival=float(i), deadline=float(i) + 50.0, rng_seed=i)
            for i in range(50)
        ]
        for request in requests:
            pool.add(request)
        # Remove from the middle, front and back; indices must stay coherent.
        for request in (requests[25], requests[0], requests[-1]):
            pool.remove(request)
        survivors = pool.pending_snapshot()
        assert len(survivors) == 47
        assert [r.request_id for r in survivors] == sorted(r.request_id for r in survivors)
        assert pool.queue_depths(["vision"]) == {"vision": 47}

    def test_remove_absent_request_is_noop(self, tiny_scenario):
        pool = RequestPool(_GRACE)
        request = _request(tiny_scenario)
        pool.remove(request)  # never added: must not raise or corrupt
        pool.add(request)
        assert len(pool) == 1

    def test_collect_stale_skips_started_requests(self, tiny_scenario):
        pool = RequestPool({"vision": 0.0})
        request = _request(tiny_scenario, deadline=10.0)
        pool.add(request)
        request.mark_running()
        pool.note_dispatched(request)
        request.record_layers([request.next_layer()], completion_ms=5.0)
        pool.note_progress(request)
        # Started requests can never expire, even long past the deadline.
        assert pool.collect_stale(now=1000.0) == []

    def test_collect_stale_orders_by_request_id(self, tiny_scenario):
        pool = RequestPool({"vision": 0.0, "heavy": 0.0})
        # Older request expires later than the newer one: the batch must
        # still come back in creation (request_id) order, matching the
        # reference pool's scan order.
        older = _request(tiny_scenario, task="vision", arrival=0.0, deadline=100.0)
        newer = _request(tiny_scenario, task="heavy", arrival=1.0, deadline=50.0)
        pool.add(older)
        pool.add(newer)
        stale = pool.collect_stale(now=200.0)
        assert [r.request_id for r in stale] == [older.request_id, newer.request_id]

    def test_snapshots_are_reused_until_mutation(self, tiny_scenario):
        pool = RequestPool(_GRACE)
        request = _request(tiny_scenario)
        pool.add(request)
        first = pool.pending_snapshot()
        assert pool.pending_snapshot() is first
        other = _request(tiny_scenario, arrival=1.0)
        pool.add(other)
        second = pool.pending_snapshot()
        assert second is not first
        assert [r.request_id for r in second] == [request.request_id, other.request_id]


class TestExecutor:
    def test_start_and_complete(self, tiny_platform, tiny_cost_table, tiny_scenario):
        executor = AcceleratorExecutor(tiny_platform[0], tiny_cost_table)
        request = _request(tiny_scenario)
        record = executor.start(Assignment(request=request, acc_id=0, layer_count=2), now=0.0)
        assert executor.free_fraction == 0.0
        assert record.slot.end_ms > 0.0
        assert request.state is RequestState.RUNNING
        executor.complete(record.slot.slot_id, now=record.slot.end_ms)
        assert executor.free_fraction == 1.0
        assert request.next_position == 2

    def test_context_switch_charged_once_model_changes(
        self, tiny_platform, tiny_cost_table, tiny_scenario
    ):
        executor = AcceleratorExecutor(tiny_platform[0], tiny_cost_table)
        first = _request(tiny_scenario, task="vision")
        second = _request(tiny_scenario, task="heavy")
        record1 = executor.start(Assignment(request=first, acc_id=0, layer_count=1), now=0.0)
        executor.complete(record1.slot.slot_id, now=record1.slot.end_ms)
        record2 = executor.start(
            Assignment(request=second, acc_id=0, layer_count=1), now=record1.slot.end_ms
        )
        assert record1.context_switch is False
        assert record2.context_switch is True
        assert executor.context_switches == 1
        switch_energy = tiny_cost_table.context_switch_energy(
            second.model_name, first.model_name, 0
        )
        assert switch_energy > 0.0
        assert record2.slot.energy_mj == switch_energy + tiny_cost_table.energy(
            second.model_name, 0, 0
        )

    def test_fission_scales_latency(self, tiny_platform, tiny_cost_table, tiny_scenario):
        executor_full = AcceleratorExecutor(tiny_platform[0], tiny_cost_table)
        executor_half = AcceleratorExecutor(tiny_platform[0], tiny_cost_table)
        full = executor_full.start(
            Assignment(request=_request(tiny_scenario, rng_seed=1), acc_id=0, layer_count=1), now=0.0
        )
        half = executor_half.start(
            Assignment(
                request=_request(tiny_scenario, rng_seed=2), acc_id=0, layer_count=1, pe_fraction=0.5
            ),
            now=0.0,
        )
        assert half.slot.end_ms >= full.slot.end_ms

    def test_over_allocation_rejected(self, tiny_platform, tiny_cost_table, tiny_scenario):
        executor = AcceleratorExecutor(tiny_platform[0], tiny_cost_table)
        executor.start(Assignment(request=_request(tiny_scenario, rng_seed=3), acc_id=0), now=0.0)
        with pytest.raises(ValueError):
            executor.start(Assignment(request=_request(tiny_scenario, rng_seed=4), acc_id=0), now=0.0)

    def test_energy_accounting_accumulates(self, tiny_platform, tiny_cost_table, tiny_scenario):
        executor = AcceleratorExecutor(tiny_platform[1], tiny_cost_table)
        request = _request(tiny_scenario)
        record = executor.start(Assignment(request=request, acc_id=1, layer_count=3), now=0.0)
        assert request.energy_mj == pytest.approx(record.slot.energy_mj)
        assert request.worst_case_energy_mj >= request.energy_mj - 1e-9
        assert executor.total_energy_mj == pytest.approx(record.slot.energy_mj)

    @pytest.mark.parametrize("latency_factor", [1.0, 2.0])
    @pytest.mark.parametrize("pe_fraction", [1.0, 0.5])
    @pytest.mark.parametrize("switch", [False, True], ids=["resident", "switch"])
    @pytest.mark.parametrize("block", ["single", "whole_path", "mid_path"])
    def test_fast_and_reference_price_identically(
        self, tiny_platform, tiny_cost_table, tiny_scenario,
        block, switch, pe_fraction, latency_factor,
    ):
        # The fast executor's one loop over the cost table's rows, which
        # accumulates the layers onto the switch costs, must match the
        # reference executor's per-layer calls bit for bit.
        def priced(fast):
            table = tiny_cost_table if fast else tiny_cost_table.reference_view()
            executor = AcceleratorExecutor(tiny_platform[0], table, fast=fast)
            executor.set_latency_factor(latency_factor)
            record, _ = _start_block(executor, tiny_scenario, block, switch, pe_fraction)
            return record.slot.end_ms, record.slot.energy_mj, record.slot.request.worst_case_energy_mj

        assert priced(fast=True) == priced(fast=False)

    @pytest.mark.parametrize("switch", [False, True], ids=["resident", "switch"])
    @pytest.mark.parametrize("block", ["single", "whole_path", "mid_path"])
    def test_fast_and_reference_price_identically_under_kv_batch(
        self, tiny_platform, tiny_cost_table, tiny_scenario, block, switch,
    ):
        # kv_batch sums the full-PE layer costs from 0.0, dilates the
        # latency by the batch size (one peer slot stays in flight, so the
        # factor is 1 + alpha) and only then adds the switch costs.
        def priced(fast):
            table = tiny_cost_table if fast else tiny_cost_table.reference_view()
            model = KvBatchModel(replace(tiny_scenario, kv_budget_bytes=1e15))
            executor = AcceleratorExecutor(tiny_platform[0], table, fast=fast, resource_model=model)
            record, now = _start_block(executor, tiny_scenario, block, switch, peer=True)
            slot = record.slot
            return now, slot.end_ms, slot.energy_mj, slot.request.worst_case_energy_mj

        fast, reference = priced(fast=True), priced(fast=False)
        assert fast[1:] == reference[1:]
        now, end_ms, energy_mj, _ = fast

        name = tiny_scenario.task("vision").default_model.name
        previous = tiny_scenario.task("heavy").default_model.name if switch else None
        layers = {"single": [0], "whole_path": [0, 1, 2], "mid_path": [1, 2]}[block]
        latency = energy = 0.0
        for layer_index in layers:
            latency += tiny_cost_table.latency(name, layer_index, 0)
            energy += tiny_cost_table.energy(name, layer_index, 0)
        latency = latency * (1.0 + BATCH_ALPHA) + tiny_cost_table.context_switch_latency(
            name, previous, 0
        )
        energy += tiny_cost_table.context_switch_energy(name, previous, 0)
        assert end_ms == now + latency
        assert energy_mj == energy

    def test_kv_batch_caps_the_batch(self, tiny_platform, tiny_cost_table, tiny_scenario):
        # A budget far above every footprint: only MAX_BATCH binds.
        model = KvBatchModel(replace(tiny_scenario, kv_budget_bytes=1e15))
        executor = AcceleratorExecutor(tiny_platform[0], tiny_cost_table, resource_model=model)
        for seed in range(1, MAX_BATCH + 1):
            executor.start(Assignment(request=_request(tiny_scenario, rng_seed=seed), acc_id=0), 0.0)
        extra = Assignment(request=_request(tiny_scenario, rng_seed=MAX_BATCH + 1), acc_id=0)
        assert executor.free_fraction > 0.9
        assert not executor.can_accept_assignment(extra)
        with pytest.raises(ValueError, match="cannot accept"):
            executor.start(extra, 0.0)

    def test_kv_batch_charges_its_memory_share(
        self, tiny_platform, tiny_cost_table, tiny_scenario
    ):
        # A budget that makes "vision" charge 0.6 of the accelerator: a
        # second one does not fit, whatever pe_fraction it requests.
        footprint = activation_footprint_bytes(tiny_scenario.task("vision").default_model)
        model = KvBatchModel(replace(tiny_scenario, kv_budget_bytes=footprint / 0.6))
        executor = AcceleratorExecutor(tiny_platform[0], tiny_cost_table, resource_model=model)
        first = Assignment(request=_request(tiny_scenario, rng_seed=1), acc_id=0, pe_fraction=0.25)
        charge = model.charge_fraction(first)
        record = executor.start(first, 0.0)
        assert record.slot.pe_fraction == charge
        assert executor.free_fraction == 1.0 - charge
        second = Assignment(request=_request(tiny_scenario, rng_seed=2), acc_id=0, pe_fraction=0.25)
        assert not executor.can_accept_assignment(second)
        with pytest.raises(ValueError, match="cannot accept"):
            executor.start(second, 0.0)
        executor.complete(record.slot.slot_id, record.slot.end_ms)
        assert executor.free_fraction == 1.0
        assert executor.can_accept_assignment(second)


class TestAssignmentValidation:
    def test_layer_count_positive(self, tiny_scenario):
        with pytest.raises(ValueError):
            Assignment(request=_request(tiny_scenario), acc_id=0, layer_count=0)

    def test_pe_fraction_range(self, tiny_scenario):
        with pytest.raises(ValueError):
            Assignment(request=_request(tiny_scenario), acc_id=0, pe_fraction=1.5)

    def test_negative_acc_id_rejected(self, tiny_scenario):
        # executors[-1] would silently alias the last accelerator.
        with pytest.raises(ValueError, match="acc_id"):
            Assignment(request=_request(tiny_scenario), acc_id=-1)


class TestUXCost:
    def test_zero_violations_use_small_number_rule(self):
        outcome = ModelOutcome("m", total_frames=20, violated_frames=0, actual_energy_mj=1.0, worst_case_energy_mj=2.0)
        assert outcome.violation_rate == pytest.approx(1.0 / 40.0)

    def test_normalized_energy(self):
        outcome = ModelOutcome("m", 10, 2, actual_energy_mj=3.0, worst_case_energy_mj=6.0)
        assert outcome.normalized_energy == pytest.approx(0.5)

    def test_uxcost_is_product_of_sums(self):
        outcomes = [
            ModelOutcome("a", 10, 5, 1.0, 2.0),
            ModelOutcome("b", 10, 0, 1.0, 4.0),
        ]
        breakdown = compute_uxcost(outcomes)
        expected_rate = 0.5 + 1.0 / 20.0
        expected_energy = 0.5 + 0.25
        assert breakdown.uxcost == pytest.approx(expected_rate * expected_energy)

    def test_empty_models_ignored(self):
        breakdown = compute_uxcost([ModelOutcome("idle", 0, 0, 0.0, 0.0)])
        assert breakdown.uxcost == 0.0

    def test_factors_are_summed_left_to_right(self):
        # sum() compensates from CPython 3.12 on and would give
        # 1.0000000000000002 here; 3.10 and 3.11 give 1.0.
        outcomes = [
            ModelOutcome("a", 10, 0, 1.0, 1.0),
            ModelOutcome("b", 10, 0, 1e-16, 1.0),
            ModelOutcome("c", 10, 0, 1e-16, 1.0),
        ]
        assert compute_uxcost(outcomes).overall_normalized_energy == 1.0

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            ModelOutcome("m", total_frames=1, violated_frames=2, actual_energy_mj=0, worst_case_energy_mj=0)


class TestReporting:
    def test_geometric_mean_basic(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_geometric_mean_sums_logs_left_to_right(self):
        # sum() compensates from CPython 3.12 on and would give
        # 0.7047298732064893 here; 3.10 and 3.11 give ...892.
        assert geometric_mean([0.5, 0.1, 7.0]) == 0.7047298732064892

    def test_total_energy_is_added_left_to_right(self):
        # sum() compensates float rounding from Python 3.12 on and gives
        # 1.0000000000000002e16 here; results must not depend on the version.
        accelerators = tuple(
            AcceleratorStats(acc_id, f"acc{acc_id}", "ws", energy, 0.0, 0, 0, 0.0)
            for acc_id, energy in enumerate((1e16, 1.0, 1.0))
        )
        result = SimulationResult("s", "p", "fcfs_dynamic", 1.0, 0, {}, accelerators)
        assert result.total_energy_mj == 1e16

    def test_format_table_aligns_columns(self):
        text = format_table(["a", "metric"], [["x", 1.5], ["longer", 2.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "metric" in lines[0]
