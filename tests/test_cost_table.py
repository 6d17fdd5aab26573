"""Unit tests for the offline cost table."""

import random

import pytest

from repro.hardware import CostTable, make_platform
from repro.hardware.cost_model import LayerCost
from repro.hardware.cost_table import activation_footprint_bytes
from repro.models import zoo
from repro.workloads import build_scenario


class TestLookups:
    def test_contains_every_model(self, tiny_cost_table, tiny_scenario):
        for name in tiny_scenario.model_names():
            assert name in tiny_cost_table

    def test_latency_and_energy_positive(self, tiny_cost_table):
        for model_name in tiny_cost_table.model_names:
            for layer_index in range(tiny_cost_table.num_layers(model_name)):
                for acc_id in range(tiny_cost_table.num_accelerators):
                    assert tiny_cost_table.latency(model_name, layer_index, acc_id) > 0
                    assert tiny_cost_table.energy(model_name, layer_index, acc_id) > 0

    def test_unknown_model_raises(self, tiny_cost_table):
        with pytest.raises(KeyError):
            tiny_cost_table.latency("nonexistent", 0, 0)

    def test_out_of_range_layer_raises(self, tiny_cost_table):
        with pytest.raises(IndexError):
            tiny_cost_table.latency("alpha", 999, 0)

    def test_duplicate_model_rejected(self, tiny_platform, tiny_models):
        with pytest.raises(ValueError):
            CostTable.build(tiny_platform, [tiny_models["alpha"], tiny_models["alpha"]])


class TestAggregates:
    def test_average_between_best_and_worst(self, tiny_cost_table):
        model = "alpha"
        for layer_index in range(tiny_cost_table.num_layers(model)):
            best = tiny_cost_table.best_latency(model, layer_index)
            avg = tiny_cost_table.average_latency(model, layer_index)
            total = tiny_cost_table.total_latency(model, layer_index)
            assert best <= avg <= total

    def test_remaining_latency_sums(self, tiny_cost_table):
        model = "alpha"
        layers = list(range(tiny_cost_table.num_layers(model)))
        remaining = tiny_cost_table.remaining_average_latency(model, layers)
        expected = sum(tiny_cost_table.average_latency(model, i) for i in layers)
        assert remaining == pytest.approx(expected)

    def test_remaining_empty_is_zero(self, tiny_cost_table):
        assert tiny_cost_table.remaining_average_latency("alpha", []) == 0.0
        assert tiny_cost_table.remaining_best_latency("alpha", []) == 0.0

    def test_worst_layer_energy_is_max(self, tiny_cost_table):
        worst = tiny_cost_table.worst_layer_energy("alpha", 0)
        for acc_id in range(tiny_cost_table.num_accelerators):
            assert worst >= tiny_cost_table.energy("alpha", 0, acc_id)

    def test_summary_consistency(self, tiny_cost_table, tiny_models):
        # Whole-model aggregates: the best-case total never exceeds the
        # average total, which the O(1) full-model lookup reproduces.
        model = "beta"
        layers = list(range(tiny_cost_table.num_layers(model)))
        best = tiny_cost_table.remaining_best_latency(model, layers)
        average = tiny_cost_table.remaining_average_latency(model, layers)
        assert best <= average
        assert average == tiny_cost_table.full_average_latency(model)
        assert activation_footprint_bytes(tiny_models[model]) > 0


class TestLeftToRightSums:
    """Float totals must not depend on the interpreter's sum().

    From CPython 3.12 on, sum() compensates rounding: it gives
    1.0000000000000002 for [1.0, 1e-16, 1e-16], where 3.10 and 3.11 (and
    every left-to-right addition) give 1.0.
    """

    @staticmethod
    def _table(tiny_platform):
        def cost(latency):
            return LayerCost(latency, 1.0, latency, 0.0, 0.0, 1.0)

        # Per layer, both accelerators share the latency, so each layer's
        # best latency is its half-total: 1.0, 1e-16, 1e-16 and totals
        # 2.0, 2e-16, 2e-16.
        rows = [[cost(1.0), cost(1.0)], [cost(1e-16), cost(1e-16)], [cost(1e-16), cost(1e-16)]]
        return CostTable(tiny_platform, {"hand": rows}, {})

    def test_remaining_best_latency(self, tiny_platform):
        table = self._table(tiny_platform)
        for view in (table, table.reference_view()):
            assert view.remaining_best_latency("hand", [0, 1, 2]) == 1.0

    def test_remaining_average_latency(self, tiny_platform):
        table = self._table(tiny_platform)
        for view in (table, table.reference_view()):
            assert view.remaining_average_latency("hand", [0, 1, 2]) == 1.0
        assert table.full_average_latency("hand") == 1.0


class TestContextSwitch:
    def test_same_model_is_free(self, tiny_cost_table):
        assert tiny_cost_table.context_switch_energy("alpha", "alpha", 0) == 0.0
        assert tiny_cost_table.context_switch_latency("alpha", None, 0) == 0.0

    def test_switch_has_positive_cost(self, tiny_cost_table):
        assert tiny_cost_table.context_switch_energy("alpha", "beta", 0) > 0.0
        assert tiny_cost_table.context_switch_latency("alpha", "beta", 0) > 0.0

    def test_switch_cost_capped_by_sram(self, tiny_cost_table, tiny_platform):
        acc = tiny_platform[0]
        max_cost = acc.context_switch_cost(acc.sram_bytes, acc.sram_bytes)
        assert tiny_cost_table.context_switch_latency("alpha", "beta", 0) <= max_cost.latency_ms + 1e-9

    def test_switch_energy_row_equals_the_per_model_lookup(self):
        scenario = build_scenario("vr_gaming")
        table = CostTable.build(make_platform("4k_1ws_2os"), scenario.all_model_graphs())
        reference = table.reference_view()
        for view in (table, reference):
            for acc_id in range(view.num_accelerators):
                for previous in (None, *view.model_names):
                    row = view.switch_energy_row(previous, acc_id)
                    assert sorted(row) == view.model_names
                    for model in view.model_names:
                        assert row[model] == view.context_switch_energy(model, previous, acc_id)
                    assert view.switch_energy_row(previous, acc_id) is row
        # The reference view memoizes its own rows, not the table's.
        assert reference.switch_energy_row(None, 0) is not table.switch_energy_row(None, 0)


class TestSummarize:
    """Direct unit coverage of activation_footprint_bytes."""

    def test_activation_footprint_is_exact_int(self, tiny_models):
        model = tiny_models["alpha"]
        footprint = activation_footprint_bytes(model)
        assert footprint == max(layer.input_bytes + layer.output_bytes for layer in model.layers)
        assert isinstance(footprint, int)

    def test_empty_model_summarizes_to_zero(self, tiny_platform):
        class Empty:
            name = "empty"
            layers = ()

        assert activation_footprint_bytes(Empty()) == 0
        table = CostTable.build(tiny_platform, [Empty()])
        assert table.num_layers("empty") == 0
        assert table.full_average_latency("empty") == 0.0


class TestReferenceViewEquivalence:
    """The precomputed flat arrays must agree bit-for-bit with the scans."""

    def test_all_aggregates_identical(self, tiny_cost_table):
        reference = tiny_cost_table.reference_view()
        for model in tiny_cost_table.model_names:
            for layer in range(tiny_cost_table.num_layers(model)):
                for fn in (
                    "average_latency",
                    "total_latency",
                    "total_energy",
                    "best_latency",
                    "worst_layer_energy",
                ):
                    assert getattr(tiny_cost_table, fn)(model, layer) == getattr(
                        reference, fn
                    )(model, layer), (fn, model, layer)
                for acc_id in range(tiny_cost_table.num_accelerators):
                    assert tiny_cost_table.latency(model, layer, acc_id) == reference.latency(
                        model, layer, acc_id
                    )
                    assert tiny_cost_table.energy(model, layer, acc_id) == reference.energy(
                        model, layer, acc_id
                    )

    def test_remaining_and_full_aggregates_identical(self, tiny_cost_table):
        reference = tiny_cost_table.reference_view()
        for model in tiny_cost_table.model_names:
            layers = list(range(tiny_cost_table.num_layers(model)))
            sparse = layers[::2]
            for indices in (layers, sparse, []):
                assert tiny_cost_table.remaining_average_latency(
                    model, indices
                ) == reference.remaining_average_latency(model, indices)
                assert tiny_cost_table.remaining_best_latency(
                    model, indices
                ) == reference.remaining_best_latency(model, indices)
            assert tiny_cost_table.full_average_latency(model) == reference.full_average_latency(
                model
            )

    def test_context_switch_memo_identical(self, tiny_cost_table):
        reference = tiny_cost_table.reference_view()
        models = tiny_cost_table.model_names
        for new in models:
            for prev in models + [None]:
                for acc_id in range(tiny_cost_table.num_accelerators):
                    assert tiny_cost_table.context_switch_energy(
                        new, prev, acc_id
                    ) == reference.context_switch_energy(new, prev, acc_id)
                    assert tiny_cost_table.context_switch_latency(
                        new, prev, acc_id
                    ) == reference.context_switch_latency(new, prev, acc_id)

    def test_effective_latency_table_matches_executor_formula(
        self, tiny_cost_table, tiny_platform
    ):
        from repro.sim.executor import AcceleratorExecutor

        executor = AcceleratorExecutor(tiny_platform[0], tiny_cost_table)
        for fraction in (1.0, 0.5, 0.25):
            eff = tiny_cost_table.effective_latency_table("alpha", 0, fraction)
            assert len(eff) == tiny_cost_table.num_layers("alpha")
            for layer_index, value in enumerate(eff):
                assert value == executor.effective_layer_latency_ms(
                    "alpha", layer_index, fraction
                )
            # Memoized: the exact same tuple comes back.
            assert tiny_cost_table.effective_latency_table("alpha", 0, fraction) is eff


class TestSuffixMemo:
    """Remaining-work totals are memoized per contiguous run of layers.

    Every tail of a static or early-exit path is contiguous and is stored
    under ``(model, first layer, length)``; a SkipNet tail that still
    crosses a skipped block is summed per call and never stored.  Either
    way the value must equal the reference table's scan bit for bit.
    """

    @staticmethod
    def _table():
        models = [zoo.build_kws_res8(), zoo.build_rapid_rl(), zoo.build_skipnet()]
        return CostTable.build(make_platform("4k_1ws_2os"), models), models

    @staticmethod
    def _paths(model, count=40):
        rng = random.Random(7)
        paths = {tuple(model.worst_case_path())}
        paths.update(tuple(model.sample_execution_path(rng)) for _ in range(count))
        return sorted(paths)

    def test_every_suffix_equals_the_reference_scans(self):
        table, models = self._table()
        reference = table.reference_view()
        for model in models:
            paths = self._paths(model)
            if model.name == "rapid_rl":
                assert len({len(path) for path in paths}) > 1  # exits were taken
            if model.name == "skipnet":
                assert any(path[-1] - path[0] + 1 != len(path) for path in paths)
            for path in paths:
                for position in range(len(path) + 1):
                    tail = list(path[position:])
                    for _miss_then_hit in range(2):
                        assert table.remaining_average_latency(
                            model.name, tail
                        ) == reference.remaining_average_latency(model.name, tail)
                        assert table.remaining_best_latency(
                            model.name, tail
                        ) == reference.remaining_best_latency(model.name, tail)
            layers = model.num_layers
            for memo in (table._suffix_total, table._suffix_best):
                stored = [key for key in memo if key[0] == model.name]
                assert 0 < len(stored) <= layers * (layers + 1) // 2

    def test_non_contiguous_runs_are_never_stored(self):
        table, models = self._table()
        skipnet = models[-1]
        contiguous = set()
        for path in self._paths(skipnet):
            for position in range(len(path)):
                tail = list(path[position:])
                table.remaining_average_latency(skipnet.name, tail)
                table.remaining_best_latency(skipnet.name, tail)
                if tail == list(range(tail[0], tail[0] + len(tail))):
                    contiguous.add((skipnet.name, tail[0], len(tail)))
        assert set(table._suffix_total) == contiguous
        assert set(table._suffix_best) == contiguous
        fresh, _models = self._table()
        fresh.remaining_average_latency(skipnet.name, [0, 2, 3])
        fresh.remaining_best_latency(skipnet.name, [0, 2, 3])
        assert not fresh._suffix_total and not fresh._suffix_best
