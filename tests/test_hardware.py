"""Unit tests for dataflows, accelerators, platforms and the cost model."""

import pytest

from repro.hardware import Accelerator, Dataflow, build_platform, make_platform
from repro.hardware.accelerator import (
    DEFAULT_CLOCK_HZ,
    DEFAULT_DRAM_BANDWIDTH_GBPS,
    DEFAULT_SRAM_BYTES,
)
from repro.hardware.platform import (
    PLATFORM_PRESETS,
    all_platform_names,
    heterogeneous_platform_names,
    homogeneous_platform_names,
)
from repro.models.layers import conv2d, dwconv2d


class TestDataflow:
    def test_reuse_asymmetry(self):
        ws, os_ = Dataflow.WEIGHT_STATIONARY, Dataflow.OUTPUT_STATIONARY
        assert ws.weight_reuse > os_.weight_reuse
        assert os_.activation_reuse > ws.activation_reuse


class TestAccelerator:
    def test_invalid_pe_count(self):
        with pytest.raises(ValueError):
            Accelerator(0, "bad", Dataflow.WEIGHT_STATIONARY, num_pes=0)

    def test_peak_macs(self):
        acc = Accelerator(0, "a", Dataflow.WEIGHT_STATIONARY, num_pes=1000, clock_hz=1e9)
        assert acc.peak_macs_per_ms == pytest.approx(1e9)

    def test_context_switch_cost_scales_with_bytes(self):
        acc = Accelerator(0, "a", Dataflow.WEIGHT_STATIONARY, num_pes=1024)
        small = acc.context_switch_cost(1000, 1000)
        large = acc.context_switch_cost(100000, 100000)
        assert large.latency_ms > small.latency_ms
        assert large.energy_mj > small.energy_mj


class TestPlatform:
    def test_all_presets_instantiate(self):
        for name in PLATFORM_PRESETS:
            platform = make_platform(name)
            assert platform.num_accelerators >= 2

    def test_preset_total_pes(self):
        assert make_platform("4k_2ws").total_pes == 4096
        assert make_platform("8k_1ws_2os").total_pes == 8192

    def test_heterogeneous_flag(self):
        # The Figure 7/8 platform lists must match the presets' dataflows.
        for name in heterogeneous_platform_names():
            assert len({acc.dataflow for acc in make_platform(name)}) == 2, name
        for name in homogeneous_platform_names():
            assert len({acc.dataflow for acc in make_platform(name)}) == 1, name

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError):
            make_platform("16k_mystery")

    def test_resource_shares_proportional_to_pes(self):
        platform = make_platform("4k_1ws_2os")
        big, small = platform[0], platform[1]
        assert big.sram_bytes > small.sram_bytes
        assert big.dram_bandwidth_gbps > small.dram_bandwidth_gbps
        # The shares split Table 2's platform totals.
        assert sum(acc.sram_bytes for acc in platform) == pytest.approx(DEFAULT_SRAM_BYTES, abs=2)
        assert sum(acc.dram_bandwidth_gbps for acc in platform) == pytest.approx(
            DEFAULT_DRAM_BANDWIDTH_GBPS
        )
        assert {acc.clock_hz for acc in platform} == {DEFAULT_CLOCK_HZ}

    def test_platform_name_lists_are_disjoint_and_complete(self):
        het, hom = set(heterogeneous_platform_names()), set(homogeneous_platform_names())
        assert het.isdisjoint(hom)
        assert het | hom == set(all_platform_names())

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            build_platform("empty", [])


class TestCostModel:
    def test_dwconv_prefers_output_stationary(self, cost_model):
        platform = make_platform("4k_1ws_2os")
        ws, os_ = platform[0], platform[1]
        layer = dwconv2d("dw", 56, 56, 64)
        assert cost_model.cost(layer, os_).latency_ms < cost_model.cost(layer, ws).latency_ms * (
            ws.num_pes / os_.num_pes
        )

    def test_recurrent_layer_prefers_weight_stationary(self, cost_model):
        platform = build_platform(
            "pair", [(Dataflow.WEIGHT_STATIONARY, 1024), (Dataflow.OUTPUT_STATIONARY, 1024)]
        )
        from repro.models.layers import lstm

        layer = lstm("l", 1024, 1024, seq_len=32)
        assert cost_model.cost(layer, platform[0]).latency_ms < cost_model.cost(layer, platform[1]).latency_ms

    def test_more_pes_never_slower_for_compute_bound(self, cost_model):
        small = Accelerator(0, "s", Dataflow.WEIGHT_STATIONARY, num_pes=512)
        large = Accelerator(1, "l", Dataflow.WEIGHT_STATIONARY, num_pes=4096)
        layer = conv2d("c", 128, 128, 64, 128, kernel=3)
        assert cost_model.cost(layer, large).latency_ms <= cost_model.cost(layer, small).latency_ms

    def test_utilization_bounded(self, cost_model):
        acc = Accelerator(0, "a", Dataflow.OUTPUT_STATIONARY, num_pes=2048)
        layer = conv2d("c", 64, 64, 32, 64)
        assert 0.0 < cost_model.utilization(layer, acc) <= 1.0

    def test_energy_positive_and_increasing_with_work(self, cost_model):
        acc = Accelerator(0, "a", Dataflow.WEIGHT_STATIONARY, num_pes=2048)
        small = conv2d("s", 32, 32, 16, 16)
        big = conv2d("b", 64, 64, 64, 64)
        assert 0 < cost_model.cost(small, acc).energy_mj < cost_model.cost(big, acc).energy_mj

    def test_sram_spill_increases_traffic(self, cost_model):
        tiny_sram = Accelerator(0, "t", Dataflow.WEIGHT_STATIONARY, num_pes=2048, sram_bytes=1024)
        big_sram = Accelerator(1, "b", Dataflow.WEIGHT_STATIONARY, num_pes=2048)
        layer = conv2d("c", 128, 128, 64, 64)
        assert cost_model.dram_traffic_bytes(layer, tiny_sram) > cost_model.dram_traffic_bytes(
            layer, big_sram
        )

    def test_cost_breakdown_consistent(self, cost_model):
        acc = Accelerator(0, "a", Dataflow.WEIGHT_STATIONARY, num_pes=1024)
        cost = cost_model.cost(conv2d("c", 64, 64, 32, 32), acc)
        assert cost.latency_ms >= max(cost.compute_ms, cost.memory_ms)
        assert cost.energy_mj > 0
