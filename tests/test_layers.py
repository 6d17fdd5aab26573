"""Unit tests for the layer shape/cost arithmetic."""

import pytest

from repro.models.layers import (
    BYTES_PER_ELEMENT,
    Layer,
    conv1d,
    conv2d,
    dwconv2d,
    eltwise,
    fc,
    lstm,
    pool2d,
)


class TestConv2d:
    def test_macs_match_formula(self):
        layer = conv2d("c", height=32, width=32, in_channels=16, out_channels=32, kernel=3)
        assert layer.macs == 32 * 32 * 32 * 16 * 9

    def test_stride_halves_output(self):
        layer = conv2d("c", 32, 32, 16, 32, kernel=3, stride=2)
        assert layer.output_elements == 16 * 16 * 32

    def test_weight_bytes(self):
        layer = conv2d("c", 8, 8, 4, 8, kernel=3)
        assert layer.weight_bytes == 8 * 4 * 9 * BYTES_PER_ELEMENT

    def test_grouped_conv_reduces_macs(self):
        full = conv2d("full", 16, 16, 8, 8, kernel=3, groups=1)
        grouped = conv2d("grouped", 16, 16, 8, 8, kernel=3, groups=4)
        assert grouped.macs == full.macs // 4

    def test_depthwise_op_type(self):
        layer = conv2d("dw", 16, 16, 8, 8, kernel=3, groups=8)
        assert layer.op_type == "dwconv"

    def test_invalid_groups_raises(self):
        with pytest.raises(ValueError):
            conv2d("bad", 16, 16, 7, 8, kernel=3, groups=2)


class TestDwConv:
    def test_is_depthwise(self):
        layer = dwconv2d("dw", 32, 32, 24, kernel=3)
        assert layer.op_type == "dwconv"
        assert layer.macs == 32 * 32 * 24 * 9

    def test_weight_elements_exclude_cross_channel(self):
        layer = dwconv2d("dw", 32, 32, 24, kernel=3)
        assert layer.weight_elements == 24 * 9


class TestFcAndLstm:
    def test_fc_macs(self):
        layer = fc("fc", 128, 64)
        assert layer.macs == 128 * 64
        assert layer.output_elements == 64

    def test_lstm_macs_scale_with_sequence(self):
        short = lstm("l", 64, 128, seq_len=1)
        long = lstm("l", 64, 128, seq_len=10)
        assert long.macs == 10 * short.macs
        assert long.weight_bytes == short.weight_bytes  # weights are shared

    def test_lstm_gate_structure(self):
        layer = lstm("l", 64, 128, seq_len=1)
        assert layer.macs == 4 * 128 * (64 + 128)


class TestPoolEltwiseConv1d:
    def test_pool_output(self):
        layer = pool2d("p", 32, 32, 16, kernel=2)
        assert layer.output_elements == 16 * 16 * 16
        assert layer.weight_bytes == 0

    def test_eltwise_reads_two_operands(self):
        layer = eltwise("e", 8, 8, 4)
        assert layer.input_bytes == 2 * 8 * 8 * 4 * BYTES_PER_ELEMENT

    def test_conv1d_macs(self):
        layer = conv1d("t", length=100, in_channels=16, out_channels=32, kernel=5)
        assert layer.macs == 100 * 32 * 16 * 5


class TestLayerValidation:
    def test_negative_macs_rejected(self):
        with pytest.raises(ValueError):
            Layer("bad", "conv", -1, 1, 1, 1, 1, 1)

    def test_zero_parallelism_rejected(self):
        with pytest.raises(ValueError):
            Layer("bad", "conv", 1, 1, 1, 1, 0, 1)
