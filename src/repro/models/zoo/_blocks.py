"""Reusable building blocks for the model zoo.

These helpers expand familiar CNN building blocks (MobileNet inverted
residuals, ResNet basic blocks, VGG stages, Inception modules) into flat
layer lists so each zoo module reads like the architecture table of the
corresponding paper.
"""

from __future__ import annotations

from repro.models.layers import Layer, conv2d, dwconv2d, eltwise, pool2d


def inverted_residual(
    prefix: str,
    height: int,
    width: int,
    in_channels: int,
    out_channels: int,
    expansion: int,
    stride: int = 1,
    kernel: int = 3,
) -> tuple[list[Layer], int, int]:
    """MobileNetV2 / FBNet inverted-residual block.

    Expansion 1x1 conv -> depthwise kxk conv -> projection 1x1 conv, with a
    residual add when the shapes allow it.

    Returns:
        (layers, output_height, output_width)
    """
    layers: list[Layer] = []
    hidden = in_channels * expansion
    if expansion != 1:
        layers.append(
            conv2d(f"{prefix}.expand", height, width, in_channels, hidden, kernel=1)
        )
    layers.append(
        dwconv2d(f"{prefix}.dw", height, width, hidden, kernel=kernel, stride=stride)
    )
    out_h, out_w = height // stride, width // stride
    layers.append(
        conv2d(f"{prefix}.project", out_h, out_w, hidden, out_channels, kernel=1)
    )
    if stride == 1 and in_channels == out_channels:
        layers.append(eltwise(f"{prefix}.add", out_h, out_w, out_channels))
    return layers, out_h, out_w


def resnet_basic_block(
    prefix: str,
    height: int,
    width: int,
    in_channels: int,
    out_channels: int,
    stride: int = 1,
) -> tuple[list[Layer], int, int]:
    """ResNet-18/34 basic block: two 3x3 convolutions plus a residual add."""
    layers = [
        conv2d(f"{prefix}.conv1", height, width, in_channels, out_channels, 3, stride),
    ]
    out_h, out_w = height // stride, width // stride
    layers.append(conv2d(f"{prefix}.conv2", out_h, out_w, out_channels, out_channels, 3))
    if stride != 1 or in_channels != out_channels:
        layers.append(
            conv2d(f"{prefix}.downsample", height, width, in_channels, out_channels, 1, stride)
        )
    layers.append(eltwise(f"{prefix}.add", out_h, out_w, out_channels))
    return layers, out_h, out_w


def vgg_stage(
    prefix: str,
    height: int,
    width: int,
    in_channels: int,
    out_channels: int,
    num_convs: int,
) -> tuple[list[Layer], int, int]:
    """VGG-style stage: ``num_convs`` 3x3 convolutions followed by 2x2 pooling."""
    layers: list[Layer] = []
    channels = in_channels
    for i in range(num_convs):
        layers.append(
            conv2d(f"{prefix}.conv{i + 1}", height, width, channels, out_channels, 3)
        )
        channels = out_channels
    layers.append(pool2d(f"{prefix}.pool", height, width, out_channels, 2))
    return layers, height // 2, width // 2


def inception_module(
    prefix: str,
    height: int,
    width: int,
    in_channels: int,
    ch1x1: int,
    ch3x3_reduce: int,
    ch3x3: int,
    ch5x5_reduce: int,
    ch5x5: int,
    pool_proj: int,
) -> tuple[list[Layer], int]:
    """GoogLeNet Inception module; returns (layers, output channel count)."""
    layers = [
        conv2d(f"{prefix}.1x1", height, width, in_channels, ch1x1, 1),
        conv2d(f"{prefix}.3x3_reduce", height, width, in_channels, ch3x3_reduce, 1),
        conv2d(f"{prefix}.3x3", height, width, ch3x3_reduce, ch3x3, 3),
        conv2d(f"{prefix}.5x5_reduce", height, width, in_channels, ch5x5_reduce, 1),
        conv2d(f"{prefix}.5x5", height, width, ch5x5_reduce, ch5x5, 5),
        pool2d(f"{prefix}.pool", height, width, in_channels, 3, 1),
        conv2d(f"{prefix}.pool_proj", height, width, in_channels, pool_proj, 1),
    ]
    return layers, ch1x1 + ch3x3 + ch5x5 + pool_proj
