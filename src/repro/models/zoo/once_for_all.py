"""Once-for-All Supernet [4] — context-understanding model with variants.

The paper uses four weight-sharing sub-networks of an Once-for-All (OFA)
Supernet (the ``ofa-s7edge`` family) for the visual context-understanding
task in VR_Gaming, AR_Social and Drone scenarios.  DREAM's Supernet
switching picks a lighter variant when the system is overloaded
(Section 4.5.1, Figure 14).

Each variant is a MobileNetV3-style inverted-residual network; lighter
variants shallow the stages and narrow the expansion factors, mirroring how
OFA sub-networks are extracted (depth in {2,3,4}, expansion in {3,4,6}).
"""

from __future__ import annotations

from repro.models.graph import ModelGraph
from repro.models.layers import conv2d, fc, pool2d
from repro.models.supernet import Supernet
from repro.models.zoo._blocks import inverted_residual

#: Variant name -> (per-stage block counts, per-stage expansion factor).
#: Stages use channels (24, 40, 80, 112, 160) with strides (2, 2, 2, 1, 2).
_VARIANTS: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {
    "ofa_original": ((4, 4, 4, 4, 4), (6, 6, 6, 6, 6)),
    "ofa_medium": ((3, 3, 4, 3, 3), (4, 6, 4, 6, 4)),
    "ofa_small": ((2, 3, 3, 2, 3), (4, 4, 4, 4, 4)),
    "ofa_tiny": ((2, 2, 2, 2, 2), (3, 3, 3, 3, 3)),
}

_STAGE_CHANNELS = (24, 40, 80, 112, 160)
_STAGE_STRIDES = (2, 2, 2, 1, 2)
_STAGE_KERNELS = (3, 5, 3, 3, 5)


def _build_variant(name: str, resolution: int) -> ModelGraph:
    depths, expansions = _VARIANTS[name]
    layers = [conv2d("stem", resolution, resolution, 3, 16, kernel=3, stride=2)]
    height = width = resolution // 2
    channels = 16
    for stage_index, (depth, expansion) in enumerate(zip(depths, expansions)):
        out_channels = _STAGE_CHANNELS[stage_index]
        stride = _STAGE_STRIDES[stage_index]
        kernel = _STAGE_KERNELS[stage_index]
        for block_index in range(depth):
            block_stride = stride if block_index == 0 else 1
            block_layers, height, width = inverted_residual(
                f"stage{stage_index}.block{block_index}",
                height,
                width,
                channels,
                out_channels,
                expansion,
                stride=block_stride,
                kernel=kernel,
            )
            layers.extend(block_layers)
            channels = out_channels
    layers.append(conv2d("head.expand", height, width, channels, 960, kernel=1))
    layers.append(pool2d("head.pool", height, width, 960, kernel=height))
    layers.append(fc("head.feature", 960, 1280))
    layers.append(fc("head.classifier", 1280, 1000))
    return ModelGraph(
        name=name,
        layers=tuple(layers),
        metadata={
            "source": "Once-for-All (ICLR 2020), ofa-s7edge family",
            "task": "visual context understanding",
            "input": f"{resolution}x{resolution}x3",
        },
    )


def build_once_for_all(resolution: int = 256) -> Supernet:
    """Build the Once-for-All Supernet with its four variants.

    Args:
        resolution: square input resolution shared by all variants.
    """
    variants = tuple(_build_variant(name, resolution) for name in _VARIANTS)
    return Supernet(name="once_for_all", variants=variants)
