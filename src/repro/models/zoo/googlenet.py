"""GoogLeNet-car [47] — fine-grained car classification (Drone_Indoor, 60 FPS).

The indoor drone scenario uses a GoogLeNet fine-tuned on the CompCars
dataset for parking-enforcement use cases.  We model the standard GoogLeNet
(Inception v1) topology at 224x224 with the CompCars class count.
"""

from __future__ import annotations

from repro.models.graph import ModelGraph
from repro.models.layers import conv2d, fc, pool2d
from repro.models.zoo._blocks import inception_module

#: Inception module parameters: (ch1x1, ch3x3red, ch3x3, ch5x5red, ch5x5, pool_proj).
_INCEPTION_3 = (
    ("3a", 64, 96, 128, 16, 32, 32),
    ("3b", 128, 128, 192, 32, 96, 64),
)
_INCEPTION_4 = (
    ("4a", 192, 96, 208, 16, 48, 64),
    ("4b", 160, 112, 224, 24, 64, 64),
    ("4c", 128, 128, 256, 24, 64, 64),
    ("4d", 112, 144, 288, 32, 64, 64),
    ("4e", 256, 160, 320, 32, 128, 128),
)
_INCEPTION_5 = (
    ("5a", 256, 160, 320, 32, 128, 128),
    ("5b", 384, 192, 384, 48, 128, 128),
)


def build_googlenet_car(resolution: int = 224) -> ModelGraph:
    """Build the GoogLeNet-car classification model graph.

    Args:
        resolution: square input resolution.
    """
    layers = [conv2d("stem.conv1", resolution, resolution, 3, 64, kernel=7, stride=2)]
    size = resolution // 2
    layers.append(pool2d("stem.pool1", size, size, 64, 2))
    size //= 2
    layers.append(conv2d("stem.conv2_reduce", size, size, 64, 64, 1))
    layers.append(conv2d("stem.conv2", size, size, 64, 192, 3))
    layers.append(pool2d("stem.pool2", size, size, 192, 2))
    size //= 2

    channels = 192
    for name, *params in _INCEPTION_3:
        module_layers, channels = inception_module(f"inception{name}", size, size, channels, *params)
        layers.extend(module_layers)
    layers.append(pool2d("pool3", size, size, channels, 2))
    size //= 2

    for name, *params in _INCEPTION_4:
        module_layers, channels = inception_module(f"inception{name}", size, size, channels, *params)
        layers.extend(module_layers)
    layers.append(pool2d("pool4", size, size, channels, 2))
    size //= 2

    for name, *params in _INCEPTION_5:
        module_layers, channels = inception_module(f"inception{name}", size, size, channels, *params)
        layers.extend(module_layers)
    layers.append(pool2d("head.pool", size, size, channels, kernel=size))
    layers.append(fc("head.classifier", channels, 431))  # CompCars car models

    return ModelGraph(
        name="googlenet_car",
        layers=tuple(layers),
        metadata={
            "source": "GoogLeNet fine-tuned on CompCars (CVPR 2015)",
            "task": "fine-grained car classification",
            "input": f"{resolution}x{resolution}x3",
        },
    )
