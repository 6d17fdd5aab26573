"""ED-TCN [18] — temporal action segmentation (AR_Social, 30 FPS).

The encoder-decoder temporal convolutional network of Lea et al. segments
an activity sequence into action intervals.  AR_Social uses it to follow
the interaction state of the people in view.  We model the published
two-level encoder/decoder over a 128-step window of 2048-dimensional frame
features (the usual I3D/VGG feature dimension), with temporal pooling and
upsampling between levels.
"""

from __future__ import annotations

from repro.models.graph import ModelGraph
from repro.models.layers import conv1d, fc, pool2d


def build_ed_tcn(window: int = 128) -> ModelGraph:
    """Build the ED-TCN action-segmentation model graph.

    Args:
        window: number of temporal steps in the input window.
    """
    layers = [
        conv1d("encoder0.conv", window, 2048, 256, kernel=25),
        pool2d("encoder0.pool", window, 1, 256, kernel=2, stride=2),
    ]
    half_window = window // 2
    layers.append(conv1d("encoder1.conv", half_window, 256, 160, kernel=25))
    layers.append(pool2d("encoder1.pool", half_window, 1, 160, kernel=2, stride=2))
    quarter_window = half_window // 2

    layers.append(conv1d("decoder0.conv", quarter_window, 160, 160, kernel=25))
    layers.append(conv1d("decoder1.conv", half_window, 160, 256, kernel=25))
    layers.append(conv1d("head.frame_conv", window, 256, 128, kernel=1))
    layers.append(fc("head.classifier", 128, 48))  # 48 action classes per step

    return ModelGraph(
        name="ed_tcn",
        layers=tuple(layers),
        metadata={
            "source": "Lea et al., CVPR 2017 (ED-TCN)",
            "task": "action segmentation",
            "input": f"{window} steps x 2048 features",
        },
    )
