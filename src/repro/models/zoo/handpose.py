"""HandPoseNet [22] — hand-pose estimation, cascaded after hand detection.

The VR_Gaming scenario runs pose estimation at 30 FPS but only when the
hand detector finds a hand (control dependency, 50% by default).  We model
the global-to-local convolutional regression network of Madadi et al. on a
128x128 hand crop: a VGG-ish convolutional trunk followed by per-joint
regression heads.
"""

from __future__ import annotations

from repro.models.graph import ModelGraph
from repro.models.layers import conv2d, fc, pool2d


def build_handposenet(resolution: int = 128) -> ModelGraph:
    """Build the hand-pose estimation model graph.

    Args:
        resolution: square input resolution of the hand crop.
    """
    layers = []
    height = width = resolution
    channels = 3
    # Convolutional trunk: five stages doubling channels, halving resolution.
    stage_channels = (32, 64, 128, 256, 256)
    for stage_index, out_channels in enumerate(stage_channels):
        layers.append(
            conv2d(f"stage{stage_index}.conv1", height, width, channels, out_channels, 3)
        )
        layers.append(
            conv2d(f"stage{stage_index}.conv2", height, width, out_channels, out_channels, 3)
        )
        layers.append(pool2d(f"stage{stage_index}.pool", height, width, out_channels, 2))
        height, width = height // 2, width // 2
        channels = out_channels

    # Global pose branch.
    layers.append(fc("global.fc1", height * width * channels, 1024))
    layers.append(fc("global.fc2", 1024, 512))
    layers.append(fc("global.pose", 512, 21 * 3))  # 21 joints, 3-D each

    # Local refinement branch per joint group (modelled as three grouped heads).
    for head_index in range(3):
        layers.append(
            conv2d(f"local{head_index}.conv", height, width, channels, 128, kernel=3)
        )
        layers.append(fc(f"local{head_index}.fc", height * width * 128, 7 * 3))

    return ModelGraph(
        name="handposenet",
        layers=tuple(layers),
        metadata={
            "source": "Madadi et al., IET Computer Vision 2022",
            "task": "hand pose estimation",
            "input": f"{resolution}x{resolution}x3",
        },
    )
