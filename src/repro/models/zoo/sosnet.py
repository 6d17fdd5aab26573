"""SOSNet [37] — local feature descriptors for visual odometry (60 FPS).

Both drone scenarios run SOSNet at 60 FPS: outdoors for visual odometry,
indoors for obstacle detection support.  SOSNet is a compact
L2Net-style descriptor CNN applied to a batch of 32x32 keypoint patches per
frame; we model a 64-patch batch, which is typical for odometry front-ends
on embedded platforms.
"""

from __future__ import annotations

from repro.models.graph import ModelGraph
from repro.models.layers import conv2d

#: L2Net trunk configuration: (out_channels, kernel, stride).
_TRUNK = (
    (32, 3, 1),
    (32, 3, 1),
    (64, 3, 2),
    (64, 3, 1),
    (128, 3, 2),
    (128, 3, 1),
    (128, 8, 1),
)


def build_sosnet(num_patches: int = 64) -> ModelGraph:
    """Build the SOSNet descriptor model graph.

    The per-patch network is replicated over the patch batch by scaling the
    spatial dimension (patches are processed as a tiled batch), which gives
    the same MAC count and traffic as running the descriptor per keypoint.

    Args:
        num_patches: keypoint patches described per frame.
    """
    # Tile the batch of 32x32 patches along the height dimension: N patches
    # of HxW are cost-equivalent to a single (N*H)xW input for a per-patch CNN.
    height = 32 * num_patches
    width = 32
    channels = 1
    layers = []
    for index, (out_channels, kernel, stride) in enumerate(_TRUNK):
        padding = 0 if kernel == 8 else kernel // 2
        layers.append(
            conv2d(
                f"conv{index}",
                height,
                width,
                channels,
                out_channels,
                kernel=kernel,
                stride=stride,
                padding=padding,
            )
        )
        height = max(1, (height + 2 * padding - kernel) // stride + 1)
        width = max(1, (width + 2 * padding - kernel) // stride + 1)
        channels = out_channels
    return ModelGraph(
        name="sosnet",
        layers=tuple(layers),
        metadata={
            "source": "Tian et al., CVPR 2019 (SOSNet)",
            "task": "visual odometry / obstacle support",
            "input": f"{num_patches} patches of 32x32",
        },
    )
