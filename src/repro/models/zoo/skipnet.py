"""SkipNet [42] — context understanding with dynamic layer skipping (AR_Call).

SkipNet augments a ResNet with per-block gating: at run time each residual
block may be skipped based on the input.  The paper assumes a 50% skip
probability per block (the operating point that keeps 72% ImageNet top-1
accuracy), which makes the workload non-deterministic — the scheduler only
learns the realized path as the inference progresses.

We model SkipNet-34: a ResNet-34 backbone whose residual blocks (except the
first block of each stage, which changes the tensor shape) are skippable.
"""

from __future__ import annotations

from repro.models.graph import ModelGraph
from repro.models.layers import conv2d, fc, pool2d
from repro.models.dynamic import LayerSkipping
from repro.models.zoo._blocks import resnet_basic_block

#: ResNet-34 stage configuration: (out_channels, num_blocks, stride).
_STAGES = ((64, 3, 1), (128, 4, 2), (256, 6, 2), (512, 3, 2))

#: Probability that each skippable block is skipped (the paper's operating
#: point, see the module docstring).
SKIP_PROBABILITY = 0.5


def build_skipnet(resolution: int = 224) -> ModelGraph:
    """Build the SkipNet-34 model graph with per-block skipping.

    Args:
        resolution: square input resolution.
    """
    layers = [conv2d("stem", resolution, resolution, 3, 64, kernel=7, stride=2)]
    height = width = resolution // 2
    layers.append(pool2d("stem.pool", height, width, 64, kernel=2))
    height, width = height // 2, width // 2
    channels = 64

    skippable_blocks: list[tuple[int, ...]] = []
    for stage_index, (out_channels, blocks, stride) in enumerate(_STAGES):
        for block_index in range(blocks):
            block_stride = stride if block_index == 0 else 1
            start = len(layers)
            block_layers, height, width = resnet_basic_block(
                f"stage{stage_index}.block{block_index}",
                height,
                width,
                channels,
                out_channels,
                stride=block_stride,
            )
            layers.extend(block_layers)
            channels = out_channels
            # Identity-shaped blocks (no stride / channel change) are gateable.
            if block_index > 0:
                skippable_blocks.append(tuple(range(start, len(layers))))

    layers.append(pool2d("head.pool", height, width, channels, kernel=height))
    layers.append(fc("head.classifier", channels, 1000))

    return ModelGraph(
        name="skipnet",
        layers=tuple(layers),
        dynamic_behavior=LayerSkipping(
            blocks=tuple(skippable_blocks), skip_probability=SKIP_PROBABILITY
        ),
        metadata={
            "source": "Wang et al., ECCV 2018 (SkipNet-34)",
            "task": "visual context understanding",
            "input": f"{resolution}x{resolution}x3",
            "accuracy": "72% ImageNet top-1 at 50% skip",
        },
    )
