"""KWS-res8 [35] — small-footprint keyword spotting.

Runs at 15 FPS in VR_Gaming and AR_Call.  A positive keyword detection
triggers the GNMT translation model (control dependency, 50% positive rate
by default).  The res8 architecture of Tang & Lin is a tiny residual CNN
over an MFCC spectrogram (101 frames x 40 coefficients).
"""

from __future__ import annotations

from repro.models.graph import ModelGraph
from repro.models.layers import conv2d, eltwise, fc, pool2d


def build_kws_res8() -> ModelGraph:
    """Build the res8 keyword-spotting model graph."""
    height, width = 101, 40
    channels = 45
    layers = [conv2d("stem", height, width, 1, channels, kernel=3)]
    layers.append(pool2d("stem.pool", height, width, channels, kernel=4, stride=4))
    height, width = height // 4, width // 4
    for block_index in range(3):
        layers.append(
            conv2d(f"res{block_index}.conv1", height, width, channels, channels, 3)
        )
        layers.append(
            conv2d(f"res{block_index}.conv2", height, width, channels, channels, 3)
        )
        layers.append(eltwise(f"res{block_index}.add", height, width, channels))
    layers.append(pool2d("head.pool", height, width, channels, kernel=height, stride=height))
    layers.append(fc("head.classifier", channels, 12))  # 12-keyword vocabulary
    return ModelGraph(
        name="kws_res8",
        layers=tuple(layers),
        metadata={
            "source": "Tang & Lin, ICASSP 2018 (res8)",
            "task": "keyword spotting",
            "input": "101x40 MFCC",
        },
    )
