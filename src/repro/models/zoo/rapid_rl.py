"""RAPID-RL [14] — indoor navigation with preemptive exits (Drone_Indoor).

RAPID-RL is a reconfigurable deep-RL policy network with preemptive exit
branches: easy states are resolved by an early branch, hard states continue
into deeper layers.  The Drone_Indoor scenario runs it at 60 FPS as the
indoor navigation policy.  We model a convolutional policy trunk over a
160x120 depth/RGB input with two preemptive exit branches (after the second
and fourth convolutional stages), each taken with the probability reported
in the RAPID-RL paper for its indoor benchmark (about 40% per branch).
"""

from __future__ import annotations

from repro.models.graph import ModelGraph
from repro.models.layers import conv2d, fc, pool2d
from repro.models.dynamic import EarlyExit

#: Probability of taking each preemptive exit branch (about 40% per branch,
#: see the module docstring).
EXIT_PROBABILITY = 0.4


def build_rapid_rl(height: int = 120, width: int = 160) -> ModelGraph:
    """Build the RAPID-RL indoor-navigation policy graph.

    Args:
        height, width: input resolution of the onboard camera.
    """
    layers = [conv2d("stage0.conv", height, width, 4, 32, kernel=5, stride=2)]
    fm_h, fm_w = height // 2, width // 2
    layers.append(conv2d("stage1.conv", fm_h, fm_w, 32, 64, kernel=3, stride=2))
    fm_h, fm_w = fm_h // 2, fm_w // 2
    # First preemptive exit: small policy head on the early feature map.
    layers.append(fc("exit0.policy", fm_h * fm_w * 64 // 16, 64))
    exit0_index = len(layers) - 1

    layers.append(conv2d("stage2.conv", fm_h, fm_w, 64, 128, kernel=3, stride=2))
    fm_h, fm_w = fm_h // 2, fm_w // 2
    layers.append(conv2d("stage3.conv", fm_h, fm_w, 128, 128, kernel=3))
    # Second preemptive exit.
    layers.append(fc("exit1.policy", fm_h * fm_w * 128 // 16, 64))
    exit1_index = len(layers) - 1

    layers.append(conv2d("stage4.conv", fm_h, fm_w, 128, 256, kernel=3, stride=2))
    fm_h, fm_w = fm_h // 2, fm_w // 2
    layers.append(pool2d("head.pool", fm_h, fm_w, 256, kernel=2))
    layers.append(fc("head.fc", (fm_h // 2) * (fm_w // 2) * 256, 512))
    layers.append(fc("head.policy", 512, 8))

    return ModelGraph(
        name="rapid_rl",
        layers=tuple(layers),
        dynamic_behavior=EarlyExit(
            exit_points=(
                (exit0_index, EXIT_PROBABILITY),
                (exit1_index, EXIT_PROBABILITY),
            )
        ),
        metadata={
            "source": "Kosta et al., ICRA 2022 (RAPID-RL)",
            "task": "indoor navigation policy",
            "input": f"{height}x{width}x4",
        },
    )
