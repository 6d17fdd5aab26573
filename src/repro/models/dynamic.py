"""Operator-level dynamic behaviours (Section 2.2, "Lv 0" dynamicity).

RTMM models are not static computation graphs: SkipNet-style models skip
residual blocks based on a per-input gating decision, and early-exit models
(RAPID-RL, BranchyNet) stop at an intermediate classifier when the
confidence is high enough.  For the scheduler this means the set of layers a
request will execute is only known at run time.

A :class:`DynamicBehavior` samples, per inference request, the *execution
path*: the ordered list of layer indices that will actually run.  The
simulator reveals the path to the scheduler only as layers complete, which
is exactly the non-determinism that defeats static schedulers (Section 2.3).
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass


class DynamicBehavior(abc.ABC):
    """Strategy that samples which layers of a model a request executes."""

    @abc.abstractmethod
    def sample_path(self, num_layers: int, rng: random.Random) -> list[int]:
        """Return the ordered layer indices executed by one request.

        Args:
            num_layers: number of layers in the model graph.
            rng: per-simulation random generator (for reproducibility).
        """

    def worst_case_path(self, num_layers: int) -> list[int]:
        """The longest possible path (what a static scheduler must assume)."""
        return list(range(num_layers))


@dataclass(frozen=True)
class StaticExecution(DynamicBehavior):
    """No dynamicity: every request runs every layer in order."""

    def sample_path(self, num_layers: int, rng: random.Random) -> list[int]:
        return list(range(num_layers))


@dataclass(frozen=True)
class LayerSkipping(DynamicBehavior):
    """SkipNet-style per-block skipping.

    Each *block* (a contiguous group of layer indices) is independently
    skipped with ``skip_probability``.  Layers not covered by any block
    always execute.  The paper assumes a 50% skip probability per block for
    SkipNet, which preserves its reported 72% ImageNet top-1 accuracy.
    """

    blocks: tuple[tuple[int, ...], ...]
    skip_probability: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.skip_probability <= 1.0:
            raise ValueError("skip_probability must be in [0, 1]")

    def sample_path(self, num_layers: int, rng: random.Random) -> list[int]:
        skipped: set[int] = set()
        for block in self.blocks:
            if rng.random() < self.skip_probability:
                skipped.update(block)
        return [idx for idx in range(num_layers) if idx not in skipped]


@dataclass(frozen=True)
class EarlyExit(DynamicBehavior):
    """Early-exit (branchy) execution.

    ``exit_points`` is a sequence of ``(layer_index, probability)`` pairs:
    after executing ``layer_index``, the request exits with the given
    probability and the remaining layers are not executed.  RAPID-RL's
    preemptive exits are modelled this way.
    """

    exit_points: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        for layer_index, probability in self.exit_points:
            if layer_index < 0:
                raise ValueError("exit layer indices must be non-negative")
            if not 0.0 <= probability <= 1.0:
                raise ValueError("exit probabilities must be in [0, 1]")

    def sample_path(self, num_layers: int, rng: random.Random) -> list[int]:
        exit_after = dict(self.exit_points)
        path: list[int] = []
        for idx in range(num_layers):
            path.append(idx)
            probability = exit_after.get(idx)
            if probability is not None and rng.random() < probability:
                break
        return path
