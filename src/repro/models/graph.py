"""Model graphs: ordered, shape-annotated layer sequences.

A :class:`ModelGraph` is the unit of deployment in a workload scenario: it
has a name (used as the key in cost tables), an ordered sequence of layers
and an optional :class:`~repro.models.dynamic.DynamicBehavior` describing
operator-level dynamicity (layer skipping / early exit).

Models used as Supernet variants are plain :class:`ModelGraph` instances;
the grouping into a weight-sharing family lives in
:class:`~repro.models.supernet.Supernet`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.models.dynamic import DynamicBehavior, StaticExecution
from repro.models.layers import Layer


@dataclass(frozen=True)
class ModelGraph:
    """An ordered sequence of layers forming one deployable model.

    Attributes:
        name: unique model (or Supernet-variant) name.
        layers: the layers in execution order.
        dynamic_behavior: operator-level dynamicity; defaults to static.
        metadata: free-form annotations (source paper, input resolution...).
    """

    name: str
    layers: tuple[Layer, ...]
    dynamic_behavior: DynamicBehavior = field(default_factory=StaticExecution)
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("model name must be non-empty")
        if not self.layers:
            raise ValueError(f"model {self.name!r} must have at least one layer")
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise ValueError(f"model {self.name!r} has duplicate layer names")

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    @property
    def num_layers(self) -> int:
        """Number of layers in the graph."""
        return len(self.layers)

    @property
    def total_macs(self) -> int:
        """Total multiply-accumulates over all layers."""
        return sum(layer.macs for layer in self.layers)

    @property
    def is_dynamic(self) -> bool:
        """True if the model has operator-level dynamicity."""
        return not isinstance(self.dynamic_behavior, StaticExecution)

    # ------------------------------------------------------------------ #
    # execution paths
    # ------------------------------------------------------------------ #
    def sample_execution_path(self, rng: random.Random) -> list[int]:
        """Sample the layer indices one inference request will execute."""
        path = self.dynamic_behavior.sample_path(self.num_layers, rng)
        self._validate_path(path)
        return path

    def worst_case_path(self) -> list[int]:
        """Longest possible execution path (static-scheduler assumption)."""
        path = self.dynamic_behavior.worst_case_path(self.num_layers)
        self._validate_path(path)
        return path

    def _validate_path(self, path: Sequence[int]) -> None:
        if not path:
            raise ValueError(f"model {self.name!r}: execution path is empty")
        previous = -1
        for idx in path:
            if not 0 <= idx < self.num_layers:
                raise ValueError(
                    f"model {self.name!r}: path index {idx} out of range"
                )
            if idx <= previous:
                raise ValueError(
                    f"model {self.name!r}: path indices must be strictly increasing"
                )
            previous = idx

    def describe(self) -> str:
        """One-line summary used by examples and reports."""
        gmacs = self.total_macs / 1e9
        return (
            f"{self.name}: {self.num_layers} layers, {gmacs:.2f} GMACs, "
            f"{'dynamic' if self.is_dynamic else 'static'}"
        )
