"""Multi-accelerator platform descriptions (Table 2 of the paper).

A :class:`Platform` is a named collection of sub-accelerators that share the
on-chip SRAM and off-chip bandwidth.  The paper evaluates eight platforms:
4K and 8K total PEs, each in two homogeneous styles (2xWS, 2xOS) and two
heterogeneous styles (1WS+2OS, 1OS+2WS).  The shared 8 MiB SRAM and 90 GB/s
bandwidth are divided among sub-accelerators proportionally to their PE
counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.hardware.accelerator import (
    Accelerator,
    DEFAULT_CLOCK_HZ,
    DEFAULT_DRAM_BANDWIDTH_GBPS,
    DEFAULT_SRAM_BYTES,
)
from repro.hardware.dataflow import Dataflow


@dataclass(frozen=True)
class Platform:
    """A multi-accelerator system.

    Attributes:
        name: preset or user-supplied platform name (e.g. ``"4k_1ws_2os"``).
        accelerators: the sub-accelerators, ordered by ``acc_id``.
    """

    name: str
    accelerators: tuple[Accelerator, ...]

    def __post_init__(self) -> None:
        if not self.accelerators:
            raise ValueError("a platform needs at least one accelerator")
        ids = [acc.acc_id for acc in self.accelerators]
        if ids != list(range(len(ids))):
            raise ValueError(
                f"accelerator ids must be 0..N-1 in order, got {ids}"
            )

    def __len__(self) -> int:
        return len(self.accelerators)

    def __iter__(self) -> Iterator[Accelerator]:
        return iter(self.accelerators)

    def __getitem__(self, acc_id: int) -> Accelerator:
        return self.accelerators[acc_id]

    @property
    def num_accelerators(self) -> int:
        """Number of sub-accelerators in the platform."""
        return len(self.accelerators)

    @property
    def total_pes(self) -> int:
        """Total number of PEs across all sub-accelerators."""
        return sum(acc.num_pes for acc in self.accelerators)

    def describe(self) -> str:
        """One-line human-readable description of the platform."""
        parts = ", ".join(
            f"{acc.dataflow.value}x{acc.num_pes}" for acc in self.accelerators
        )
        return f"{self.name}: [{parts}] ({self.total_pes} PEs total)"


def build_platform(name: str, spec: Sequence[tuple[Dataflow, int]]) -> Platform:
    """Build a platform from a list of (dataflow, num_pes) pairs.

    Table 2's shared SRAM (:data:`DEFAULT_SRAM_BYTES`) and DRAM bandwidth
    (:data:`DEFAULT_DRAM_BANDWIDTH_GBPS`) are split among the
    sub-accelerators proportionally to their PE counts; all of them run at
    :data:`DEFAULT_CLOCK_HZ`.

    Args:
        name: platform name.
        spec: one (dataflow, PE count) pair per sub-accelerator.
    """
    if not spec:
        raise ValueError("platform spec must contain at least one accelerator")
    total_pes = sum(pes for _, pes in spec)
    accelerators = []
    for acc_id, (dataflow, num_pes) in enumerate(spec):
        share = num_pes / total_pes
        accelerators.append(
            Accelerator(
                acc_id=acc_id,
                name=f"{dataflow.value}-{num_pes}#{acc_id}",
                dataflow=dataflow,
                num_pes=num_pes,
                sram_bytes=max(1, int(round(DEFAULT_SRAM_BYTES * share))),
                dram_bandwidth_gbps=DEFAULT_DRAM_BANDWIDTH_GBPS * share,
                clock_hz=DEFAULT_CLOCK_HZ,
            )
        )
    return Platform(name=name, accelerators=tuple(accelerators))


_WS = Dataflow.WEIGHT_STATIONARY
_OS = Dataflow.OUTPUT_STATIONARY

#: The eight platform presets of Table 2, keyed by name.
PLATFORM_PRESETS: dict[str, tuple[tuple[Dataflow, int], ...]] = {
    # 4K PEs total
    "4k_2ws": ((_WS, 2048), (_WS, 2048)),
    "4k_2os": ((_OS, 2048), (_OS, 2048)),
    "4k_1ws_2os": ((_WS, 2048), (_OS, 1024), (_OS, 1024)),
    "4k_1os_2ws": ((_OS, 2048), (_WS, 1024), (_WS, 1024)),
    # 8K PEs total
    "8k_2ws": ((_WS, 4096), (_WS, 4096)),
    "8k_2os": ((_OS, 4096), (_OS, 4096)),
    "8k_1ws_2os": ((_WS, 4096), (_OS, 2048), (_OS, 2048)),
    "8k_1os_2ws": ((_OS, 4096), (_WS, 2048), (_WS, 2048)),
}


def make_platform(name: str) -> Platform:
    """Instantiate one of the Table 2 platform presets by name.

    Raises:
        KeyError: if ``name`` is not a known preset.
    """
    try:
        spec = PLATFORM_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown platform preset {name!r}; known presets: "
            f"{sorted(PLATFORM_PRESETS)}"
        ) from None
    return build_platform(name, spec)


def heterogeneous_platform_names() -> list[str]:
    """Names of the heterogeneous-dataflow presets (Figure 7 platforms)."""
    return ["4k_1ws_2os", "4k_1os_2ws", "8k_1ws_2os", "8k_1os_2ws"]


def homogeneous_platform_names() -> list[str]:
    """Names of the homogeneous-dataflow presets (Figure 8 platforms)."""
    return ["4k_2ws", "4k_2os", "8k_2ws", "8k_2os"]


def all_platform_names() -> list[str]:
    """All preset names, heterogeneous first (paper's main results order)."""
    return heterogeneous_platform_names() + homogeneous_platform_names()
