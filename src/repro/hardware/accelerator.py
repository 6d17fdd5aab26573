"""Sub-accelerator description.

A platform (Table 2 in the paper) is a set of sub-accelerators that share
8 MiB of on-chip SRAM and 90 GB/s of off-chip DRAM bandwidth and run at
700 MHz.  Each sub-accelerator has its own PE array with a fixed dataflow
(WS or OS) and a number of PEs.

The :class:`Accelerator` dataclass captures the per-sub-accelerator share of
those resources; :class:`ContextSwitchCost` captures the cost of switching a
sub-accelerator from one task's model to another (flushing the switched-out
activations to DRAM and fetching the new ones), which feeds the
``Cost_switch`` term of Algorithm 1 (line 10).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.dataflow import Dataflow

#: Platform-wide totals of Table 2 / Section 5.1; ``build_platform`` splits
#: the SRAM and the bandwidth across the sub-accelerators by PE count.
DEFAULT_CLOCK_HZ = 700e6
DEFAULT_SRAM_BYTES = 8 * 1024 * 1024
DEFAULT_DRAM_BANDWIDTH_GBPS = 90.0

#: Energy per byte moved, in picojoules.  DRAM traffic is roughly an order
#: of magnitude more expensive than SRAM traffic in edge SoCs.
SRAM_ENERGY_PJ_PER_BYTE = 1.2
DRAM_ENERGY_PJ_PER_BYTE = 20.0

#: Static (leakage + clock tree) power per PE, in watts.  While a layer
#: occupies an accelerator, the whole PE array burns this power regardless of
#: utilization, so running a layer on a mismatched (slow) or oversized
#: accelerator costs real energy — the effect DREAM's energy score exploits.
STATIC_POWER_W_PER_PE = 1.2e-4

#: Fixed per-layer launch overhead (descriptor fetch, DMA programming,
#: configuration), in ms.  Edge NPUs typically spend on the order of ten
#: microseconds per operator dispatch.
LAYER_LAUNCH_OVERHEAD_MS = 0.010

#: Partial-sum traffic charged per MAC on top of operand traffic, as a
#: fraction of a byte of on-chip SRAM traffic.
PSUM_TRAFFIC_BYTES_PER_MAC = 0.125


@dataclass(frozen=True)
class ContextSwitchCost:
    """Cost of switching a sub-accelerator between two different tasks.

    Attributes:
        latency_ms: extra time before the new layer can start.
        energy_mj: extra energy (DRAM flush of the old task's live
            activations plus fetch of the new task's activations).
    """

    latency_ms: float
    energy_mj: float


@dataclass(frozen=True)
class Accelerator:
    """A single sub-accelerator in a multi-accelerator platform.

    Attributes:
        acc_id: unique integer id within the platform (index into score
            tables and availability vectors).
        name: human-readable name, e.g. ``"WS-2048#0"``.
        dataflow: the PE-array dataflow (WS or OS).
        num_pes: number of processing elements.
        sram_bytes: this sub-accelerator's share of the on-chip SRAM.
        dram_bandwidth_gbps: this sub-accelerator's share of off-chip
            bandwidth, in GB/s.
        clock_hz: clock frequency in Hz.
    """

    acc_id: int
    name: str
    dataflow: Dataflow
    num_pes: int
    sram_bytes: int = DEFAULT_SRAM_BYTES
    dram_bandwidth_gbps: float = DEFAULT_DRAM_BANDWIDTH_GBPS
    clock_hz: float = DEFAULT_CLOCK_HZ

    def __post_init__(self) -> None:
        if self.num_pes <= 0:
            raise ValueError(f"num_pes must be positive, got {self.num_pes}")
        if self.sram_bytes <= 0:
            raise ValueError(f"sram_bytes must be positive, got {self.sram_bytes}")
        if self.dram_bandwidth_gbps <= 0:
            raise ValueError(
                f"dram_bandwidth_gbps must be positive, got {self.dram_bandwidth_gbps}"
            )
        if self.clock_hz <= 0:
            raise ValueError(f"clock_hz must be positive, got {self.clock_hz}")

    @property
    def bandwidth_bytes_per_ms(self) -> float:
        """Off-chip bandwidth expressed in bytes per millisecond."""
        return self.dram_bandwidth_gbps * 1e9 / 1e3

    @property
    def peak_macs_per_ms(self) -> float:
        """Peak MAC throughput (one MAC per PE per cycle) per millisecond."""
        return self.num_pes * self.clock_hz / 1e3

    def context_switch_cost(
        self, flush_bytes: float, fetch_bytes: float
    ) -> ContextSwitchCost:
        """Cost of evicting ``flush_bytes`` and loading ``fetch_bytes``.

        Both transfers go through DRAM; latency is traffic over this
        accelerator's bandwidth share and energy is the DRAM energy of the
        moved bytes (Section 3.4).
        """
        total_bytes = max(0.0, flush_bytes) + max(0.0, fetch_bytes)
        latency_ms = total_bytes / self.bandwidth_bytes_per_ms
        energy_mj = total_bytes * DRAM_ENERGY_PJ_PER_BYTE * 1e-9
        return ContextSwitchCost(latency_ms=latency_ms, energy_mj=energy_mj)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.name}({self.dataflow.value}, {self.num_pes} PEs)"
