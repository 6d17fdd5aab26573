"""Analytical latency / energy cost model for WS and OS accelerators.

The DREAM paper generates its per-(layer, accelerator) latency and energy
tables offline with the MAESTRO cost model.  This module provides the same
interface with an analytical model:

* **Latency** is roofline-style: the layer is either compute bound
  (MACs over the effectively utilized PEs) or memory bound (off-chip
  traffic over the accelerator's DRAM bandwidth share), plus a small fixed
  launch overhead per layer.

* **PE utilization** depends on the dataflow.  A weight-stationary array is
  spatially mapped over the filter elements, so its utilization is capped by
  the number of weight elements of the layer; an output-stationary array is
  mapped over output elements, so its utilization is capped by the number of
  outputs.  On top of that cap, each (dataflow, operator-type) pair has a
  mapping-efficiency factor reflecting how well the operator tiles onto the
  array.

* **Energy** is the sum of MAC energy, on-chip SRAM traffic energy (scaled
  down by the dataflow's reuse factors) and off-chip DRAM traffic energy
  (scaled up when the layer's working set exceeds the SRAM share, which
  forces re-fetch).

The absolute numbers are representative rather than silicon-accurate; what
matters for reproducing the paper is that the model is deterministic and
produces realistic *relative* behaviour: different layers prefer different
dataflows and sizes, bigger arrays help compute-bound layers and do not help
memory-bound ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.hardware.accelerator import (
    Accelerator,
    DRAM_ENERGY_PJ_PER_BYTE,
    LAYER_LAUNCH_OVERHEAD_MS,
    PSUM_TRAFFIC_BYTES_PER_MAC,
    SRAM_ENERGY_PJ_PER_BYTE,
    STATIC_POWER_W_PER_PE,
)
from repro.hardware.dataflow import Dataflow


class LayerLike(Protocol):
    """Structural interface the cost model needs from a layer.

    Any object exposing these attributes can be costed; the concrete
    implementation lives in :mod:`repro.models.layers`.
    """

    name: str
    op_type: str
    macs: int
    weight_bytes: int
    input_bytes: int
    output_bytes: int
    output_elements: int
    weight_elements: int


#: Mapping efficiency of each operator type on each dataflow.  These factors
#: encode, e.g., that depthwise convolutions map poorly on a weight-stationary
#: array (too few weights to fill the array pipeline) and that fully-connected
#: and recurrent layers map poorly on an output-stationary array (too few
#: output pixels to keep rows busy).  The absolute scale (~0.5 for the
#: preferred dataflow) reflects measured end-to-end efficiencies of edge NPUs,
#: where tiling ramp/drain, partial tiles and synchronization keep sustained
#: throughput well below the peak MAC rate.
_MAPPING_EFFICIENCY = {
    Dataflow.WEIGHT_STATIONARY: {
        "conv": 0.52,
        "dwconv": 0.18,
        "fc": 0.60,
        "lstm": 0.58,
        "gru": 0.58,
        "pool": 0.28,
        "eltwise": 0.28,
        "activation": 0.28,
        "norm": 0.28,
        "embedding": 0.50,
        "attention": 0.52,
    },
    Dataflow.OUTPUT_STATIONARY: {
        "conv": 0.55,
        "dwconv": 0.50,
        "fc": 0.22,
        "lstm": 0.20,
        "gru": 0.20,
        "pool": 0.50,
        "eltwise": 0.50,
        "activation": 0.50,
        "norm": 0.50,
        "embedding": 0.25,
        "attention": 0.30,
    },
}

_DEFAULT_EFFICIENCY = 0.35


@dataclass(frozen=True)
class LayerCost:
    """Latency and energy of one layer on one accelerator.

    Attributes:
        latency_ms: end-to-end layer latency in milliseconds.
        energy_mj: layer energy in millijoules.
        compute_ms: compute-bound component of the latency.
        memory_ms: memory-bound component of the latency.
        dram_bytes: off-chip traffic in bytes.
        utilization: effective PE utilization in [0, 1].
    """

    latency_ms: float
    energy_mj: float
    compute_ms: float
    memory_ms: float
    dram_bytes: float
    utilization: float


class AnalyticalCostModel:
    """Deterministic analytical cost model for WS/OS accelerators.

    Every layer pays :data:`~repro.hardware.accelerator.LAYER_LAUNCH_OVERHEAD_MS`
    and :data:`~repro.hardware.accelerator.PSUM_TRAFFIC_BYTES_PER_MAC`.
    """

    # ------------------------------------------------------------------ #
    # utilization
    # ------------------------------------------------------------------ #
    def utilization(self, layer: LayerLike, accelerator: Accelerator) -> float:
        """Effective PE utilization of ``layer`` on ``accelerator``."""
        if accelerator.dataflow is Dataflow.WEIGHT_STATIONARY:
            parallel_work = max(1, layer.weight_elements)
        else:
            parallel_work = max(1, layer.output_elements)
        spatial_utilization = min(1.0, parallel_work / accelerator.num_pes)
        efficiency = _MAPPING_EFFICIENCY[accelerator.dataflow].get(
            layer.op_type, _DEFAULT_EFFICIENCY
        )
        return spatial_utilization * efficiency

    # ------------------------------------------------------------------ #
    # traffic
    # ------------------------------------------------------------------ #
    def dram_traffic_bytes(self, layer: LayerLike, accelerator: Accelerator) -> float:
        """Off-chip traffic of the layer, including SRAM-spill re-fetch."""
        working_set = layer.weight_bytes + layer.input_bytes + layer.output_bytes
        base_traffic = float(working_set)
        if working_set > accelerator.sram_bytes > 0:
            # The tile that does not fit must be streamed more than once; the
            # refetch factor grows with the overflow ratio but saturates so a
            # single huge layer does not produce absurd traffic.
            overflow = working_set / accelerator.sram_bytes
            refetch = 1.0 + min(2.0, 0.5 * (overflow - 1.0))
            base_traffic *= refetch
        return base_traffic

    def sram_traffic_bytes(self, layer: LayerLike, accelerator: Accelerator) -> float:
        """On-chip traffic generated while computing the layer."""
        dataflow = accelerator.dataflow
        operand_bytes_per_mac = (
            1.0 / dataflow.weight_reuse + 1.0 / dataflow.activation_reuse
        )
        return layer.macs * (operand_bytes_per_mac + PSUM_TRAFFIC_BYTES_PER_MAC)

    # ------------------------------------------------------------------ #
    # latency / energy
    # ------------------------------------------------------------------ #
    def cost(self, layer: LayerLike, accelerator: Accelerator) -> LayerCost:
        """Latency and energy of ``layer`` on ``accelerator``."""
        utilization = self.utilization(layer, accelerator)
        effective_macs_per_ms = accelerator.peak_macs_per_ms * max(utilization, 1e-9)
        compute_ms = layer.macs / effective_macs_per_ms

        dram_bytes = self.dram_traffic_bytes(layer, accelerator)
        memory_ms = dram_bytes / accelerator.bandwidth_bytes_per_ms

        latency_ms = max(compute_ms, memory_ms) + LAYER_LAUNCH_OVERHEAD_MS

        sram_bytes = self.sram_traffic_bytes(layer, accelerator)
        energy_pj = (
            layer.macs * accelerator.dataflow.mac_energy_pj
            + sram_bytes * SRAM_ENERGY_PJ_PER_BYTE
            + dram_bytes * DRAM_ENERGY_PJ_PER_BYTE
        )
        # Static energy: the whole PE array leaks for as long as the layer
        # occupies the accelerator, independent of utilization.
        static_mj = latency_ms * 1e-3 * accelerator.num_pes * STATIC_POWER_W_PER_PE * 1e3
        energy_mj = energy_pj * 1e-9 + static_mj

        return LayerCost(
            latency_ms=latency_ms,
            energy_mj=energy_mj,
            compute_ms=compute_ms,
            memory_ms=memory_ms,
            dram_bytes=dram_bytes,
            utilization=utilization,
        )
