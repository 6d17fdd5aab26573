"""Hardware substrate: accelerators, dataflows, analytical cost model.

This package models the multi-accelerator platforms the DREAM paper
evaluates on (Table 2): systems built from NVDLA-style weight-stationary
(WS) and ShiDianNao-style output-stationary (OS) sub-accelerators with
4K or 8K processing elements (PEs) in total, 8 MiB of shared on-chip
SRAM, 90 GB/s of off-chip bandwidth and a 700 MHz clock.

The scheduler-facing artefact is the :class:`~repro.hardware.cost_table.CostTable`,
the per-(layer, accelerator) latency/energy table that the paper generates
offline with MAESTRO and feeds to every scheduler (the red box in Figure 4).
Here the table is produced by :class:`~repro.hardware.cost_model.AnalyticalCostModel`,
an analytical WS/OS roofline model (the :mod:`repro.hardware.cost_model`
module docstring gives the rationale for substituting it for MAESTRO).
"""

from repro.hardware.dataflow import Dataflow
from repro.hardware.accelerator import Accelerator, ContextSwitchCost
from repro.hardware.cost_model import AnalyticalCostModel, LayerCost
from repro.hardware.cost_table import CostTable, ReferenceCostTable
from repro.hardware.platform import (
    Platform,
    PLATFORM_PRESETS,
    build_platform,
    make_platform,
    all_platform_names,
    heterogeneous_platform_names,
    homogeneous_platform_names,
)

__all__ = [
    "Dataflow",
    "Accelerator",
    "ContextSwitchCost",
    "AnalyticalCostModel",
    "LayerCost",
    "CostTable",
    "ReferenceCostTable",
    "Platform",
    "PLATFORM_PRESETS",
    "build_platform",
    "make_platform",
    "all_platform_names",
    "heterogeneous_platform_names",
    "homogeneous_platform_names",
]
