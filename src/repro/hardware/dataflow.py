"""Accelerator dataflow styles.

The paper evaluates two dataflow styles inspired by published accelerators:

* **Weight-stationary (WS)** — NVDLA [24] style.  Weights are pinned in the
  PE array and reused across the input activations.  The PE array is mapped
  over the filter dimensions (output channels x input channels x kernel), so
  layers with many weights (dense convolutions, fully-connected and
  recurrent layers) achieve high utilization, while depthwise convolutions
  and small-channel layers leave most PEs idle.

* **Output-stationary (OS)** — ShiDianNao [7] style.  Partial sums stay in
  the PEs and the array is mapped over output spatial positions, so
  activation-heavy layers (early convolutions with large feature maps,
  depthwise convolutions) achieve high utilization, while fully-connected
  layers (a single output "pixel") do not.

The dataflow also shifts the on-chip traffic mix: WS re-reads activations
from SRAM more often (weights are held), OS re-reads weights more often
(partial sums are held).  Those asymmetries are what give each layer a
*preferred* accelerator, which MapScore's latency/energy preference terms
(Algorithm 1, lines 8 and 11) are designed to exploit.
"""

from __future__ import annotations

import enum


class Dataflow(enum.Enum):
    """Dataflow style of a sub-accelerator."""

    WEIGHT_STATIONARY = "WS"
    OUTPUT_STATIONARY = "OS"

    @property
    def weight_reuse(self) -> float:
        """Relative on-chip reuse of weights (higher = fewer SRAM reads)."""
        if self is Dataflow.WEIGHT_STATIONARY:
            return 8.0
        return 2.0

    @property
    def activation_reuse(self) -> float:
        """Relative on-chip reuse of activations (higher = fewer SRAM reads)."""
        if self is Dataflow.WEIGHT_STATIONARY:
            return 2.0
        return 8.0

    @property
    def mac_energy_pj(self) -> float:
        """Energy per multiply-accumulate in picojoules.

        OS arrays keep partial sums local and spend slightly less energy per
        MAC; WS arrays pay a small forwarding cost for partial sums.  The
        absolute values are representative of 8-bit MACs in a recent edge
        process node.
        """
        if self is Dataflow.WEIGHT_STATIONARY:
            return 0.60
        return 0.55

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value
