"""Evaluation metrics: UXCost (Algorithm 2) and reporting helpers."""

from repro.metrics.uxcost import ModelOutcome, UXCostBreakdown, compute_uxcost
from repro.metrics.quantiles import P2Quantile, StreamingQuantiles
from repro.metrics.reporting import format_table, geometric_mean

__all__ = [
    "ModelOutcome",
    "P2Quantile",
    "StreamingQuantiles",
    "UXCostBreakdown",
    "compute_uxcost",
    "geometric_mean",
    "format_table",
]
