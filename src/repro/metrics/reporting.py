"""Reporting helpers shared by the experiment harness and benchmarks.

The paper reports geometric-mean reductions of UXCost across scenarios and
platforms; these helpers implement those aggregations and a plain-text
table formatter so every benchmark can print paper-style rows without any
plotting dependency.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Iterable, Sequence


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values.

    Zero or negative entries are clamped to a tiny positive value so a
    single perfect result does not collapse the mean to zero — the same
    spirit as the paper's small-number rule in UXCost.
    """
    values = list(values)
    if not values:
        raise ValueError("geometric_mean of an empty sequence")
    # Summed left to right: sum() compensates from CPython 3.12 on.
    logs = [math.log(max(value, 1e-12)) for value in values]
    return math.exp(reduce(add, logs, 0.0) / len(logs))


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    float_format: str = "{:.4f}",
) -> str:
    """Format a small table as aligned plain text.

    Args:
        headers: column headers.
        rows: table rows; floats are formatted with ``float_format``.
        float_format: format string applied to float cells.
    """
    def render(cell: object) -> str:
        if isinstance(cell, float):
            return float_format.format(cell)
        return str(cell)

    rendered = [[render(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rendered)) if rendered else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)
