"""Bounded-memory streaming quantiles (the P-squared algorithm).

Hour-long streaming simulations complete millions of frames, so per-task
latency distributions can no longer be derived by storing every sample.
:class:`P2Quantile` implements the P² ("P-squared") algorithm of Jain &
Chlamtac (CACM 1985): five markers track an estimated quantile with O(1)
memory and O(1) update cost, adjusting marker heights by piecewise-
parabolic interpolation.  :class:`StreamingQuantiles` bundles the p50 /
p95 / p99 markers the simulator reports.

Determinism: the update is pure floating-point arithmetic over the sample
sequence — no randomness, no timing — so two engines fed the identical
latency stream produce bit-for-bit identical quantile estimates (the
fast/reference parity tests rely on this).

Accuracy: while fewer than five samples have been observed the estimator
returns the *exact* linearly interpolated quantile of the sorted samples;
beyond that the P² estimate typically lands within a fraction of a
percent of the exact quantile for smooth distributions.
"""

from __future__ import annotations

from bisect import insort
from typing import Mapping, Optional, Sequence

__all__ = ["P2Quantile", "StreamingQuantiles", "PROBABILITIES"]

#: The quantiles the simulator tracks per task (and the fleet per user).
PROBABILITIES: tuple[float, ...] = (0.5, 0.95, 0.99)


def _interpolated_quantile(sorted_samples: Sequence[float], p: float) -> float:
    """Exact linearly interpolated quantile of a small sorted sample set."""
    if not sorted_samples:
        raise ValueError("no samples")
    rank = p * (len(sorted_samples) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_samples) - 1)
    fraction = rank - low
    return sorted_samples[low] + (sorted_samples[high] - sorted_samples[low]) * fraction


class P2Quantile:
    """One streaming quantile estimate in O(1) memory (P² algorithm)."""

    __slots__ = ("p", "_heights", "_positions", "_desired", "_increments", "_count")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {p}")
        self.p = p
        # First five observations land here (kept sorted); once full these
        # become the marker heights q_1..q_5 of the paper.
        self._heights: list[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
        self._increments = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def add(self, sample: float) -> None:
        """Fold one observation into the estimate."""
        self._count += 1
        heights = self._heights
        if self._count <= 5:
            insort(heights, sample)
            return

        positions = self._positions
        # 1. find the marker cell the sample falls into, extending extremes.
        if sample < heights[0]:
            heights[0] = sample
            cell = 0
        elif sample >= heights[4]:
            heights[4] = sample
            cell = 3
        else:
            cell = 0
            while sample >= heights[cell + 1]:
                cell += 1
        # 2. shift the actual positions of all markers above the cell.
        for index in range(cell + 1, 5):
            positions[index] += 1.0
        # 3. advance the desired positions.
        desired = self._desired
        for index in range(5):
            desired[index] += self._increments[index]
        # 4. nudge the three interior markers toward their desired positions.
        for index in (1, 2, 3):
            delta = desired[index] - positions[index]
            if (delta >= 1.0 and positions[index + 1] - positions[index] > 1.0) or (
                delta <= -1.0 and positions[index - 1] - positions[index] < -1.0
            ):
                step = 1.0 if delta >= 0.0 else -1.0
                candidate = self._parabolic(index, step)
                if not heights[index - 1] < candidate < heights[index + 1]:
                    candidate = self._linear(index, step)
                heights[index] = candidate
                positions[index] += step

    def _parabolic(self, index: int, step: float) -> float:
        q, n = self._heights, self._positions
        return q[index] + step / (n[index + 1] - n[index - 1]) * (
            (n[index] - n[index - 1] + step)
            * (q[index + 1] - q[index])
            / (n[index + 1] - n[index])
            + (n[index + 1] - n[index] - step)
            * (q[index] - q[index - 1])
            / (n[index] - n[index - 1])
        )

    def _linear(self, index: int, step: float) -> float:
        q, n = self._heights, self._positions
        other = index + int(step)
        return q[index] + step * (q[other] - q[index]) / (n[other] - n[index])

    def value(self) -> float:
        """The current quantile estimate (exact below five samples).

        Raises:
            ValueError: if no sample has been observed yet.
        """
        if self._count == 0:
            raise ValueError("quantile of an empty stream")
        if self._count <= 5:
            return _interpolated_quantile(self._heights, self.p)
        return self._heights[2]


class StreamingQuantiles:
    """The :data:`PROBABILITIES` P² markers over one sample stream."""

    __slots__ = ("_markers", "_count")

    def __init__(self) -> None:
        self._markers = {p: P2Quantile(p) for p in PROBABILITIES}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def add(self, sample: float) -> None:
        """Fold one observation into every tracked quantile."""
        self._count += 1
        for marker in self._markers.values():
            marker.add(sample)

    def summary(self) -> Optional[Mapping[str, float]]:
        """``{"count": n, "p50": ..., ...}`` or ``None`` for an empty stream.

        Keys are ``p`` followed by the percentile (0.5 -> ``p50``, 0.99 ->
        ``p99``).
        """
        if self._count == 0:
            return None
        payload: dict[str, float] = {"count": self._count}
        for p, marker in self._markers.items():
            payload[f"p{100 * p:g}"] = marker.value()
        return payload
