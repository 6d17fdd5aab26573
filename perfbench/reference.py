"""A fixed pure-Python job that measures how fast the host runs right now.

On a shared host the same work runs up to 1.5x slower for stretches of
seconds to minutes, set by what other tenants do.  The benchmark times a
reference job between the workload's ops and reports the workload's time
scaled by how fast the reference ran in the same run, so the host's slow
stretches cancel while a change to ``repro`` does not (the reference calls
nothing in ``repro``).

The reference walks a ring of slotted objects in a shuffled order, reading
a dict and updating an attribute at each step: the pointer-chasing,
dict-reading, attribute-writing work the simulator does, over a working
set of about 20 MB.  A reference with a working set of kilobytes did not
track the host's slow stretches; this one cut the run-to-run IQR/median of
``baseline_grid``'s wall time from 0.14 to 0.08 (five runs) and from 0.07
to 0.05 (two rounds of ten).
"""

from __future__ import annotations

import random
import resource
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Iterator

#: Median seconds of one :meth:`HostReference.sample` on the host the
#: benchmark was defined on (Intel Xeon, 2 vCPUs, CPython 3.11); scaled
#: times read as seconds on that host.
NOMINAL_S = 0.025

#: Seconds of workload ops between two reference samples.
SAMPLE_EVERY_S = 0.5


class _Node:
    __slots__ = ("count", "nxt", "tags")

    def __init__(self, value: int) -> None:
        self.count = 0.0
        self.nxt: "_Node" = self
        self.tags = {"value": value}


def _rss_mb() -> float:
    """Current resident memory of this process (0 where /proc is missing)."""
    statm = Path("/proc/self/statm")
    if not statm.is_file():
        return 0.0
    pages = int(statm.read_text().split()[1])
    return pages * resource.getpagesize() / 2**20


class HostReference:
    """The reference job, its samples and the scale it gives."""

    NODES = 65_536
    STEPS = 40_000

    def __init__(self, nodes: int = NODES, steps: int = STEPS) -> None:
        before = _rss_mb()
        ring = [_Node(value) for value in range(nodes)]
        order = list(range(nodes))
        random.Random(0).shuffle(order)
        for here, there in zip(order, order[1:] + order[:1]):
            ring[here].nxt = ring[there]
        self._start = ring[order[0]]
        #: Resident memory the ring holds, left out of ``peak_rss_mb``.
        self.footprint_mb = max(_rss_mb() - before, 0.0)
        self.steps = steps
        self.samples: list[float] = []
        self._since_sample = float("inf")

    def sample(self) -> float:
        """Time one walk of the ring; record and return its seconds."""
        node, total = self._start, 0
        start = perf_counter()
        for _ in range(self.steps):
            node.count += 1.0
            total += node.tags["value"]
            node = node.nxt
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    @contextmanager
    def span(self) -> Iterator[None]:
        """Wrap one timed op; sample first if enough op time has passed."""
        if self._since_sample >= SAMPLE_EVERY_S:
            self.sample()
            self._since_sample = 0.0
        start = perf_counter()
        try:
            yield
        finally:
            self._since_sample += perf_counter() - start

    def scale(self) -> float:
        """Factor that turns this run's host seconds into nominal seconds."""
        return NOMINAL_S / statistics.median(self.samples)
