"""On-disk persistence for simulation results.

The store is a content-addressed cache: the key of a result is the SHA-256
of its :class:`~repro.experiments.jobs.CellJob` spec (every simulation
input, plus the package version), so a hit can only ever return a result
the current code would recompute identically.  Re-running a grid with a
store attached skips already-computed cells entirely — the enabler for
incremental figure regeneration and cheap CI smoke runs.

Layout: ``root/<key[:2]>/<key>.json``, one JSON document per result (the
:meth:`~repro.sim.SimulationResult.to_dict` form wrapped with its job spec
for inspectability).  Writes are atomic (temp file + rename), so a killed
run never leaves a truncated entry; entries corrupted *outside* the
store's control (truncation, bit rot, hand editing) are detected on load,
counted on the :attr:`ResultStore.corrupt` counter, reported once via
:mod:`warnings`, and treated as misses — the caller recomputes and the
next :meth:`ResultStore.put` overwrites the bad entry.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.experiments.jobs import CellJob
from repro.sim import SimulationResult


class ResultStore:
    """Content-keyed directory of persisted :class:`SimulationResult` objects.

    Args:
        root: cache directory; created (with parents) if missing.

    Attributes:
        hits: number of ``get``/``load`` calls answered from disk.
        misses: number of calls that found no (usable) entry.
        writes: number of results persisted.
        corrupt: subset of ``misses`` where an entry *existed* but failed
            to parse or validate — absent entries are plain misses,
            corrupt ones additionally emit a :class:`RuntimeWarning`.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0

    # ------------------------------------------------------------------ #
    # key/path plumbing
    # ------------------------------------------------------------------ #
    def path_for(self, key: str) -> Path:
        """On-disk location of a cache key."""
        return self.root / key[:2] / f"{key}.json"

    def __contains__(self, job: CellJob) -> bool:
        return self.path_for(job.cache_key()).is_file()

    def keys(self) -> Iterator[str]:
        """Iterate over every persisted cache key."""
        for path in sorted(self.root.glob("*/*.json")):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # ------------------------------------------------------------------ #
    # read/write
    # ------------------------------------------------------------------ #
    def load(self, key: str) -> Optional[SimulationResult]:
        """Result stored under a raw cache key, or ``None``.

        An absent entry is a plain miss.  An entry that exists but fails
        to parse or validate (truncated write from a killed run on a
        non-atomic filesystem, bit rot, hand editing) is *also* a miss —
        the caller recomputes and overwrites it — but is additionally
        counted on :attr:`corrupt` and reported via a
        :class:`RuntimeWarning`, so silent cache rot is visible in
        :meth:`stats` and test runs.
        """
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            result = SimulationResult.from_dict(payload["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError) as error:
            self.misses += 1
            self.corrupt += 1
            warnings.warn(
                f"result store entry {path} is corrupt "
                f"({type(error).__name__}: {error}); treating as a cache "
                "miss and recomputing",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        self.hits += 1
        return result

    def get(self, job: CellJob) -> Optional[SimulationResult]:
        """Cached result of a job, or ``None`` on a miss."""
        return self.load(job.cache_key())

    def put(self, job: CellJob, result: SimulationResult) -> Path:
        """Persist a job's result atomically and return its path."""
        path = self.path_for(job.cache_key())
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"job": job.to_dict(), "result": result.to_dict()}
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # No sort_keys: task_stats order is part of the result
                # contract (UXCost sums terms in task order).  dumps gives
                # the text json.dump writes, but encodes it in C; dump's
                # chunked encoder is always the pure-Python one.
                handle.write(json.dumps(payload))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.writes += 1
        return path

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Hit/miss/write counters plus the entry count."""
        return {
            "root": str(self.root),
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
        }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.root.glob("*/*.json"):
            path.unlink()
            removed += 1
        return removed
