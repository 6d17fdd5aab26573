"""Deterministic fault injection: seeded failure timelines for the engine.

Production platforms are not perfectly healthy forever: accelerators
throttle, platforms crash, drivers stall.  This module makes failure a
first-class, *seeded* input to the simulation — a fault plan is data (a
tuple of frozen, picklable :class:`FaultSpec` values), never a side
effect of wall-clock time or interpreter state, so a faulted run is
exactly as reproducible as a fault-free one.

Three fault kinds are registered:

* ``accel_degrade`` — one accelerator's usable capacity fraction drops to
  ``magnitude`` ∈ (0, 1) over a time window.  In-flight work finishes;
  new admissions see the reduced capacity.
* ``platform_outage`` — the whole platform is down for a window: every
  in-flight request is aborted (bounded retry budget with exponential
  backoff, then terminally ``failed``) and nothing dispatches until
  recovery.
* ``transient_stall`` — a latency-inflation burst on one accelerator:
  work dispatched inside the window runs ``magnitude`` (> 1) times
  slower.

All sampled fault timelines derive from ``random.Random(f"faults:...")``
— string seeding hashes through SHA-512, which is stable across
processes, platforms and ``PYTHONHASHSEED`` — so a chaos sweep is
bit-for-bit replayable from its seed alone: fuzz artifacts record each
plan with :meth:`FaultSpec.to_dict`, and ``repro fuzz --replay``
re-samples it from the recorded seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

#: Registered fault kinds, in canonical order.
FAULT_KINDS = ("accel_degrade", "platform_outage", "transient_stall")


@dataclass(frozen=True)
class FaultModel:
    """Registry entry describing one fault kind's contract."""

    kind: str
    description: str
    #: True when the fault targets one accelerator (``acc_id`` required);
    #: False when it applies to the whole platform (``acc_id`` must be None).
    targets_accelerator: bool
    #: Inclusive-exclusive sampling range for ``magnitude`` (None = unused).
    magnitude_range: Optional[tuple[float, float]]


FAULT_MODELS: dict[str, FaultModel] = {
    "accel_degrade": FaultModel(
        kind="accel_degrade",
        description="accelerator capacity fraction drops to magnitude in (0, 1)",
        targets_accelerator=True,
        magnitude_range=(0.25, 0.75),
    ),
    "platform_outage": FaultModel(
        kind="platform_outage",
        description="whole platform down; in-flight requests aborted",
        targets_accelerator=False,
        magnitude_range=None,
    ),
    "transient_stall": FaultModel(
        kind="transient_stall",
        description="latency inflation burst; work runs magnitude (> 1) times slower",
        targets_accelerator=True,
        magnitude_range=(1.5, 3.0),
    ),
}

assert tuple(sorted(FAULT_MODELS)) == tuple(sorted(FAULT_KINDS))


def fault_kind_names() -> tuple[str, ...]:
    """Sorted registered fault kinds (for CLI choices and error messages)."""
    return tuple(sorted(FAULT_KINDS))


@dataclass(frozen=True)
class FaultSpec:
    """One declared fault: a kind, a target, a time window, a magnitude.

    Frozen and hashable so fault plans can live inside frozen specs and be
    shipped to worker processes; :meth:`to_dict` records one in a fuzz
    artifact (all fields are JSON scalars).
    """

    kind: str
    start_ms: float
    duration_ms: float
    acc_id: Optional[int] = None
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_MODELS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"available: {', '.join(fault_kind_names())}"
            )
        if self.start_ms < 0.0:
            raise ValueError(f"start_ms must be >= 0, got {self.start_ms}")
        if self.duration_ms <= 0.0:
            raise ValueError(f"duration_ms must be positive, got {self.duration_ms}")
        model = FAULT_MODELS[self.kind]
        if model.targets_accelerator:
            if self.acc_id is None or self.acc_id < 0:
                raise ValueError(f"fault kind {self.kind!r} requires a non-negative acc_id")
        elif self.acc_id is not None:
            raise ValueError(f"fault kind {self.kind!r} targets the whole platform; acc_id must be None")
        if self.kind == "accel_degrade" and not 0.0 < self.magnitude < 1.0:
            raise ValueError(
                f"accel_degrade magnitude must be in (0, 1), got {self.magnitude}"
            )
        if self.kind == "transient_stall" and self.magnitude <= 1.0:
            raise ValueError(
                f"transient_stall magnitude must be > 1, got {self.magnitude}"
            )

    @property
    def end_ms(self) -> float:
        """Recovery instant; the fault window is half-open ``[start, end)``."""
        return self.start_ms + self.duration_ms

    def active_at(self, time_ms: float) -> bool:
        """True while the fault is in effect (half-open window)."""
        return self.start_ms <= time_ms < self.end_ms

    def to_dict(self) -> dict:
        """JSON-serializable payload, as fuzz artifacts record it."""
        return {
            "kind": self.kind,
            "start_ms": self.start_ms,
            "duration_ms": self.duration_ms,
            "acc_id": self.acc_id,
            "magnitude": self.magnitude,
        }


def sample_fault_plan(
    seed: int,
    duration_ms: float,
    accelerators: int,
    kinds: Sequence[str] = FAULT_KINDS,
) -> tuple[FaultSpec, ...]:
    """Sample a deterministic fault plan for one simulated window.

    One fault per kind.  Every draw comes from
    ``random.Random(f"faults:{seed}:{kind}:0")`` — never wall-clock, never
    ``hash()`` — so the same arguments always yield the same plan, in the
    same canonical order, on every machine.

    Windows land inside ``[0.05, 0.9) * duration_ms`` and last 10–30% of
    the window, so faults always begin after some healthy traffic and
    recover before the run ends.
    """
    if duration_ms <= 0.0:
        raise ValueError("duration_ms must be positive")
    if accelerators < 1:
        raise ValueError("accelerators must be positive")
    specs: list[FaultSpec] = []
    for kind in kinds:
        model = FAULT_MODELS.get(kind)
        if model is None:
            raise ValueError(
                f"unknown fault kind {kind!r}; "
                f"available: {', '.join(fault_kind_names())}"
            )
        # The ":0" suffix is part of the key stored plans and fuzz artifacts
        # were sampled under; removing it would move every sampled fault.
        rng = random.Random(f"faults:{seed}:{kind}:0")
        start_ms = rng.uniform(0.05, 0.6) * duration_ms
        fault_ms = rng.uniform(0.1, 0.3) * duration_ms
        acc_id = rng.randrange(accelerators) if model.targets_accelerator else None
        if model.magnitude_range is not None:
            low, high = model.magnitude_range
            magnitude = rng.uniform(low, high)
        else:
            magnitude = 1.0
        specs.append(
            FaultSpec(
                kind=kind,
                start_ms=start_ms,
                duration_ms=fault_ms,
                acc_id=acc_id,
                magnitude=magnitude,
            )
        )
    specs.sort(key=lambda spec: (spec.start_ms, spec.kind, -1 if spec.acc_id is None else spec.acc_id))
    return tuple(specs)


# --------------------------------------------------------------------- #
# timeline queries over a whole plan (the trace oracles call capacity_at
# and outage_active; the engine composes fault state from its open-window
# set in SimulationEngine._refresh_fault_state instead)
# --------------------------------------------------------------------- #


def capacity_at(specs: Sequence[FaultSpec], acc_id: int, time_ms: float) -> float:
    """Usable capacity fraction of ``acc_id`` at ``time_ms``.

    0.0 under an active platform outage, else the minimum over active
    ``accel_degrade`` magnitudes targeting this accelerator (1.0 when
    healthy).  Concurrent faults compose by ``min`` — the most degraded
    declaration wins.
    """
    capacity = 1.0
    for spec in specs:
        if not spec.active_at(time_ms):
            continue
        if spec.kind == "platform_outage":
            return 0.0
        if spec.kind == "accel_degrade" and spec.acc_id == acc_id:
            capacity = min(capacity, spec.magnitude)
    return capacity


def outage_active(specs: Sequence[FaultSpec], time_ms: float) -> bool:
    """True while any platform outage is in effect."""
    return any(
        spec.kind == "platform_outage" and spec.active_at(time_ms) for spec in specs
    )
