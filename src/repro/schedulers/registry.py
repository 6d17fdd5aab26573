"""Scheduler registry: instantiate any evaluated scheduler by name.

The names match the configurations compared in the paper's evaluation
(Section 5.1 baselines and Table 4 DREAM variants), which keeps the
experiment harness and the benchmarks declarative — a figure is defined by
a list of scheduler names, scenario names and platform names.
"""

from __future__ import annotations

from typing import Callable

from repro.core.config import dream_fixed, dream_full, dream_mapscore, dream_smartdrop
from repro.core.dream import DreamScheduler
from repro.schedulers.base import Scheduler
from repro.schedulers.fcfs import DynamicFcfsScheduler, StaticFcfsScheduler
from repro.schedulers.planaria import PlanariaScheduler
from repro.schedulers.veltair import VeltairScheduler

#: Factories for every evaluated scheduler, keyed by canonical name.
SCHEDULER_FACTORIES: dict[str, Callable[[], Scheduler]] = {
    "fcfs_static": StaticFcfsScheduler,
    "fcfs_dynamic": DynamicFcfsScheduler,
    "veltair": VeltairScheduler,
    "planaria": PlanariaScheduler,
    "dream_fixed": lambda: DreamScheduler(dream_fixed(), name="dream_fixed"),
    "dream_mapscore": lambda: DreamScheduler(dream_mapscore(), name="dream_mapscore"),
    "dream_smartdrop": lambda: DreamScheduler(dream_smartdrop(), name="dream_smartdrop"),
    "dream_full": lambda: DreamScheduler(dream_full(), name="dream_full"),
}


def scheduler_names() -> list[str]:
    """All registered scheduler names."""
    return list(SCHEDULER_FACTORIES)


def make_scheduler(name: str) -> Scheduler:
    """Instantiate a fresh scheduler by name.

    Raises:
        KeyError: if the name is not registered.
    """
    try:
        factory = SCHEDULER_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; available: {scheduler_names()}"
        ) from None
    return factory()
