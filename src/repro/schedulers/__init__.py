"""Schedulers: the DREAM variants and the paper's baselines.

Every scheduler implements the :class:`~repro.schedulers.base.Scheduler`
protocol and can be instantiated by name through
:func:`~repro.schedulers.registry.make_scheduler`:

* ``fcfs_static`` / ``fcfs_dynamic`` — first-come-first-served (Figure 2)
* ``veltair``  — layer-block scheduling, deadline-aware, heterogeneity-blind
* ``planaria`` — deadline-aware spatial fission of the PE arrays
* ``dream_fixed`` / ``dream_mapscore`` / ``dream_smartdrop`` / ``dream_full``
  — the DREAM configurations of Table 4 (plus the fixed-parameter baseline
  used in Figure 9)
"""

from repro.schedulers.base import Scheduler, WakeHint
from repro.schedulers.fcfs import DynamicFcfsScheduler, StaticFcfsScheduler
from repro.schedulers.veltair import VeltairScheduler
from repro.schedulers.planaria import PlanariaScheduler
from repro.schedulers.registry import (
    SCHEDULER_FACTORIES,
    make_scheduler,
    scheduler_names,
)

__all__ = [
    "Scheduler",
    "WakeHint",
    "DynamicFcfsScheduler",
    "StaticFcfsScheduler",
    "VeltairScheduler",
    "PlanariaScheduler",
    "SCHEDULER_FACTORIES",
    "make_scheduler",
    "scheduler_names",
]
