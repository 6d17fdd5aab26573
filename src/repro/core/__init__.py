"""DREAM: the paper's primary contribution.

The scheduler is assembled from the four engines of Figure 4:

* :mod:`repro.core.mapscore` — MapScore computation (Algorithm 1);
* :mod:`repro.core.frame_drop` — the smart frame drop engine (Section 4.2);
* :mod:`repro.core.adaptivity` — UXCost-driven (alpha, beta) optimization,
  both the offline iterative search and the online adaptivity engine
  (Section 3.6 / 4.4);
* :mod:`repro.core.dispatch` — job assignment & dispatch with optional
  Supernet switching (Section 4.5).

:class:`~repro.core.dream.DreamScheduler` wires them together;
:mod:`repro.core.config` provides the Table 4 configurations
(``DREAM-MapScore``, ``DREAM-SmartDrop``, ``DREAM-Full``) plus the
fixed-parameter baseline used in Figure 9.
"""

from repro.core.config import (
    DreamConfig,
    OptimizationObjective,
    dream_fixed,
    dream_mapscore,
    dream_smartdrop,
    dream_full,
)
from repro.core.mapscore import MapScoreBreakdown, MapScoreEngine
from repro.core.frame_drop import SmartFrameDropEngine
from repro.core.adaptivity import (
    ParameterPoint,
    OptimizationStep,
    OptimizationTrace,
    IterativeParameterOptimizer,
    OnlineAdaptivityEngine,
)
from repro.core.dispatch import JobDispatchEngine
from repro.core.dream import DreamScheduler

__all__ = [
    "DreamConfig",
    "OptimizationObjective",
    "dream_fixed",
    "dream_mapscore",
    "dream_smartdrop",
    "dream_full",
    "MapScoreBreakdown",
    "MapScoreEngine",
    "SmartFrameDropEngine",
    "ParameterPoint",
    "OptimizationStep",
    "OptimizationTrace",
    "IterativeParameterOptimizer",
    "OnlineAdaptivityEngine",
    "JobDispatchEngine",
    "DreamScheduler",
]
