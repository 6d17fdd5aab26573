"""Picklable job specifications for the experiment layer.

A grid evaluation is a set of independent (scenario, platform, scheduler)
cells, and a phased run is a sequence of scenarios executed under one
scheduler instance.  Both are described here as small frozen dataclasses
built only from preset *names* and scalars, so a job can be

* pickled to a :class:`concurrent.futures.ProcessPoolExecutor` worker,
* hashed into a stable content key for the on-disk result cache
  (:mod:`repro.experiments.store`), and
* replayed bit-for-bit: the job carries every input that influences the
  simulation (names, seed, duration, cascade probability, resource model
  and, for a DREAM built outside the registry, its :class:`DreamConfig`),
  and :meth:`CellJob.run` constructs a *fresh* scheduler on every
  execution.

Workers memoize the expensive per-(scenario, platform) context — the built
scenario, the platform and its :class:`~repro.hardware.CostTable` — in a
process-local cache, mirroring how the serial harness builds each cost
table once and shares it across schedulers.  All cached objects are frozen
dataclasses, so sharing them across cells cannot leak state between
simulations.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

from repro.core.config import DreamConfig
from repro.core.dream import DreamScheduler
from repro.hardware import CostTable, Platform, make_platform
from repro.schedulers import make_scheduler
from repro.sim import SimulationResult, run_simulation
from repro.workloads import Scenario, build_scenario
from repro.workloads.dynamicity import PhasedWorkload
from repro.workloads.generator import GeneratorSpec, ScenarioGenerator
from repro.workloads.scenarios import DEFAULT_CASCADE_PROBABILITY

#: Bump when simulation semantics change in a way that invalidates cached
#: results (also combined with ``repro.__version__`` in the cache key).
#: 2: results gained streamed latency quantiles — older cached payloads
#: load fine but would silently lack the new per-task data.
CACHE_FORMAT_VERSION = 2

#: The engine's default resource model.  A job on it writes
#: ``"engine_kwargs": {}`` into its payload, as every job did before the
#: field existed, so its store key is unchanged.
_DEFAULT_RESOURCE_MODEL = "pe_fraction"


@dataclass(frozen=True)
class ExperimentCell:
    """One (scenario, platform, scheduler) point of an evaluation grid."""

    scenario: str
    platform: str
    scheduler: str

    @property
    def key(self) -> str:
        """Stable string key for result dictionaries."""
        return f"{self.scenario}/{self.platform}/{self.scheduler}"


@dataclass(frozen=True)
class CellJob:
    """A self-contained, picklable description of one grid-cell simulation.

    Attributes:
        scenario: scenario preset name (``repro.workloads.scenario_names()``).
        platform: platform preset name (``repro.hardware.PLATFORM_PRESETS``).
        scheduler: scheduler name (``repro.schedulers.scheduler_names()``); a
            fresh scheduler is instantiated per run, so repeated executions
            are independent and deterministic.  With ``dream`` set it is
            only the result's label.
        duration_ms: simulated window length.
        seed: seed for every stochastic element of the simulation.
        cascade_probability: ML-cascade trigger probability of the scenario.
        generator: optional :class:`~repro.workloads.GeneratorSpec`; when
            set, the scenario is *generated* (``ScenarioGenerator(generator)
            .generate(generator_index)``) instead of resolved as a preset
            name, and ``scenario`` must equal the generated scenario's name
            (as :func:`generated_cell_jobs` sets it).  The spec is a frozen
            dataclass of scalars, so generated jobs remain picklable and
            content-addressable exactly like preset jobs
            (``cascade_probability`` is ignored — trigger probabilities live
            inside the spec).
        generator_index: scenario index within the generator spec.
        resource_model: the :class:`~repro.sim.SimulationEngine` resource
            model (``repro.sim.RESOURCE_MODEL_NAMES``).
        dream: optional :class:`~repro.core.config.DreamConfig`; when set,
            the cell runs ``DreamScheduler(dream, name=scheduler)`` instead
            of the registry's ``scheduler`` (Figures 10, 11 and 13 run
            DREAM configurations the registry does not name).
    """

    scenario: str
    platform: str
    scheduler: str
    duration_ms: float = 1000.0
    seed: int = 0
    cascade_probability: float = DEFAULT_CASCADE_PROBABILITY
    generator: Optional[GeneratorSpec] = None
    generator_index: int = 0
    resource_model: str = _DEFAULT_RESOURCE_MODEL
    dream: Optional[DreamConfig] = None

    @property
    def cell(self) -> ExperimentCell:
        """The grid coordinate this job computes."""
        return ExperimentCell(self.scenario, self.platform, self.scheduler)

    def to_dict(self) -> dict:
        """JSON-serializable description of every simulation input.

        The generator and DREAM fields are only included when set, and the
        default resource model writes ``"engine_kwargs": {}``, so the
        content hashes (and therefore the cached results) of preset jobs
        are those they had before these fields existed.
        """
        payload = {
            "scenario": self.scenario,
            "platform": self.platform,
            "scheduler": self.scheduler,
            "duration_ms": self.duration_ms,
            "seed": self.seed,
            "cascade_probability": self.cascade_probability,
            "engine_kwargs": (
                {}
                if self.resource_model == _DEFAULT_RESOURCE_MODEL
                else {"resource_model": self.resource_model}
            ),
        }
        if self.generator is not None:
            payload["generator"] = self.generator.to_dict()
            payload["generator_index"] = self.generator_index
        if self.dream is not None:
            payload["dream"] = {**asdict(self.dream), "objective": self.dream.objective.value}
        return payload

    def cache_key(self) -> str:
        """Content hash of the job — the key of the on-disk result cache.

        Two jobs share a key iff they describe the same simulation, so a
        cache hit is a correctness-preserving skip.  The repro package
        version and a cache format version are folded in, invalidating
        stale results when simulation semantics change.
        """
        import repro

        payload = {
            "format": CACHE_FORMAT_VERSION,
            "repro_version": repro.__version__,
            "job": self.to_dict(),
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def run(self) -> SimulationResult:
        """Execute the cell, reusing the process-local context cache."""
        if self.generator is not None:
            scenario, platform, cost_table = generated_context(
                self.generator, self.generator_index, self.platform
            )
            if self.scenario != scenario.name:
                raise ValueError(
                    f"generated job scenario name {self.scenario!r} does not match "
                    f"the generated scenario {scenario.name!r}; build jobs via "
                    f"generated_cell_jobs()"
                )
        else:
            scenario, platform, cost_table = shared_context(
                self.scenario, self.platform, self.cascade_probability
            )
        if self.dream is not None:
            scheduler = DreamScheduler(self.dream, name=self.scheduler)
        else:
            scheduler = make_scheduler(self.scheduler)
        return run_simulation(
            scenario=scenario,
            platform=platform,
            scheduler=scheduler,
            duration_ms=self.duration_ms,
            seed=self.seed,
            cost_table=cost_table,
            resource_model=self.resource_model,
        )


@dataclass(frozen=True)
class PhasedJob:
    """A multi-phase workload run under ONE scheduler instance.

    Unlike :class:`CellJob`, phases intentionally share scheduler state:
    the scheduler is created once (via :func:`make_scheduler`, so the
    construction path is identical to the grid path) and reused across
    phases so its internal state — most importantly DREAM's tuned
    (alpha, beta) — carries over the usage-scenario change.  Phase ``i``
    runs with seed ``seed + i``; both facts are part of the job contract,
    making the determinism of phased runs explicit rather than incidental.

    Only scheduler state crosses a phase boundary: requests still in
    flight when a phase ends are finalized as unfinished in that phase's
    result and discarded — nothing is re-queued into the next phase.
    """

    workload: PhasedWorkload
    platform: str
    scheduler: str
    seed: int = 0

    def run(self) -> list[SimulationResult]:
        """Execute every phase in order, threading one scheduler through."""
        platform = make_platform(self.platform)
        scheduler = make_scheduler(self.scheduler)
        results = []
        for index, phase in enumerate(self.workload.phases):
            results.append(
                run_simulation(
                    scenario=phase.scenario,
                    platform=platform,
                    scheduler=scheduler,
                    duration_ms=phase.duration_ms,
                    seed=self.seed + index,
                )
            )
        return results


# --------------------------------------------------------------------- #
# process-local context cache
# --------------------------------------------------------------------- #

#: Cap on memoized (scenario, platform) contexts per process; large sweeps
#: evict least-recently-used entries instead of growing without bound.
_CONTEXT_CACHE_SIZE = 32

_context_cache: "OrderedDict[tuple, tuple[Scenario, Platform, CostTable]]" = OrderedDict()


def _cached_context(key: tuple, build: "Callable[[], Scenario]", platform_name: str):
    """LRU-memoize (scenario, platform, cost table) under ``key``."""
    cached = _context_cache.get(key)
    if cached is not None:
        _context_cache.move_to_end(key)
        return cached
    scenario = build()
    platform = make_platform(platform_name)
    cost_table = CostTable.build(platform, scenario.all_model_graphs())
    _context_cache[key] = (scenario, platform, cost_table)
    while len(_context_cache) > _CONTEXT_CACHE_SIZE:
        _context_cache.popitem(last=False)
    return scenario, platform, cost_table


def shared_context(
    scenario_name: str,
    platform_name: str,
    cascade_probability: float,
) -> tuple[Scenario, Platform, CostTable]:
    """Scenario, platform and cost table for a cell, memoized per process.

    The cost table is identical for every scheduler of a (scenario,
    platform) pair, exactly as the paper's offline cost-model stage would
    produce it once; memoizing it here gives both the serial backend and
    each pool worker the same build-once behavior.  All returned objects
    are immutable, so reuse across cells is safe.
    """
    return _cached_context(
        (scenario_name, platform_name, cascade_probability),
        lambda: build_scenario(scenario_name, cascade_probability=cascade_probability),
        platform_name,
    )


def generated_context(
    spec: GeneratorSpec,
    index: int,
    platform_name: str,
) -> tuple[Scenario, Platform, CostTable]:
    """Like :func:`shared_context` but for a generated scenario.

    Keyed by the spec's canonical JSON (stable across processes), the
    scenario index and the platform, and stored in the same LRU cache, so
    fuzz sweeps that run many schedulers over one generated scenario build
    its cost table once per process.
    """
    return _cached_context(
        ("generated", spec.canonical_key(), index, platform_name),
        lambda: ScenarioGenerator(spec).generate(index),
        platform_name,
    )


def grid_jobs(
    scenarios: Sequence[str],
    platforms: Sequence[str],
    schedulers: Sequence[str],
    duration_ms: float = 1000.0,
    seed: int = 0,
    cascade_probability: float = DEFAULT_CASCADE_PROBABILITY,
    resource_model: str = _DEFAULT_RESOURCE_MODEL,
) -> list[CellJob]:
    """Expand a (scenario x platform x scheduler) grid into cell jobs.

    Jobs are ordered scheduler-innermost so contiguous chunks handed to a
    worker share their (scenario, platform) context.
    """
    return [
        CellJob(
            scenario=scenario,
            platform=platform,
            scheduler=scheduler,
            duration_ms=duration_ms,
            seed=seed,
            cascade_probability=cascade_probability,
            resource_model=resource_model,
        )
        for scenario in scenarios
        for platform in platforms
        for scheduler in schedulers
    ]


def generated_cell_jobs(
    spec: GeneratorSpec,
    count: int,
    platforms: Sequence[str],
    schedulers: Sequence[str],
    duration_ms: float = 1000.0,
    seed: int = 0,
    resource_model: str = _DEFAULT_RESOURCE_MODEL,
) -> list[CellJob]:
    """Expand ``count`` generated scenarios into a grid of cell jobs.

    Each job is named after its generated scenario, so its grid cell key
    stays self-describing (``gen-<seed>-<index>/platform/scheduler``).
    Ordered scheduler-innermost like :func:`grid_jobs`, so contiguous
    chunks share the generated (scenario, platform) context.
    """
    generator = ScenarioGenerator(spec)
    return [
        CellJob(
            scenario=generator.scenario_name(index),
            platform=platform,
            scheduler=scheduler,
            duration_ms=duration_ms,
            seed=seed,
            generator=spec,
            generator_index=index,
            resource_model=resource_model,
        )
        for index in range(count)
        for platform in platforms
        for scheduler in schedulers
    ]
