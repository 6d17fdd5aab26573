"""Randomized scenario generation: an unbounded workload space from the zoo.

The five Table-3 scenarios are fixed points; systematic exploration of the
configuration space needs *generated* workloads.  A :class:`GeneratorSpec`
is a small frozen dataclass of scalars — picklable and JSON
round-trippable — describing a scenario *distribution*: how many tasks,
which frame rates, how deep cascade chains may grow and with which trigger
probabilities, and whether per-model input resolutions are swept.  A
:class:`ScenarioGenerator` turns ``(spec, index)`` deterministically into a
fully validated :class:`~repro.workloads.scenario.Scenario` composed from
the model zoo.

Determinism contract: scenario ``index`` under a given spec is identical
across processes and interpreter sessions (all randomness flows through
``random.Random`` seeded from a canonical string — SHA-512-based, not
``PYTHONHASHSEED``-salted), which is what lets generated scenarios flow
through the parallel harness and the content-keyed result store: a
``CellJob`` only has to carry the spec and the index.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Mapping, Tuple

from repro.hardware.cost_table import activation_footprint_bytes
from repro.models import zoo
from repro.sim.resource_models import RESOURCE_MODEL_NAMES
from repro.workloads.scenario import ModelOrSupernet, Scenario, TaskSpec
from repro.workloads.scenarios import (
    CONTEXT_RESOLUTION,
    DEPTH_SHAPE,
    DETECTION_RESOLUTION,
    EDTCN_WINDOW,
    GAZE_RESOLUTION,
    GNMT_HIDDEN,
    GNMT_TOKENS,
    HANDPOSE_RESOLUTION,
    RAPID_RL_SHAPE,
    SKIPNET_RESOLUTION,
    SOSNET_PATCHES,
    TRAILNET_SHAPE,
    VOXCELEB_SHAPE,
)
from repro.workloads.traffic import arrival_process_names, make_arrival_process

#: Default traffic sampling: the historical periodic-only behaviour.  A
#: spec whose ``traffic_models`` equals this omits the field from
#: ``to_dict()`` so pre-traffic content keys, cached results and the
#: committed bench baselines stay valid.
DEFAULT_TRAFFIC_MODELS: Tuple[str, ...] = ("periodic",)


@dataclass(frozen=True)
class _PoolEntry:
    """One sampleable task template: a zoo builder plus parameter choices.

    ``params`` maps builder kwarg names to the discrete values the
    resolution sweep may pick; the first value is the canonical default
    used when sweeping is disabled, the Table-3 scenarios' deployment size
    (:mod:`repro.workloads.scenarios`) where a scenario sets one.
    """

    key: str
    builder: Callable[..., ModelOrSupernet]
    params: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()

    def build(self, rng: random.Random, sweep: bool) -> ModelOrSupernet:
        kwargs = {
            name: (rng.choice(values) if sweep else values[0])
            for name, values in self.params
        }
        return self.builder(**kwargs)


#: Every task template the generator samples from.  Keys double as task
#: names; model names are pairwise distinct across entries (the three SSD
#: entries differ through the ``task`` kwarg baked into the graph name),
#: so any subset sampled without replacement satisfies the Scenario
#: unique-model-name validation.  Every value tuple's order is part of the
#: generator's RNG draws (``rng.choice``), so it must not change.
MODEL_POOL: Tuple[_PoolEntry, ...] = (
    _PoolEntry("gaze_estimation", zoo.build_fbnet_c, (("resolution", (GAZE_RESOLUTION, 256, 192)),)),
    _PoolEntry(
        "hand_detection",
        zoo.build_ssd_mobilenet_v2,
        (("resolution", (DETECTION_RESOLUTION, 384, 320)), ("task", ("hand",))),
    ),
    _PoolEntry(
        "object_detection",
        zoo.build_ssd_mobilenet_v2,
        (("resolution", (DETECTION_RESOLUTION, 384, 320)), ("task", ("object",))),
    ),
    _PoolEntry(
        "face_detection",
        zoo.build_ssd_mobilenet_v2,
        (("resolution", (DETECTION_RESOLUTION, 384, 320)), ("task", ("face",))),
    ),
    _PoolEntry(
        "hand_pose_estimation", zoo.build_handposenet, (("resolution", (HANDPOSE_RESOLUTION, 192, 128)),)
    ),
    _PoolEntry(
        "context_understanding", zoo.build_once_for_all, (("resolution", (CONTEXT_RESOLUTION, 320, 256)),)
    ),
    _PoolEntry("keyword_spotting", zoo.build_kws_res8, ()),
    _PoolEntry(
        "translation",
        zoo.build_gnmt,
        (
            ("hidden_size", (GNMT_HIDDEN, 768, 512)),
            ("src_tokens", (GNMT_TOKENS, 16)),
            ("tgt_tokens", (GNMT_TOKENS, 16)),
        ),
    ),
    _PoolEntry("scene_understanding", zoo.build_skipnet, (("resolution", (SKIPNET_RESOLUTION, 288, 224)),)),
    _PoolEntry(
        "outdoor_navigation",
        zoo.build_trailnet,
        (("height", (TRAILNET_SHAPE[0], 180)), ("width", (TRAILNET_SHAPE[1], 320))),
    ),
    _PoolEntry("visual_odometry", zoo.build_sosnet, (("num_patches", (SOSNET_PATCHES, 64, 48)),)),
    _PoolEntry(
        "indoor_navigation",
        zoo.build_rapid_rl,
        (("height", (RAPID_RL_SHAPE[0], 180)), ("width", (RAPID_RL_SHAPE[1], 240))),
    ),
    _PoolEntry("car_classification", zoo.build_googlenet_car, (("resolution", (224, 192)),)),
    _PoolEntry(
        "depth_estimation",
        zoo.build_focal_length_depth,
        (("height", (DEPTH_SHAPE[0], 224)), ("width", (DEPTH_SHAPE[1], 288))),
    ),
    _PoolEntry("action_segmentation", zoo.build_ed_tcn, (("window", (EDTCN_WINDOW, 192, 128)),)),
    _PoolEntry(
        "speaker_verification",
        zoo.build_vgg_voxceleb,
        (("height", (VOXCELEB_SHAPE[0], 256)), ("width", (VOXCELEB_SHAPE[1], 192))),
    ),
)


@dataclass(frozen=True)
class GeneratorSpec:
    """Distribution parameters for randomized scenario generation.

    A spec is built only from scalars and tuples of scalars, so it is
    picklable (process-pool workers), hashable into content keys (result
    store) and JSON round-trippable (failing-scenario artifacts, CLI
    ``--replay``).

    Attributes:
        seed: base seed; together with a scenario index it fully determines
            the generated scenario.
        min_tasks / max_tasks: inclusive bounds on the task count.
        fps_choices: frame rates sampled per task.
        chain_probability: probability that a newly placed task extends an
            existing cascade chain instead of becoming a pipeline head.
        max_cascade_depth: maximum dependency-edge count from a head to its
            deepest descendant (0 disables cascades entirely).
        trigger_probability_range: inclusive range the per-cascade trigger
            probability is drawn from (Table 3 uses 0.5; Figure 12 sweeps
            up to 0.99).
        resolution_sweep: when True, per-model input sizes are sampled from
            each zoo entry's deployment choices; when False the canonical
            defaults are used.
        traffic_models: registry names of the
            :class:`~repro.workloads.traffic.ArrivalProcess` models sampled
            (uniformly) for each generated *head* task; the default
            periodic-only tuple draws nothing and leaves every task on the
            engine's historical arrival path.
        name_prefix: prefix of generated scenario names.
        resource_model: the execution-resource model the scenarios target
            (:mod:`repro.sim.resource_models`).  ``"kv_batch"`` samples a
            per-scenario KV budget (1.5x..3x the largest activation
            footprint) and marks every cascade child as a multi-turn
            interaction; the default ``"pe_fraction"`` draws nothing and
            keeps generated scenarios byte-identical to pre-kv specs.
    """

    seed: int = 0
    min_tasks: int = 2
    max_tasks: int = 5
    fps_choices: Tuple[float, ...] = (10.0, 15.0, 30.0, 60.0)
    chain_probability: float = 0.35
    max_cascade_depth: int = 2
    trigger_probability_range: Tuple[float, float] = (0.3, 1.0)
    resolution_sweep: bool = True
    traffic_models: Tuple[str, ...] = DEFAULT_TRAFFIC_MODELS
    name_prefix: str = "gen"
    resource_model: str = "pe_fraction"

    def __post_init__(self) -> None:
        if not 1 <= self.min_tasks <= self.max_tasks:
            raise ValueError(
                f"need 1 <= min_tasks <= max_tasks, got {self.min_tasks}..{self.max_tasks}"
            )
        if self.max_tasks > len(MODEL_POOL):
            raise ValueError(
                f"max_tasks={self.max_tasks} exceeds the model pool ({len(MODEL_POOL)} entries)"
            )
        if not self.fps_choices or any(fps <= 0 for fps in self.fps_choices):
            raise ValueError("fps_choices must be non-empty and positive")
        if not 0.0 <= self.chain_probability <= 1.0:
            raise ValueError("chain_probability must be in [0, 1]")
        if self.max_cascade_depth < 0:
            raise ValueError("max_cascade_depth must be non-negative")
        low, high = self.trigger_probability_range
        if not 0.0 <= low <= high <= 1.0:
            raise ValueError("trigger_probability_range must satisfy 0 <= low <= high <= 1")
        if not self.traffic_models:
            raise ValueError("traffic_models must be non-empty")
        known = arrival_process_names()
        for name in self.traffic_models:
            if name not in known:
                raise ValueError(
                    f"unknown traffic model {name!r}; "
                    f"available: {', '.join(sorted(known))}"
                )
        if self.resource_model not in RESOURCE_MODEL_NAMES:
            raise ValueError(
                f"unknown resource model {self.resource_model!r}; "
                f"available: {', '.join(sorted(RESOURCE_MODEL_NAMES))}"
            )
        if not self.name_prefix:
            raise ValueError("name_prefix must be non-empty")

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`).

        ``traffic_models`` is only emitted when it differs from the
        periodic-only default: the canonical JSON seeds every generation
        RNG and keys the result cache, so default specs must keep
        producing the exact pre-traffic scenarios.
        """
        payload = {
            "seed": self.seed,
            "min_tasks": self.min_tasks,
            "max_tasks": self.max_tasks,
            "fps_choices": list(self.fps_choices),
            "chain_probability": self.chain_probability,
            "max_cascade_depth": self.max_cascade_depth,
            "trigger_probability_range": list(self.trigger_probability_range),
            "resolution_sweep": self.resolution_sweep,
            "name_prefix": self.name_prefix,
        }
        if self.traffic_models != DEFAULT_TRAFFIC_MODELS:
            payload["traffic_models"] = list(self.traffic_models)
        if self.resource_model != "pe_fraction":
            payload["resource_model"] = self.resource_model
        return payload

    @classmethod
    def from_dict(cls, data: Mapping) -> "GeneratorSpec":
        """Rebuild from :meth:`to_dict` output."""
        payload = dict(data)
        payload["fps_choices"] = tuple(payload.get("fps_choices", cls.fps_choices))
        payload["trigger_probability_range"] = tuple(
            payload.get("trigger_probability_range", cls.trigger_probability_range)
        )
        payload["traffic_models"] = tuple(
            payload.get("traffic_models", DEFAULT_TRAFFIC_MODELS)
        )
        payload["resource_model"] = payload.get("resource_model", "pe_fraction")
        return cls(**payload)

    def canonical_key(self) -> str:
        """Stable string identifying the spec (part of every RNG seed)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


class ScenarioGenerator:
    """Deterministically expands a :class:`GeneratorSpec` into scenarios."""

    def __init__(self, spec: GeneratorSpec) -> None:
        self.spec = spec
        self._spec_key = spec.canonical_key()

    def scenario_name(self, index: int) -> str:
        """The name the scenario at ``index`` will carry."""
        return f"{self.spec.name_prefix}-{self.spec.seed}-{index}"

    def generate(self, index: int) -> Scenario:
        """Build the scenario at ``index`` (pure function of spec + index).

        The scenario passes every :class:`Scenario` validation by
        construction: task names and model names come from pool entries
        sampled without replacement, dependencies only point at
        already-placed tasks (so chains are acyclic), and chain depth is
        bounded by ``max_cascade_depth``.
        """
        if index < 0:
            raise ValueError("index must be non-negative")
        spec = self.spec
        rng = random.Random(f"scenario-generator:{self._spec_key}:{index}")
        task_count = rng.randint(spec.min_tasks, spec.max_tasks)
        entries = rng.sample(MODEL_POOL, task_count)

        # The default periodic-only tuple must not consume RNG draws:
        # scenario `index` of a pre-traffic spec has to stay byte-identical.
        sample_traffic = spec.traffic_models != DEFAULT_TRAFFIC_MODELS
        # Same discipline for the resource-model flavour: the default
        # pe_fraction spec draws nothing, and the kv budget draw happens
        # *after* every historical draw so shared prefixes stay aligned.
        sample_kv = spec.resource_model == "kv_batch"

        tasks: list[TaskSpec] = []
        depth: dict[str, int] = {}
        for entry in entries:
            model = entry.build(rng, spec.resolution_sweep)
            fps = rng.choice(spec.fps_choices)
            eligible_parents = [
                task for task in tasks if depth[task.name] < spec.max_cascade_depth
            ]
            cascade = (
                bool(eligible_parents)
                and spec.max_cascade_depth > 0
                and rng.random() < spec.chain_probability
            )
            if cascade:
                parent = rng.choice(eligible_parents)
                low, high = spec.trigger_probability_range
                trigger = round(rng.uniform(low, high), 3)
                task = TaskSpec(
                    entry.key,
                    model,
                    fps=fps,
                    depends_on=parent.name,
                    trigger_probability=trigger,
                    # kv_batch scenarios exercise multi-turn interactions:
                    # every dependent task replies the instant its parent
                    # completes (no extra RNG draw, so prefixes align).
                    interaction=sample_kv,
                )
                depth[entry.key] = depth[parent.name] + 1
            else:
                traffic = None
                if sample_traffic:
                    kind = rng.choice(spec.traffic_models)
                    if kind != "periodic":
                        traffic = make_arrival_process(kind)
                task = TaskSpec(entry.key, model, fps=fps, traffic=traffic)
                depth[entry.key] = 0
            tasks.append(task)

        kv_budget = None
        if sample_kv:
            # Sampled last: 1.5x..3x the largest activation footprint, so
            # batching is possible but the budget binds for some mixes.
            ratio = round(rng.uniform(1.5, 3.0), 3)
            largest = max(
                (
                    activation_footprint_bytes(graph)
                    for task in tasks
                    for graph in task.model_variants
                ),
                default=0,
            )
            kv_budget = ratio * max(1, largest)

        return Scenario(
            name=self.scenario_name(index),
            tasks=tuple(tasks),
            description=(
                f"generated scenario {index} of spec seed={spec.seed} "
                f"({task_count} tasks, {sum(1 for t in tasks if t.is_head)} heads)"
            ),
            kv_budget_bytes=kv_budget,
        )
