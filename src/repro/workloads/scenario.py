"""Scenario and task specifications.

A :class:`TaskSpec` binds one model (or Supernet) to a target frame rate
and an optional control dependency on another task of the same scenario —
the "Dep." column of Table 3.  A :class:`Scenario` is a validated collection
of task specs and answers the structural questions the scheduler and the
simulator need: which tasks are pipeline heads (periodic frame sources),
which tasks are downstream of which, and which tasks are chain tails
(the only legal smart-frame-drop targets, Section 4.2.1 Condition 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, TYPE_CHECKING, Union

from repro.models.graph import ModelGraph
from repro.models.supernet import Supernet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.traffic import ArrivalProcess

ModelOrSupernet = Union[ModelGraph, Supernet]


@dataclass(frozen=True)
class TaskSpec:
    """One deployed ML task within a scenario.

    Attributes:
        name: task name, unique within the scenario (e.g. ``"hand_detection"``).
        model: the model graph, or a Supernet whose variants the scheduler
            may switch between.
        fps: target frame rate; the per-frame deadline is ``1000 / fps`` ms.
        depends_on: name of the upstream task this task is cascaded after,
            or ``None`` for a pipeline head that consumes sensor frames.
        trigger_probability: probability that a completed upstream inference
            triggers this task (control dependency); ignored for heads.
        traffic: optional :class:`~repro.workloads.traffic.ArrivalProcess`
            describing how this head task's frames arrive; ``None`` means
            periodic + uniform jitter (the historical default).  Ignored
            for cascaded tasks, whose requests are spawned by upstream
            completions rather than by a frame source.
        interaction: mark this dependent task as a multi-turn interaction:
            the next turn arrives the instant the upstream request
            completes (not at the parent's frame timestamp) and its
            deadline is one period from *that* moment.  Requires
            ``depends_on`` — an interaction is always a reply to something.
    """

    name: str
    model: ModelOrSupernet
    fps: float
    depends_on: Optional[str] = None
    trigger_probability: float = 1.0
    traffic: Optional["ArrivalProcess"] = None
    interaction: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("task name must be non-empty")
        if self.fps <= 0:
            raise ValueError(f"task {self.name!r}: fps must be positive")
        if not 0.0 <= self.trigger_probability <= 1.0:
            raise ValueError(
                f"task {self.name!r}: trigger_probability must be in [0, 1]"
            )
        if self.depends_on == self.name:
            raise ValueError(f"task {self.name!r} cannot depend on itself")
        if self.traffic is not None and self.depends_on is not None:
            raise ValueError(
                f"task {self.name!r}: cascaded tasks have no frame source, so "
                "they cannot carry a traffic model"
            )
        if self.interaction and self.depends_on is None:
            raise ValueError(
                f"task {self.name!r}: interaction turns are triggered by an "
                "upstream completion, so they require depends_on"
            )

    @property
    def period_ms(self) -> float:
        """Frame period (and per-frame deadline budget) in milliseconds."""
        return 1000.0 / self.fps

    @property
    def is_head(self) -> bool:
        """True if the task consumes sensor frames directly (no dependency)."""
        return self.depends_on is None

    @property
    def is_supernet(self) -> bool:
        """True if the task's model is a switchable Supernet."""
        return isinstance(self.model, Supernet)

    @property
    def default_model(self) -> ModelGraph:
        """The graph dispatched when no Supernet switching is applied."""
        if isinstance(self.model, Supernet):
            return self.model.default_variant
        return self.model

    @property
    def model_variants(self) -> tuple[ModelGraph, ...]:
        """All graphs this task may execute (one, or the Supernet variants)."""
        if isinstance(self.model, Supernet):
            return self.model.variants
        return (self.model,)


@dataclass(frozen=True)
class Scenario:
    """A named RTMM workload scenario: a set of concurrent, possibly cascaded tasks.

    Attributes:
        name: scenario name (e.g. ``"ar_social"``).
        tasks: the task specs; order is preserved for deterministic iteration.
        description: optional human-readable summary.
        kv_budget_bytes: shared KV-cache memory budget per accelerator for
            the ``kv_batch`` resource model; ``None`` (the default) derives
            a budget from the scenario's largest activation footprint (see
            :func:`repro.sim.resource_models.default_kv_budget_bytes`).
            Ignored by the default ``pe_fraction`` model.
    """

    name: str
    tasks: tuple[TaskSpec, ...]
    description: str = ""
    kv_budget_bytes: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError(f"scenario {self.name!r} must have at least one task")
        if self.kv_budget_bytes is not None and self.kv_budget_bytes <= 0:
            raise ValueError(
                f"scenario {self.name!r}: kv_budget_bytes must be positive "
                f"(got {self.kv_budget_bytes})"
            )
        names = [task.name for task in self.tasks]
        if len(set(names)) != len(names):
            raise ValueError(f"scenario {self.name!r} has duplicate task names")
        by_name = {task.name: task for task in self.tasks}
        for task in self.tasks:
            if task.depends_on is not None and task.depends_on not in by_name:
                raise ValueError(
                    f"scenario {self.name!r}: task {task.name!r} depends on "
                    f"unknown task {task.depends_on!r}"
                )
        self._check_acyclic(by_name)
        model_names = [graph.name for task in self.tasks for graph in task.model_variants]
        if len(set(model_names)) != len(model_names):
            raise ValueError(
                f"scenario {self.name!r}: model names must be unique across tasks "
                f"(got {model_names})"
            )

    @staticmethod
    def _check_acyclic(by_name: Mapping[str, TaskSpec]) -> None:
        for start in by_name:
            seen = set()
            current: Optional[str] = start
            while current is not None:
                if current in seen:
                    raise ValueError(f"dependency cycle involving task {start!r}")
                seen.add(current)
                current = by_name[current].depends_on

    # ------------------------------------------------------------------ #
    # structural queries
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[TaskSpec]:
        return iter(self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def task_names(self) -> list[str]:
        """Names of all tasks, in declaration order."""
        return [task.name for task in self.tasks]

    def task(self, name: str) -> TaskSpec:
        """Look up a task by name.

        Raises:
            KeyError: if no task has that name.
        """
        for task in self.tasks:
            if task.name == name:
                return task
        raise KeyError(f"scenario {self.name!r} has no task {name!r}")

    @property
    def head_tasks(self) -> list[TaskSpec]:
        """Tasks that consume sensor frames directly (periodic sources)."""
        return [task for task in self.tasks if task.is_head]

    def children_of(self, task_name: str) -> list[TaskSpec]:
        """Tasks directly cascaded after ``task_name``."""
        return [task for task in self.tasks if task.depends_on == task_name]

    def is_chain_tail(self, task_name: str) -> bool:
        """True if no other task depends on ``task_name``.

        Only chain tails are legal smart-frame-drop targets (the paper's
        Condition 3), because dropping an upstream model silently kills its
        dependents too.
        """
        return not self.children_of(task_name)

    def dependency_chain(self, task_name: str) -> list[str]:
        """Task names from the pipeline head down to ``task_name`` inclusive."""
        chain: list[str] = []
        current: Optional[str] = task_name
        while current is not None:
            chain.append(current)
            current = self.task(current).depends_on
        chain.reverse()
        return chain

    # ------------------------------------------------------------------ #
    # model enumeration (cost-table construction)
    # ------------------------------------------------------------------ #
    def all_model_graphs(self) -> list[ModelGraph]:
        """Every graph any task may execute, including all Supernet variants."""
        graphs: list[ModelGraph] = []
        for task in self.tasks:
            graphs.extend(task.model_variants)
        return graphs

    def model_names(self) -> list[str]:
        """Names of every graph returned by :meth:`all_model_graphs`."""
        return [graph.name for graph in self.all_model_graphs()]

    def describe(self) -> str:
        """Multi-line summary of the scenario (used by examples)."""
        header = f"Scenario {self.name}: {len(self.tasks)} tasks"
        if self.kv_budget_bytes is not None:
            header += f" (kv budget {self.kv_budget_bytes:g} B)"
        lines = [header]
        for task in self.tasks:
            dep = f" (after {task.depends_on}, p={task.trigger_probability})" if task.depends_on else ""
            kind = "supernet" if task.is_supernet else "model"
            traffic = f" traffic={task.traffic.kind}" if task.traffic is not None else ""
            interaction = " interaction" if task.interaction else ""
            lines.append(
                f"  - {task.name}: {task.default_model.name} [{kind}] @ {task.fps:g} FPS{dep}{traffic}{interaction}"
            )
        return "\n".join(lines)
