"""Frame generation for pipeline-head tasks (materialized form).

Real-time tasks consume streamed sensor data: a task with an ``fps``
target nominally receives one frame every ``1000 / fps`` milliseconds, and
each frame must complete within one period (its deadline).  The simulator
turns each :class:`Frame` into an inference request on arrival; downstream
(cascaded) tasks do not appear here — their requests are spawned by the
simulator when the upstream inference completes and the control dependency
fires.

The *traffic model* of each head task — strictly periodic with uniform
jitter by default, or any :class:`~repro.workloads.traffic.ArrivalProcess`
set on the :class:`~repro.workloads.scenario.TaskSpec` — is defined in
:mod:`repro.workloads.traffic`; this module provides the materialized
(all-frames-up-front) view used by tests and offline analysis.  The
simulation engine itself streams frames lazily (one frame ahead per task)
from the same processes, and :func:`generate_frames` is the reference the
streaming path is tested against.

Window-end semantics: the jittered processes bound the *nominal* frame
time by the window end, so a jittered arrival may land at or slightly past
``end_ms``.  Such a frame's deadline necessarily exceeds the window, so it
can never enter the measured statistics; the behaviour is kept (rather
than clamped) so results are bit-for-bit stable across the streaming
refactor.  See the :mod:`repro.workloads.traffic` module docstring.
"""

from __future__ import annotations

import random
from typing import Iterator, TYPE_CHECKING

from repro.workloads.traffic import DEFAULT_PROCESS, Frame

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.scenario import Scenario, TaskSpec

__all__ = [
    "SENSOR_JITTER_MS",
    "Frame",
    "generate_frames",
    "head_arrival_plan",
    "task_arrival_rng",
    "task_frame_stream",
]


def head_arrival_plan(scenario: "Scenario") -> list[tuple["TaskSpec", float]]:
    """(head task, phase offset) pairs shared by both frame-generation paths.

    Head tasks are phase-staggered slightly (a fraction of the shortest
    period spread across tasks) so that all pipelines do not fire in the
    same instant at t=0, which would be both unrealistic and adversarial
    for every scheduler equally.  The engine's streaming arrival sources
    and the materialized :func:`generate_frames` both derive their offsets
    here, so the two paths cannot drift apart.

    Raises:
        ValueError: if the scenario has no head tasks (nothing would ever
            arrive).
    """
    heads = scenario.head_tasks
    if not heads:
        raise ValueError(f"scenario {scenario.name!r} has no head tasks")
    shortest_period = min(task.period_ms for task in heads)
    stagger = shortest_period / max(1, len(heads)) * 0.25
    return [(task, index * stagger) for index, task in enumerate(heads)]


def task_arrival_rng(seed: int, task_name: str) -> random.Random:
    """The per-task arrival RNG shared by the streaming and materialized paths.

    Seeded from a string, not ``tuple.__hash__()``: str hashing is salted
    by PYTHONHASHSEED, which would make arrivals differ between interpreter
    sessions (``random.Random(str)`` seeds via SHA-512 and is stable).
    """
    return random.Random(f"{seed}:{task_name}")


#: Uniform arrival jitter (ms) the engine gives every head-task frame whose
#: traffic model sets none of its own (see "sensor jitter" in
#: docs/glossary.md).
SENSOR_JITTER_MS = 0.5


def task_frame_stream(
    task: "TaskSpec",
    offset_ms: float,
    end_ms: float,
    seed: int,
) -> Iterator[Frame]:
    """One head task's frame iterator — the single stream construction.

    Resolves the task's traffic model (default: periodic), seeds the
    per-task RNG and opens the frame iterator, with :data:`SENSOR_JITTER_MS`
    for a model that sets no jitter of its own.  Both the engine's streaming
    arrival sources and the materialized :func:`generate_frames` build their
    streams here, so process selection, RNG seeding, jitter and window
    wiring cannot drift apart between the two paths.
    """
    process = task.traffic if task.traffic is not None else DEFAULT_PROCESS
    return process.frames(
        task,
        start_ms=offset_ms,
        end_ms=end_ms,
        rng=task_arrival_rng(seed, task.name),
        default_jitter_ms=SENSOR_JITTER_MS,
    )


def generate_frames(
    scenario: "Scenario",
    duration_ms: float,
    seed: int = 0,
) -> list[Frame]:
    """Materialize all head-task frames of a scenario for ``[0, duration_ms)``.

    Each head task is fed by its own traffic model (``TaskSpec.traffic``,
    defaulting to periodic + :data:`SENSOR_JITTER_MS` of uniform jitter)
    with a per-task RNG, exactly like the engine's streaming path — this
    function is the materialized reference for tests.

    Args:
        scenario: the workload scenario.
        duration_ms: length of the simulated window.
        seed: seed for the per-task arrival random generators.

    Returns:
        All frames sorted by arrival time (ties broken by task name).
    """
    if duration_ms <= 0:
        raise ValueError("duration_ms must be positive")
    frames: list[Frame] = []
    for task, offset_ms in head_arrival_plan(scenario):
        frames.extend(task_frame_stream(task, offset_ms=offset_ms, end_ms=duration_ms, seed=seed))
    frames.sort(key=lambda frame: (frame.arrival_ms, frame.task_name))
    return frames
