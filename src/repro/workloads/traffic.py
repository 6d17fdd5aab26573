"""Pluggable frame-arrival traffic models (open-loop arrival processes).

The paper evaluates fixed 2-second windows fed by strictly periodic sensor
frames with a small uniform jitter.  Production-scale serving sees far
richer traffic: Poisson request streams, bursty on/off phases, and load
ramps.  This module defines the :class:`ArrivalProcess` family — small
frozen dataclasses that turn one head task into a *lazy* stream of
:class:`Frame` objects — which the simulation engine consumes one frame
ahead per task, so memory stays O(tasks) regardless of window length.

Processes
---------
``periodic``
    Strictly periodic with uniform jitter — the historical default, and
    bit-for-bit identical to the pre-streaming materialized path.
``poisson``
    Memoryless arrivals with exponential inter-arrival gaps whose mean is
    the task period over ``rate_scale`` (``rate_scale=1`` preserves the
    task's average FPS).
``bursty``
    A two-state Markov-modulated Poisson process (MMPP-2): exponential
    dwell times alternate between a burst state and an idle state, each a
    Poisson stream at its own rate multiple of the nominal FPS.
``load_scaled``
    Deterministic frame pacing whose instantaneous FPS ramps linearly from
    ``start_scale`` x nominal to ``end_scale`` x nominal across the window
    (plus the usual uniform jitter) — a load sweep within a single run.

Semantics shared by every process:

* Frame deadlines are always ``arrival + task.period_ms`` — the deadline
  budget is a property of the *task*, not of the traffic feeding it.
* Frame ids increase monotonically per task, in emission order.
* Arrival times are non-decreasing per task.  The periodic and load-scaled
  processes guarantee this only while the jitter amplitude does not exceed
  the (instantaneous) period; the engine clamps defensively otherwise.
* Window-end semantics: the jittered processes (``periodic``,
  ``load_scaled``) bound the *nominal* frame time by ``end_ms``, so a
  jittered arrival may land at or slightly past the window end (such a
  frame's deadline exceeds the window, so it is never part of the measured
  statistics); this is the historical materialized-path behaviour, kept so
  streaming and materialized frame generation agree bit-for-bit.  The
  stochastic processes (``poisson``, ``bursty``) have no nominal grid and
  bound the arrival itself by ``end_ms``.

Determinism: a process never owns a random generator — the caller passes
one in (the engine seeds it from ``(simulation seed, task name)``), so one
seed fully determines the arrival stream no matter which component asks
for it, and every scheduler sees the identical stream (the fuzz oracle's
``identical_arrivals`` metamorphic property).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Iterator, Mapping, Optional, TYPE_CHECKING, Type

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.scenario import TaskSpec


@dataclass(frozen=True)
class Frame:
    """One sensor frame for a head task.

    Attributes:
        task_name: the head task receiving the frame.
        frame_id: monotonically increasing index per task.
        arrival_ms: arrival time of the frame.
        deadline_ms: completion deadline (arrival + one task period).
    """

    task_name: str
    frame_id: int
    arrival_ms: float
    deadline_ms: float


@dataclass(frozen=True)
class ArrivalProcess:
    """Base class of every traffic model.

    Subclasses are frozen dataclasses of scalars, so a process is
    picklable (process-pool workers), hashable (it rides inside the frozen
    :class:`~repro.workloads.scenario.TaskSpec`) and JSON round-trippable
    via :meth:`to_dict` / :func:`arrival_process_from_dict`.
    """

    #: Registry name; subclasses override.
    kind = "abstract"

    def frames(
        self,
        task: "TaskSpec",
        start_ms: float,
        end_ms: float,
        rng: random.Random,
        default_jitter_ms: float = 0.0,
    ) -> Iterator[Frame]:
        """Lazily yield the task's frames for the window ``[start_ms, end_ms)``.

        Args:
            task: the head task being fed.
            start_ms: phase offset of the stream (frame 0's nominal time).
            end_ms: end of the generation window.
            rng: random generator owned by the caller; all stochasticity
                flows through it.
            default_jitter_ms: the caller's uniform jitter amplitude, used
                by processes that do not override it per task (head-task
                streams, built by
                :func:`~repro.workloads.frames.task_frame_stream`, pass
                :data:`~repro.workloads.frames.SENSOR_JITTER_MS`).
        """
        raise NotImplementedError

    def to_dict(self) -> dict:
        """JSON-serializable form: ``{"kind": ..., <params>}``."""
        payload: dict = {"kind": self.kind}
        for field_ in fields(self):
            payload[field_.name] = getattr(self, field_.name)
        return payload


@dataclass(frozen=True)
class PeriodicArrival(ArrivalProcess):
    """Strictly periodic frames with uniform arrival jitter (the default).

    Attributes:
        jitter_ms: jitter amplitude; ``None`` inherits the sensor jitter
            (:data:`~repro.workloads.frames.SENSOR_JITTER_MS` in the engine).
    """

    jitter_ms: Optional[float] = None

    kind = "periodic"

    def __post_init__(self) -> None:
        if self.jitter_ms is not None and self.jitter_ms < 0:
            raise ValueError("jitter_ms must be non-negative")

    def frames(
        self,
        task: "TaskSpec",
        start_ms: float,
        end_ms: float,
        rng: random.Random,
        default_jitter_ms: float = 0.0,
    ) -> Iterator[Frame]:
        jitter_ms = self.jitter_ms if self.jitter_ms is not None else default_jitter_ms
        period = task.period_ms
        frame_id = 0
        while True:
            nominal = start_ms + frame_id * period
            if nominal >= end_ms:
                return
            jitter = rng.uniform(0.0, jitter_ms) if jitter_ms else 0.0
            arrival = nominal + jitter
            yield Frame(
                task_name=task.name,
                frame_id=frame_id,
                arrival_ms=arrival,
                deadline_ms=arrival + period,
            )
            frame_id += 1


@dataclass(frozen=True)
class PoissonArrival(ArrivalProcess):
    """Open-loop Poisson traffic: exponential inter-arrival gaps.

    Attributes:
        rate_scale: arrival-rate multiple of the task's nominal FPS; the
            mean inter-arrival gap is ``period_ms / rate_scale``.
    """

    rate_scale: float = 1.0

    kind = "poisson"

    def __post_init__(self) -> None:
        if self.rate_scale <= 0:
            raise ValueError("rate_scale must be positive")

    def frames(
        self,
        task: "TaskSpec",
        start_ms: float,
        end_ms: float,
        rng: random.Random,
        default_jitter_ms: float = 0.0,
    ) -> Iterator[Frame]:
        rate_per_ms = self.rate_scale / task.period_ms
        arrival = start_ms + rng.expovariate(rate_per_ms)
        frame_id = 0
        while arrival < end_ms:
            yield Frame(
                task_name=task.name,
                frame_id=frame_id,
                arrival_ms=arrival,
                deadline_ms=arrival + task.period_ms,
            )
            frame_id += 1
            arrival += rng.expovariate(rate_per_ms)


@dataclass(frozen=True)
class BurstyArrival(ArrivalProcess):
    """Two-state Markov-modulated Poisson traffic (burst / idle phases).

    The stream alternates between a *burst* state (Poisson arrivals at
    ``burst_rate_scale`` x nominal FPS) and an *idle* state
    (``idle_rate_scale`` x nominal FPS; 0 silences it completely), with
    exponentially distributed dwell times.  The stream starts in the burst
    state.

    Attributes:
        burst_rate_scale: arrival-rate multiple while bursting.
        idle_rate_scale: arrival-rate multiple while idle (may be 0).
        mean_burst_ms: mean dwell time of the burst state.
        mean_idle_ms: mean dwell time of the idle state.
    """

    burst_rate_scale: float = 4.0
    idle_rate_scale: float = 0.25
    mean_burst_ms: float = 200.0
    mean_idle_ms: float = 300.0

    kind = "bursty"

    def __post_init__(self) -> None:
        if self.burst_rate_scale <= 0:
            raise ValueError("burst_rate_scale must be positive")
        if self.idle_rate_scale < 0:
            raise ValueError("idle_rate_scale must be non-negative")
        if self.mean_burst_ms <= 0 or self.mean_idle_ms <= 0:
            raise ValueError("mean dwell times must be positive")

    def frames(
        self,
        task: "TaskSpec",
        start_ms: float,
        end_ms: float,
        rng: random.Random,
        default_jitter_ms: float = 0.0,
    ) -> Iterator[Frame]:
        now = start_ms
        bursting = True
        state_end = now + rng.expovariate(1.0 / self.mean_burst_ms)
        frame_id = 0
        while now < end_ms:
            scale = self.burst_rate_scale if bursting else self.idle_rate_scale
            # Redrawing the gap after a state flip is statistically exact:
            # exponential gaps are memoryless.
            gap = rng.expovariate(scale / task.period_ms) if scale > 0 else float("inf")
            if now + gap < state_end:
                now += gap
                if now >= end_ms:
                    return
                yield Frame(
                    task_name=task.name,
                    frame_id=frame_id,
                    arrival_ms=now,
                    deadline_ms=now + task.period_ms,
                )
                frame_id += 1
            else:
                now = state_end
                bursting = not bursting
                mean_dwell = self.mean_burst_ms if bursting else self.mean_idle_ms
                state_end = now + rng.expovariate(1.0 / mean_dwell)


@dataclass(frozen=True)
class LoadScaledArrival(ArrivalProcess):
    """Deterministic pacing whose FPS ramps linearly across the window.

    The instantaneous frame rate at nominal time ``t`` is the task's FPS
    times ``start_scale + (end_scale - start_scale) * progress(t)``; each
    nominal step advances by the instantaneous period, and the usual
    uniform jitter is applied on top (like ``periodic``, the *nominal*
    time is bounded by the window end).

    Attributes:
        start_scale: FPS multiple at the window start.
        end_scale: FPS multiple at the window end.
        jitter_ms: jitter amplitude; ``None`` inherits the sensor jitter.
    """

    start_scale: float = 1.0
    end_scale: float = 2.0
    jitter_ms: Optional[float] = None

    kind = "load_scaled"

    def __post_init__(self) -> None:
        if self.start_scale <= 0 or self.end_scale <= 0:
            raise ValueError("start_scale and end_scale must be positive")
        if self.jitter_ms is not None and self.jitter_ms < 0:
            raise ValueError("jitter_ms must be non-negative")

    def frames(
        self,
        task: "TaskSpec",
        start_ms: float,
        end_ms: float,
        rng: random.Random,
        default_jitter_ms: float = 0.0,
    ) -> Iterator[Frame]:
        jitter_ms = self.jitter_ms if self.jitter_ms is not None else default_jitter_ms
        period = task.period_ms
        span = max(end_ms - start_ms, 1e-9)
        nominal = start_ms
        frame_id = 0
        while nominal < end_ms:
            jitter = rng.uniform(0.0, jitter_ms) if jitter_ms else 0.0
            arrival = nominal + jitter
            yield Frame(
                task_name=task.name,
                frame_id=frame_id,
                arrival_ms=arrival,
                deadline_ms=arrival + period,
            )
            frame_id += 1
            progress = (nominal - start_ms) / span
            scale = self.start_scale + (self.end_scale - self.start_scale) * progress
            nominal += period / scale


#: The process used when a task specifies no traffic model — the
#: historical periodic-plus-uniform-jitter behaviour.
DEFAULT_PROCESS = PeriodicArrival()

#: Registry of every selectable traffic model.
ARRIVAL_PROCESSES: Mapping[str, Type[ArrivalProcess]] = {
    PeriodicArrival.kind: PeriodicArrival,
    PoissonArrival.kind: PoissonArrival,
    BurstyArrival.kind: BurstyArrival,
    LoadScaledArrival.kind: LoadScaledArrival,
}


def arrival_process_names() -> list[str]:
    """Names of every registered traffic model."""
    return list(ARRIVAL_PROCESSES)


def reject_unknown_keys(cls: type, data: Mapping) -> None:
    """Raise ``ValueError`` naming every key of ``data`` that is not a field of ``cls``.

    :func:`arrival_process_from_dict` and the ``from_dict`` methods of the
    fleet's spec dataclasses call it, so a misspelt or retired key in a
    hand-written spec is a usage error.
    """
    unknown = sorted(set(data) - {field.name for field in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s): {', '.join(unknown)}")


def make_arrival_process(kind: str, **params) -> ArrivalProcess:
    """Build a traffic model by registry name.

    Raises:
        KeyError: for unknown names (message lists the alternatives).
    """
    try:
        cls = ARRIVAL_PROCESSES[kind]
    except KeyError:
        known = ", ".join(arrival_process_names())
        raise KeyError(f"unknown traffic model {kind!r}; available: {known}") from None
    return cls(**params)


def arrival_process_from_dict(data: Mapping) -> ArrivalProcess:
    """Rebuild a process from :meth:`ArrivalProcess.to_dict` output.

    Raises:
        KeyError: for an unknown ``kind``.
        ValueError: for a ``traffic`` value that is not an object, one
            without a ``kind`` key, or a key that is not a parameter of the
            kind's class.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"traffic must be an object with a 'kind' key, not {data!r}")
    payload = dict(data)
    if "kind" not in payload:
        known = ", ".join(arrival_process_names())
        raise ValueError(f"traffic object has no 'kind' key; available kinds: {known}")
    kind = payload.pop("kind")
    if kind in ARRIVAL_PROCESSES:
        reject_unknown_keys(ARRIVAL_PROCESSES[kind], payload)
    return make_arrival_process(kind, **payload)
