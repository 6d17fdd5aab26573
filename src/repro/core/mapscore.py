"""MapScore computation — Algorithm 1 of the paper.

MapScore scores a (pending inference task, accelerator) pair; the dispatch
engine selects the highest-scoring pairs.  It combines four unit scores:

* **Urgency** — predicted remaining processing time (ToGo, averaged across
  accelerators) over the remaining time to the deadline (Slack);
* **Latency preference** — how much faster this accelerator is for the
  task's next layer compared with the other accelerators;
* **Starvation** — how long the task has been waiting, normalized by the
  next layer's average latency so light layers are not starved;
* **Energy** — the energy preference of this accelerator for the next
  layer, minus the relative cost of context-switching the accelerator to
  this task.

``MapScore = Urgency * LatPref + alpha * Starv + beta * Energy``
(Algorithm 1, lines 14-15), where ``alpha`` and ``beta`` are the tunable
parameters the adaptivity engine optimizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hardware.cost_table import CostTable
from repro.sim.request import InferenceRequest

#: Slack values at or below this are treated as "effectively zero" to keep
#: the urgency ratio finite for already-late requests (which must still be
#: maximally urgent rather than NaN/inf).
_MIN_SLACK_MS = 1e-3


@dataclass(frozen=True)
class MapScoreBreakdown:
    """MapScore of one (task, accelerator) pair with its unit scores."""

    task_name: str
    acc_id: int
    urgency: float
    latency_preference: float
    starvation: float
    energy_preference: float
    context_switch_cost: float
    energy_score: float
    total: float


class MapScoreEngine:
    """Computes one MapScore entry of Figure 4's table per (request, accelerator).

    The table itself is scanned by the DREAM dispatch engine
    (:class:`repro.core.dispatch.JobDispatchEngine`).

    Args:
        cost_table: the offline per-(layer, accelerator) cost estimates.
    """

    def __init__(self, cost_table: CostTable) -> None:
        self.cost_table = cost_table
        # ToGo only changes when a request makes progress, so cache it by
        # (request, position); schedule() is called at every event and would
        # otherwise re-sum the remaining path thousands of times.
        self._to_go_cache: dict[int, tuple[int, float]] = {}

    # ------------------------------------------------------------------ #
    # base statistics (Algorithm 1, lines 2-6)
    # ------------------------------------------------------------------ #
    def to_go_ms(self, request: InferenceRequest) -> float:
        """ToGo: remaining processing time averaged across accelerators."""
        cached = self._to_go_cache.get(request.request_id)
        if cached is not None and cached[0] == request.next_position:
            return cached[1]
        value = self.cost_table.remaining_average_latency(
            request.model_name, request.remaining_path()
        )
        self._to_go_cache[request.request_id] = (request.next_position, value)
        return value

    def forget(self, request_id: int) -> None:
        """Drop a finished request's cache entry (bounds memory on long runs)."""
        self._to_go_cache.pop(request_id, None)

    def slack_ms(self, request: InferenceRequest, now_ms: float) -> float:
        """Slack: remaining time until the deadline (clamped to stay positive)."""
        return max(_MIN_SLACK_MS, request.deadline_ms - now_ms)

    # ------------------------------------------------------------------ #
    # unit scores (Algorithm 1, lines 7-13)
    # ------------------------------------------------------------------ #
    def urgency_score(self, request: InferenceRequest, now_ms: float) -> float:
        """Score_Urgency = ToGo / Slack (line 7)."""
        return self.to_go_ms(request) / self.slack_ms(request, now_ms)

    def latency_preference_score(self, request: InferenceRequest, acc_id: int) -> float:
        """Score_LatPref = sum_i EstLatency(next, i) / EstLatency(next, acc) (line 8)."""
        next_layer = request.next_layer()
        if next_layer is None:
            return 0.0
        total = self.cost_table.total_latency(request.model_name, next_layer)
        this = self.cost_table.latency(request.model_name, next_layer, acc_id)
        return total / max(this, 1e-12)

    def starvation_score(self, request: InferenceRequest, now_ms: float) -> float:
        """Score_Starv = Tqueue / mean_i EstLatency(next, i) (line 9)."""
        next_layer = request.next_layer()
        if next_layer is None:
            return 0.0
        average = self.cost_table.average_latency(request.model_name, next_layer)
        return request.queue_time_ms(now_ms) / max(average, 1e-12)

    def context_switch_cost(
        self, request: InferenceRequest, acc_id: int, resident_model: Optional[str]
    ) -> float:
        """Cost_switch = CswitchEnergy(task, prevTask, acc) / EstEnergy(task, acc) (line 10)."""
        next_layer = request.next_layer()
        if next_layer is None:
            return 0.0
        switch_energy = self.cost_table.context_switch_energy(
            request.model_name, resident_model, acc_id
        )
        layer_energy = self.cost_table.energy(request.model_name, next_layer, acc_id)
        return switch_energy / max(layer_energy, 1e-12)

    def energy_preference(self, request: InferenceRequest, acc_id: int) -> float:
        """Pref_Energy = sum_i EstEnergy(next, i) / EstEnergy(next, acc) (line 11)."""
        next_layer = request.next_layer()
        if next_layer is None:
            return 0.0
        total = self.cost_table.total_energy(request.model_name, next_layer)
        this = self.cost_table.energy(request.model_name, next_layer, acc_id)
        return total / max(this, 1e-12)

    def energy_score(
        self, request: InferenceRequest, acc_id: int, resident_model: Optional[str]
    ) -> float:
        """Score_Energy = Pref_Energy - Cost_switch (lines 12-13)."""
        return self.energy_preference(request, acc_id) - self.context_switch_cost(
            request, acc_id, resident_model
        )

    # ------------------------------------------------------------------ #
    # total MapScore (Algorithm 1, lines 14-15)
    # ------------------------------------------------------------------ #
    def map_score(
        self,
        request: InferenceRequest,
        acc_id: int,
        now_ms: float,
        alpha: float,
        beta: float,
        resident_model: Optional[str] = None,
    ) -> MapScoreBreakdown:
        """Compute MapScore(task, acc) and all its components."""
        urgency = self.urgency_score(request, now_ms)
        lat_pref = self.latency_preference_score(request, acc_id)
        starvation = self.starvation_score(request, now_ms)
        pref_energy = self.energy_preference(request, acc_id)
        switch_cost = self.context_switch_cost(request, acc_id, resident_model)
        energy = pref_energy - switch_cost
        total = urgency * lat_pref + alpha * starvation + beta * energy
        return MapScoreBreakdown(
            task_name=request.task_name,
            acc_id=acc_id,
            urgency=urgency,
            latency_preference=lat_pref,
            starvation=starvation,
            energy_preference=pref_energy,
            context_switch_cost=switch_cost,
            energy_score=energy,
            total=total,
        )
