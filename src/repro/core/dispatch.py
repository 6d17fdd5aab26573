"""Job assignment and dispatch engine (Section 4.5), with Supernet switching.

The dispatch engine turns the MapScore table into concrete assignments: it
greedily picks the highest-scoring (request, accelerator) pair among the
currently idle accelerators, removes both from consideration, and repeats
until accelerators or requests run out — one layer per assignment, so the
mapping can be revisited at every layer boundary.

When Supernet switching is enabled, a Supernet task whose request has not
started yet is checked against its deadline before dispatch: if even the
per-layer best-case remaining time of the current variant cannot meet the
deadline, the engine steps down to lighter weight-sharing variants until
one fits (or the lightest is reached), as illustrated in Figure 6.
"""

from __future__ import annotations

from typing import Optional

from repro.core.mapscore import MapScoreEngine
from repro.hardware.cost_table import CostTable
from repro.models.graph import ModelGraph
from repro.models.supernet import Supernet
from repro.sim.decisions import Assignment, SystemView
from repro.sim.request import InferenceRequest
from repro.workloads.scenario import Scenario


class JobDispatchEngine:
    """Greedy MapScore-driven assignment with optional Supernet switching.

    Args:
        cost_table: offline latency/energy table.
        scenario: the workload scenario (to discover Supernet tasks).
        map_score_engine: the score calculator (shared with the scheduler).
        enable_supernet_switching: whether lighter variants may be
            substituted under load.
    """

    def __init__(
        self,
        cost_table: CostTable,
        scenario: Scenario,
        map_score_engine: MapScoreEngine,
        enable_supernet_switching: bool = False,
        fast: bool = True,
    ) -> None:
        self.cost_table = cost_table
        self.scenario = scenario
        self.map_score_engine = map_score_engine
        self.enable_supernet_switching = enable_supernet_switching
        self.fast = fast
        self._supernets: dict[str, Supernet] = {
            task.name: task.model
            for task in scenario.tasks
            if isinstance(task.model, Supernet)
        }
        self.switch_count = 0
        # Accelerator-independent MapScore inputs per request, keyed
        # request_id and validated against next_position: everything here
        # is a pure function of (model, position), so the cache is exempt
        # state under the WakeHint contract.
        self._statics_cache: dict[int, tuple] = {}

    # ------------------------------------------------------------------ #
    # Supernet switching (Section 4.5.1)
    # ------------------------------------------------------------------ #
    def supernet_for(self, task_name: str) -> Optional[Supernet]:
        """The Supernet of a task, or ``None`` for ordinary models."""
        return self._supernets.get(task_name)

    def choose_variant(
        self, request: InferenceRequest, now_ms: float, load_pressure: float = 0.0
    ) -> Optional[ModelGraph]:
        """Pick the Supernet variant to dispatch for a not-yet-started request.

        Returns ``None`` when no switch is needed (or possible).  The policy
        follows Figure 6: the expected completion time of the current
        variant — its average remaining latency inflated by the current
        system load (queued work competes for the same accelerators) — is
        compared against the deadline; while it does not fit, the engine
        steps to the next lighter weight-sharing variant.

        Args:
            request: the Supernet task's request (must not have started).
            now_ms: current time.
            load_pressure: backlog estimate (pending requests per
                accelerator); 0 means an otherwise idle system.
        """
        supernet = self.supernet_for(request.task_name)
        if supernet is None or request.started:
            return None
        slack = request.deadline_ms - now_ms
        inflation = 1.0 + max(0.0, load_pressure)
        current_index = supernet.variant_index(request.model_name)
        chosen: Optional[ModelGraph] = None
        for index in range(current_index, len(supernet.variants)):
            variant = supernet.variants[index]
            expected = inflation * self.cost_table.full_average_latency(variant.name)
            chosen = variant
            if expected <= slack:
                break
        if chosen is None or chosen.name == request.model_name:
            return None
        return chosen

    # ------------------------------------------------------------------ #
    # assignment
    # ------------------------------------------------------------------ #
    def forget(self, request_id: int) -> None:
        """Drop a finished request's cache entry (bounds memory on long runs)."""
        self._statics_cache.pop(request_id, None)

    def _build_statics(self, request: InferenceRequest, position: int) -> tuple:
        """Rebuild one request's memoized accelerator-independent inputs.

        ``(position, model, to_go, average, total_latency, total_energy,
        acc_row)`` — all pure functions of (model, next position), so the
        entry is valid until the request makes progress.  Only the cache
        *miss* path lives here; the hot loops inline the lookup itself.
        """
        model = request.model.name
        arrays = self.cost_table.layer_arrays(model)
        next_layer = request.path[position]
        entry = (
            position,
            model,
            self.map_score_engine.to_go_ms(request),
            arrays.average_latency[next_layer],
            arrays.total_latency[next_layer],
            arrays.total_energy[next_layer],
            arrays.acc_rows[next_layer],
        )
        self._statics_cache[request.request_id] = entry
        return entry

    def _request_statics(self, request: InferenceRequest) -> tuple:
        """Memoized accelerator-independent MapScore inputs of one request."""
        position = request.next_position
        entry = self._statics_cache.get(request.request_id)
        if entry is not None and entry[0] == position:
            return entry
        return self._build_statics(request, position)

    def _best_pair_single_idle(
        self,
        view: SystemView,
        pending: tuple,
        acc,
        alpha: float,
        beta: float,
    ) -> Optional[InferenceRequest]:
        """Highest-MapScore schedulable request for ONE idle accelerator.

        The common steady-state round — a completion frees one accelerator
        and the scheduler refills it — needs only the argmax over pending,
        so this running-max scan replaces building, scoring and sorting the
        full pair list.  It walks the raw pending snapshot (the
        remaining-layers guard is folded into the scan, so no filtered list
        is materialized) with the statics cache inlined, because at one
        consultation per event over deep queues even a method call per
        request dominates.  Score expressions are identical to
        :meth:`_score_pairs_fast` (which mirrors ``map_score``), and the
        strict ``>`` comparison keeps the first-seen maximum on ties —
        exactly the pair the stable descending sort put first.  Returns
        ``None`` when nothing is schedulable.
        """
        now_ms = view.now_ms
        acc_id = acc.acc_id
        resident_model = acc.resident_model
        cost_table = self.cost_table
        cache = self._statics_cache
        cache_get = cache.get
        build = self._build_statics
        switch_cache: dict[str, float] = {}
        switch_get = switch_cache.get
        best_score = 0.0
        best_request: Optional[InferenceRequest] = None
        for request in pending:
            position = request.next_position
            entry = cache_get(request.request_id)
            if entry is None or entry[0] != position:
                if position >= len(request.path):
                    continue
                entry = build(request, position)
            _pos, model, to_go, average, total_latency, total_energy, acc_row = entry
            slack = request.deadline_ms - now_ms
            urgency = to_go / (slack if slack > 1e-3 else 1e-3)
            queue_time = now_ms - request.last_progress_ms
            if queue_time < 0.0:
                queue_time = 0.0
            alpha_starv = alpha * (queue_time / (average if average > 1e-12 else 1e-12))
            switch_energy = switch_get(model)
            if switch_energy is None:
                switch_energy = cost_table.context_switch_energy(
                    model, resident_model, acc_id
                )
                switch_cache[model] = switch_energy
            this_latency, layer_energy = acc_row[acc_id]
            lat_pref = total_latency / (this_latency if this_latency > 1e-12 else 1e-12)
            if layer_energy < 1e-12:
                layer_energy = 1e-12
            energy = total_energy / layer_energy - switch_energy / layer_energy
            score = urgency * lat_pref + alpha_starv + beta * energy
            if best_request is None or score > best_score:
                best_score = score
                best_request = request
        return best_request

    def _score_pairs_fast(
        self,
        view: SystemView,
        pending: list[InferenceRequest],
        idle: list,
        resident: dict[int, Optional[str]],
        alpha: float,
        beta: float,
    ) -> list[tuple[float, InferenceRequest, int]]:
        """MapScore for every (pending, idle) pair, hot-loop form.

        Computes exactly the expressions of
        :meth:`~repro.core.mapscore.MapScoreEngine.map_score` (Algorithm 1,
        lines 7-15) — every intermediate value is bit-for-bit identical —
        but hoists the accelerator-independent terms (urgency, starvation,
        cross-accelerator sums) out of the inner loop via
        :meth:`_request_statics`, and memoizes context-switch energies per
        (model, accelerator) within the round.
        """
        cost_table = self.cost_table
        now_ms = view.now_ms
        idle_ids = [acc.acc_id for acc in idle]
        statics = self._request_statics
        # Per-(model) row of context-switch energies aligned with idle_ids;
        # resident models are fixed within the round, so one row serves every
        # request of the same model.
        switch_rows: dict[str, list[float]] = {}
        pair_list: list[tuple[float, InferenceRequest, int]] = []
        append = pair_list.append
        for request in pending:
            _pos, model, to_go, average, total_latency, total_energy, acc_row = statics(
                request
            )
            slack = request.deadline_ms - now_ms
            urgency = to_go / (slack if slack > 1e-3 else 1e-3)
            queue_time = now_ms - request.last_progress_ms
            if queue_time < 0.0:
                queue_time = 0.0
            alpha_starv = alpha * (queue_time / (average if average > 1e-12 else 1e-12))
            switch_row = switch_rows.get(model)
            if switch_row is None:
                switch_row = [
                    cost_table.context_switch_energy(model, resident[acc_id], acc_id)
                    for acc_id in idle_ids
                ]
                switch_rows[model] = switch_row
            for acc_id, switch_energy in zip(idle_ids, switch_row):
                this_latency, layer_energy = acc_row[acc_id]
                lat_pref = total_latency / (this_latency if this_latency > 1e-12 else 1e-12)
                if layer_energy < 1e-12:
                    layer_energy = 1e-12
                energy = total_energy / layer_energy - switch_energy / layer_energy
                append((urgency * lat_pref + alpha_starv + beta * energy, request, acc_id))
        return pair_list

    def build_assignments(
        self, view: SystemView, alpha: float, beta: float
    ) -> list[Assignment]:
        """Greedy highest-MapScore matching of pending requests to idle accelerators."""
        if self.fast:
            # Inline is_idle (a property call per accelerator adds up at
            # one consultation per event).
            idle = [acc for acc in view.accelerators if acc.free_fraction >= 1.0]
            if not idle:
                return []
            if len(idle) == 1:
                snapshot = view.pending_requests
                if not snapshot:
                    return []
                if len(snapshot) == 1:
                    # A single (request, accelerator) pair needs no scoring
                    # at all — MapScore only *orders* pairs, and there is
                    # nothing to order.  The greedy loop below would emit
                    # exactly this assignment.
                    request = snapshot[0]
                    if request.next_position >= len(request.path):
                        return []
                    return [self._make_assignment(request, idle[0].acc_id, view)]
                best = self._best_pair_single_idle(view, snapshot, idle[0], alpha, beta)
                if best is None:
                    return []
                return [self._make_assignment(best, idle[0].acc_id, view)]
        else:
            idle = [acc for acc in view.accelerators if acc.is_idle]
            if not idle:
                return []
        pending = [
            request
            for request in view.pending_requests
            if request.next_position < len(request.path)
        ]
        if not pending:
            return []

        resident = {acc.acc_id: acc.resident_model for acc in idle}

        # Score every (pending request, idle accelerator) pair, then greedily
        # take the globally best remaining pair until accelerators run out.
        if self.fast:
            pair_list = self._score_pairs_fast(view, pending, idle, resident, alpha, beta)
        else:
            pair_list = []
            for request in pending:
                for acc in idle:
                    breakdown = self.map_score_engine.map_score(
                        request,
                        acc.acc_id,
                        view.now_ms,
                        alpha,
                        beta,
                        resident.get(acc.acc_id),
                    )
                    pair_list.append((breakdown.total, request, acc.acc_id))
        pair_list.sort(key=lambda item: item[0], reverse=True)

        assignments: list[Assignment] = []
        used_accs: set[int] = set()
        used_requests: set[int] = set()
        for score, request, acc_id in pair_list:
            if acc_id in used_accs or request.request_id in used_requests:
                continue
            assignments.append(self._make_assignment(request, acc_id, view))
            used_accs.add(acc_id)
            used_requests.add(request.request_id)
            if len(used_accs) == len(idle):
                break
        return assignments

    def _make_assignment(
        self, request: InferenceRequest, acc_id: int, view: SystemView
    ) -> Assignment:
        """One layer-granularity assignment, with the Supernet-switch check."""
        variant = None
        if self.enable_supernet_switching:
            # Backlog pressure for the Supernet-switching decision: how many
            # live inferences (queued or executing) compete per accelerator.
            live = len(view.pending_requests) + len(view.running_requests)
            load_pressure = live / max(1, len(view.accelerators))
            variant = self.choose_variant(request, view.now_ms, load_pressure)
            if variant is not None:
                self.switch_count += 1
        return Assignment(
            request=request,
            acc_id=acc_id,
            layer_count=1,
            switch_to_variant=variant,
        )
