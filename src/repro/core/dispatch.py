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

import itertools
from typing import Optional, Sequence

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
        # (model, position, remaining length) -> the one statics tuple of
        # every request whose path is layers 0..n-1, so such requests at
        # one position share it (at most L(L+1)/2 entries per model).
        self._suffix_statics: dict[tuple[str, int, int], tuple] = {}
        # The last field of each statics tuple: an int naming that tuple.
        self._group_ids = itertools.count()

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
        acc_row, group)`` — all pure functions of (model, next position),
        so the entry is valid until the request makes progress; ``group``
        is an int unique to the tuple.  Paths ascend, so one whose last
        layer is its length minus one runs every layer (a static path, an
        early-exit prefix, a SkipNet path that skipped nothing): its tail
        is the contiguous suffix ``(model, position, length)``, and it
        takes that suffix's shared tuple, whose ``group`` then names the
        suffix in :meth:`_best_request`.  Only the cache *miss* path lives
        here; :meth:`_best_request` inlines the lookup.
        """
        path = request.path
        model = request.model.name
        suffix = None
        if path[-1] == len(path) - 1:
            suffix = (model, position, len(path) - position)
        entry = self._suffix_statics.get(suffix)  # None is never a key
        if entry is None:
            arrays = self.cost_table.layer_arrays(model)
            next_layer = path[position]
            entry = (
                position,
                model,
                self.map_score_engine.to_go_ms(request),
                arrays.average_latency[next_layer],
                arrays.total_latency[next_layer],
                arrays.total_energy[next_layer],
                arrays.acc_rows[next_layer],
                next(self._group_ids),
            )
            if suffix is not None:
                self._suffix_statics[suffix] = entry
        self._statics_cache[request.request_id] = entry
        return entry

    def _best_request(
        self,
        view: SystemView,
        pending: Sequence[InferenceRequest],
        acc,
        alpha: float,
        beta: float,
    ) -> tuple[float, Optional[InferenceRequest]]:
        """Highest-MapScore schedulable request for one idle accelerator.

        The fast path's only scorer: a running-max scan over ``pending``
        that computes exactly the expressions of
        :meth:`~repro.core.mapscore.MapScoreEngine.map_score` (Algorithm 1,
        lines 7-15), bit for bit, with the accelerator-independent inputs
        taken from the statics cache and the context-switch energies from
        the table's row for the accelerator's resident model
        (:meth:`~repro.hardware.cost_table.CostTable.switch_energy_row`).
        Requests whose path is exhausted are skipped in the scan (no
        filtered list is built), and the cache lookup is inlined,
        because at one consultation per event over deep queues even a
        method call per request dominates.  The strict ``>`` keeps the
        first maximum on exact ties, the pair the spec's stable descending
        sort puts first.

        With ``alpha >= 0`` the scan also skips a *dominated* request: one
        that shares its statics tuple with an earlier scored request (the
        same model and remaining suffix, see :meth:`_build_statics`) and
        has neither an earlier deadline nor an earlier
        ``last_progress_ms``.  Given the statics, every MapScore
        term is a function of slack and queue time alone: urgency does not
        increase with slack, starvation does not decrease with queue time
        when ``alpha >= 0``, and the rest is fixed.  Correctly rounded IEEE
        subtraction, division, multiplication by a non-negative factor and
        addition are each monotone, so the skipped request scores at most
        the earlier one, which wins the tie anyway; the result is the full
        scan's, bit for bit.  Each statics tuple keeps one earlier request,
        the first scored, replaced by a later scored one that dominates it.
        Returns ``(score, request)``, with ``request`` ``None`` when
        nothing is schedulable.
        """
        now_ms = view.now_ms
        acc_id = acc.acc_id
        cache = self._statics_cache
        cache_get = cache.get
        build = self._build_statics
        switch_row = self.cost_table.switch_energy_row(acc.resident_model, acc_id)
        skip_dominated = alpha >= 0.0
        # statics group -> (deadline_ms, last_progress_ms) of the group's
        # earlier scored request
        scored: dict[int, tuple[float, float]] = {}
        scored_get = scored.get
        best_score = 0.0
        best_request: Optional[InferenceRequest] = None
        for request in pending:
            position = request.next_position
            entry = cache_get(request.request_id)
            if entry is None or entry[0] != position:
                if position >= len(request.path):
                    continue
                entry = build(request, position)
            _pos, model, to_go, average, total_latency, total_energy, acc_row, group = entry
            deadline = request.deadline_ms
            last_progress = request.last_progress_ms
            if skip_dominated:
                earlier = scored_get(group)
                if earlier is None:
                    scored[group] = (deadline, last_progress)
                elif earlier[0] <= deadline and earlier[1] <= last_progress:
                    continue
                elif deadline <= earlier[0] and last_progress <= earlier[1]:
                    scored[group] = (deadline, last_progress)
            slack = deadline - now_ms
            urgency = to_go / (slack if slack > 1e-3 else 1e-3)
            queue_time = now_ms - last_progress
            if queue_time < 0.0:
                queue_time = 0.0
            alpha_starv = alpha * (queue_time / (average if average > 1e-12 else 1e-12))
            switch_energy = switch_row[model]
            this_latency, layer_energy = acc_row[acc_id]
            lat_pref = total_latency / (this_latency if this_latency > 1e-12 else 1e-12)
            if layer_energy < 1e-12:
                layer_energy = 1e-12
            energy = total_energy / layer_energy - switch_energy / layer_energy
            score = urgency * lat_pref + alpha_starv + beta * energy
            if best_request is None or score > best_score:
                best_score = score
                best_request = request
        return best_score, best_request

    def build_assignments(
        self, view: SystemView, alpha: float, beta: float
    ) -> list[Assignment]:
        """Greedy highest-MapScore matching of pending requests to idle accelerators.

        Each pick takes the highest-scoring remaining (request, accelerator)
        pair — exact ties to the earlier pending request, then to the
        earlier accelerator — and removes both.  The reference path is the
        spec: it scores every pair with ``map_score`` and walks them in a
        stable descending sort.  The fast path runs :meth:`_best_request`
        once per remaining idle accelerator per pick.
        """
        if self.fast:
            # Inline is_idle (a property call per accelerator adds up at
            # one consultation per event).
            idle = [acc for acc in view.accelerators if acc.free_fraction >= 1.0]
            if not idle:
                return []
            pending = view.pending_requests
            if not pending:
                return []
            if len(idle) == 1:
                acc_id = idle[0].acc_id
                if len(pending) == 1:
                    # A single (request, accelerator) pair needs no scoring
                    # at all — MapScore only *orders* pairs, and there is
                    # nothing to order.
                    request = pending[0]
                    if request.next_position >= len(request.path):
                        return []
                    return [self._make_assignment(request, acc_id, view)]
                _score, best = self._best_request(view, pending, idle[0], alpha, beta)
                if best is None:
                    return []
                return [self._make_assignment(best, acc_id, view)]
            # Several idle accelerators: each pick scans every remaining
            # accelerator and keeps the spec's first pair.  A scan keeps its
            # accelerator's first maximum; across accelerators an exact tie
            # goes to the earlier pending request, and a tie on the same
            # request stays with the earlier accelerator.
            remaining = list(pending)
            assignments: list[Assignment] = []
            while idle and remaining:
                best_score = 0.0
                best_request = best_acc = None
                for acc in idle:
                    score, request = self._best_request(view, remaining, acc, alpha, beta)
                    if request is None:
                        return assignments  # only exhausted paths are left
                    if (
                        best_request is None
                        or score > best_score
                        or (
                            score == best_score
                            and remaining.index(request) < remaining.index(best_request)
                        )
                    ):
                        best_score, best_request, best_acc = score, request, acc
                assignments.append(self._make_assignment(best_request, best_acc.acc_id, view))
                remaining.remove(best_request)
                idle.remove(best_acc)
            return assignments

        # The spec: score every (pending request, idle accelerator) pair,
        # then greedily take the best remaining pair in a stable descending
        # sort until accelerators or requests run out.
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

        assignments = []
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
