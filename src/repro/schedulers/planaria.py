"""Planaria-style deadline-aware spatial-fission scheduler [8].

Planaria dynamically fissions a DNN accelerator's PE array so several DNNs
can be co-located spatially, re-partitioning layer-by-layer based on each
DNN's timing requirement and resource demand.  As in the paper, only its
scheduling policy is modelled (the original is a hardware/software
co-design):

* requests are prioritized by *slack* (time to deadline minus estimated
  remaining work) — the most at-risk request is served first;
* layer granularity: an assignment covers one layer, so the partitioning
  can be revisited at every layer boundary;
* spatial fission: a fully idle accelerator may be split in half to serve
  two at-risk requests concurrently (the engine scales the compute-bound
  latency component accordingly);
* resource awareness is by PE *count* only.  Planaria predates
  heterogeneous-dataflow platforms, so its latency estimate assumes a
  generic array: it prefers the accelerator with the most free PEs rather
  than the dataflow-preferred one, and it does not optimize energy.  This
  is what leaves room for DREAM's preference and energy scores on
  heterogeneous hardware (Figure 7 vs Figure 8).
"""

from __future__ import annotations

from typing import Optional

from repro.schedulers.base import Scheduler, WakeHint
from repro.sim.decisions import Assignment, SchedulingDecision, SystemView
from repro.sim.request import InferenceRequest

#: Minimum number of at-risk pending requests before a fully idle
#: accelerator is split in half.
FISSION_THRESHOLD = 2
#: PE fraction of each fission partition, and the least free fraction an
#: accelerator needs to receive any assignment.
MIN_FRACTION = 0.5


class PlanariaScheduler(Scheduler):
    """Slack-driven, PE-count-aware, fission-capable layer scheduler."""

    name = "planaria"

    def __init__(self) -> None:
        super().__init__()
        # Remaining-work estimates only change when a request makes progress.
        self._remaining_cache: dict[int, tuple[int, float]] = {}

    def on_request_finished(self, request: InferenceRequest) -> None:
        """Evict the finished request's remaining-work memo entry."""
        self._remaining_cache.pop(request.request_id, None)

    def wake_hint(self) -> WakeHint:
        """Inert without pending work or ``MIN_FRACTION`` of free PEs somewhere.

        An accelerator below ``MIN_FRACTION`` free is skipped by the
        assignment loop, so with every accelerator below the threshold the
        decision is empty; the only state written on that path is the
        remaining-work memo cache (a pure function of request progress,
        exempt by the :class:`~repro.schedulers.base.WakeHint` contract).
        """
        return WakeHint(min_free_fraction=MIN_FRACTION)

    # ------------------------------------------------------------------ #
    # internal estimates (deliberately dataflow-agnostic)
    # ------------------------------------------------------------------ #
    def _pe_agnostic_remaining_ms(self, request: InferenceRequest) -> float:
        """Remaining-work estimate by PE count only (no dataflow preference)."""
        cost_table = self._require_bound()
        cached = self._remaining_cache.get(request.request_id)
        if cached is not None and cached[0] == request.next_position:
            return cached[1]
        value = cost_table.remaining_average_latency(
            request.model_name, request.remaining_path()
        )
        self._remaining_cache[request.request_id] = (request.next_position, value)
        return value

    def _slack_score(self, request: InferenceRequest, now_ms: float) -> float:
        """Slack minus remaining work; smaller (more negative) = more urgent."""
        return (request.deadline_ms - now_ms) - self._pe_agnostic_remaining_ms(request)

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def schedule(self, view: SystemView) -> SchedulingDecision:
        pending = [
            request for request in view.pending_requests if request.remaining_layers
        ]
        if not pending:
            return SchedulingDecision.empty()
        # Score each request once per round (the score only depends on the
        # request and ``now``), then reuse it for both the priority sort and
        # the at-risk count.  (score, request) pairs sorted on the score
        # alone replace the historical request-id dict: the sort is stable,
        # so ties keep the (arrival, request_id) order of the pending
        # snapshot — exactly what the dict-keyed sort produced.
        now_ms = view.now_ms
        slack_score = self._slack_score
        scored = [(slack_score(request, now_ms), request) for request in pending]
        scored.sort(key=lambda pair: pair[0])
        pending = [request for _score, request in scored]

        # The at-risk count is only consulted by the fission rule, which
        # requires a fully idle accelerator — computed lazily so saturated
        # rounds skip the extra O(pending) pass.
        at_risk_count: Optional[int] = None

        assignments: list[Assignment] = []
        assigned_ids: set[int] = set()

        # Accelerators ordered by free PE capacity (count-based resource view).
        platform = self.platform
        accelerators = sorted(
            view.accelerators,
            key=lambda acc: acc.free_fraction * platform[acc.acc_id].num_pes,
            reverse=True,
        )

        for acc in accelerators:
            if len(assigned_ids) == len(pending):
                break
            free = acc.free_fraction
            if free < MIN_FRACTION - 1e-9:
                continue
            fission = False
            if acc.is_idle and len(pending) >= 2:
                if at_risk_count is None:
                    at_risk_count = sum(1 for score, _request in scored if score < 0.0)
                fission = at_risk_count >= FISSION_THRESHOLD
            fractions = [MIN_FRACTION, MIN_FRACTION] if fission else [min(1.0, free)]
            for fraction in fractions:
                request = self._pick_for_accelerator(acc, pending, assigned_ids)
                if request is None:
                    break
                assignments.append(
                    Assignment(
                        request=request,
                        acc_id=acc.acc_id,
                        layer_count=1,
                        pe_fraction=fraction,
                    )
                )
                assigned_ids.add(request.request_id)
        return SchedulingDecision.of(assignments)

    def _pick_for_accelerator(
        self,
        acc,
        queue: list[InferenceRequest],
        assigned_ids: set[int],
    ) -> Optional[InferenceRequest]:
        """Most urgent unassigned request, with resident-model stickiness.

        Planaria keeps a co-located DNN on its sub-array across layers, so
        among the few most urgent requests the one whose model is already
        resident on this accelerator is preferred — that avoids pathological
        per-layer ping-pong (and its flush/fetch cost) without changing the
        slack-driven priority order materially.

        ``queue`` is the urgency-sorted pending list; the scan walks it
        once, looking only at the first ``FISSION_THRESHOLD + 1`` unassigned
        entries (the "head" the stickiness rule may prefer), so deep queues
        are never materialized into a per-call candidate list.
        """
        resident = acc.resident_model
        head_limit = FISSION_THRESHOLD + 1
        first: Optional[InferenceRequest] = None
        seen = 0
        for request in queue:
            if request.request_id in assigned_ids:
                continue
            if first is None:
                first = request
            if resident is not None and request.model_name == resident:
                return request
            seen += 1
            if seen >= head_limit or resident is None:
                break
        return first

    def info(self):
        return {"fission_threshold": FISSION_THRESHOLD, "min_fraction": MIN_FRACTION}
