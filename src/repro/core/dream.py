"""The DREAM scheduler: MapScore + smart frame drop + adaptivity + dispatch.

This class wires the four engines of Figure 4 behind the generic
:class:`~repro.schedulers.base.Scheduler` protocol so the simulation engine
can drive it exactly like any baseline:

* on every scheduling point the **adaptivity engine** advances its online
  (alpha, beta) search (never blocking execution),
* the **frame drop engine** proposes at most one proactive drop,
* the **MapScore engine** scores all (pending request, idle accelerator)
  pairs with the current (alpha, beta),
* the **dispatch engine** greedily converts the scores into layer
  assignments, switching Supernet variants when enabled and needed.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.adaptivity import OnlineAdaptivityEngine
from repro.core.config import DreamConfig, dream_full
from repro.core.dispatch import JobDispatchEngine
from repro.core.frame_drop import SmartFrameDropEngine
from repro.core.mapscore import MapScoreEngine
from repro.hardware.cost_table import ReferenceCostTable
from repro.schedulers.base import Scheduler, WakeHint
from repro.sim.decisions import SchedulingDecision, SystemView
from repro.sim.request import InferenceRequest, RequestState


class DreamScheduler(Scheduler):
    """DREAM (Table 4 configurations are selected through :class:`DreamConfig`).

    Args:
        config: the DREAM configuration; defaults to DREAM-Full.
        name: optional result-label override (the registry sets
            ``dream_mapscore`` / ``dream_smartdrop`` / ``dream_full``).
    """

    name = "dream"

    def __init__(self, config: Optional[DreamConfig] = None, name: Optional[str] = None) -> None:
        super().__init__()
        self.config = config or dream_full()
        if name is not None:
            self.name = name
        self.map_score_engine: Optional[MapScoreEngine] = None
        self.frame_drop_engine: Optional[SmartFrameDropEngine] = None
        self.adaptivity_engine: Optional[OnlineAdaptivityEngine] = None
        self.dispatch_engine: Optional[JobDispatchEngine] = None
        # Identity of the last queue_depths snapshot whose active-task set
        # was fed to the adaptivity engine (the engine's pool memoizes the
        # dict until depths change, so identity == unchanged depths).
        self._notified_depths: Optional[dict] = None
        self._engines_tuple: Optional[tuple] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def wake_hint(self) -> WakeHint:
        """Same-instant quiescence, gated on a fully idle accelerator.

        DREAM's per-call bookkeeping (the adaptivity step, the workload
        notification) is idempotent for repeat calls at one timestamp with
        unchanged pool membership — the step can only act the *first* time
        it sees a timestamp (afterwards its window is freshly anchored or
        still short), and the active-task set can only change when a
        request joins or leaves the pool — hence ``same_instant_only``.
        Within that window the decision is provably empty:

        * assignments need a fully idle accelerator
          (``min_free_fraction=1.0``);
        * without pending work nothing can be assigned or dropped; and
        * with pending work but no idle accelerator, SmartDrop cannot
          propose a drop the previous call at this instant did not: a
          prior decision *with* a drop finalized it (membership moved,
          re-arming consultation), so the prior ``select_drop`` returned
          ``None`` — and between then and now the pending set can only
          have shrunk (dispatches), ``minimum_to_go`` of still-pending
          requests is unchanged, ``now`` is unchanged, and drop budgets
          only move on finalizations.  Condition-2 violation counts can
          therefore only decrease and the candidate set can only shrink.
          The one event that re-enters a request into the pending set
          without a membership change — a layer completion with work left
          — always idles its accelerator (DREAM dispatches at
          ``pe_fraction=1.0``), which trips the capacity gate and forces a
          real consultation anyway.

        With *both* the adaptivity engine and the frame-drop engine
        disabled (the fixed-parameter baseline), ``schedule()`` becomes a
        pure function of the view — the adaptivity step returns
        immediately, workload notifications cannot affect the pinned
        (alpha, beta) or the reported tuner info, and only assignments can
        be emitted — so the same-instant restriction is dropped entirely.
        """
        stateful = (
            self.config.enable_parameter_optimization or self.config.enable_frame_drop
        )
        return WakeHint(min_free_fraction=1.0, same_instant_only=stateful)

    def bind(self, platform, cost_table, scenario) -> None:
        # Re-binding happens when the usage scenario changes (the paper's
        # "Lv 2" task-level dynamicity, run by phased workloads): the tuned
        # (alpha, beta) carry over as the starting point of the next
        # adaptation, mirroring how DREAM keeps scheduling while
        # re-adapting after a workload change.
        carried_alpha = self.config.alpha
        carried_beta = self.config.beta
        if self.adaptivity_engine is not None:
            carried_alpha = self.adaptivity_engine.current.alpha
            carried_beta = self.adaptivity_engine.current.beta
        super().bind(platform, cost_table, scenario)
        # A reference cost table signals the reference simulation mode: the
        # frame-drop and dispatch engines keep their historical per-call
        # paths so benchmark comparisons measure the pre-optimization cost
        # profile (decisions are identical either way).
        fast = not isinstance(cost_table, ReferenceCostTable)
        self.map_score_engine = MapScoreEngine(cost_table)
        self.frame_drop_engine = SmartFrameDropEngine(cost_table, scenario, fast=fast)
        self.adaptivity_engine = OnlineAdaptivityEngine(
            alpha=carried_alpha,
            beta=carried_beta,
            objective=self.config.objective,
            enabled=self.config.enable_parameter_optimization,
        )
        self.adaptivity_engine.notify_workload(scenario.task_names)
        self._notified_depths = None
        self.dispatch_engine = JobDispatchEngine(
            cost_table,
            scenario,
            self.map_score_engine,
            enable_supernet_switching=self.config.enable_supernet_switching,
            fast=fast,
        )
        self._engines_tuple = (
            self.map_score_engine,
            self.frame_drop_engine,
            self.adaptivity_engine,
            self.dispatch_engine,
        )

    def _engines(self):
        engines = self._engines_tuple
        if engines is None:
            raise RuntimeError("DreamScheduler.schedule called before bind()")
        return engines

    # ------------------------------------------------------------------ #
    # engine callbacks
    # ------------------------------------------------------------------ #
    def on_request_finished(self, request: InferenceRequest) -> None:
        map_score, frame_drop, adaptivity, dispatch = self._engines()
        frame_drop.record_outcome(
            request.task_name, dropped=request.state is RequestState.DROPPED
        )
        adaptivity.observe_frame(
            task_name=request.task_name,
            violated=request.violated_deadline,
            energy_mj=request.energy_mj,
            worst_energy_mj=request.worst_case_energy_mj,
        )
        # Per-request memo entries (pure functions of request progress) are
        # dead once the request is terminal; evicting them keeps scheduler
        # memory O(live requests) over hour-long streaming windows instead
        # of O(total frames ever seen).
        request_id = request.request_id
        map_score.forget(request_id)
        frame_drop.forget(request_id)
        dispatch.forget(request_id)

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def schedule(self, view: SystemView) -> SchedulingDecision:
        _, frame_drop, adaptivity, dispatch = self._engines()

        # Adaptivity engine: detect workload changes and advance the online
        # parameter search (Section 4.4).  This never blocks dispatching.
        # queue_depths is keyed in scenario task order, so iterating it
        # directly yields the same task list as scanning scenario.tasks.
        # The fast engine's pool memoizes the depths dict until a depth
        # actually changes, so an identical object means an identical
        # active-task set — re-notifying it would be a no-op by
        # notify_workload's own contract (equal sets never reset the
        # search), and is skipped.  The reference engine rebuilds the dict
        # per call, so it always takes the full path.
        depths = view.queue_depths
        if depths is not self._notified_depths:
            active_tasks = [name for name, depth in depths.items() if depth > 0]
            if active_tasks:
                adaptivity.notify_workload(active_tasks)
            self._notified_depths = depths
        adaptivity.step(view.now_ms)

        drops = []
        if self.config.enable_frame_drop:
            candidate = frame_drop.select_drop(
                pending=view.pending_requests,
                running=view.running_requests,
                now_ms=view.now_ms,
            )
            if candidate is not None:
                drops.append(candidate)

        assignments = dispatch.build_assignments(
            view, alpha=adaptivity.alpha, beta=adaptivity.beta
        )
        if self.config.enable_frame_drop and self.config.enable_supernet_switching:
            # SmartDrop memoizes minimum_to_go per (request, position), and
            # its reference scan fills the memo for every pending request
            # before dispatch, so a request switching Supernet variant keeps
            # its pre-switch value until its first layer completes.  The
            # fast scan skips requests of non-droppable tasks; filling their
            # entry here keeps that value.
            for assignment in assignments:
                if assignment.switch_to_variant is not None:
                    frame_drop.minimum_to_go_ms(assignment.request)
        if drops:
            droppable_ids = {request.request_id for request in drops}
            assignments = [
                assignment
                for assignment in assignments
                if assignment.request.request_id not in droppable_ids
            ]
        return SchedulingDecision.of(assignments, drops)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def info(self) -> Mapping[str, object]:
        if self.adaptivity_engine is None:
            return {"config": self._config_summary()}
        info = dict(self.adaptivity_engine.info())
        info["config"] = self._config_summary()
        if self.dispatch_engine is not None:
            info["supernet_switches"] = self.dispatch_engine.switch_count
        if self.frame_drop_engine is not None:
            info["frame_drops"] = self.frame_drop_engine.total_drops
        return info

    def _config_summary(self) -> dict[str, object]:
        return {
            "parameter_optimization": self.config.enable_parameter_optimization,
            "frame_drop": self.config.enable_frame_drop,
            "supernet_switching": self.config.enable_supernet_switching,
            "objective": self.config.objective.value,
        }
