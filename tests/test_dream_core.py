"""Unit tests for DREAM's MapScore, frame drop, adaptivity and dispatch engines."""

import random

import pytest

from repro.core.adaptivity import (
    INITIAL_RADIUS,
    WINDOW_MS,
    IterativeParameterOptimizer,
    OnlineAdaptivityEngine,
    ParameterPoint,
)
from repro.core.config import (
    DreamConfig,
    OptimizationObjective,
    dream_fixed,
    dream_full,
    dream_mapscore,
    dream_smartdrop,
)
from repro.core.dispatch import JobDispatchEngine
from repro.core.frame_drop import MAX_DROPS_PER_WINDOW, SmartFrameDropEngine
from repro.core.mapscore import MapScoreEngine
from repro.sim.request import InferenceRequest


def _request(tiny_scenario, task="vision", deadline=50.0, arrival=0.0, seed=0):
    spec = tiny_scenario.task(task)
    return InferenceRequest(
        task_name=spec.name,
        model=spec.default_model,
        frame_id=0,
        arrival_ms=arrival,
        deadline_ms=deadline,
        rng=random.Random(seed),
    )


class TestConfig:
    def test_presets_match_table4(self):
        assert dream_mapscore().enable_parameter_optimization
        assert not dream_mapscore().enable_frame_drop
        assert dream_smartdrop().enable_frame_drop
        assert not dream_smartdrop().enable_supernet_switching
        assert dream_full().enable_supernet_switching
        assert not dream_fixed().enable_parameter_optimization

    def test_parameter_range_validation(self):
        with pytest.raises(ValueError):
            DreamConfig(alpha=5.0)


class TestMapScore:
    def test_urgency_matches_algorithm1(self, tiny_cost_table, tiny_scenario):
        engine = MapScoreEngine(tiny_cost_table)
        request = _request(tiny_scenario, deadline=40.0)
        to_go = tiny_cost_table.remaining_average_latency("alpha", request.remaining_path())
        assert engine.urgency_score(request, now_ms=0.0) == pytest.approx(to_go / 40.0)

    def test_urgency_increases_as_deadline_nears(self, tiny_cost_table, tiny_scenario):
        engine = MapScoreEngine(tiny_cost_table)
        request = _request(tiny_scenario, deadline=40.0)
        assert engine.urgency_score(request, 30.0) > engine.urgency_score(request, 0.0)

    def test_latency_preference_favours_faster_accelerator(self, tiny_cost_table, tiny_scenario):
        engine = MapScoreEngine(tiny_cost_table)
        request = _request(tiny_scenario)
        best_acc = min((0, 1), key=lambda acc_id: tiny_cost_table.latency("alpha", 0, acc_id))
        other = 1 - best_acc
        assert engine.latency_preference_score(request, best_acc) > engine.latency_preference_score(
            request, other
        )

    def test_starvation_grows_with_wait(self, tiny_cost_table, tiny_scenario):
        engine = MapScoreEngine(tiny_cost_table)
        request = _request(tiny_scenario, arrival=0.0)
        assert engine.starvation_score(request, 20.0) > engine.starvation_score(request, 1.0)

    def test_energy_score_penalizes_context_switch(self, tiny_cost_table, tiny_scenario):
        engine = MapScoreEngine(tiny_cost_table)
        request = _request(tiny_scenario, task="vision")
        no_switch = engine.energy_score(request, 0, resident_model="alpha")
        with_switch = engine.energy_score(request, 0, resident_model="beta")
        assert with_switch < no_switch

    def test_total_composition(self, tiny_cost_table, tiny_scenario):
        engine = MapScoreEngine(tiny_cost_table)
        request = _request(tiny_scenario)
        breakdown = engine.map_score(request, 0, now_ms=0.0, alpha=0.5, beta=2.0, resident_model=None)
        expected = (
            breakdown.urgency * breakdown.latency_preference
            + 0.5 * breakdown.starvation
            + 2.0 * breakdown.energy_score
        )
        assert breakdown.total == pytest.approx(expected)


class TestFrameDrop:
    def test_no_drop_when_single_violation(self, tiny_cost_table, tiny_scenario):
        engine = SmartFrameDropEngine(tiny_cost_table, tiny_scenario)
        hopeless = _request(tiny_scenario, task="cascade", deadline=0.5)
        assert engine.select_drop([hopeless], [], now_ms=0.4) is None

    def test_drop_requires_chain_tail(self, tiny_cost_table, tiny_scenario):
        engine = SmartFrameDropEngine(tiny_cost_table, tiny_scenario)
        upstream = _request(tiny_scenario, task="vision", deadline=0.5)
        other = _request(tiny_scenario, task="heavy", deadline=0.5)
        # Both expect violations, but "vision" has a dependant so only
        # requests from tail tasks are candidates; "heavy" is a tail.
        selected = engine.select_drop([upstream, other], [], now_ms=0.49)
        assert selected is other

    def test_drop_budget_enforced(self, tiny_cost_table, tiny_scenario):
        engine = SmartFrameDropEngine(tiny_cost_table, tiny_scenario)
        for _ in range(MAX_DROPS_PER_WINDOW):
            engine.record_outcome("heavy", dropped=True)
        hopeless = _request(tiny_scenario, task="heavy", deadline=0.5)
        other = _request(tiny_scenario, task="cascade", deadline=0.5)
        selected = engine.select_drop([hopeless, other], [], now_ms=0.49)
        assert selected is other  # heavy exhausted its budget

    def test_most_hopeless_candidate_selected(self, tiny_cost_table, tiny_scenario):
        engine = SmartFrameDropEngine(tiny_cost_table, tiny_scenario)
        slightly_late = _request(tiny_scenario, task="heavy", deadline=1.05)
        very_late = _request(tiny_scenario, task="cascade", deadline=1.01)
        selected = engine.select_drop([slightly_late, very_late], [], now_ms=1.0)
        assert selected is very_late

    def test_no_drop_when_everything_feasible(self, tiny_cost_table, tiny_scenario):
        engine = SmartFrameDropEngine(tiny_cost_table, tiny_scenario)
        relaxed = _request(tiny_scenario, task="heavy", deadline=500.0)
        assert engine.select_drop([relaxed], [relaxed], now_ms=0.0) is None

    @pytest.mark.parametrize("fast", [True, False])
    def test_exhausted_budget_never_drops(self, tiny_cost_table, tiny_scenario, fast):
        engine = SmartFrameDropEngine(tiny_cost_table, tiny_scenario, fast=fast)
        for task in tiny_scenario.task_names:
            for _ in range(MAX_DROPS_PER_WINDOW):
                engine.record_outcome(task, dropped=True)
        hopeless = _request(tiny_scenario, task="heavy", deadline=0.5)
        other = _request(tiny_scenario, task="cascade", deadline=0.5)
        assert engine.select_drop([hopeless, other], [], now_ms=0.49) is None

    @pytest.mark.parametrize("fast", [True, False])
    def test_spent_budget_returns_as_the_window_slides(self, tiny_cost_table, tiny_scenario, fast):
        engine = SmartFrameDropEngine(tiny_cost_table, tiny_scenario, fast=fast)
        hopeless = _request(tiny_scenario, task="heavy", deadline=0.5)
        upstream = _request(tiny_scenario, task="vision", deadline=0.5)
        for _ in range(2):
            engine.record_outcome("heavy", dropped=True)
        for _ in range(8):
            engine.record_outcome("heavy", dropped=False)
            assert engine.select_drop([hopeless, upstream], [], now_ms=0.49) is None
        # The ninth undropped frame slides the first drop out of the window.
        engine.record_outcome("heavy", dropped=False)
        assert engine.select_drop([hopeless, upstream], [], now_ms=0.49) is hopeless

    @pytest.mark.parametrize("fast", [True, False])
    def test_second_violation_may_come_from_a_running_request(
        self, tiny_cost_table, tiny_scenario, fast
    ):
        engine = SmartFrameDropEngine(tiny_cost_table, tiny_scenario, fast=fast)
        hopeless = _request(tiny_scenario, task="heavy", deadline=0.5)
        late = _request(tiny_scenario, task="vision", deadline=0.5)
        relaxed = _request(tiny_scenario, task="vision", deadline=500.0)
        assert engine.select_drop([hopeless, relaxed], [late], now_ms=0.49) is hopeless
        assert engine.select_drop([hopeless, late], [relaxed], now_ms=0.49) is hopeless
        assert engine.select_drop([hopeless, relaxed], [relaxed], now_ms=0.49) is None

    def test_fast_scan_selects_the_reference_drop(self, tiny_cost_table, tiny_scenario):
        # Slacks straddle the tasks' minimum_to_go (0.06-0.2 ms), and 30%
        # of the recorded frames are drops, so chain tails keep running out
        # of their drop budget and every early exit is taken.
        rng = random.Random(3)
        fast = SmartFrameDropEngine(tiny_cost_table, tiny_scenario)
        reference = SmartFrameDropEngine(tiny_cost_table, tiny_scenario, fast=False)
        tasks = [task.name for task in tiny_scenario.tasks]
        tails = [task for task in tasks if tiny_scenario.is_chain_tail(task)]
        selected = spent = all_spent = 0
        for trial in range(400):
            budgets = [reference.drop_budget_available(task) for task in tails]
            spent += not all(budgets)
            all_spent += not any(budgets)
            requests = [
                _request(tiny_scenario, task=rng.choice(tasks),
                         deadline=1.0 + rng.uniform(-0.1, 0.3), seed=trial)
                for _ in range(rng.randint(0, 5))
            ]
            split = rng.randint(0, len(requests))
            pending, running = requests[:split], requests[split:]
            expected = reference.select_drop(pending, running, now_ms=1.0)
            assert fast.select_drop(pending, running, now_ms=1.0) is expected
            selected += expected is not None
            task, dropped = rng.choice(tasks), rng.random() < 0.3
            fast.record_outcome(task, dropped)
            reference.record_outcome(task, dropped)
        assert selected > 0
        # Some trials ran with a chain tail out of budget, and some with
        # every chain tail out (the fast scan's empty-set exit).
        assert spent > 0
        assert all_spent > 0


class TestIterativeOptimizer:
    def test_converges_on_convex_objective(self):
        def cost(point):
            return (point.alpha - 0.6) ** 2 + (point.beta - 1.4) ** 2 + 0.01

        optimizer = IterativeParameterOptimizer(lambda points: [cost(p) for p in points])
        trace = optimizer.optimize(ParameterPoint(1.8, 0.2))
        assert trace.final_point.distance(ParameterPoint(0.6, 1.4)) < 0.45
        assert trace.final_cost <= cost(ParameterPoint(1.8, 0.2))

    def test_costs_never_regress_much(self):
        def objective(points):
            return [abs(p.alpha - 1.0) + abs(p.beta - 1.0) + 0.1 for p in points]

        optimizer = IterativeParameterOptimizer(objective)
        trace = optimizer.optimize(ParameterPoint(0.0, 2.0))
        costs = trace.costs_per_step()
        assert costs[-1] <= costs[0] + 1e-9

    def test_candidates_respect_range(self):
        optimizer = IterativeParameterOptimizer(lambda points: [p.alpha + p.beta for p in points])
        points = optimizer.candidate_points(ParameterPoint(0.0, 2.0), radius=0.5)
        for point in points:
            assert 0.0 <= point.alpha <= 2.0
            assert 0.0 <= point.beta <= 2.0


class TestOnlineAdaptivity:
    def test_disabled_engine_keeps_parameters(self):
        engine = OnlineAdaptivityEngine(alpha=0.7, beta=1.3, enabled=False)
        engine.observe_frame("t", violated=True, energy_mj=1.0, worst_energy_mj=2.0)
        for step in range(10):
            engine.step(now_ms=step * 100.0)
        assert engine.alpha == pytest.approx(0.7)
        assert engine.beta == pytest.approx(1.3)

    def test_window_cost_objectives(self):
        engine = OnlineAdaptivityEngine(objective=OptimizationObjective.UXCOST)
        engine.observe_frame("t", violated=True, energy_mj=1.0, worst_energy_mj=2.0)
        engine.observe_frame("t", violated=False, energy_mj=1.0, worst_energy_mj=2.0)
        uxcost = engine.window_cost()
        engine.objective = OptimizationObjective.DEADLINE_ONLY
        assert engine.window_cost() == pytest.approx(0.5)
        engine.objective = OptimizationObjective.ENERGY_ONLY
        assert engine.window_cost() == pytest.approx(0.5)
        assert uxcost == pytest.approx(0.25)

    def test_workload_change_resets_radius(self):
        engine = OnlineAdaptivityEngine()
        engine.notify_workload(["a", "b"])
        engine._radius = 0.01
        engine.notify_workload(["a", "c"])
        assert engine._radius == INITIAL_RADIUS

    def test_history_records_windows(self):
        engine = OnlineAdaptivityEngine()
        engine.notify_workload(["t"])
        engine.step(0.0)
        engine.observe_frame("t", violated=False, energy_mj=1.0, worst_energy_mj=2.0)
        engine.step(WINDOW_MS / 2)
        assert engine.history == []
        engine.step(WINDOW_MS + 10.0)
        assert len(engine.history) == 1


class TestDispatchEngine:
    def _engine(self, tiny_cost_table, tiny_scenario, switching=False):
        return JobDispatchEngine(
            tiny_cost_table,
            tiny_scenario,
            MapScoreEngine(tiny_cost_table),
            enable_supernet_switching=switching,
        )

    def test_supernet_lookup(self, tiny_cost_table, tiny_scenario):
        engine = self._engine(tiny_cost_table, tiny_scenario)
        assert engine.supernet_for("context") is not None
        assert engine.supernet_for("vision") is None

    def test_variant_switch_under_pressure(self, tiny_cost_table, tiny_scenario, tiny_supernet):
        engine = self._engine(tiny_cost_table, tiny_scenario, switching=True)
        spec = tiny_scenario.task("context")
        request = InferenceRequest(
            task_name=spec.name,
            model=tiny_supernet.default_variant,
            frame_id=0,
            arrival_ms=0.0,
            deadline_ms=2.0,
            rng=random.Random(0),
        )
        variant = engine.choose_variant(request, now_ms=0.0, load_pressure=10.0)
        assert variant is not None
        assert variant.total_macs < tiny_supernet.default_variant.total_macs

    def test_no_switch_with_ample_slack(self, tiny_cost_table, tiny_scenario, tiny_supernet):
        engine = self._engine(tiny_cost_table, tiny_scenario, switching=True)
        spec = tiny_scenario.task("context")
        request = InferenceRequest(
            task_name=spec.name,
            model=tiny_supernet.default_variant,
            frame_id=0,
            arrival_ms=0.0,
            deadline_ms=10_000.0,
            rng=random.Random(0),
        )
        assert engine.choose_variant(request, now_ms=0.0, load_pressure=0.0) is None
