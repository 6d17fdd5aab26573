"""Measurement-window edge cases and timing/accounting bugfix regressions.

Covers:

* expired requests are stamped with their true ``deadline + grace``
  instant, not the time of whichever event happened to detect them;
* a legitimate 0.0 ms latency is accounted as a real sample (the
  ``latency_ms or 0.0`` falsy-zero bug);
* cascade deadlines are clamped to the spawn time (``max(deadline, now)``);
* ``_finalize_leftovers`` accounts live-at-drain requests exactly once,
  and only measured ones;
* the fixed measurement policy (``docs/glossary.md``: "measured frame",
  "sensor jitter"): a frame is measured iff its deadline falls inside the
  window, and head frames get ``SENSOR_JITTER_MS`` of jitter unless their
  traffic model sets their own.
"""

from __future__ import annotations

import pytest

from repro.schedulers import make_scheduler
from repro.schedulers.base import Scheduler
from repro.sim import SimulationEngine, Tracer
from repro.sim.decisions import SchedulingDecision
from repro.sim.request import InferenceRequest, RequestState
from repro.workloads import Scenario, TaskSpec, generate_frames
from repro.workloads.frames import SENSOR_JITTER_MS, head_arrival_plan
from repro.workloads.traffic import PeriodicArrival


class NullScheduler(Scheduler):
    """Schedules nothing, ever — requests only expire or drain unfinished."""

    name = "null"

    def schedule(self, view) -> SchedulingDecision:
        return SchedulingDecision.empty()


class RecordingScheduler(Scheduler):
    """FCFS wrapper that keeps every finished request for inspection."""

    name = "recording"

    def __init__(self) -> None:
        super().__init__()
        self.inner = make_scheduler("fcfs_dynamic")
        self.finished: list[InferenceRequest] = []

    def bind(self, platform, cost_table, scenario) -> None:
        super().bind(platform, cost_table, scenario)
        self.inner.bind(platform, cost_table, scenario)

    def on_request_finished(self, request) -> None:
        self.finished.append(request)
        self.inner.on_request_finished(request)

    def schedule(self, view) -> SchedulingDecision:
        return self.inner.schedule(view)


@pytest.fixture()
def single_head_scenario(tiny_models) -> Scenario:
    return Scenario(
        name="single_head",
        tasks=(TaskSpec("vision", tiny_models["alpha"], fps=10),),
    )


def _arrival_lags(scenario, platform, duration_ms):
    """How far after its nominal ``phase + frame_id * period`` instant each
    head frame of a traced FCFS run arrived."""
    tracer = Tracer()
    SimulationEngine(
        scenario=scenario,
        platform=platform,
        scheduler=make_scheduler("fcfs_dynamic"),
        duration_ms=duration_ms,
        tracer=tracer,
    ).run()
    phase = {task.name: offset for task, offset in head_arrival_plan(scenario)}
    return [
        record.time_ms
        - (phase[record.task_name] + record.frame_id * scenario.task(record.task_name).period_ms)
        for record in tracer.records
        if record.event == "arrival"
    ]


class TestExpiryTimestamps:
    def test_expired_requests_stamp_their_true_expiry_instant(
        self, single_head_scenario, het_4k_platform
    ):
        """Expiry is detected at the next event, but the stamp must be the
        request's own ``deadline + grace`` instant."""
        scheduler = RecordingScheduler()
        # NullScheduler semantics via a recording wrapper would still
        # dispatch; instead starve by never scheduling.
        scheduler.inner = NullScheduler()
        tracer = Tracer()
        engine = SimulationEngine(
            scenario=single_head_scenario,
            platform=het_4k_platform,
            scheduler=scheduler,
            duration_ms=1000.0,
            tracer=tracer,
        )
        engine.run()
        period = single_head_scenario.task("vision").period_ms
        # An ``expired`` trace record carries the detection time.
        detected_at = {
            record.request_id: record.time_ms
            for record in tracer.records
            if record.event == "expired"
        }
        expired = [
            request
            for request in scheduler.finished
            if request.state is RequestState.EXPIRED
        ]
        assert expired, "starved requests should expire"
        assert {request.request_id for request in expired} == set(detected_at)
        for request in expired:
            true_expiry = request.deadline_ms + period  # grace = 1 period
            assert request.last_progress_ms == pytest.approx(true_expiry)
            # detection can only happen at a later event
            assert detected_at[request.request_id] >= request.last_progress_ms

    def test_expiry_stamp_identical_across_modes(
        self, single_head_scenario, het_4k_platform
    ):
        stamps = {}
        for mode in ("fast", "reference"):
            scheduler = RecordingScheduler()
            scheduler.inner = NullScheduler()
            SimulationEngine(
                scenario=single_head_scenario,
                platform=het_4k_platform,
                scheduler=scheduler,
                duration_ms=800.0,
                mode=mode,
            ).run()
            stamps[mode] = [
                (request.frame_id, request.last_progress_ms)
                for request in scheduler.finished
                if request.state is RequestState.EXPIRED
            ]
        assert stamps["fast"] == stamps["reference"]
        assert stamps["fast"]


class TestZeroLatencyAccounting:
    def test_zero_latency_completion_is_a_real_sample(
        self, single_head_scenario, het_4k_platform
    ):
        """A completed request whose latency is exactly 0.0 ms must count
        into the latency sum, max and quantile stream (regression for the
        ``latency_ms or 0.0`` falsy-zero check)."""
        engine = SimulationEngine(
            scenario=single_head_scenario,
            platform=het_4k_platform,
            scheduler=NullScheduler(),
            duration_ms=1000.0,
        )
        task = single_head_scenario.task("vision")
        request = InferenceRequest(
            task_name="vision",
            model=task.default_model,
            frame_id=0,
            arrival_ms=10.0,
            deadline_ms=10.0 + task.period_ms,
        )
        request.record_layers(list(request.path), completion_ms=10.0)
        assert request.latency_ms == 0.0  # legitimate, not missing
        engine.scheduler.bind(engine.platform, engine.cost_table, engine.scenario)
        engine._finalize_request(request)
        stats = engine._stats["vision"]
        assert stats.completed_frames == 1
        assert stats.latency_sum_ms == 0.0
        assert len(engine._latency_quantiles["vision"]) == 1
        result = engine._build_result()
        quantiles = result.task_stats["vision"].latency_quantiles
        assert quantiles == {"count": 1, "p50": 0.0, "p95": 0.0, "p99": 0.0}


class TestCascadeDeadlineClamping:
    def test_cascade_deadlines_never_precede_their_spawn_time(self, tiny_models, het_4k_platform):
        """``max(deadline, now)``: when the parent completes after the
        child's nominal deadline, the child's deadline is clamped to the
        spawn instant (a request cannot be born already past-deadline)."""
        scenario = Scenario(
            name="late_cascade",
            tasks=(
                TaskSpec("parent", tiny_models["beta"], fps=10),
                # A cascaded task has no frame source — fps only sets its
                # deadline budget.  0.05 ms is far below the parent's
                # ~0.1 ms inference latency, so every spawn is late.
                TaskSpec(
                    "child",
                    tiny_models["alpha"],
                    fps=20000,
                    depends_on="parent",
                    trigger_probability=1.0,
                ),
            ),
        )
        tracer = Tracer()
        SimulationEngine(
            scenario=scenario,
            platform=het_4k_platform,
            scheduler=make_scheduler("fcfs_dynamic"),
            duration_ms=1500.0,
            tracer=tracer,
        ).run()
        spawns = [
            record for record in tracer.records if record.event == "cascade_arrival"
        ]
        assert spawns, "cascade children should spawn"
        clamped = 0
        child_period = scenario.task("child").period_ms
        parent_arrivals = {
            record.frame_id: record.time_ms
            for record in tracer.records
            if record.event == "arrival" and record.task_name == "parent"
        }
        for record in spawns:
            assert record.deadline_ms >= record.time_ms
            nominal = parent_arrivals[record.frame_id] + child_period
            assert record.deadline_ms == pytest.approx(max(nominal, record.time_ms))
            if record.time_ms > nominal:
                clamped += 1
        assert clamped > 0, "expected at least one clamped (late) cascade deadline"


class TestLeftoverAccounting:
    @pytest.mark.parametrize("duration", [777.0, 1000.0, 1234.0])
    def test_starved_requests_expire_or_drain_as_unfinished(
        self, single_head_scenario, het_4k_platform, duration
    ):
        """With a scheduler that never dispatches, the only events are head
        arrivals, so a measured frame expires if and only if some arrival
        falls strictly after its ``deadline + period``; every other
        measured frame drains as one unfinished violation, and unmeasured
        ones (deadline past the window) count as neither."""
        result = SimulationEngine(
            scenario=single_head_scenario,
            platform=het_4k_platform,
            scheduler=NullScheduler(),
            duration_ms=duration,
        ).run()
        frames = generate_frames(single_head_scenario, duration_ms=duration, seed=0)
        period = single_head_scenario.task("vision").period_ms
        last_arrival = max(frame.arrival_ms for frame in frames)
        measured = [frame for frame in frames if frame.deadline_ms <= duration]
        expired = [frame for frame in measured if last_arrival > frame.deadline_ms + period]
        stats = result.task_stats["vision"]
        assert stats.total_frames == len(measured) < len(frames)
        assert stats.expired_frames == len(expired) > 0
        assert stats.unfinished_frames == len(measured) - len(expired) > 0
        assert stats.violated_frames == len(measured)
        assert stats.completed_frames == 0
        assert stats.latency_quantiles is None
        if duration == 1000.0:
            assert (stats.expired_frames, stats.unfinished_frames) == (7, 2)

    def test_terminal_accounting_is_exhaustive(self, tiny_scenario, het_4k_platform):
        """total == completed + dropped + expired + unfinished per task."""
        result = SimulationEngine(
            scenario=tiny_scenario,
            platform=het_4k_platform,
            scheduler=make_scheduler("dream_full"),
            duration_ms=600.0,
        ).run()
        for stats in result.task_stats.values():
            assert stats.total_frames == (
                stats.completed_frames
                + stats.dropped_frames
                + stats.expired_frames
                + stats.unfinished_frames
            )


class TestMeasurementPolicy:
    @pytest.mark.parametrize("mode", ["fast", "reference"])
    def test_measured_frames_are_those_whose_deadline_is_in_the_window(
        self, tiny_scenario, het_4k_platform, mode
    ):
        """Every head frame from the window start on counts (there is no
        warm-up), and exactly the frames whose deadline is at or before the
        window end do."""
        duration = 1000.0
        result = SimulationEngine(
            scenario=tiny_scenario,
            platform=het_4k_platform,
            scheduler=make_scheduler("fcfs_dynamic"),
            duration_ms=duration,
            mode=mode,
        ).run()
        frames = generate_frames(tiny_scenario, duration_ms=duration, seed=0)
        for task in tiny_scenario.head_tasks:
            own = [frame for frame in frames if frame.task_name == task.name]
            measured = [frame for frame in own if frame.deadline_ms <= duration]
            assert 0 < len(measured) < len(own)
            assert result.task_stats[task.name].total_frames == len(measured)

    @pytest.mark.parametrize(("duration", "measured"), [(1000.0, 10), (999.0, 9)])
    def test_a_deadline_on_the_window_end_is_measured(
        self, tiny_models, het_4k_platform, duration, measured
    ):
        """Unjittered 10 FPS frames arrive at 0, 100, ..., 900 ms, so the
        last one's deadline is exactly 1000 ms: measured in a 1000 ms
        window, not in a 999 ms one."""
        scenario = Scenario(
            name="unjittered",
            tasks=(
                TaskSpec(
                    "vision", tiny_models["alpha"], fps=10, traffic=PeriodicArrival(jitter_ms=0.0)
                ),
            ),
        )
        result = SimulationEngine(
            scenario=scenario,
            platform=het_4k_platform,
            scheduler=make_scheduler("fcfs_dynamic"),
            duration_ms=duration,
        ).run()
        assert result.task_stats["vision"].total_frames == measured

    def test_head_frames_get_the_sensor_jitter(self, tiny_scenario, het_4k_platform):
        """A head task without a jitter of its own arrives up to
        ``SENSOR_JITTER_MS`` after each nominal instant."""
        lags = _arrival_lags(tiny_scenario, het_4k_platform, 500.0)
        assert lags
        assert all(0.0 <= lag <= SENSOR_JITTER_MS + 1e-9 for lag in lags)
        assert max(lags) > SENSOR_JITTER_MS / 2

    def test_a_traffic_model_jitter_replaces_the_sensor_jitter(
        self, tiny_models, het_4k_platform
    ):
        jitter = 4.0
        scenario = Scenario(
            name="wide_jitter",
            tasks=(
                TaskSpec(
                    "vision",
                    tiny_models["alpha"],
                    fps=10,
                    traffic=PeriodicArrival(jitter_ms=jitter),
                ),
            ),
        )
        lags = _arrival_lags(scenario, het_4k_platform, 2000.0)
        assert all(0.0 <= lag <= jitter + 1e-9 for lag in lags)
        assert max(lags) > SENSOR_JITTER_MS


class TestQuantileSurfacing:
    def test_result_round_trips_with_quantiles(self, tiny_scenario, het_4k_platform):
        from repro.sim import SimulationResult

        result = SimulationEngine(
            scenario=tiny_scenario,
            platform=het_4k_platform,
            scheduler=make_scheduler("fcfs_dynamic"),
            duration_ms=500.0,
        ).run()
        payload = result.to_dict()
        vision = payload["task_stats"]["vision"]
        assert vision["latency_quantiles"]["count"] == vision["completed_frames"] > 0
        assert set(vision["latency_quantiles"]) == {"count", "p50", "p95", "p99"}
        rebuilt = SimulationResult.from_dict(payload)
        assert rebuilt.to_dict() == payload
        stats = rebuilt.task_stats["vision"]
        assert (
            stats.latency_quantile_ms("p50")
            <= stats.latency_quantile_ms("p95")
            <= stats.latency_quantile_ms("p99")
            <= stats.latency_max_ms + 1e-9
        )

    def test_pre_quantile_payloads_still_load(self, tiny_scenario, het_4k_platform):
        from repro.sim import SimulationResult

        result = SimulationEngine(
            scenario=tiny_scenario,
            platform=het_4k_platform,
            scheduler=make_scheduler("fcfs_dynamic"),
            duration_ms=300.0,
        ).run()
        payload = result.to_dict()
        for stats in payload["task_stats"].values():
            stats.pop("latency_quantiles")
        rebuilt = SimulationResult.from_dict(payload)
        assert rebuilt.task_stats["vision"].latency_quantiles is None
        assert rebuilt.task_stats["vision"].latency_quantile_ms("p95") == 0.0

    def test_describe_includes_quantiles(self, tiny_scenario, het_4k_platform):
        result = SimulationEngine(
            scenario=tiny_scenario,
            platform=het_4k_platform,
            scheduler=make_scheduler("fcfs_dynamic"),
            duration_ms=500.0,
        ).run()
        assert "p50/p95/p99=" in result.describe()
