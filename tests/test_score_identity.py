"""Randomized score/argmax/tie-break identity of DREAM's two dispatch paths.

The engine promises the decisions are *bit-for-bit* identical between

* the spec (``MapScoreEngine.map_score`` plus the sort-based greedy that a
  ``fast=False`` ``JobDispatchEngine`` runs), and
* the fast path, whose only scorer is the per-accelerator running-max scan
  ``JobDispatchEngine._best_request``: one scan for one idle accelerator,
  one scan per remaining accelerator per pick for several.

Float addition/multiplication are not associative, so this only holds if
the scan applies the same elementwise operations in the same order and
both paths break ties identically: the highest score first, exact ties to
the earlier pending request, then to the earlier accelerator.  These tests
drive both with randomized request populations — including manufactured
exact ties and exhausted paths — and assert identical raw scores, argmax
picks and assignment sequences.
"""

import random

import pytest

from repro.core.dispatch import JobDispatchEngine
from repro.core.mapscore import MapScoreEngine
from repro.experiments.jobs import shared_context
from repro.hardware import CostTable, make_platform
from repro.models.graph import ModelGraph
from repro.models.layers import conv2d, fc
from repro.sim.request import InferenceRequest
from repro.workloads.scenario import Scenario, TaskSpec

SCENARIO = "ar_call"
PLATFORM = "4k_1ws_2os"
TRIALS = 6


class _View:
    """The slice of SystemView the dispatch paths actually read."""

    def __init__(self, now_ms, accelerators=(), pending=()):
        self.now_ms = now_ms
        self.accelerators = accelerators
        self.pending_requests = pending


class _Acc:
    """The slice of AcceleratorView the dispatch paths actually read."""

    def __init__(self, acc_id, resident_model, free_fraction=1.0):
        self.acc_id = acc_id
        self.free_fraction = free_fraction
        self.resident_model = resident_model

    @property
    def is_idle(self):
        return self.free_fraction >= 1.0


def _context():
    return shared_context(SCENARIO, PLATFORM, 0.5)


def _model_names(scenario):
    names = []
    for task in scenario.tasks:
        for model in task.model_variants:
            names.append(model.name)
    return names


def _make_request(rng, task, frame_id, arrival, deadline, position=None,
                  last_progress=None, path_seed=None):
    request = InferenceRequest(
        task_name=task.name,
        model=task.default_model,
        frame_id=frame_id,
        arrival_ms=arrival,
        deadline_ms=deadline,
        rng=random.Random(rng.randrange(2**31) if path_seed is None else path_seed),
    )
    if position is not None:
        request.next_position = position
    if last_progress is not None:
        request.last_progress_ms = last_progress
    return request


def _population(rng, scenario, size):
    """Random requests: mixed tasks/progress, exact ties, exhausted paths."""
    requests = []
    for i in range(size):
        task = rng.choice(scenario.tasks)
        arrival = rng.uniform(0.0, 200.0)
        request = _make_request(
            rng, task, i, arrival,
            deadline=arrival + rng.uniform(1.0, 80.0),
            last_progress=arrival + rng.uniform(0.0, 5.0),
        )
        request.next_position = rng.randrange(0, len(request.path))
        requests.append(request)
    # Manufacture exact score ties: clones sharing (model, path, position,
    # deadline, last_progress) score identically on every accelerator, so
    # only the tie-break decides between them.
    for source in rng.sample(requests, k=max(2, size // 8)):
        task = next(t for t in scenario.tasks if t.name == source.task_name)
        seed = rng.randrange(2**31)
        clone = _make_request(
            rng, task, 10_000 + source.frame_id,
            source.arrival_ms, source.deadline_ms, path_seed=seed,
        )
        clone.path = source.path
        clone.next_position = source.next_position
        clone.last_progress_ms = source.last_progress_ms
        requests.append(clone)
    # A few exhausted requests: unschedulable, every path must skip them.
    for source in rng.sample(requests, k=2):
        task = next(t for t in scenario.tasks if t.name == source.task_name)
        done = _make_request(rng, task, 20_000, source.arrival_ms, source.deadline_ms)
        done.next_position = len(done.path)
        requests.append(done)
    rng.shuffle(requests)
    return tuple(requests)


def _acc_views(rng, platform, scenario):
    residents = [None] + _model_names(scenario)
    accs = [_Acc(acc.acc_id, rng.choice(residents)) for acc in platform.accelerators]
    # The two OS accelerators are identical hardware: with one resident
    # model they score every request identically, so each pick's exact tie
    # across accelerators must go to the earlier one.
    if rng.random() < 0.5:
        accs[2].resident_model = accs[1].resident_model
    return tuple(accs)


def _reference_scores(map_engine, schedulable, accs, now_ms, alpha, beta):
    """map_score totals per (request, acc) pair, request-major order."""
    return [
        (
            map_engine.map_score(
                request, acc.acc_id, now_ms, alpha, beta, acc.resident_model
            ).total,
            request.request_id,
            acc.acc_id,
        )
        for request in schedulable
        for acc in accs
    ]


def _first_max(scored):
    """First-seen strict-> running max, the canonical tie-break."""
    best_score, best_id = None, None
    for score, request_id, _acc in scored:
        if best_id is None or score > best_score:
            best_score, best_id = score, request_id
    return best_score, best_id


def _trial(seed):
    scenario, platform, cost_table = _context()
    rng = random.Random(seed)
    snapshot = _population(rng, scenario, size=rng.randrange(24, 72))
    accs = _acc_views(rng, platform, scenario)
    now_ms = rng.uniform(0.0, 260.0)
    alpha, beta = rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0)
    return rng, scenario, cost_table, snapshot, accs, now_ms, alpha, beta


def _engines(scenario, cost_table):
    """A fast engine and the spec engine over the reference cost table."""
    fast = JobDispatchEngine(cost_table, scenario, MapScoreEngine(cost_table))
    reference_table = cost_table.reference_view()
    spec = JobDispatchEngine(
        reference_table, scenario, MapScoreEngine(reference_table), fast=False
    )
    return fast, spec


def _sequence(engine, view, alpha, beta):
    return [
        (assignment.request.request_id, assignment.acc_id)
        for assignment in engine.build_assignments(view, alpha, beta)
    ]


@pytest.mark.parametrize("seed", range(TRIALS))
def test_scan_keeps_the_first_maximum_of_map_score(seed):
    _rng, scenario, cost_table, snapshot, accs, now_ms, alpha, beta = _trial(seed)
    dispatch = JobDispatchEngine(cost_table, scenario, MapScoreEngine(cost_table))
    schedulable = [r for r in snapshot if r.next_position < len(r.path)]
    reference = _reference_scores(
        MapScoreEngine(cost_table), schedulable, accs, now_ms, alpha, beta
    )
    for acc in accs:
        scored = [(s, rid, a) for s, rid, a in reference if a == acc.acc_id]
        score, best = dispatch._best_request(_View(now_ms), snapshot, acc, alpha, beta)
        assert best is not None
        assert (score, best.request_id) == _first_max(scored)  # exact, not approximate


def test_exact_ties_break_to_first_in_snapshot_order():
    """Two byte-identical requests: the scan must pick the earlier one."""
    scenario, _platform, cost_table = _context()
    rng = random.Random(99)
    task = scenario.tasks[0]
    first = _make_request(rng, task, 0, 10.0, 50.0, path_seed=7)
    second = _make_request(rng, task, 1, 10.0, 50.0, path_seed=7)
    second.path = first.path
    snapshot = (first, second)
    acc = _Acc(0, None)

    map_engine = MapScoreEngine(cost_table)
    dispatch = JobDispatchEngine(cost_table, scenario, map_engine)
    totals = [
        map_engine.map_score(r, 0, 20.0, 1.0, 0.5, None).total for r in snapshot
    ]
    assert totals[0] == totals[1]  # the tie is real
    assert dispatch._best_request(_View(20.0), snapshot, acc, 1.0, 0.5)[1] is first


@pytest.mark.parametrize("idle_count", [2, 3])
@pytest.mark.parametrize("seed", range(TRIALS))
def test_multi_idle_greedy_matches_the_spec(seed, idle_count):
    """Several idle accelerators: the same (request, accelerator) sequence."""
    rng, scenario, cost_table, snapshot, accs, now_ms, alpha, beta = _trial(seed)
    for acc in rng.sample(accs, k=len(accs) - idle_count):
        acc.free_fraction = rng.choice([0.0, 0.5])
    fast, spec = _engines(scenario, cost_table)
    # Deep and shallow queues: the whole population, a few requests (fewer
    # than the idle accelerators), one request, only exhausted paths.
    exhausted = tuple(r for r in snapshot if r.next_position >= len(r.path))
    for pending in (snapshot, snapshot[:idle_count - 1], snapshot[:1], exhausted):
        view = _View(now_ms, accs, pending)
        expected = _sequence(spec, view, alpha, beta)
        assert _sequence(fast, view, alpha, beta) == expected
    assert len(_sequence(fast, _View(now_ms, accs, snapshot), alpha, beta)) == idle_count


def _twin_model(name):
    return ModelGraph(
        name=name,
        layers=(
            conv2d(f"{name}.conv1", 64, 64, 8, 16, kernel=3),
            conv2d(f"{name}.conv2", 32, 32, 16, 32, kernel=3, stride=2),
            fc(f"{name}.fc", 2048, 256),
        ),
    )


def test_cross_accelerator_tie_goes_to_the_earlier_request():
    """Two accelerators whose best requests differ but score exactly alike.

    ``twin_a`` and ``twin_b`` have identical layers, so they cost the same
    everywhere; on the two identical OS accelerators each is resident where
    the other is queued.  Accelerator 1 prefers the ``twin_b`` request and
    accelerator 2 the ``twin_a`` one, at the same score (neither pays a
    context switch).  The spec's first pair is the earlier pending request
    on its accelerator, even though that accelerator comes second.
    """
    twin_a, twin_b = _twin_model("twin_a"), _twin_model("twin_b")
    scenario = Scenario(
        name="twins",
        tasks=(TaskSpec("a", twin_a, fps=30), TaskSpec("b", twin_b, fps=30)),
    )
    cost_table = CostTable.build(make_platform(PLATFORM), [twin_a, twin_b])
    rng = random.Random(3)
    request_a = _make_request(rng, scenario.tasks[0], 0, 10.0, 50.0, last_progress=12.0)
    request_b = _make_request(rng, scenario.tasks[1], 0, 10.0, 50.0, last_progress=12.0)
    accs = (_Acc(0, None, free_fraction=0.0), _Acc(1, "twin_b"), _Acc(2, "twin_a"))
    view = _View(20.0, accs, (request_a, request_b))

    map_engine = MapScoreEngine(cost_table)
    tie = [map_engine.map_score(r, acc, 20.0, 1.0, 0.5, resident).total
           for r, acc, resident in ((request_a, 2, "twin_a"), (request_b, 1, "twin_b"))]
    assert tie[0] == tie[1]  # the tie is real
    fast, spec = _engines(scenario, cost_table)
    expected = [(request_a.request_id, 2), (request_b.request_id, 1)]
    assert _sequence(spec, view, 1.0, 0.5) == expected
    assert _sequence(fast, view, 1.0, 0.5) == expected
