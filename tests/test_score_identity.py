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


# --------------------------------------------------------------------- #
# Dominated same-suffix requests
#
# With alpha >= 0 the scan skips a request whose statics tuple is shared
# with an earlier scored request (same model, same remaining suffix) that
# has neither a later deadline nor a later last progress.  Skipping must
# leave every pick exactly the spec's, so each case below checks the scan
# on every accelerator and the greedy over every idle accelerator.
# --------------------------------------------------------------------- #


def _task(scenario, name):
    return next(task for task in scenario.tasks if task.name == name)


def _assert_scan_is_the_spec(scenario, cost_table, snapshot, accs, now_ms, alpha, beta):
    """Per-accelerator scans and the multi-idle greedy both equal the spec."""
    dispatch = JobDispatchEngine(cost_table, scenario, MapScoreEngine(cost_table))
    schedulable = [r for r in snapshot if r.next_position < len(r.path)]
    reference = _reference_scores(
        MapScoreEngine(cost_table), schedulable, accs, now_ms, alpha, beta
    )
    picks = {}
    for acc in accs:
        scored = [(s, rid, a) for s, rid, a in reference if a == acc.acc_id]
        score, best = dispatch._best_request(_View(now_ms), snapshot, acc, alpha, beta)
        assert (score, best.request_id) == _first_max(scored)
        picks[acc.acc_id] = best
    fast, spec = _engines(scenario, cost_table)
    view = _View(now_ms, accs, snapshot)
    assert _sequence(fast, view, alpha, beta) == _sequence(spec, view, alpha, beta)
    return dispatch, picks


def _accs_for(scenario):
    names = _model_names(scenario)
    return (_Acc(0, None), _Acc(1, names[0]), _Acc(2, names[1]))


def _shared(dispatch, requests):
    """True when every request scanned with one shared statics tuple."""
    entries = {id(dispatch._statics_cache[r.request_id]) for r in requests}
    return len(entries) == 1


@pytest.mark.parametrize("order", ["arrival", "reversed", "shuffled"])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 2.0])
def test_unstarted_frames_of_one_task_some_late(order, alpha):
    """Position-0 frames of one task, half of them past their deadline.

    Late frames clamp their slack alike, so only queue time separates
    them.  In arrival order the first frame dominates all others; reversed,
    every frame is dominated by one that comes after it and must still be
    scored.
    """
    scenario, _platform, cost_table = _context()
    task = _task(scenario, "keyword_spotting")
    rng = random.Random(11)
    period = task.period_ms
    frames = [
        _make_request(rng, task, i, i * period, (i + 1) * period) for i in range(6)
    ]
    snapshot = list(frames)
    if order == "reversed":
        snapshot.reverse()
    elif order == "shuffled":
        rng.shuffle(snapshot)
    now_ms = 3.5 * period  # frames 0-2 are late, 3-5 are not
    dispatch, picks = _assert_scan_is_the_spec(
        scenario, cost_table, tuple(snapshot), _accs_for(scenario), now_ms, alpha, 0.5
    )
    assert _shared(dispatch, frames)
    # Late frames tie on urgency; any starvation weight favours the oldest.
    late = {0} if alpha > 0.0 else {0, 1, 2}
    assert {best.frame_id for best in picks.values()} <= late


@pytest.mark.parametrize("seed", range(TRIALS))
def test_started_requests_whose_progress_order_differs_from_pending_order(seed):
    """Started requests at one position, pending in arrival order.

    Their last progress is a permutation unrelated to arrival, so earlier
    pending requests neither dominate nor are dominated by later ones in
    any fixed pattern.
    """
    scenario, _platform, cost_table = _context()
    rng = random.Random(seed)
    task = _task(scenario, rng.choice(["keyword_spotting", "translation"]))
    position = rng.randrange(1, task.default_model.num_layers)
    progress = [rng.uniform(0.0, 60.0) for _ in range(8)]
    rng.shuffle(progress)
    requests = [
        _make_request(
            rng, task, i, 5.0 * i, 5.0 * i + rng.uniform(20.0, 70.0),
            position=position, last_progress=max(5.0 * i, progress[i]),
        )
        for i in range(8)
    ]
    now_ms = rng.uniform(40.0, 90.0)
    alpha, beta = rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0)
    dispatch, _picks = _assert_scan_is_the_spec(
        scenario, cost_table, tuple(requests), _accs_for(scenario), now_ms, alpha, beta
    )
    assert _shared(dispatch, requests)


@pytest.mark.parametrize(
    "first, second, alpha",
    [
        # The later request has the earlier deadline: it must be scored.
        ((100.0, 10.0), (60.0, 20.0), 0.0),
        # The later request has waited longer: it must be scored.
        ((60.0, 30.0), (70.0, 5.0), 2.0),
    ],
)
def test_a_later_undominated_request_wins(first, second, alpha):
    """The earlier request of a shared suffix does not dominate the later one.

    Each case is built so the later request is the spec's pick; a scan
    that skipped it would keep the earlier one.
    """
    scenario, _platform, cost_table = _context()
    task = _task(scenario, "translation")
    rng = random.Random(1)
    requests = [
        _make_request(rng, task, i, 0.0, deadline, position=2, last_progress=progress)
        for i, (deadline, progress) in enumerate((first, second))
    ]
    dispatch, picks = _assert_scan_is_the_spec(
        scenario, cost_table, tuple(requests), _accs_for(scenario), 50.0, alpha, 0.5
    )
    assert _shared(dispatch, requests)
    assert all(best is requests[1] for best in picks.values())


def test_a_dominated_request_before_its_dominator_is_scored():
    """The dominated request comes first in the scan and takes the lead;
    its dominator, later in the scan, must still be scored and win."""
    scenario, _platform, cost_table = _context()
    task = _task(scenario, "translation")
    rng = random.Random(2)
    dominated = _make_request(rng, task, 0, 0.0, 80.0, position=3, last_progress=30.0)
    dominator = _make_request(rng, task, 1, 0.0, 55.0, position=3, last_progress=10.0)
    snapshot = (dominated, dominator)
    dispatch, picks = _assert_scan_is_the_spec(
        scenario, cost_table, snapshot, _accs_for(scenario), 50.0, 1.0, 0.5
    )
    assert _shared(dispatch, (dominated, dominator))
    assert all(best is dominator for best in picks.values())


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_exact_ties_inside_a_suffix_go_to_the_first(alpha):
    """Identical requests of one suffix tie exactly; the first one wins,
    with later duplicates skipped and an undominated request between."""
    scenario, _platform, cost_table = _context()
    task = _task(scenario, "keyword_spotting")
    rng = random.Random(4)
    twins = [
        _make_request(rng, task, i, 0.0, 40.0, position=5, last_progress=12.0)
        for i in range(3)
    ]
    between = _make_request(rng, task, 3, 0.0, 45.0, position=5, last_progress=8.0)
    snapshot = (twins[0], between, twins[1], twins[2])
    map_engine = MapScoreEngine(cost_table)
    totals = {map_engine.map_score(r, 0, 30.0, alpha, 0.5, None).total for r in twins}
    assert len(totals) == 1  # the tie is real
    dispatch, picks = _assert_scan_is_the_spec(
        scenario, cost_table, snapshot, _accs_for(scenario), 30.0, alpha, 0.5
    )
    assert _shared(dispatch, snapshot)
    assert all(best in (twins[0], between) for best in picks.values())


def _grouped_population(rng, scenario, size):
    """Requests drawn from a few (task, position) suffixes, in random order,
    with random deadlines (some late), progress and exact duplicates."""
    suffixes = [
        (_task(scenario, name), rng.randrange(0, 4))
        for name in ("keyword_spotting", "translation", "keyword_spotting")
    ]
    requests = []
    for i in range(size):
        task, position = rng.choice(suffixes)
        arrival = rng.uniform(0.0, 100.0)
        requests.append(
            _make_request(
                rng, task, i, arrival, arrival + rng.uniform(5.0, 60.0),
                position=position, last_progress=arrival + rng.uniform(0.0, 20.0),
            )
        )
    for source in rng.sample(requests, k=size // 4):
        task = _task(scenario, source.task_name)
        requests.append(
            _make_request(
                rng, task, 10_000 + source.frame_id, source.arrival_ms,
                source.deadline_ms, position=source.next_position,
                last_progress=source.last_progress_ms,
            )
        )
    rng.shuffle(requests)
    return tuple(requests)


@pytest.mark.parametrize("idle_count", [1, 2, 3])
@pytest.mark.parametrize("seed", range(TRIALS))
def test_multi_idle_rounds_over_shared_suffixes(seed, idle_count):
    """Randomized grouped populations on one to three idle accelerators."""
    scenario, _platform, cost_table = _context()
    rng = random.Random(1000 + seed)
    snapshot = _grouped_population(rng, scenario, rng.randrange(12, 40))
    accs = _accs_for(scenario)
    for acc in rng.sample(accs, k=len(accs) - idle_count):
        acc.free_fraction = rng.choice([0.0, 0.5])
    now_ms = rng.uniform(20.0, 140.0)
    alpha, beta = rng.choice([0.0, rng.uniform(0.0, 2.0)]), rng.uniform(0.0, 1.0)
    _assert_scan_is_the_spec(scenario, cost_table, snapshot, accs, now_ms, alpha, beta)
    fast, _spec = _engines(scenario, cost_table)
    assert len(_sequence(fast, _View(now_ms, accs, snapshot), alpha, beta)) == idle_count


def test_negative_alpha_scores_every_request():
    """Below zero, starvation lowers the score, so queue time no longer
    orders a suffix's requests and nothing may be skipped."""
    scenario, _platform, cost_table = _context()
    task = _task(scenario, "translation")
    rng = random.Random(6)
    waited = _make_request(rng, task, 0, 0.0, 60.0, position=2, last_progress=5.0)
    fresh = _make_request(rng, task, 1, 0.0, 60.0, position=2, last_progress=45.0)
    dispatch, picks = _assert_scan_is_the_spec(
        scenario, cost_table, (waited, fresh), _accs_for(scenario), 50.0, -1.0, 0.5
    )
    assert _shared(dispatch, (waited, fresh))
    assert all(best is fresh for best in picks.values())
