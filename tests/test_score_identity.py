"""Randomized score/argmax/tie-break identity across DREAM's scorers.

The engine promises the decisions are *bit-for-bit* identical between

* the reference scorer (``MapScoreEngine.map_score``, the spec), and
* the scalar production scorers (``JobDispatchEngine._score_pairs_fast``
  for several idle accelerators, ``_best_pair_single_idle`` for one).

Float addition/multiplication are not associative, so this only holds if
every scorer applies the same elementwise operations in the same order
and breaks ties (first maximum) identically.  These tests drive them with
randomized request populations — including manufactured exact ties and
exhausted paths — and assert identical raw scores and identical argmax
picks.
"""

import random

import pytest

from repro.core.dispatch import JobDispatchEngine
from repro.core.mapscore import MapScoreEngine
from repro.experiments.jobs import shared_context
from repro.sim.decisions import AcceleratorView
from repro.sim.request import InferenceRequest

SCENARIO = "ar_call"
PLATFORM = "4k_1ws_2os"
TRIALS = 6


class _View:
    """The slice of SystemView the scoring loops actually read."""

    def __init__(self, now_ms):
        self.now_ms = now_ms


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
    return tuple(
        AcceleratorView(
            acc_id=acc.acc_id, free_fraction=1.0, busy_until_ms=0.0,
            resident_model=rng.choice(residents),
        )
        for acc in platform.accelerators
    )


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
    return best_id


def _trial(seed):
    scenario, platform, cost_table = _context()
    rng = random.Random(seed)
    snapshot = _population(rng, scenario, size=rng.randrange(24, 72))
    accs = _acc_views(rng, platform, scenario)
    now_ms = rng.uniform(0.0, 260.0)
    alpha, beta = rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0)
    return scenario, cost_table, snapshot, accs, now_ms, alpha, beta


@pytest.mark.parametrize("seed", range(TRIALS))
def test_scalar_fast_scores_equal_map_score(seed):
    scenario, cost_table, snapshot, accs, now_ms, alpha, beta = _trial(seed)
    map_engine = MapScoreEngine(cost_table)
    dispatch = JobDispatchEngine(cost_table, scenario, map_engine, fast=True)
    schedulable = [r for r in snapshot if r.next_position < len(r.path)]
    resident = {acc.acc_id: acc.resident_model for acc in accs}

    pairs = dispatch._score_pairs_fast(
        _View(now_ms), schedulable, list(accs), resident, alpha, beta
    )
    reference = _reference_scores(
        MapScoreEngine(cost_table), schedulable, accs, now_ms, alpha, beta
    )
    assert len(pairs) == len(reference)
    for (score, request, acc_id), (ref_score, ref_id, ref_acc) in zip(pairs, reference):
        assert (request.request_id, acc_id) == (ref_id, ref_acc)
        assert score == ref_score  # exact, not approximate

    # Argmax per accelerator: the single-idle scan must keep the first
    # maximum of the reference scores (ties included).
    for acc in accs:
        scored = [
            (s, rid, a) for s, rid, a in reference if a == acc.acc_id
        ]
        best = dispatch._best_pair_single_idle(
            _View(now_ms), snapshot, acc, alpha, beta
        )
        assert best is not None
        assert best.request_id == _first_max(scored)


def test_exact_ties_break_to_first_in_snapshot_order():
    """Two byte-identical requests: the scalar scan must pick the earlier one."""
    scenario, platform, cost_table = _context()
    rng = random.Random(99)
    task = scenario.tasks[0]
    first = _make_request(rng, task, 0, 10.0, 50.0, path_seed=7)
    second = _make_request(rng, task, 1, 10.0, 50.0, path_seed=7)
    second.path = first.path
    snapshot = (first, second)
    acc = AcceleratorView(acc_id=0, free_fraction=1.0, busy_until_ms=0.0,
                          resident_model=None)

    map_engine = MapScoreEngine(cost_table)
    dispatch = JobDispatchEngine(cost_table, scenario, map_engine, fast=True)
    totals = [
        map_engine.map_score(r, 0, 20.0, 1.0, 0.5, None).total for r in snapshot
    ]
    assert totals[0] == totals[1]  # the tie is real
    assert dispatch._best_pair_single_idle(_View(20.0), snapshot, acc, 1.0, 0.5) is first
