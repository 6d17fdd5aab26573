"""Tests of the benchmark itself: layer arithmetic, output checks, smoke runs."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import layers  # noqa: E402
from perfbench.checks import Op, OpLedger, load_expected, op_sequence  # noqa: E402
from perfbench.layers import Instrumentation, LayerClock  # noqa: E402
from perfbench.measure import END_TO_END, PER_LAYER, measure  # noqa: E402
from perfbench.workloads import WORKLOADS, make_workload  # noqa: E402

#: Simulated-window multiplier that keeps every smoke pass well under a second.
SMOKE_SCALE = 0.03


class FakeTime:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_wrapped_children(monkeypatch):
    fake = FakeTime()
    monkeypatch.setattr(layers, "perf_counter", fake)
    clock = LayerClock()

    def inner():
        fake.advance(2.0)

    inner = clock.wrap("b", "inner", inner)

    def same_layer_helper():
        fake.advance(0.25)

    same_layer_helper = clock.wrap("a", "helper", same_layer_helper)

    def outer():
        fake.advance(1.0)
        inner()
        same_layer_helper()
        fake.advance(3.0)

    outer = clock.wrap("a", "outer", outer)

    outer()  # no root span open: passes through unrecorded
    assert clock.total_self_s() == 0.0

    with clock.span():
        fake.advance(0.5)
        outer()

    assert clock.function("a", "outer") == (1, 4.25, 0)
    assert clock.function("a", "helper") == (0, 0.0, 0)  # folded into outer
    assert clock.layer("b") == (1, 2.0, 0)
    assert clock.layer(layers.ROOT) == (1, 0.5, 0)
    assert clock.total_self_s() == pytest.approx(6.75)


def test_instrumentation_restores_originals():
    from repro.sim.engine import SimulationEngine
    from repro.sim.invariants import audit_trace
    from repro.experiments import differential

    before = (SimulationEngine.run, differential.audit_trace)
    instrumentation = Instrumentation(LayerClock())
    instrumentation.install()
    try:
        assert SimulationEngine.run is not before[0]
        assert differential.audit_trace is not audit_trace
    finally:
        instrumentation.uninstall()
    assert (SimulationEngine.run, differential.audit_trace) == before


def test_ledger_counts_an_injected_digest_mismatch(tmp_path):
    workload = make_workload("dream_saturated", seed=3, scale=SMOKE_SCALE, store_root=tmp_path)
    workload.setup()
    try:
        outcome = workload.run_pass()
    finally:
        workload.close()
    recorded = op_sequence(outcome.ops)
    flipped = "0" if recorded["digests"][0] != "0" else "1"
    tampered = dict(recorded, digests=flipped + recorded["digests"][1:])

    clean = OpLedger(expected=recorded)
    clean.check(outcome.ops)
    assert (clean.attempted, clean.failed) == (len(outcome.ops), 0)

    ledger = OpLedger(expected=tampered)
    ledger.check(outcome.ops)
    assert ledger.failed == 1
    assert ledger.error_rate == pytest.approx(1 / len(outcome.ops))
    assert "recorded" in ledger.failures[0]

    unrecorded = OpLedger(expected=None, required=True)
    unrecorded.check(outcome.ops)
    assert unrecorded.failed == len(outcome.ops)
    assert "no recorded digest" in unrecorded.failures[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_seed_maps_onto_a_recording(name):
    for seed in (0, 7, 31, 32, 12345):
        workload = make_workload(name, seed)
        assert workload.input_seed in workload.INPUT_SEEDS
        assert load_expected(name, workload.input_seed) is not None


def test_ledger_determinism_guard():
    ledger = OpLedger()
    ledger.check([Op("cell", "aa", {"events_processed": 5})])
    ledger.check([Op("cell", "aa", {"events_processed": 6})])
    ledger.check([Op("cell", "bb")])
    ledger.check([Op("cell", "aa", None, "oracle violation")])
    assert (ledger.attempted, ledger.failed) == (4, 3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_every_workload(name, tmp_path):
    workload = make_workload(name, seed=1, scale=SMOKE_SCALE, store_root=tmp_path)
    workload.setup()
    try:
        ledger = OpLedger()
        plain = measure(workload, seconds=0, trace=False, ledger=ledger, setup_s=1.0)
        traced = measure(workload, seconds=0, trace=True, ledger=ledger)
    finally:
        workload.close()
    assert ledger.failed == 0, ledger.failures
    assert ledger.attempted > 0
    assert set(plain.metrics) == set(END_TO_END)
    for metric in ("wall_s", "events_per_s", "peak_rss_mb"):
        assert plain.metrics[metric] > 0
    assert (plain.extra.get("experiments.store.warm_wall_s", 0) > 0) == (name == "fleet_store")
    assert list(traced.metrics) == list(PER_LAYER)
    assert traced.metrics["sim.engine.events"] > 0
    assert traced.metrics["trace.overhead"] > 0
    assert (traced.metrics["sim.tracer.records"] > 0) == (name == "fuzz_audit")
    assert (traced.metrics["experiments.store.puts"] > 0) == (name == "fleet_store")
    assert threading.active_count() == 1


def test_reference_scales_wall_time(tmp_path):
    from perfbench import reference

    host = reference.HostReference(nodes=64, steps=64)
    host.samples = [2 * reference.NOMINAL_S, 4 * reference.NOMINAL_S, 3 * reference.NOMINAL_S]
    assert host.scale() == pytest.approx(1 / 3)

    host = reference.HostReference(nodes=64, steps=64)
    workload = make_workload("dream_saturated", seed=0, scale=SMOKE_SCALE, store_root=tmp_path)
    workload.setup()
    result = measure(workload, seconds=0, trace=False, ledger=OpLedger(), reference=host)
    assert host.samples  # the first op is always preceded by a sample
    assert result.reference_scale == pytest.approx(host.scale())
    assert result.metrics["wall_s"] == pytest.approx(result.host_wall_s * host.scale())


def test_benchmark_json_matches_the_runner():
    from perfbench import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_runner_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_store", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
