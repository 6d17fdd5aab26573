"""P² streaming quantile estimator: exactness, accuracy and determinism."""

from __future__ import annotations

import random

import pytest

from repro.metrics.quantiles import P2Quantile, StreamingQuantiles


def _exact_quantile(samples, p):
    ordered = sorted(samples)
    rank = p * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class TestP2Quantile:
    def test_invalid_probability_rejected(self):
        for p in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                P2Quantile(p)

    def test_empty_stream_has_no_value(self):
        with pytest.raises(ValueError):
            P2Quantile(0.5).value()

    def test_exact_below_five_samples(self):
        marker = P2Quantile(0.5)
        for sample in (10.0, 2.0, 7.0):
            marker.add(sample)
        assert marker.value() == _exact_quantile([10.0, 2.0, 7.0], 0.5)

    def test_single_sample(self):
        marker = P2Quantile(0.95)
        marker.add(3.25)
        assert marker.value() == 3.25

    @pytest.mark.parametrize("p", [0.5, 0.95, 0.99])
    def test_tracks_uniform_stream_within_tolerance(self, p):
        rng = random.Random(7)
        samples = [rng.uniform(0.0, 100.0) for _ in range(20_000)]
        marker = P2Quantile(p)
        for sample in samples:
            marker.add(sample)
        exact = _exact_quantile(samples, p)
        assert marker.value() == pytest.approx(exact, abs=2.0)

    def test_tracks_skewed_stream(self):
        rng = random.Random(11)
        samples = [rng.expovariate(1.0 / 10.0) for _ in range(20_000)]
        marker = P2Quantile(0.95)
        for sample in samples:
            marker.add(sample)
        exact = _exact_quantile(samples, 0.95)
        assert marker.value() == pytest.approx(exact, rel=0.05)

    def test_deterministic_replay(self):
        rng = random.Random(3)
        samples = [rng.gauss(50.0, 15.0) for _ in range(5_000)]
        first, second = P2Quantile(0.99), P2Quantile(0.99)
        for sample in samples:
            first.add(sample)
            second.add(sample)
        assert first.value() == second.value()

    def test_bounded_memory(self):
        marker = P2Quantile(0.5)
        for index in range(10_000):
            marker.add(float(index))
        assert len(marker._heights) == 5
        assert len(marker) == 10_000


class TestStreamingQuantiles:
    def test_summary_empty_stream_is_none(self):
        assert StreamingQuantiles().summary() is None

    def test_summary_keys_and_count(self):
        stream = StreamingQuantiles()
        for sample in (1.0, 2.0, 3.0):
            stream.add(sample)
        summary = stream.summary()
        assert set(summary) == {"count", "p50", "p95", "p99"}
        assert summary["count"] == 3
        assert summary["p50"] == 2.0

    def test_quantiles_ordered(self):
        rng = random.Random(5)
        stream = StreamingQuantiles()
        for _ in range(10_000):
            stream.add(rng.uniform(0.0, 1.0))
        summary = stream.summary()
        assert summary["p50"] <= summary["p95"] <= summary["p99"]
