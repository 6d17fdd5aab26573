"""Unit tests for model graphs, dynamic behaviours, supernets and the zoo."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.models import zoo
from repro.models.dynamic import EarlyExit, LayerSkipping
from repro.models.graph import ModelGraph
from repro.models.layers import fc
from repro.models.supernet import Supernet
from repro.models.zoo.rapid_rl import EXIT_PROBABILITY
from repro.models.zoo.skipnet import SKIP_PROBABILITY


class TestModelGraph:
    def test_requires_layers(self):
        with pytest.raises(ValueError):
            ModelGraph(name="empty", layers=())

    def test_duplicate_layer_names_rejected(self):
        layer = fc("same", 8, 8)
        with pytest.raises(ValueError):
            ModelGraph(name="dup", layers=(layer, layer))

    def test_total_macs(self, tiny_models):
        model = tiny_models["alpha"]
        assert model.total_macs == sum(layer.macs for layer in model.layers)

    def test_static_path_covers_all_layers(self, tiny_models, rng):
        model = tiny_models["alpha"]
        assert model.sample_execution_path(rng) == list(range(model.num_layers))

    def test_describe_mentions_layer_count(self, tiny_models):
        text = tiny_models["beta"].describe()
        assert str(tiny_models["beta"].num_layers) in text


class TestDynamicBehaviors:
    def test_skipping_removes_whole_blocks(self, rng):
        behavior = LayerSkipping(blocks=((1, 2), (4,)), skip_probability=1.0)
        assert behavior.sample_path(6, rng) == [0, 3, 5]

    def test_skipping_zero_probability_keeps_all(self, rng):
        behavior = LayerSkipping(blocks=((1, 2),), skip_probability=0.0)
        assert behavior.sample_path(4, rng) == [0, 1, 2, 3]

    def test_early_exit_always_prefix(self, rng):
        behavior = EarlyExit(exit_points=((2, 1.0),))
        assert behavior.sample_path(10, rng) == [0, 1, 2]

    def test_early_exit_never(self, rng):
        behavior = EarlyExit(exit_points=((2, 0.0),))
        assert behavior.sample_path(5, rng) == [0, 1, 2, 3, 4]

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            LayerSkipping(blocks=((0,),), skip_probability=1.5)
        with pytest.raises(ValueError):
            EarlyExit(exit_points=((0, -0.1),))

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_paths_are_strictly_increasing_subsets(self, num_layers, seed):
        rng = random.Random(seed)
        blocks = tuple(
            (i,) for i in range(1, num_layers, 3)
        ) or ((0,),)
        behavior = LayerSkipping(blocks=blocks, skip_probability=0.5)
        path = behavior.sample_path(num_layers, rng)
        assert path == sorted(set(path))
        assert all(0 <= idx < num_layers for idx in path)

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_early_exit_paths_are_prefixes(self, num_layers, seed):
        rng = random.Random(seed)
        behavior = EarlyExit(exit_points=((num_layers // 2, 0.5),))
        path = behavior.sample_path(num_layers, rng)
        assert path == list(range(len(path)))


class TestSupernet:
    def test_variants_ordered_heaviest_first(self, tiny_supernet):
        macs = [variant.total_macs for variant in tiny_supernet.variants]
        assert macs == sorted(macs, reverse=True)

    def test_wrong_order_rejected(self, tiny_supernet):
        with pytest.raises(ValueError):
            Supernet(name="bad", variants=tuple(reversed(tiny_supernet.variants)))

    def test_variant_index_unknown(self, tiny_supernet):
        with pytest.raises(KeyError):
            tiny_supernet.variant_index("missing")


class TestZoo:
    @pytest.mark.parametrize("builder", sorted(zoo.__all__))
    def test_every_model_builds(self, builder):
        built = getattr(zoo, builder)()
        graphs = built.variants if isinstance(built, Supernet) else (built,)
        for graph in graphs:
            assert graph.num_layers > 0
            assert graph.total_macs > 1_000_000  # every zoo model is at least 1 MMAC
            names = [layer.name for layer in graph.layers]
            assert len(names) == len(set(names))

    def test_skipnet_is_dynamic(self):
        model = zoo.build_skipnet()
        assert model.is_dynamic
        assert model.dynamic_behavior.skip_probability == SKIP_PROBABILITY

    def test_rapid_rl_has_early_exits(self):
        model = zoo.build_rapid_rl()
        assert isinstance(model.dynamic_behavior, EarlyExit)
        assert model.dynamic_behavior.exit_points
        assert {p for _, p in model.dynamic_behavior.exit_points} == {EXIT_PROBABILITY}

    def test_once_for_all_has_four_ordered_variants(self):
        supernet = zoo.build_once_for_all()
        assert len(supernet.variants) == 4
        macs = [variant.total_macs for variant in supernet.variants]
        assert macs == sorted(macs, reverse=True)

    def test_detector_names_distinguish_tasks(self):
        hand = zoo.build_ssd_mobilenet_v2(task="hand")
        face = zoo.build_ssd_mobilenet_v2(task="face")
        assert hand.name != face.name

    def test_resolution_scales_macs(self):
        small = zoo.build_fbnet_c(resolution=192)
        large = zoo.build_fbnet_c(resolution=384)
        assert large.total_macs > 2 * small.total_macs
