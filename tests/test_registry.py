"""Tests for the registry subsystem and the registry-backed factories."""

import numpy as np
import pytest

from repro.errors import ModelError, WalkError
from repro.registry import (
    INITIALIZER_REGISTRY,
    MODEL_REGISTRY,
    Registry,
    RegistryError,
    SAMPLER_REGISTRY,
)


class TestRegistryMechanics:
    def test_register_get_and_aliases(self):
        reg = Registry("widget")
        reg.register("alpha", object, aliases=("a", "al"))
        assert reg.get("alpha") is object
        assert reg.get("A") is object  # lookups are case-insensitive
        assert reg.canonical("al") == "alpha"
        assert "a" in reg and "alpha" in reg
        # iteration yields canonical names only
        assert list(reg) == ["alpha"]
        assert len(reg) == 1

    def test_decorator_form(self):
        reg = Registry("widget")

        @reg.register("thing", aliases=("t",), sturdy=True)
        class Thing:
            pass

        assert reg["thing"] is Thing
        assert reg.capabilities("t")["sturdy"] is True
        assert isinstance(reg.create("thing"), Thing)

    def test_duplicate_names_rejected(self):
        reg = Registry("widget")
        reg.register("alpha", 1, aliases=("a",))
        with pytest.raises(RegistryError, match="already registered"):
            reg.register("alpha", 2)
        with pytest.raises(RegistryError, match="already registered"):
            reg.register("beta", 3, aliases=("a",))  # alias collision
        reg.register("alpha", 2, replace=True)
        assert reg.get("alpha") == 2

    def test_replace_cannot_steal_names_from_other_entries(self):
        reg = Registry("widget")
        reg.register("alpha", 1, aliases=("a",))
        # colliding with another entry's alias raises even with replace=True
        with pytest.raises(RegistryError, match="unregister 'alpha' first"):
            reg.register("beta", 2, aliases=("a",), replace=True)
        # and never removes the unrelated entry as a side effect
        assert reg.get("alpha") == 1 and reg.canonical("a") == "alpha"
        # same-canonical replacement may rearrange its own aliases freely
        reg.register("alpha", 3, aliases=("al",), replace=True)
        assert reg.get("al") == 3
        assert "a" not in reg  # old alias gone with the replaced entry

    def test_unknown_name_lists_registered_and_suggests(self):
        reg = Registry("widget")
        reg.register("rejection", 1)
        reg.register("direct", 2)
        with pytest.raises(RegistryError) as excinfo:
            reg.get("rejektion")
        message = str(excinfo.value)
        assert "'direct'" in message and "'rejection'" in message
        assert "did you mean 'rejection'" in message

    def test_unregister_removes_aliases(self):
        reg = Registry("widget")
        reg.register("alpha", 1, aliases=("a",))
        reg.unregister("a")
        assert "alpha" not in reg and "a" not in reg
        with pytest.raises(RegistryError):
            reg.get("alpha")

    def test_custom_error_class(self):
        reg = Registry("widget", error_cls=WalkError)
        with pytest.raises(WalkError):
            reg.get("nope")


class TestBuiltinRegistries:
    def test_models_registered(self):
        assert set(MODEL_REGISTRY) == {
            "deepwalk", "node2vec", "metapath2vec", "edge2vec", "fairwalk",
        }
        assert MODEL_REGISTRY.capabilities("node2vec")["second_order"] is True
        assert "p" in MODEL_REGISTRY.capabilities("node2vec")["param_spec"]
        assert MODEL_REGISTRY.capabilities("metapath2vec")["needs_hetero"] is True

    def test_sampler_registry_names(self):
        names = {
            "mh", "direct", "alias", "alias-first-order",
            "rejection", "knightking", "memory-aware",
        }
        assert set(SAMPLER_REGISTRY) == names
        assert SAMPLER_REGISTRY.canonical("metropolis-hastings") == "mh"

    def test_initializer_aliases_unified(self):
        assert set(INITIALIZER_REGISTRY) == {"random", "high-weight", "burn-in"}
        assert INITIALIZER_REGISTRY.canonical("weight") == "high-weight"
        assert INITIALIZER_REGISTRY.canonical("burnin") == "burn-in"

    def test_make_model_suggests_near_misses(self):
        from repro.graph.generators import cycle_graph
        from repro.walks.models import make_model

        with pytest.raises(ModelError) as excinfo:
            make_model("deepwlak", cycle_graph(5))
        assert "did you mean 'deepwalk'" in str(excinfo.value)

    def test_unknown_sampler_error_is_helpful(self, small_unweighted_graph):
        from repro.walks.vectorized import VectorizedWalkEngine

        with pytest.raises(WalkError) as excinfo:
            VectorizedWalkEngine(small_unweighted_graph, "deepwalk", sampler="aliass")
        assert "did you mean 'alias'" in str(excinfo.value)


class TestCustomInitializer:
    def test_registered_initializer_used_by_mh_engine(self, small_power_law_graph):
        from repro.registry import register_initializer
        from repro.walks.vectorized import VectorizedWalkEngine

        calls = []

        class FirstEdgeInitializer:
            @staticmethod
            def init_chains(stepper, m, rng):
                cur = stepper.fresh_lanes(m)[2]
                calls.append(cur.size)
                return stepper.graph.offsets[cur]

        register_initializer("first-edge-test", FirstEdgeInitializer)
        try:
            eng = VectorizedWalkEngine(
                small_power_law_graph, "deepwalk", sampler="mh",
                initializer="first-edge-test", seed=6,
            )
            corpus = eng.generate(num_walks=1, walk_length=5)
            assert corpus.token_count > 0
            assert calls, "registered initializer was never invoked"
            assert eng.stats()["initializations"] == sum(calls)
        finally:
            INITIALIZER_REGISTRY.unregister("first-edge-test")

    def test_initializer_instance_refused(self, small_power_law_graph):
        from repro.core.config import WalkConfig
        from repro.sampling.initialization import HighWeightInit
        from repro.walks.vectorized import VectorizedWalkEngine

        for strategy in (HighWeightInit, HighWeightInit(), object()):
            with pytest.raises(WalkError, match="initializer must be a registered name"):
                VectorizedWalkEngine(
                    small_power_law_graph, "deepwalk", sampler="mh", initializer=strategy
                )
            with pytest.raises(WalkError, match="initializer"):
                WalkConfig(initializer=strategy)

    def test_a_strategy_without_init_chains_is_refused(self, small_power_law_graph):
        from repro.registry import register_initializer
        from repro.walks.vectorized import VectorizedWalkEngine

        class Scalar:
            def initialize(self, graph, model, state, rng):
                return 0

        register_initializer("scalar-test", Scalar)
        try:
            with pytest.raises(WalkError, match="init_chains"):
                VectorizedWalkEngine(small_power_law_graph, "deepwalk", initializer="scalar-test")
        finally:
            INITIALIZER_REGISTRY.unregister("scalar-test")


class TestConfigFailFast:
    def test_unknown_sampler_rejected_at_config_time(self):
        from repro.core.config import WalkConfig

        with pytest.raises(WalkError, match="registered"):
            WalkConfig(sampler="bogus")

    def test_unknown_initializer_rejected_at_config_time(self):
        from repro.core.config import WalkConfig

        with pytest.raises(WalkError, match="registered"):
            WalkConfig(initializer="bogus")

    def test_names_canonicalised(self):
        from repro.core.config import WalkConfig

        config = WalkConfig(sampler="metropolis-hastings", initializer="burnin")
        assert config.sampler == "mh"
        assert config.initializer == "burn-in"

    def test_engine_accepts_initializer_aliases(self, small_power_law_graph):
        from repro.walks.vectorized import VectorizedWalkEngine

        for alias in ("weight", "burnin"):
            eng = VectorizedWalkEngine(
                small_power_law_graph, "node2vec", sampler="mh",
                initializer=alias, p=0.5, q=2.0, seed=4,
            )
            corpus = eng.generate(num_walks=1, walk_length=5)
            assert corpus.token_count > 0


class TestUniNetWalkStats:
    def test_generate_walks_exposes_stats(self, small_unweighted_graph):
        from repro import UniNet

        net = UniNet(small_unweighted_graph, model="deepwalk", seed=5)
        assert net.last_walk is None and net.last_stats is None
        corpus = net.generate_walks(num_walks=1, walk_length=6)
        assert corpus.num_walks == small_unweighted_graph.num_nodes
        walk = net.last_walk
        assert walk.ti >= 0.0 and walk.tw >= 0.0
        assert set(walk.timings) == {"init", "walk"}
        assert walk.stats["samples"] > 0
        assert "setup_seconds" in walk.stats
        assert net.last_stats is walk.stats
        assert walk.memory_bytes >= 0
        # neither the engine (chains/tables) nor the corpus is pinned
        assert walk.engine is None and walk.corpus is None
