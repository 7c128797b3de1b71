"""Tests for the UniNet facade, configs and the timed pipeline."""

import numpy as np
import pytest

from repro import UniNet, TrainConfig, WalkConfig
from repro.core.pipeline import generate_walk_result, train_pipeline
from repro.errors import SimulatedOutOfMemoryError, WalkError
from repro.sampling import MemoryBudget
from repro.sampling.memory_model import second_order_alias_bytes
from repro.walks.models import make_model


class TestConfigs:
    def test_walk_config_defaults(self):
        config = WalkConfig()
        assert config.num_walks == 10
        assert config.walk_length == 80
        assert config.sampler == "mh"

    def test_walk_config_validation(self):
        with pytest.raises(WalkError):
            WalkConfig(num_walks=0)
        with pytest.raises(WalkError):
            WalkConfig(walk_length=0)

    def test_train_config_kwargs(self):
        config = TrainConfig(dimensions=32, epochs=2, extra={"batch_pairs": 1024})
        kwargs = config.word2vec_kwargs()
        assert kwargs["epochs"] == 2
        assert kwargs["batch_pairs"] == 1024
        assert "dimensions" not in kwargs


class TestPipeline:
    def test_walk_only(self, small_unweighted_graph):
        model = make_model("deepwalk", small_unweighted_graph)
        walked = generate_walk_result(
            small_unweighted_graph, model, WalkConfig(num_walks=1, walk_length=10), seed=0
        )
        assert walked.corpus.num_walks == small_unweighted_graph.num_nodes
        assert walked.timings["init"] >= 0 and walked.timings["walk"] >= 0

    def test_live_trainer_and_chain_store_equal_the_steps_by_hand(self, small_unweighted_graph):
        """What an incremental refresh asks of the driver: walk from a few
        start nodes on a persistent chain store, feed a live trainer."""
        from repro.walks.manager import ChainStore
        from repro.walks.vectorized import VectorizedWalkEngine

        graph = small_unweighted_graph
        config = WalkConfig(num_walks=2, walk_length=10)
        starts = np.arange(0, graph.num_nodes, 3)

        def trained():
            first = train_pipeline(graph, "node2vec", config, TrainConfig(dimensions=8), seed=4)
            model = make_model("node2vec", graph)
            return first.trainer, model, ChainStore(graph, model)

        trainer, model, store = trained()
        result = train_pipeline(
            graph, model, config, seed=9, start_nodes=starts, trainer=trainer, chain_store=store
        )

        by_hand, model, hand_store = trained()
        engine = VectorizedWalkEngine(graph, model, config=config, chain_store=hand_store, seed=9)
        corpus = engine.generate(start_nodes=starts)  # the shape is the config's
        by_hand.partial_fit(corpus)
        vectors = by_hand.finalize().vectors

        assert result.trainer is trainer and not result.streaming
        assert np.array_equal(result.corpus.walks, corpus.walks)
        assert np.array_equal(result.embeddings.vectors, vectors)
        assert store.num_initialized > 0
        assert np.array_equal(store.last, hand_store.last)
        assert result.corpus_summary == {
            "num_walks": corpus.num_walks, "token_count": corpus.token_count,
        }
        assert result.peak_corpus_bytes == corpus.nbytes
        assert result.sampler_stats["learn_kernel"] == trainer.kernel
        assert result.tt == result.ti + result.tw + result.tl

    def test_full_pipeline_timings(self, small_unweighted_graph):
        result = train_pipeline(
            small_unweighted_graph,
            "deepwalk",
            WalkConfig(num_walks=2, walk_length=12),
            TrainConfig(dimensions=16, epochs=1),
            seed=1,
        )
        assert result.embeddings is not None
        assert result.tl > 0
        assert result.tt == pytest.approx(result.ti + result.tw + result.tl)

    def test_skip_learning(self, small_unweighted_graph):
        result = train_pipeline(
            small_unweighted_graph,
            "deepwalk",
            WalkConfig(num_walks=1, walk_length=8),
            seed=2,
            skip_learning=True,
        )
        assert result.embeddings is None
        assert result.tl == 0.0
        assert result.corpus.num_walks > 0

    def test_sampler_stats_recorded(self, small_unweighted_graph):
        result = train_pipeline(
            small_unweighted_graph,
            "node2vec",
            WalkConfig(num_walks=1, walk_length=8, sampler="rejection"),
            seed=3,
            skip_learning=True,
        )
        assert 0 < result.sampler_stats["acceptance_ratio"] <= 1.0

    def test_budget_enforced(self, small_power_law_graph):
        model = make_model("node2vec", small_power_law_graph, p=0.5, q=2.0)
        budget = MemoryBudget(second_order_alias_bytes(small_power_law_graph, model) // 4)
        with pytest.raises(SimulatedOutOfMemoryError):
            train_pipeline(
                small_power_law_graph,
                model,
                WalkConfig(num_walks=1, walk_length=5, sampler="alias"),
                budget=budget,
                skip_learning=True,
            )


class TestUniNetFacade:
    def test_train_returns_embeddings(self, small_unweighted_graph):
        net = UniNet(small_unweighted_graph, model="deepwalk", seed=4)
        result = net.train(num_walks=2, walk_length=10, dimensions=16, epochs=1)
        assert len(result.embeddings) == small_unweighted_graph.num_nodes
        assert result.embeddings.dimensions == 16

    def test_generate_walks_only(self, small_unweighted_graph):
        net = UniNet(small_unweighted_graph, model="deepwalk", seed=5)
        corpus = net.generate_walks(num_walks=1, walk_length=6)
        assert corpus.num_walks == small_unweighted_graph.num_nodes

    def test_model_params_forwarded(self, small_unweighted_graph):
        net = UniNet(small_unweighted_graph, model="node2vec", p=0.25, q=4.0)
        assert net.model.p == 0.25
        assert net.model.q == 4.0

    def test_metapath_facade(self, academic):
        graph, __ = academic
        net = UniNet(graph, model="metapath2vec", metapath="APA", seed=6)
        corpus = net.generate_walks(num_walks=1, walk_length=7)
        starts = corpus.walks[:, 0]
        assert np.all(graph.node_types[starts] == 0)

    def test_sampler_override_per_call(self, small_unweighted_graph):
        net = UniNet(small_unweighted_graph, model="deepwalk", sampler="mh", seed=7)
        config = net.walk_config(1, 5, sampler="direct")
        assert config.sampler == "direct"

    def test_walk_overrides_in_train(self, small_unweighted_graph):
        net = UniNet(small_unweighted_graph, model="deepwalk", seed=8)
        result = net.train(
            num_walks=1, walk_length=8, dimensions=8, epochs=1,
            walk_overrides={"sampler": "direct"},
        )
        assert result.embeddings is not None

    def test_seed_reproducibility(self, small_unweighted_graph):
        a = UniNet(small_unweighted_graph, model="deepwalk", seed=9).train(
            num_walks=1, walk_length=8, dimensions=8, epochs=1
        )
        b = UniNet(small_unweighted_graph, model="deepwalk", seed=9).train(
            num_walks=1, walk_length=8, dimensions=8, epochs=1
        )
        assert np.array_equal(a.embeddings.vectors, b.embeddings.vectors)

    def test_repr(self, small_unweighted_graph):
        net = UniNet(small_unweighted_graph, model="deepwalk")
        assert "deepwalk" in repr(net)

    def test_custom_model_instance(self, small_unweighted_graph):
        """The unified abstraction: a user-defined model runs unchanged."""
        from repro.walks.models.base import RandomWalkModel

        class InverseDegreeWalk(RandomWalkModel):
            """Biases transitions toward low-degree neighbours."""

            name = "inverse-degree"
            order = 1

            def batch_dynamic_weight(self, prev, prev_off, cur, step, edge_offsets):
                u = self.graph.targets[edge_offsets]
                return 1.0 / np.maximum(self.graph.degrees()[u], 1).astype(float)

        model = InverseDegreeWalk(small_unweighted_graph)
        net = UniNet(small_unweighted_graph, model=model, seed=10)
        corpus = net.generate_walks(num_walks=1, walk_length=10)
        assert corpus.token_count > 0
