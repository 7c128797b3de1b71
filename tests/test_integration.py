"""End-to-end integration tests across the whole stack.

These are the "does the reproduction actually work" checks: every model x
sampler combination trains, embeddings carry enough structure for
downstream classification to beat chance, and the simulated-memory story
(alias OOMs, M-H fits) holds on one realistic configuration.
"""

import numpy as np
import pytest

from repro import UniNet
from repro.errors import SimulatedOutOfMemoryError
from repro.evaluation import classification_sweep
from repro.graph import datasets
from repro.sampling import MemoryBudget
from repro.sampling.memory_model import mh_bytes, second_order_alias_bytes
from repro.walks.models import make_model


@pytest.fixture(scope="module")
def labeled_graph():
    return datasets.load("blogcatalog", scale=0.15, seed=11)


@pytest.fixture(scope="module")
def hetero_graph():
    return datasets.load("aminer", scale=0.05, seed=12)


class TestEveryModelTrains:
    @pytest.mark.parametrize("sampler", ["mh", "direct", "rejection"])
    def test_deepwalk_and_node2vec(self, labeled_graph, sampler):
        graph, __ = labeled_graph
        for model, params in [("deepwalk", {}), ("node2vec", {"p": 0.5, "q": 2.0})]:
            net = UniNet(graph, model=model, sampler=sampler, seed=13, **params)
            result = net.train(num_walks=1, walk_length=10, dimensions=8, epochs=1)
            assert len(result.embeddings) > 0

    @pytest.mark.parametrize(
        "model,params",
        [
            ("metapath2vec", {"metapath": "APA"}),
            ("metapath2vec", {"metapath": "APVPA"}),
            ("edge2vec", {"p": 0.5, "q": 2.0}),
            ("fairwalk", {"p": 0.5, "q": 2.0}),
        ],
    )
    def test_heterogeneous_models(self, hetero_graph, model, params):
        graph, __ = hetero_graph
        net = UniNet(graph, model=model, sampler="mh", seed=14, **params)
        result = net.train(num_walks=1, walk_length=9, dimensions=8, epochs=1)
        assert len(result.embeddings) > 0


class TestDownstreamAccuracy:
    def test_deepwalk_beats_chance_on_multilabel(self, labeled_graph):
        graph, labels = labeled_graph
        net = UniNet(graph, model="deepwalk", seed=15)
        result = net.train(
            num_walks=6, walk_length=30, dimensions=48, epochs=2
        )
        sweep = classification_sweep(
            result.embeddings, labels, train_fractions=(0.5,), trials=2, seed=16
        )
        # random guessing on ~20 overlapping groups scores far below this
        assert sweep[0]["micro_f1_mean"] > 0.25

    def test_metapath2vec_classifies_authors(self, hetero_graph):
        graph, labels = hetero_graph
        net = UniNet(graph, model="metapath2vec", metapath="APVPA", seed=17)
        result = net.train(
            num_walks=8, walk_length=25, dimensions=48, epochs=3
        )
        sweep = classification_sweep(
            result.embeddings, labels, train_fractions=(0.5,), trials=2, seed=18
        )
        num_classes = labels.num_classes
        assert sweep[0]["micro_f1_mean"] > 1.5 / num_classes


class TestMemoryStory:
    def test_alias_ooms_mh_fits_same_budget(self, labeled_graph):
        """Table VII's central claim at test scale."""
        graph, __ = labeled_graph
        model = make_model("node2vec", graph, p=0.5, q=2.0)
        budget_bytes = second_order_alias_bytes(graph, model) // 2
        assert budget_bytes > mh_bytes(graph, model)

        with pytest.raises(SimulatedOutOfMemoryError):
            UniNet(
                graph, model="node2vec", sampler="alias",
                budget=MemoryBudget(budget_bytes), p=0.5, q=2.0, seed=19,
            ).generate_walks(num_walks=1, walk_length=5)

        net = UniNet(
            graph, model="node2vec", sampler="mh",
            budget=MemoryBudget(budget_bytes), p=0.5, q=2.0, seed=19,
        )
        corpus = net.generate_walks(num_walks=1, walk_length=5)
        assert corpus.token_count > 0


class TestInitializationStrategies:
    def test_high_weight_at_least_as_accurate_as_random(self, labeled_graph):
        """Fig. 5's observation: with node2vec's skewed targets, random
        initialization costs accuracy while high-weight keeps it. At the
        small walk counts used here each chain is consulted only a few
        times, so the effect is amplified relative to the paper's
        full-scale runs — the *ordering* is the claim under test."""
        graph, labels = labeled_graph
        scores = {}
        for strategy in ("random", "high-weight"):
            net = UniNet(
                graph, model="node2vec", sampler="mh", initializer=strategy,
                p=0.25, q=2.0, seed=20,
            )
            result = net.train(num_walks=5, walk_length=25, dimensions=32, epochs=2)
            sweep = classification_sweep(
                result.embeddings, labels, train_fractions=(0.5,), trials=2, seed=21
            )
            scores[strategy] = sweep[0]["micro_f1_mean"]
        assert scores["high-weight"] >= scores["random"] - 0.05
        assert scores["high-weight"] > 0.3


class TestAcceptanceRatioShape:
    def test_table2_shape(self, labeled_graph):
        """Rejection acceptance: ~1.0 at (1,1), degraded at (0.25,1)."""
        graph, __ = labeled_graph
        ratios = {}
        for p, q in [(1.0, 1.0), (0.25, 1.0)]:
            net = UniNet(graph, model="node2vec", sampler="rejection", p=p, q=q, seed=22)
            config = net.walk_config(1, 10)
            from repro.core.pipeline import generate_walk_result

            walked = generate_walk_result(graph, net.model, config, seed=22)
            ratios[(p, q)] = walked.stats["acceptance_ratio"]
        assert ratios[(1.0, 1.0)] > 0.95
        assert ratios[(0.25, 1.0)] < ratios[(1.0, 1.0)]
