"""Ablation: word2vec trainer variants.

Throughput of the learning phase across training modes, the other half of
the paper's total-cost decomposition. Covers skip-gram vs CBOW and the
scaling knobs (dimensions), on whichever learn kernel this host resolves
(:attr:`Word2Vec.kernel`).
"""

import pytest

from repro.embedding import Word2Vec
from repro.graph import datasets
from repro.walks.vectorized import VectorizedWalkEngine


@pytest.fixture(scope="module")
def corpus_and_graph():
    graph = datasets.load_graph("amazon", scale=0.3, seed=30)
    engine = VectorizedWalkEngine(graph, "deepwalk", sampler="mh", seed=30)
    return graph, engine.generate(num_walks=2, walk_length=30)


@pytest.mark.parametrize(
    "label,kwargs",
    [
        ("sgns", {}),
        ("cbow", {"mode": "cbow"}),
    ],
)
def test_trainer_variants(benchmark, corpus_and_graph, label, kwargs):
    graph, corpus = corpus_and_graph

    def train():
        return Word2Vec(dimensions=64, epochs=1, seed=31, **kwargs).fit(
            corpus, num_nodes=graph.num_nodes
        )

    benchmark.pedantic(train, rounds=1, iterations=1, warmup_rounds=0)


@pytest.mark.parametrize("dimensions", [32, 128])
def test_dimension_scaling(benchmark, corpus_and_graph, dimensions):
    graph, corpus = corpus_and_graph

    def train():
        return Word2Vec(dimensions=dimensions, epochs=1, seed=32).fit(
            corpus, num_nodes=graph.num_nodes
        )

    benchmark.pedantic(train, rounds=1, iterations=1, warmup_rounds=0)
