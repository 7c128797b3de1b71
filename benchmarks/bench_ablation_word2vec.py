"""Ablation: word2vec trainer variants.

Throughput of the learning phase across training modes, the other half of
the paper's total-cost decomposition. Covers skip-gram vs CBOW vs the
batch-shared-negative fast path, and the scaling knobs (dimensions).

``test_per_pair_vs_shared_negatives`` runs on plain pytest and writes
``results/word2vec_kernels.txt``: per-pair SGNS on whichever learn
kernel this host resolves (:attr:`Word2Vec.kernel`) against
``negative_sharing=True``. ``negative_sharing`` exists because the
per-pair path was slow in NumPy; with that path compiled, this is the
row that says whether the flag still buys anything.
"""

import pytest

from _common import record_table, timed
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
        ("sgns-shared-neg", {"negative_sharing": True}),
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
        return Word2Vec(
            dimensions=dimensions, epochs=1, negative_sharing=True, seed=32
        ).fit(corpus, num_nodes=graph.num_nodes)

    benchmark.pedantic(train, rounds=1, iterations=1, warmup_rounds=0)


def test_per_pair_vs_shared_negatives(corpus_and_graph):
    graph, corpus = corpus_and_graph
    rows = []
    for dimensions in (64, 128):
        for label, kwargs in (("per-pair", {}), ("shared", {"negative_sharing": True})):
            best = float("inf")
            for __ in range(3):
                trainer = Word2Vec(dimensions=dimensions, epochs=1, seed=33, **kwargs)
                __, seconds = timed(trainer.fit, corpus, num_nodes=graph.num_nodes)
                best = min(best, seconds)
            rows.append(
                [dimensions, label, trainer.kernel, round(best, 3), int(corpus.token_count / best)]
            )
    record_table(
        "word2vec_kernels",
        ["dim", "negatives", "kernel", "fit_s", "tokens_per_s"],
        rows,
        title=(
            f"per-pair SGNS vs batch-shared negatives (n={graph.num_nodes}, "
            f"{corpus.token_count} tokens, best of 3)"
        ),
    )
    assert all(row[3] > 0 for row in rows)
