"""Fig. 5: node-classification accuracy of UniNet vs the originals.

The paper's accuracy study: multi-label classification micro/macro-F1 vs
training fraction for deepwalk, node2vec (with the three M-H
initialization strategies) and metapath2vec, comparing UniNet against the
original implementations ("Std"). Expected shape: all UniNet variants
track the original within noise; high-weight init >= random init for the
skewed node2vec targets.

Here "Std" walks come from the legacy pure-Python baselines and all
corpora share one word2vec trainer, exactly like the paper (the sampler
is the only variable).
"""

import pytest

from repro.embedding import Word2Vec
from repro.evaluation import classification_sweep
from repro.graph import datasets
from repro.legacy import run_legacy_walks
from repro.walks.vectorized import VectorizedWalkEngine

from _common import record_table, run_once

FRACTIONS = (0.1, 0.5, 0.9)
NUM_WALKS, WALK_LENGTH = 6, 30


def _embed_and_score(graph, labels, corpus, seed):
    trainer = Word2Vec(dimensions=64, window=5, epochs=2, seed=seed)
    vectors = trainer.fit(corpus, num_nodes=graph.num_nodes)
    return classification_sweep(
        vectors, labels, train_fractions=FRACTIONS, trials=2, seed=seed
    )


def _rows_for(config_name, sweep):
    return [
        {
            "config": config_name,
            "train_fraction": entry["train_fraction"],
            "micro_f1": entry["micro_f1_mean"],
            "macro_f1": entry["macro_f1_mean"],
        }
        for entry in sweep
    ]


def test_fig5_homogeneous_accuracy(benchmark):
    """BlogCatalog panel: deepwalk + node2vec (Std vs UniNet inits)."""
    graph, labels = datasets.load("blogcatalog", scale=0.3, seed=5)
    p, q = 0.25, 4.0  # the paper's BlogCatalog node2vec setting

    def run():
        rows = []
        legacy_corpus, __ = run_legacy_walks(
            graph, "deepwalk", num_walks=NUM_WALKS, walk_length=WALK_LENGTH, seed=6
        )
        rows += _rows_for("deepwalk Std", _embed_and_score(graph, labels, legacy_corpus, 7))
        corpus = VectorizedWalkEngine(graph, "deepwalk", sampler="mh", seed=8).generate(
            NUM_WALKS, WALK_LENGTH
        )
        rows += _rows_for("deepwalk UniNet", _embed_and_score(graph, labels, corpus, 7))

        legacy_n2v, __ = run_legacy_walks(
            graph, "node2vec", num_walks=NUM_WALKS, walk_length=WALK_LENGTH, p=p, q=q, seed=9
        )
        rows += _rows_for("node2vec Std", _embed_and_score(graph, labels, legacy_n2v, 10))
        for strategy in ("high-weight", "random", "burn-in"):
            eng = VectorizedWalkEngine(
                graph, "node2vec", sampler="mh", initializer=strategy, p=p, q=q, seed=11
            )
            corpus = eng.generate(NUM_WALKS, WALK_LENGTH)
            rows += _rows_for(
                f"node2vec UniNet({strategy})", _embed_and_score(graph, labels, corpus, 10)
            )
        return rows

    rows = run_once(benchmark, run)
    record_table(
        "fig5_blogcatalog_accuracy",
        ["config", "train_fraction", "micro_f1", "macro_f1"],
        rows,
        title="Fig. 5 analog (blogcatalog-like): classification F1 by configuration",
    )
    mid = {r["config"]: r["micro_f1"] for r in rows if r["train_fraction"] == 0.5}
    # UniNet deepwalk tracks the original implementation
    assert abs(mid["deepwalk UniNet"] - mid["deepwalk Std"]) < 0.12
    # high-weight init does not lose to random init
    assert mid["node2vec UniNet(high-weight)"] >= mid["node2vec UniNet(random)"] - 0.05


def test_fig5_metapath2vec_accuracy(benchmark):
    """AMiner panel: metapath2vec Std vs UniNet."""
    graph, labels = datasets.load("aminer", scale=0.12, seed=12)

    def run():
        rows = []
        legacy_corpus, __ = run_legacy_walks(
            graph, "metapath2vec", num_walks=NUM_WALKS, walk_length=WALK_LENGTH,
            metapath="APVPA", seed=13,
        )
        rows += _rows_for(
            "metapath2vec Std", _embed_and_score(graph, labels, legacy_corpus, 14)
        )
        eng = VectorizedWalkEngine(
            graph, "metapath2vec", sampler="mh", metapath="APVPA", seed=15
        )
        corpus = eng.generate(NUM_WALKS, WALK_LENGTH)
        rows += _rows_for(
            "metapath2vec UniNet", _embed_and_score(graph, labels, corpus, 14)
        )
        return rows

    rows = run_once(benchmark, run)
    record_table(
        "fig5_aminer_accuracy",
        ["config", "train_fraction", "micro_f1", "macro_f1"],
        rows,
        title="Fig. 5 analog (aminer-like): metapath2vec author classification",
    )
    mid = {r["config"]: r["micro_f1"] for r in rows if r["train_fraction"] == 0.5}
    assert abs(mid["metapath2vec UniNet"] - mid["metapath2vec Std"]) < 0.12
    chance = 1.0 / labels.num_classes
    assert mid["metapath2vec UniNet"] > chance + 0.1
