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

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from repro.embedding import Word2Vec
from repro.evaluation import classification_sweep, link_prediction_experiment
from repro.graph import datasets
from repro.walks.vectorized import VectorizedWalkEngine

from baselines import run_legacy_walks
from _common import commit_label, record_table, run_once

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


# ---------------------------------------------------------------------------
# the learn phase's accuracy gate: this tree against a parent checkout
# ---------------------------------------------------------------------------
#: (model, walk parameters, stand-in, scale): each model on the stand-in
#: the benchmarks above and Fig. 6/7 already use for it. Fairwalk's Fig. 7
#: stand-in (youtube) has no labels, so it runs on aminer, as Table I's.
ACCURACY_MODELS = [
    ("deepwalk", {}, "blogcatalog", 0.3),
    ("node2vec", {"p": 0.25, "q": 4.0}, "blogcatalog", 0.3),
    ("metapath2vec", {"metapath": "APVPA"}, "aminer", 0.12),
    ("edge2vec", {"p": 0.25, "q": 0.25}, "aminer", 0.12),
    ("fairwalk", {"p": 1.0, "q": 1.0}, "aminer", 0.12),
]
ACCURACY_SEEDS = (1, 2, 3, 4, 5)
LINK_OPERATORS = ("hadamard", "average", "l1", "l2")
_REPO = Path(__file__).resolve().parents[1]


def accuracy_rows():
    """micro-F1 at 50 % labels per model and ``batch_pairs``, and
    link-prediction AUC per operator (deepwalk, blogcatalog 0.3), one
    value per seed: the ``train_e2e`` learn settings (10 x 40 walks,
    d = 128, window 5, 5 negatives, one epoch)."""
    rows = []
    for model, params, name, scale in ACCURACY_MODELS:
        graph, labels = datasets.load(name, scale=scale, seed=1)
        for batch_pairs in (1024, 8192):
            values = []
            for seed in ACCURACY_SEEDS:
                corpus = VectorizedWalkEngine(graph, model, sampler="mh", seed=seed, **params)
                corpus = corpus.generate(num_walks=10, walk_length=40)
                trainer = Word2Vec(128, window=5, negative=5, batch_pairs=batch_pairs, seed=seed)
                vectors = trainer.fit(corpus, num_nodes=graph.num_nodes)
                sweep = classification_sweep(
                    vectors, labels, train_fractions=(0.5,), trials=3, seed=seed
                )
                values.append(sweep[0]["micro_f1_mean"])
            rows.append({"metric": "micro_f1", "case": f"{model} {name} {scale} bp={batch_pairs}",
                         "values": values})
    graph = datasets.load_graph("blogcatalog", scale=0.3, seed=1)
    aucs = {op: [] for op in LINK_OPERATORS}
    for seed in ACCURACY_SEEDS:
        embedded = {}

        def embed(train_graph, seed=seed, embedded=embedded):
            # every operator of one seed splits the same edges: embed once
            if not embedded:
                walks = VectorizedWalkEngine(train_graph, "deepwalk", sampler="mh", seed=seed)
                corpus = walks.generate(num_walks=10, walk_length=40)
                embedded["kv"] = Word2Vec(128, seed=seed).fit(corpus, num_nodes=graph.num_nodes)
            return embedded["kv"]

        for op in LINK_OPERATORS:
            aucs[op].append(link_prediction_experiment(graph, embed, operator=op, seed=seed)["auc"])
    rows += [{"metric": "link_auc", "case": f"deepwalk blogcatalog 0.3 {op}", "values": aucs[op]}
             for op in LINK_OPERATORS]
    return rows


def _rows_of(src):
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, __file__, "--accuracy-rows"], env=env, capture_output=True, text=True,
        check=True, timeout=3600,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_learn_accuracy_gate():
    """Every accuracy row of this tree beside the parent's, 5 seeds each,
    with ``BENCH_PARENT_SRC`` naming the ``src`` directory of a checkout
    of the parent (``git clone . /tmp/parent && git -C /tmp/parent
    checkout <commit>``); each side runs in a fresh process. The gate:
    no mean of this tree lies below the parent's 5-seed range (the
    record says which lie within it and which above). Writes
    ``results/learn_accuracy.txt``."""
    parent_src = os.environ.get("BENCH_PARENT_SRC")
    if not parent_src:
        pytest.skip("set BENCH_PARENT_SRC to the src directory of a parent checkout")
    change, parent = _rows_of(_REPO / "src"), _rows_of(parent_src)
    table, below = [], []
    for ours, theirs in zip(change, parent):
        assert ours["case"] == theirs["case"]
        low, high = min(theirs["values"]), max(theirs["values"])
        mean = statistics.mean(ours["values"])
        if mean < low:
            below.append(ours["case"])
        table.append({
            "metric": ours["metric"], "case": ours["case"],
            "parent_mean": f"{statistics.mean(theirs['values']):.4f}",
            "parent_range": f"{low:.4f}-{high:.4f}",
            "change_mean": f"{mean:.4f}",
            "change_range": f"{min(ours['values']):.4f}-{max(ours['values']):.4f}",
            "range": "BELOW" if mean < low else ("above" if mean > high else "within"),
            "parent_seeds": " ".join(f"{v:.4f}" for v in theirs["values"]),
            "change_seeds": " ".join(f"{v:.4f}" for v in ours["values"]),
        })
    record_table(
        "learn_accuracy",
        ["metric", "case", "parent_mean", "parent_range", "change_mean", "change_range", "range",
         "parent_seeds", "change_seeds"],
        table,
        title=(
            f"learn-phase accuracy gate: change {commit_label(_REPO)} against parent "
            f"{commit_label(Path(parent_src).parent)}; seeds {list(ACCURACY_SEEDS)} (walks, "
            "trainer, split); micro-F1 at 50 % labels, 3 trials; link AUC: 30 % of edges held out"
        ),
    )
    assert not below, f"change means below the parent's 5-seed range: {below}"


if __name__ == "__main__" and sys.argv[1:] == ["--accuracy-rows"]:
    print(json.dumps(accuracy_rows()))
