"""Heterogeneous embeddings with metapath2vec on an academic network.

Builds an AMiner-like author/paper/venue graph with planted research
areas, walks it under the "A-P-V-P-A" metapath, and shows that author
embeddings cluster by research area — the paper's heterogeneous accuracy
experiment in miniature. Also demonstrates edge2vec with a learned
edge-type transition matrix on the same graph.

Run:  python examples/heterogeneous_metapath.py
"""

import numpy as np

from repro import UniNet, datasets
from repro.evaluation import classification_sweep
from repro.harness.tables import print_table
from repro.walks.models.edge2vec import fit_transition_matrix


def main():
    graph, labels = datasets.load("aminer", scale=0.15, seed=9)
    print(f"graph: {graph}")
    print(f"author labels: {labels} (research areas)")

    # --- metapath2vec ---------------------------------------------------
    net = UniNet(graph, model="metapath2vec", metapath="APVPA", seed=9)
    result = net.train(num_walks=10, walk_length=41, dimensions=64, epochs=3)
    print(f"\nmetapath2vec: walks+training took {result.tt:.2f}s")

    sweep = classification_sweep(
        result.embeddings, labels, train_fractions=(0.3, 0.7), trials=3, seed=10
    )
    print_table(
        ["train_fraction", "micro_f1_mean", "macro_f1_mean"],
        sweep,
        title="author research-area classification (metapath2vec)",
    )

    # sanity: same-area authors should be closer than cross-area ones
    vectors = result.embeddings
    areas = labels.class_ids()
    authors = labels.node_ids
    rng = np.random.default_rng(11)
    same, cross = [], []
    for __ in range(300):
        a, b = rng.choice(authors.size, 2, replace=False)
        sim = vectors.similarity(int(authors[a]), int(authors[b]))
        (same if areas[a] == areas[b] else cross).append(sim)
    print(
        f"mean cosine, same-area pairs:  {np.mean(same):.3f}\n"
        f"mean cosine, cross-area pairs: {np.mean(cross):.3f}"
    )

    # --- edge2vec with a learned transition matrix ----------------------
    matrix = fit_transition_matrix(graph, p=1.0, q=1.0, iterations=2, seed=12)
    print(f"\nedge2vec learned type-transition matrix:\n{np.round(matrix, 2)}")
    e2v = UniNet(graph, model="edge2vec", p=1.0, q=1.0, transition_matrix=matrix, seed=12)
    e2v_result = e2v.train(num_walks=6, walk_length=30, dimensions=64, epochs=2)
    e2v_sweep = classification_sweep(
        e2v_result.embeddings, labels, train_fractions=(0.5,), trials=3, seed=13
    )
    print_table(
        ["train_fraction", "micro_f1_mean", "macro_f1_mean"],
        e2v_sweep,
        title="author research-area classification (edge2vec)",
    )


if __name__ == "__main__":
    main()
