"""Node classification: the paper's Fig. 5 protocol on one dataset.

Trains node2vec with each M-H initialization strategy on a
BlogCatalog-like multi-label graph and reports micro-/macro-F1 against
the training-label fraction — the experiment behind the paper's accuracy
claims for the M-H sampler.

Run:  python examples/node_classification.py
"""

from repro import UniNet, datasets
from repro.evaluation import classification_sweep
from repro.harness.tables import print_table


def main():
    graph, labels = datasets.load("blogcatalog", scale=0.3, seed=5)
    print(f"graph: {graph}, labels: {labels}")

    rows = []
    for strategy in ("high-weight", "random", "burn-in"):
        net = UniNet(
            graph,
            model="node2vec",
            sampler="mh",
            initializer=strategy,
            p=0.25,
            q=4.0,  # the paper's BlogCatalog setting
            seed=5,
        )
        result = net.train(num_walks=8, walk_length=40, dimensions=64, epochs=2)
        sweep = classification_sweep(
            result.embeddings,
            labels,
            train_fractions=(0.1, 0.3, 0.5, 0.7, 0.9),
            trials=3,
            seed=6,
        )
        for entry in sweep:
            rows.append(
                {
                    "initializer": strategy,
                    "train_fraction": entry["train_fraction"],
                    "micro_f1": entry["micro_f1_mean"],
                    "macro_f1": entry["macro_f1_mean"],
                }
            )

    print_table(
        ["initializer", "train_fraction", "micro_f1", "macro_f1"],
        rows,
        title="node2vec (p=0.25, q=4.0) on blogcatalog-like, by M-H initializer",
    )
    print(
        "Paper Fig. 5 context: all three initializers reach comparable F1,\n"
        "with high-weight >= random on average over repeated runs (single\n"
        "runs at this scale are noisy); burn-in matches high-weight accuracy\n"
        "at a much higher initialization cost (see the Fig. 6 benchmark)."
    )


if __name__ == "__main__":
    main()
