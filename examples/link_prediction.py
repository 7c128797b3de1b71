"""Link prediction with node2vec embeddings (evaluation extension).

Hides 30% of a graph's edges, embeds the remainder, and scores held-out
edges against sampled non-edges with Hadamard edge features — the
node2vec paper's protocol, here exercising UniNet end to end.

Run:  python examples/link_prediction.py
"""

from repro import UniNet, datasets
from repro.evaluation import link_prediction_experiment
from repro.harness.tables import print_table


def main():
    graph = datasets.load_graph("amazon", scale=0.4, seed=8)
    print(f"graph: {graph}")

    def embed(train_graph):
        net = UniNet(train_graph, model="node2vec", p=1.0, q=0.5, seed=8)
        result = net.train(num_walks=8, walk_length=40, dimensions=64, epochs=2)
        return result.embeddings

    rows = []
    for operator in ("hadamard", "average", "l1", "l2"):
        out = link_prediction_experiment(
            graph, embed, test_fraction=0.3, operator=operator, seed=8
        )
        rows.append(
            {
                "operator": operator,
                "auc": out["auc"],
                "positives": out["num_positive"],
                "negatives": out["num_negative"],
            }
        )
    print_table(
        ["operator", "auc", "positives", "negatives"],
        rows,
        title="link prediction AUC by edge-feature operator (node2vec)",
    )


if __name__ == "__main__":
    main()
