"""Link prediction with node2vec embeddings (evaluation extension).

Hides 30% of a graph's edges, embeds the remainder, and scores held-out
edges against sampled non-edges with four edge-feature operators — the
node2vec paper's protocol, here exercising UniNet end to end.

The graph is the blogcatalog stand-in, whose planted communities make
held-out edges predictable. On a Chung-Lu graph (the amazon stand-in)
edges are independent given the degrees, there is nothing to predict,
and every operator reads chance: 0.5.

Run:  python examples/link_prediction.py
"""

from repro import UniNet, datasets
from repro.evaluation import link_prediction_experiment
from repro.harness.tables import print_table


def main():
    graph = datasets.load_graph("blogcatalog", scale=0.3, seed=8)
    print(f"graph: {graph}")

    def embed(train_graph):
        net = UniNet(train_graph, model="node2vec", p=1.0, q=0.5, seed=8)
        result = net.train(num_walks=10, walk_length=40, dimensions=128)
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
