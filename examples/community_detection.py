"""Community detection: embeddings + k-means, scored with NMI.

Community detection is one of the applications motivating the paper's
introduction. The pipeline: extract the largest connected component
(walks cannot cross components), embed it with deepwalk, cluster the
embeddings with k-means, and score against the planted ground truth with
normalised mutual information.

Run:  python examples/community_detection.py
"""

from repro import UniNet
from repro.evaluation.clustering import clustering_experiment
from repro.graph.components import largest_component, remap_labels
from repro.graph.generators import planted_partition
from repro.harness.tables import print_table


def main():
    graph, labels = planted_partition(
        800, 5, within_degree=14.0, between_degree=2.0, seed=21
    )
    print(f"planted-partition graph: {graph} with {labels.num_classes} communities")

    # standard NRL preprocessing: embed the largest connected component
    component, kept = largest_component(graph)
    labels = remap_labels(labels, kept)
    print(f"largest component: {component.num_nodes} nodes "
          f"({graph.num_nodes - component.num_nodes} dropped)")

    rows = []
    # node2vec with q < 1 explores outward (DFS-like), the setting its
    # paper recommends for homophily/community structure
    for model, params in [("deepwalk", {}), ("node2vec", {"p": 1.0, "q": 0.5})]:
        net = UniNet(component, model=model, seed=21, **params)
        result = net.train(num_walks=8, walk_length=40, dimensions=48, epochs=2)
        out = clustering_experiment(result.embeddings, labels, seed=22)
        rows.append(
            {
                "model": model,
                "nmi": out["nmi"],
                "clusters": out["num_clusters"],
                "walk+train_s": result.tt,
            }
        )
    print_table(
        ["model", "nmi", "clusters", "walk+train_s"],
        rows,
        title="k-means over embeddings vs planted communities (NMI; 1.0 = perfect)",
    )
    assert all(row["nmi"] > 0.3 for row in rows), "embeddings lost the communities"
    print("Both models recover the planted structure far above chance (NMI ~ 0).")


if __name__ == "__main__":
    main()
