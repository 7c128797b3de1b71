"""Quickstart: embed a network with UniNet in a dozen lines.

Builds a small social-network-like graph, trains deepwalk embeddings with
the M-H edge sampler (the library default) and inspects the result.

Run:  python examples/quickstart.py
"""

from repro import UniNet, datasets

def main():
    # a BlogCatalog-like synthetic social network with group labels
    graph, labels = datasets.load("blogcatalog", scale=0.3, seed=7)
    print(f"graph: {graph}")

    # UniNet binds the network to a random-walk model; the M-H edge
    # sampler with high-weight initialization is the default engine.
    net = UniNet(graph, model="deepwalk", seed=7)
    result = net.train(
        num_walks=8,
        walk_length=40,
        dimensions=64,
        epochs=2,
    )

    print(
        f"phases: init={result.ti:.2f}s walk={result.tw:.2f}s "
        f"learn={result.tl:.2f}s total={result.tt:.2f}s"
    )

    vectors = result.embeddings
    anchor = 0
    print(f"\nnodes most similar to {anchor}:")
    for node, score in vectors.most_similar(anchor, topn=5):
        shared = (
            labels.indicator_matrix()[anchor] & labels.indicator_matrix()[node]
        ).sum()
        print(f"  node {node:5d}  cosine={score:.3f}  shared_groups={shared}")


if __name__ == "__main__":
    main()
