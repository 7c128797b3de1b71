"""Evolving graphs: replay an edge stream with incremental re-embedding.

Trains once, then applies a stream of edge deltas — additions, removals,
a reweight, and two brand-new nodes — refreshing the embeddings
incrementally after each step: only nodes within the walk-length horizon
of the touched edges are re-walked, the live word2vec trainer absorbs
the fresh corpus via partial_fit, and the M-H sampler revalidates just
the chain states the delta touched (no table rebuilds).

Run:  python examples/dynamic_updates.py
"""

import numpy as np

from repro import GraphDelta, UniNet, datasets


def main():
    graph = datasets.load("amazon", scale=0.2, seed=7)
    print(f"graph: {graph}")

    net = UniNet(graph, model="deepwalk", seed=7)
    result = net.train(num_walks=6, walk_length=30, dimensions=64, epochs=1)
    print(f"initial train: {len(result.embeddings)} embeddings in {result.tt:.2f}s")

    n = graph.num_nodes
    stream = [
        # a burst of new relationships around node 0
        GraphDelta.add_edges([0, 0, 1], [n - 1, n - 2, n - 3]),
        # one of them was a mistake; another gets a stronger weight
        GraphDelta.remove_edges([0], [n - 2]).compose(
            GraphDelta.reweight_edges([0], [n - 1], [2.5])
        ),
        # two new users arrive and attach to the hub
        GraphDelta(add_nodes=2, add_src=[n, n + 1, 0, 1], add_dst=[0, 1, n, n + 1]),
    ]

    for step, delta in enumerate(stream):
        update = net.update(delta)  # graph rebuilt, M-H chains revalidated
        # horizon=4: re-walk only the 4-hop neighbourhood of the touched
        # edges (the full walk-length horizon floods a graph this small)
        refresh = net.refresh_embeddings(num_walks=2, horizon=4)
        print(
            f"step {step}: {delta!r} -> "
            f"{update.sampler_refresh.get('invalidated_states', 0)} chains invalidated "
            f"in {1000 * update.seconds:.1f} ms; re-walked "
            f"{refresh.corpus_summary['num_walks']} walks around "
            f"{update.affected_nodes.size} touched endpoints in {refresh.tt:.2f}s"
        )

    # the read path tracks the live graph: the new nodes are servable
    service = net.serve()
    fresh_keys = np.array([n, n + 1])
    for key, neighbours in zip(fresh_keys, service.most_similar_batch(fresh_keys, topn=3)):
        pretty = ", ".join(f"{k} ({score:.3f})" for k, score in neighbours)
        print(f"new node {key}: most similar -> {pretty}")


if __name__ == "__main__":
    main()
