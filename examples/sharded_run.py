"""Scatter-gather queries: a shard plan on the read path.

A :class:`~repro.sharding.partitioner.ShardPlan` assigns every node an
owning shard. The read path shards by such a plan: ``index="sharded"``
on the one query front-end splits the store by node ownership, scans
each part and merges the parts' top-k lists. The contract this example
demonstrates end to end: scatter-gather answers are **exactly** the
monolithic top-k, for any registered partitioner.

Walks are generated by the one monolithic engine; the sharded walk
engine was slower than one process at every scale this repository
measured (``benchmarks/results/BENCH_shard.json``).

Run:  python examples/sharded_run.py
"""

from repro import UniNet, build_shard_plan, datasets


def main():
    graph, __ = datasets.load("blogcatalog", scale=0.2, seed=7)
    print(f"graph: {graph}")
    net = UniNet(graph, model="node2vec", p=0.5, q=2.0, seed=7)
    vectors = net.train(num_walks=4, walk_length=20, dimensions=32).embeddings

    service = net.serve(vectors, index="bruteforce")
    keys = list(range(0, graph.num_nodes, 97))
    expected = service.most_similar_batch(keys, topn=5)
    for partitioner in ("hash", "degree_balanced"):
        plan = build_shard_plan(graph, 4, partitioner)
        sharded = net.serve(vectors, index="sharded", owner=plan)
        assert sharded.most_similar_batch(keys, topn=5) == expected, (
            f"scatter-gather over a {partitioner} plan diverged from the monolithic service"
        )
        print(f"scatter-gather over {len(sharded.index.parts)} {partitioner} parts: "
              f"exact top-5 parity on {len(keys)} queries")


if __name__ == "__main__":
    main()
