"""Sharded execution: partitioned walks and scatter-gather queries.

The :mod:`repro.sharding` subsystem runs the walk phase across graph
partitions — one worker per shard, walkers migrating KnightKing-style
when they step across a partition boundary. The read path shards by
the same plan: ``index="sharded"`` on the one query front-end splits the
store by node ownership, scans each part and merges the parts' top-k
lists. The contract this example demonstrates end to end:

* the sharded corpus (and therefore the trained embeddings) is
  **bitwise identical** to the monolithic engine at any shard count,
  with any registered partitioner;
* scatter-gather answers are **exactly** the monolithic top-k;
* the engine's stats expose what a multi-host deployment would pay:
  migration rate, boundary edges, and shard imbalance.

Run:  python examples/sharded_run.py
"""

import numpy as np

from repro import UniNet, build_shard_plan, datasets
from repro.harness.tables import print_table


def main():
    graph, __ = datasets.load("blogcatalog", scale=0.2, seed=7)
    print(f"graph: {graph}")

    # --- monolithic baseline --------------------------------------------
    net = UniNet(graph, model="node2vec", p=0.5, q=2.0, seed=7)
    baseline = net.train(num_walks=4, walk_length=20, dimensions=32)

    # --- the same run, sharded ------------------------------------------
    rows = []
    for shards in (2, 4):
        net = UniNet(graph, model="node2vec", p=0.5, q=2.0, seed=7)
        result = net.train(
            num_walks=4, walk_length=20, dimensions=32,
            sharding={"shards": shards, "partitioner": "degree_balanced"},
        )
        identical = np.array_equal(
            baseline.embeddings.vectors, result.embeddings.vectors
        )
        stats = result.sampler_stats
        rows.append({
            "shards": shards,
            "identical embeddings": identical,
            "migration rate": round(stats["migration_rate"], 3),
            "boundary edges": stats["boundary_edges"],
            "edge imbalance": round(stats["edge_imbalance"], 3),
        })
        assert identical, "sharded run diverged from the monolithic engine"
    print_table(
        ["shards", "identical embeddings", "migration rate", "boundary edges",
         "edge imbalance"],
        rows,
        title="UniNet.train(sharding={...}) vs monolithic (same seed)",
    )

    # --- scatter-gather queries: an index like any other ----------------
    plan = build_shard_plan(graph, 4, "degree_balanced")
    sharded = net.serve(baseline.embeddings, index="sharded", owner=plan)
    service = net.serve(baseline.embeddings, index="bruteforce")
    keys = list(range(0, graph.num_nodes, 97))
    assert sharded.most_similar_batch(keys, topn=5) == service.most_similar_batch(
        keys, topn=5
    ), "scatter-gather diverged from the monolithic service"
    print(f"scatter-gather over {len(sharded.index.parts)} parts: exact top-5 "
          f"parity on {len(keys)} queries")
    print("\nSame numbers, any shard count — partitioning is a deployment "
          "choice, not a model change.")


if __name__ == "__main__":
    main()
