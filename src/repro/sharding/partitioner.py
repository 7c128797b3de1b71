"""The degree-balanced partition and the :class:`ShardPlan` built on it.

:func:`degree_balanced` assigns every node an owning shard; the plan then
carves one *local* CSR per shard out of the global graph. Each local
graph is the vertex-induced subgraph of the shard's **owned** nodes plus
a halo, the targets of every owned out-edge: owned rows are complete, so
a walker standing on an owned node sees its full neighbourhood and every
node it can step to. Halo rows are truncated to local members (no walker
stands on one: the sharded engine runs first-order walks only), and
:meth:`~repro.graph.csr.CSRGraph.subgraph`'s monotone relabeling keeps
rows sorted.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.errors import ShardError


def degree_balanced(graph, num_shards: int) -> np.ndarray:
    """Greedy longest-processing-time assignment on out-degree.

    Nodes are placed heaviest-first onto the currently lightest shard
    (ties break toward the lowest shard id), balancing *edge* load:
    walker residence time is proportional to degree under the stationary
    law, so this evens out per-shard step work on skewed graphs.
    """
    deg = graph.degrees()
    owner = np.empty(graph.num_nodes, dtype=np.int64)
    order = np.argsort(-deg, kind="stable")
    heap = [(0, j) for j in range(num_shards)]
    heapq.heapify(heap)
    for v in order:
        load, j = heapq.heappop(heap)
        owner[v] = j
        heapq.heappush(heap, (load + int(deg[v]) + 1, j))
    return owner


@dataclass(frozen=True)
class Shard:
    """One shard's local view of the global graph."""

    shard_id: int
    #: local CSR: owned nodes + halo, relabeled to ``[0, node_map.size)``.
    graph: object
    #: local node id -> global node id (sorted ascending).
    node_map: np.ndarray
    #: local edge offset -> global edge offset (sorted ascending).
    edge_map: np.ndarray
    #: global node id -> local id, -1 for non-local nodes.
    global_to_local: np.ndarray


@dataclass(frozen=True)
class ShardPlan:
    """A complete partitioning: owner array, per-shard locals, stats."""

    num_shards: int
    #: global node id -> owning shard.
    owner: np.ndarray
    shards: tuple[Shard, ...]
    #: edges whose endpoints live on different shards (the migration
    #: surface: every traversal of one moves a walker between workers).
    boundary_edges: int
    #: per-shard owned node / owned out-edge counts.
    node_counts: np.ndarray
    edge_counts: np.ndarray

    @property
    def node_imbalance(self) -> float:
        """max/mean owned-node load (1.0 = perfectly balanced)."""
        mean = float(self.node_counts.mean()) if self.num_shards else 0.0
        return float(self.node_counts.max()) / mean if mean > 0 else 1.0

    @property
    def edge_imbalance(self) -> float:
        """max/mean owned-edge load (1.0 = perfectly balanced)."""
        mean = float(self.edge_counts.mean()) if self.num_shards else 0.0
        return float(self.edge_counts.max()) / mean if mean > 0 else 1.0

    def stats(self) -> dict:
        """Plan-level counters merged into the sharded engine's stats."""
        return {
            "num_shards": self.num_shards,
            "boundary_edges": self.boundary_edges,
            "node_imbalance": self.node_imbalance,
            "edge_imbalance": self.edge_imbalance,
        }


def build_shard_plan(graph, num_shards: int) -> ShardPlan:
    """Partition ``graph`` into ``num_shards`` local views.

    Extracts each shard's owned+halo subgraph of the
    :func:`degree_balanced` assignment and records the boundary-edge
    count and owned-load imbalance the engine reports in its stats.
    """
    if int(num_shards) != num_shards or num_shards < 1:
        raise ShardError(f"num_shards must be a positive integer, got {num_shards!r}")
    num_shards = int(num_shards)
    owner = degree_balanced(graph, num_shards)

    sources = graph.edge_sources()
    src_owner = owner[sources]
    tgt_owner = owner[graph.targets]
    boundary = int((src_owner != tgt_owner).sum())
    node_counts = np.bincount(owner, minlength=num_shards).astype(np.int64)
    edge_counts = np.bincount(src_owner, minlength=num_shards).astype(np.int64)

    shards = []
    for j in range(num_shards):
        owned = np.flatnonzero(owner == j)
        halo = graph.targets[src_owner == j]
        local_nodes = np.unique(np.concatenate((owned, halo)))
        sub, node_map, edge_map = graph.subgraph(local_nodes)
        g2l = np.full(graph.num_nodes, -1, dtype=np.int64)
        g2l[node_map] = np.arange(node_map.size, dtype=np.int64)
        shards.append(
            Shard(
                shard_id=j,
                graph=sub,
                node_map=node_map,
                edge_map=edge_map,
                global_to_local=g2l,
            )
        )
    return ShardPlan(
        num_shards=num_shards,
        owner=owner,
        shards=tuple(shards),
        boundary_edges=boundary,
        node_counts=node_counts,
        edge_counts=edge_counts,
    )
