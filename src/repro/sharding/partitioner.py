"""Graph partitioners and the :class:`ShardPlan` they produce.

A partitioner assigns every node an owning shard; the plan then carves
one *local* CSR per shard out of the global graph. Each local graph is
the vertex-induced subgraph of the shard's **owned** nodes plus a halo:

* the targets of every owned out-edge (so owned rows are complete and a
  walker standing on an owned node sees its full neighbourhood), and
* the sources of every edge *into* an owned node (so second-order
  weight rules — node2vec's return/in-out classification probes the
  predecessor's row — evaluate on purely local data).

Halo rows are truncated to local members, which is exactly what those
probes need: both endpoints of any probed edge are local by
construction, and :meth:`~repro.graph.csr.CSRGraph.subgraph`'s monotone
relabeling keeps rows sorted so binary-search adjacency queries return
the same answers as on the full graph.

Partitioners are registry-pluggable (``PARTITIONER_REGISTRY``); the
contract is one method, ``partition(graph, num_shards) -> owner`` with
``owner[v]`` in ``[0, num_shards)`` for every node.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.sharding.config import ShardingConfig
from repro.errors import ShardError
from repro.registry import Registry

#: Registered node-to-shard assignment strategies. Entries are classes
#: instantiated with no arguments; ``partition(graph, num_shards)`` is
#: the family protocol (lint rule RPR002).
PARTITIONER_REGISTRY = Registry(
    "partitioner", error_cls=ShardError, home="repro.sharding.partitioner"
)


def register_partitioner(name, cls=None, *, aliases=(), replace=False, **capabilities):
    """Register a partitioner class under ``name`` (usable as a decorator)."""
    return PARTITIONER_REGISTRY.register(
        name, cls, aliases=aliases, replace=replace, **capabilities
    )


class HashPartitioner:
    """Stateless multiplicative-hash assignment (Knuth's constant).

    Placement depends only on the node id and the shard count, so it is
    reproducible across runs and machines with zero preprocessing — the
    default for the same reason distributed graph engines default to it.
    """

    name = "hash"

    def partition(self, graph, num_shards: int) -> np.ndarray:
        nodes = np.arange(graph.num_nodes, dtype=np.uint64)
        hashed = (nodes * np.uint64(2654435761)) % np.uint64(2**32)
        return (hashed % np.uint64(num_shards)).astype(np.int64)


class DegreeBalancedPartitioner:
    """Greedy longest-processing-time assignment on out-degree.

    Nodes are placed heaviest-first onto the currently lightest shard
    (ties break toward the lowest shard id), balancing *edge* load —
    walker residence time is proportional to degree under the stationary
    law, so this is the knob that evens out per-shard step work on
    skewed graphs where hashing leaves one shard holding the hubs.
    """

    name = "degree_balanced"

    def partition(self, graph, num_shards: int) -> np.ndarray:
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


register_partitioner("hash", HashPartitioner, balances="nothing (stateless)")
register_partitioner(
    "degree_balanced",
    DegreeBalancedPartitioner,
    aliases=("degree-balanced",),
    balances="out-edges (greedy LPT)",
)


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
    partitioner: str
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
            "partitioner": self.partitioner,
            "boundary_edges": self.boundary_edges,
            "node_imbalance": self.node_imbalance,
            "edge_imbalance": self.edge_imbalance,
        }


def make_partitioner(partitioner):
    """Resolve a partitioner name or instance to an instance."""
    # the str check comes first: str.partition() exists but is not ours
    if not isinstance(partitioner, str) and hasattr(partitioner, "partition"):
        return partitioner
    return PARTITIONER_REGISTRY.create(partitioner)


def build_shard_plan(graph, num_shards: int, partitioner=ShardingConfig.partitioner) -> ShardPlan:
    """Partition ``graph`` into ``num_shards`` local views.

    ``partitioner`` is a registry name or an instance with a
    ``partition`` method. Validates the owner array, extracts each
    shard's owned+halo subgraph and records the boundary-edge count and
    owned-load imbalance the engine reports in its stats.
    """
    if int(num_shards) != num_shards or num_shards < 1:
        raise ShardError(f"num_shards must be a positive integer, got {num_shards!r}")
    num_shards = int(num_shards)
    part = make_partitioner(partitioner)
    name = getattr(part, "name", type(part).__name__)
    owner = np.asarray(part.partition(graph, num_shards), dtype=np.int64)
    if owner.shape != (graph.num_nodes,):
        raise ShardError(
            f"partitioner {name!r} returned owner array of shape {owner.shape}, "
            f"expected ({graph.num_nodes},)"
        )
    if owner.size and (owner.min() < 0 or owner.max() >= num_shards):
        raise ShardError(
            f"partitioner {name!r} assigned shards outside [0, {num_shards})"
        )

    sources = graph.edge_sources()
    src_owner = owner[sources]
    tgt_owner = owner[graph.targets]
    boundary = int((src_owner != tgt_owner).sum())
    node_counts = np.bincount(owner, minlength=num_shards).astype(np.int64)
    edge_counts = np.bincount(src_owner, minlength=num_shards).astype(np.int64)

    shards = []
    for j in range(num_shards):
        owned = np.flatnonzero(owner == j)
        out_halo = graph.targets[src_owner == j]
        in_halo = sources[tgt_owner == j]
        local_nodes = np.unique(np.concatenate((owned, out_halo, in_halo)))
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
        partitioner=str(name),
        owner=owner,
        shards=tuple(shards),
        boundary_edges=boundary,
        node_counts=node_counts,
        edge_counts=edge_counts,
    )
