"""Sharded execution: partitioned graphs, walker migration, scatter-gather.

The scale-out layer over the single-process engines. Partitioners split
the CSR into per-shard local views (:mod:`repro.sharding.partitioner`),
:class:`ShardedWalkEngine` runs one worker per shard with KnightKing-
style walker migration and driver-owned RNG for bitwise parity with
:class:`~repro.walks.vectorized.VectorizedWalkEngine`
(:mod:`repro.sharding.engine`), and the serving side fans similarity
queries across per-shard stores with exact top-k merge
(:mod:`repro.sharding.router`).
"""

from repro.sharding.engine import ShardedWalkEngine
from repro.sharding.partitioner import (
    PARTITIONER_REGISTRY,
    DegreeBalancedPartitioner,
    HashPartitioner,
    Shard,
    ShardPlan,
    build_shard_plan,
    make_partitioner,
    register_partitioner,
)
from repro.sharding.router import ScatterGatherRouter
from repro.sharding.socket_worker import serve_shard
from repro.sharding.store import ShardedEmbeddingStore
from repro.sharding.transport import (
    InlineTransport,
    SocketTransport,
    make_transport,
)

__all__ = [
    "PARTITIONER_REGISTRY",
    "DegreeBalancedPartitioner",
    "HashPartitioner",
    "InlineTransport",
    "SocketTransport",
    "ScatterGatherRouter",
    "Shard",
    "ShardPlan",
    "ShardedEmbeddingStore",
    "ShardedWalkEngine",
    "build_shard_plan",
    "make_partitioner",
    "make_transport",
    "register_partitioner",
    "serve_shard",
]
