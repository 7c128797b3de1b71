"""Sharded execution: partitioned graphs and walker migration.

The scale-out layer over the single-process engines. Partitioners split
the CSR into per-shard local views (:mod:`repro.sharding.partitioner`)
and :class:`ShardedWalkEngine` runs one worker per shard with KnightKing-
style walker migration and driver-owned RNG for bitwise parity with
:class:`~repro.walks.vectorized.VectorizedWalkEngine`
(:mod:`repro.sharding.engine`).

The read side is not here: scatter-gather queries are a registered
index on the one query front-end, ``QueryService(store,
index="sharded", owner=plan)`` (:class:`~repro.serving.index.ShardedIndex`).
"""

from repro.sharding.config import ShardingConfig
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
from repro.sharding.socket_worker import serve_shard
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
    "Shard",
    "ShardPlan",
    "ShardingConfig",
    "ShardedWalkEngine",
    "build_shard_plan",
    "make_partitioner",
    "make_transport",
    "register_partitioner",
    "serve_shard",
]
