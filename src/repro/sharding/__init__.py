"""Sharded execution: partitioned graphs and walker migration.

The scale-out layer over the single-process engines. Partitioners split
the CSR into per-shard local views (:mod:`repro.sharding.partitioner`)
and :class:`ShardedWalkEngine` runs one worker per shard with KnightKing-
style walker migration and driver-owned RNG for bitwise parity with
:class:`~repro.walks.vectorized.VectorizedWalkEngine`
(:mod:`repro.sharding.engine`).

Only the ``shard_walk`` benchmark builds the engine: no pipeline entry,
query path or top-level ``repro`` export reaches this package.
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
