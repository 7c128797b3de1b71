"""Sharded execution: a partitioned graph and walker migration.

The KnightKing-style baseline over the single-process engine.
:func:`~repro.sharding.partitioner.build_shard_plan` splits the CSR into
per-shard local views on a degree-balanced partition, and
:class:`ShardedWalkEngine` runs one worker per shard with walker
migration and driver-owned RNG for bitwise parity with
:class:`~repro.walks.vectorized.VectorizedWalkEngine`
(:mod:`repro.sharding.engine`). It runs first-order models with M-H and
the ``high-weight`` initializer, on in-process workers (``inline``) or
on worker processes it spawns on loopback and drives over TCP
(``socket``).

Only the ``shard_walk`` benchmark builds the engine: no pipeline entry,
query path or top-level ``repro`` export reaches this package.
"""

from repro.sharding.config import ShardingConfig
from repro.sharding.engine import ShardedWalkEngine
from repro.sharding.partitioner import Shard, ShardPlan, build_shard_plan, degree_balanced
from repro.sharding.transport import (
    InlineTransport,
    SocketTransport,
    make_transport,
)

__all__ = [
    "InlineTransport",
    "SocketTransport",
    "Shard",
    "ShardPlan",
    "ShardingConfig",
    "ShardedWalkEngine",
    "build_shard_plan",
    "degree_balanced",
    "make_transport",
]
