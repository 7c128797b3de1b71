"""The sharded engine's own settings, beside the engine that reads them.

Imports only :mod:`repro.config` and :mod:`repro.errors`, so every
module of the package can take its defaults from here without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import check_choices
from repro.errors import WalkError

#: Transports the sharded engine's ``transport=`` knob resolves.
SHARD_TRANSPORTS = ("inline", "socket")


@dataclass
class ShardingConfig:
    """Sharded walk-engine settings (partitioned graph, walker migration).

    :class:`~repro.sharding.engine.ShardedWalkEngine` partitions the
    graph into ``shards`` local views, one worker per shard steps the
    walkers it owns, and walkers crossing a partition boundary are
    migrated between workers in typed batches. Corpora are bitwise
    identical to the monolithic engine for any shard count, so these
    settings change *execution*, never results.

    Parameters
    ----------
    shards:
        number of graph partitions (and workers). ``1`` is a valid
        degenerate case — useful for isolating partitioning overhead.
    partitioner:
        ``"degree_balanced"``, greedy LPT on out-degree
        (:func:`repro.sharding.partitioner.degree_balanced`), the one
        partitioner.
    transport:
        ``"inline"`` keeps workers in-process (zero serialization);
        ``"socket"`` spawns one loopback worker process per shard and
        drives it over TCP.
    connect_timeout:
        socket transport: seconds allowed per worker for the
        retry-with-backoff connect loop.
    call_timeout:
        socket transport: seconds allowed per op round-trip before the
        worker is declared hung (``None`` disables the deadline).
    """

    shards: int = 2
    partitioner: str = field(default="degree_balanced", metadata={"choices": ("degree_balanced",)})
    transport: str = field(default="inline", metadata={"choices": SHARD_TRANSPORTS})
    connect_timeout: float = 10.0
    call_timeout: float | None = 120.0

    def __post_init__(self):
        if int(self.shards) != self.shards or self.shards < 1:
            raise WalkError("sharding.shards must be a positive integer")
        self.shards = int(self.shards)
        check_choices(self, "sharding")
        self.connect_timeout = float(self.connect_timeout)
        if self.connect_timeout <= 0:
            raise WalkError("sharding.connect_timeout must be positive")
        if self.call_timeout is not None:
            self.call_timeout = float(self.call_timeout)
            if self.call_timeout <= 0:
                raise WalkError("sharding.call_timeout must be positive")
