"""The sharded engine's own settings, beside the engine that reads them.

Imports only :mod:`repro.config` and :mod:`repro.errors` at module
level, so :mod:`repro.sharding.partitioner` can take its default from
here without a cycle; the partitioner registry and the address parser
are imported when a config is checked.
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
    identical to the monolithic engine for any partitioner and shard
    count, so these settings change *execution*, never results.

    Parameters
    ----------
    shards:
        number of graph partitions (and workers). ``1`` is a valid
        degenerate case — useful for isolating partitioning overhead.
    partitioner:
        registered partitioner name
        (:data:`repro.sharding.partitioner.PARTITIONER_REGISTRY`):
        ``"hash"`` for stateless multiplicative hashing,
        ``"degree_balanced"`` for greedy LPT on out-degree.
    transport:
        ``"inline"`` keeps workers in-process (zero serialization);
        ``"socket"`` drives :func:`~repro.sharding.socket_worker.serve_shard`
        processes over TCP (without ``hosts`` it spawns loopback workers
        itself).
    hosts:
        socket transport only: one ``"host:port"`` worker address per
        shard. ``None`` spawns loopback workers on this machine.
    connect_timeout:
        socket transport: seconds allowed per worker for the
        retry-with-backoff connect loop.
    call_timeout:
        socket transport: seconds allowed per op round-trip before the
        worker is declared hung (``None`` disables the deadline).
    """

    shards: int = 2
    partitioner: str = "hash"
    transport: str = field(default="inline", metadata={"choices": SHARD_TRANSPORTS})
    hosts: tuple[str, ...] | None = None
    connect_timeout: float = 10.0
    call_timeout: float | None = 120.0

    def __post_init__(self):
        from repro.errors import ReproError

        if int(self.shards) != self.shards or self.shards < 1:
            raise WalkError("sharding.shards must be a positive integer")
        self.shards = int(self.shards)
        if isinstance(self.partitioner, str):
            from repro.sharding.partitioner import PARTITIONER_REGISTRY

            try:
                self.partitioner = PARTITIONER_REGISTRY.canonical(self.partitioner)
            except ReproError as err:
                raise WalkError(str(err)) from None
        check_choices(self, "sharding")
        if self.hosts is not None:
            from repro.sharding.transport import parse_host

            if self.transport != "socket":
                raise WalkError(
                    "worker host lists only apply to transport='socket', "
                    f"got transport={self.transport!r}"
                )
            if isinstance(self.hosts, str) or not hasattr(self.hosts, "__len__"):
                raise WalkError("worker hosts must be a list of 'host:port' strings")
            if len(self.hosts) != self.shards:
                raise WalkError(
                    f"the host list names {len(self.hosts)} address(es) for "
                    f"{self.shards} shard(s); one worker per shard"
                )
            for entry in self.hosts:
                parse_host(entry)
            self.hosts = tuple(self.hosts)
        self.connect_timeout = float(self.connect_timeout)
        if self.connect_timeout <= 0:
            raise WalkError("sharding.connect_timeout must be positive")
        if self.call_timeout is not None:
            self.call_timeout = float(self.call_timeout)
            if self.call_timeout <= 0:
                raise WalkError("sharding.call_timeout must be positive")
