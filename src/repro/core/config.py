"""Configuration records for the UniNet pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.errors import WalkError


def config_from_dict(cls, data: dict):
    """``cls(**data)`` — the one place a mapping becomes a config.

    A sharding mapping that lists worker ``hosts`` implies the socket
    transport and one shard per address unless it says otherwise.
    """
    if cls is ShardingConfig and data.get("hosts") is not None:
        data = {"transport": "socket", "shards": len(data["hosts"]), **data}
    return cls(**data)


def check_choices(config, section: str, error=WalkError) -> None:
    """Hold every field that declares ``choices`` metadata to them — the
    same declaration the CLI reads its ``choices=`` from."""
    for f in fields(config):
        value, choices = getattr(config, f.name), f.metadata.get("choices")
        if choices is not None and value not in choices:
            raise error(f"{section}.{f.name} must be one of {choices}, got {value!r}")


def as_config(cls, value):
    """The one coercion of a ``sharding=`` / ``streaming=`` argument.

    ``True`` means the defaults, a dict is expanded, a config passes
    through — and a block that is absent, ``False`` or switched off by
    its ``enabled`` field comes back as ``None``, so callers test
    ``is not None`` and nothing else.
    """
    if value is True:
        value = cls()
    elif isinstance(value, dict):
        value = config_from_dict(cls, value)
    return value if value and value.enabled else None


@dataclass
class WalkConfig:
    """Random-walk generation settings (Algorithm 2's inputs).

    ``walk_length`` counts nodes per sequence — the paper's default
    workload is 10 walks of length 80 per node.

    ``sampler``, ``initializer`` and ``backend`` names are validated
    eagerly against :data:`repro.registry.SAMPLER_REGISTRY`,
    :data:`repro.registry.INITIALIZER_REGISTRY` and
    :data:`repro.registry.KERNEL_REGISTRY` and normalised to their
    canonical spelling (``"metropolis-hastings"`` -> ``"mh"``,
    ``"burnin"`` -> ``"burn-in"``, ``"c"`` -> ``"cnative"``), so a typo
    fails at config time with the registered names, not mid-pipeline.
    Unknown names raise :class:`~repro.errors.WalkError`. Whether the
    backend's *dependency* is present is checked when the engine is
    built (:class:`~repro.errors.ConfigError`), not here — a config can
    be authored on a machine that lacks the compiler that will run it.
    """

    num_walks: int = 10
    walk_length: int = 80
    sampler: str = "mh"
    initializer: str = "high-weight"
    init_sample_cap: int | None = 16
    burn_in_iterations: int = 100
    table_budget_bytes: int | None = None
    max_reject_rounds: int = 10_000
    backend: str = "numpy"

    def __post_init__(self):
        from repro.errors import ReproError
        from repro.registry import (
            INITIALIZER_REGISTRY,
            KERNEL_REGISTRY,
            SAMPLER_REGISTRY,
        )

        if self.num_walks < 1:
            raise WalkError("num_walks must be >= 1")
        if self.walk_length < 1:
            raise WalkError("walk_length must be >= 1")
        try:
            if isinstance(self.sampler, str):
                self.sampler = SAMPLER_REGISTRY.canonical(self.sampler)
            if isinstance(self.initializer, str):
                self.initializer = INITIALIZER_REGISTRY.canonical(self.initializer)
            if isinstance(self.backend, str):
                self.backend = KERNEL_REGISTRY.canonical(self.backend)
        except ReproError as err:
            raise WalkError(str(err)) from None

    def engine_kwargs(self) -> dict:
        """Keyword arguments for the walk engines' constructors.

        Everything but the walk shape (``num_walks`` / ``walk_length``
        go to ``generate``); the same dict builds a
        :class:`~repro.walks.vectorized.VectorizedWalkEngine` or a
        :class:`~repro.sharding.engine.ShardedWalkEngine`.
        """
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("num_walks", "walk_length")
        }


#: Vocabulary strategies for streamed training (see :class:`StreamingConfig`).
STREAMING_VOCAB_MODES = ("degree", "exact")


@dataclass
class StreamingConfig:
    """Shard-streaming pipeline settings (bounded-memory walk→train).

    When a streaming block is present on a run, walk generation yields
    :class:`~repro.walks.corpus.WalkCorpus` shards that the word2vec
    trainer consumes incrementally, so peak corpus memory is O(shard)
    instead of O(total corpus), and with ``overlap=True`` the walk (Tw)
    and learn (Tl) phases share the wall clock.

    Parameters
    ----------
    enabled:
        master switch; lets a spec override (``--set
        streaming.enabled=false``) fall back to the monolithic path
        without deleting the block.
    shard_walks:
        walks per shard. ``None`` defers to ``max_corpus_bytes`` or, when
        that is also unset, one wave (one walk per start node) per shard.
    max_corpus_bytes:
        alternative shard sizing: largest shard footprint in bytes; the
        walk length converts it to a walk count. Mutually exclusive with
        ``shard_walks``.
    overlap:
        run walk generation in a producer thread feeding a bounded queue
        that the trainer drains — Tw and Tl overlap on the wall clock.
    queue_shards:
        bounded queue depth for ``overlap=True`` (peak resident corpus is
        at most ``(queue_shards + 2)`` shards — the queue, the one the
        producer holds while it is full, the one being trained — plus the
        trainer's partial block buffer).
    vocab:
        ``"degree"`` estimates token frequencies from the stationary
        distribution (visits ∝ degree — exact for first-order walks on
        undirected graphs, no extra pass); ``"exact"`` runs a counting
        pass over a regenerated walk stream first (costs Tw twice, but
        reproduces the monolithic vocabulary bit-for-bit).
    block_walks:
        override for the trainer's canonical block size (see
        :class:`repro.embedding.Word2Vec`). Defaults to the shard size,
        which keeps the trainer's partial-block buffer within one shard;
        set it to the trainer default (8192) together with
        ``vocab="exact"`` and ``overlap=False`` to reproduce a monolithic
        run of the same seed bit-for-bit.
    """

    enabled: bool = True
    shard_walks: int | None = None
    max_corpus_bytes: int | None = None
    overlap: bool = False
    queue_shards: int = 2
    vocab: str = field(default="degree", metadata={"choices": STREAMING_VOCAB_MODES})
    block_walks: int | None = None

    def __post_init__(self):
        if self.shard_walks is not None and self.shard_walks < 1:
            raise WalkError("streaming.shard_walks must be >= 1")
        if self.max_corpus_bytes is not None and self.max_corpus_bytes < 1:
            raise WalkError("streaming.max_corpus_bytes must be >= 1")
        if self.shard_walks is not None and self.max_corpus_bytes is not None:
            raise WalkError(
                "streaming.shard_walks and streaming.max_corpus_bytes are "
                "mutually exclusive shard sizings; set one"
            )
        if self.queue_shards < 1:
            raise WalkError("streaming.queue_shards must be >= 1")
        check_choices(self, "streaming")
        if self.block_walks is not None and self.block_walks < 1:
            raise WalkError("streaming.block_walks must be >= 1")

    def resolve_shard_walks(self, walk_length: int, num_starts: int) -> int:
        """Concrete walks-per-shard for a run's geometry."""
        if self.shard_walks is not None:
            return self.shard_walks
        if self.max_corpus_bytes is not None:
            per_walk = 8 * (walk_length + 1)  # int64 row + length entry
            return max(1, self.max_corpus_bytes // per_walk)
        return max(1, num_starts)


#: Transports the sharded engine's ``transport=`` knob resolves.
SHARD_TRANSPORTS = ("inline", "socket")


@dataclass
class ShardingConfig:
    """Sharded walk-engine settings (partitioned graph, walker migration).

    When a sharding block is present on a run, walks are generated by
    :class:`~repro.sharding.engine.ShardedWalkEngine` — the graph is
    partitioned into ``shards`` local views, one worker per shard steps
    the walkers it owns, and walkers crossing a partition boundary are
    migrated between workers in typed batches. Corpora are bitwise
    identical to the monolithic engine for any partitioner and shard
    count, so the block changes *execution*, never results.

    Parameters
    ----------
    enabled:
        master switch; lets a spec override (``--set
        sharding.enabled=false``) fall back to the monolithic engine
        without deleting the block.
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
        ``"socket"`` drives ``repro shard-worker`` processes over TCP —
        the multi-host deployment (without ``hosts`` it spawns loopback
        workers itself).
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

    enabled: bool = True
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
            from repro.sharding.transport import check_hosts

            check_hosts(self.hosts, self.transport, self.shards, WalkError)
            self.hosts = tuple(self.hosts)
        self.connect_timeout = float(self.connect_timeout)
        if self.connect_timeout <= 0:
            raise WalkError("sharding.connect_timeout must be positive")
        if self.call_timeout is not None:
            self.call_timeout = float(self.call_timeout)
            if self.call_timeout <= 0:
                raise WalkError("sharding.call_timeout must be positive")

    def engine_kwargs(self) -> dict:
        """The sharding keywords of
        :class:`~repro.sharding.engine.ShardedWalkEngine`: every field
        but the ``enabled`` switch, ``shards`` under the constructor's
        name ``num_shards``."""
        kwargs = {f.name: getattr(self, f.name) for f in fields(self)}
        del kwargs["enabled"]
        kwargs["num_shards"] = kwargs.pop("shards")
        return kwargs


@dataclass
class TrainConfig:
    """Embedding-learning settings forwarded to the word2vec trainer."""

    dimensions: int = 128
    window: int = 5
    negative: int = 5
    epochs: int = 1
    alpha: float = 0.025
    min_alpha: float = 1e-4
    mode: str = "skipgram"
    subsample: float = 0.0
    min_count: int = 1
    extra: dict = field(default_factory=dict)

    def word2vec_kwargs(self) -> dict:
        """Keyword arguments for :class:`repro.embedding.Word2Vec`."""
        kwargs = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("dimensions", "extra")
        }
        kwargs.update(self.extra)
        return kwargs
