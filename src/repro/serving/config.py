"""The serving knobs, declared once: :class:`ServingSpec`, :class:`ServerConfig`.

What :mod:`repro.core.config` is to the walk and train settings: a
knob's name, type and default are written here and nowhere else. The
``QueryService`` / ``SnapshotManager`` / ``QueryServer`` signatures take
their defaults from these fields, ``RunSpec`` carries a
:class:`ServingSpec` as its ``serving`` block, and the ``serve`` /
``query`` / ``export-store`` verbs read flag types and defaults off them.
:meth:`ServingSpec.build` is the one builder of the read path;
``UniNet.serve``, the runner's serving probe and the verbs all call it.

A leaf module: it imports nothing from :mod:`repro.core` (which imports
it), and the serving classes only inside the methods that need them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

from repro.config import check_counts, check_reals
from repro.errors import ConfigError, ServingError, SpecError


@dataclass
class ServerConfig:
    """The micro-batching knobs of :class:`~repro.serving.server.QueryServer`
    (its ``host`` / ``port`` are a deployment setting, not part of a spec)."""

    #: most requests coalesced into one dispatch round.
    max_batch: int = 64
    #: longest a round keeps collecting while each event-loop pass brings
    #: another request, in microseconds from its first (``0``: only what is queued).
    max_wait_us: float = 200.0
    #: pending-request bound; requests beyond it are load-shed.
    queue_size: int = 1024

    def __post_init__(self):
        check_counts(self, ("max_batch", "queue_size"), error=ConfigError)
        check_reals(self, ("max_wait_us",), error=ConfigError, interval="[0, inf)")


@dataclass
class ServingSpec:
    """Query-side serving to stand up after training.

    A serving block makes :func:`repro.core.runner.run` build a
    :class:`~repro.serving.service.QueryService` over the learned
    embeddings, fire a probe batch of ``probe_queries`` keys, and record
    the service's latency/throughput counters under
    ``report.metrics["serving"]`` — the read-path health check next to
    the downstream-task metrics. A non-float32 ``codec`` serves a
    compressed store and additionally records ``compression_ratio`` and
    ``recall_probe`` (top-``topn`` overlap of the probe batch against
    the exact float32 answers) — the accuracy/memory trade in numbers.

    A ``server`` block additionally stands up an asyncio
    :class:`~repro.serving.server.QueryServer` over the same store,
    drives the probe keys through concurrent in-process clients (so the
    micro-batching path is exercised), and records the server's
    p50/p99/QPS stats under ``report.metrics["serving"]["server"]``.
    """

    #: registered index name (see :data:`repro.serving.INDEX_REGISTRY`).
    index: str = "bruteforce"
    #: forwarded to the index factory (``nlist``, ``nprobe``, ...).
    index_params: dict = field(default_factory=dict)
    #: registered codec name (see :data:`repro.serving.CODEC_REGISTRY`).
    codec: str = "float32"
    #: forwarded to the codec constructor (``m``, ``k``, ...).
    codec_params: dict = field(default_factory=dict)
    #: LRU entries memoised per ``(key, topn)``; ``0`` disables caching.
    cache_size: int = 4096
    topn: int = 10
    #: keys queried by the probe batch (clamped to the store size).
    probe_queries: int = 64
    #: None, or the knobs of a batching server (``True`` or ``{}``: the
    #: defaults; a mapping names the ones that differ).
    server: ServerConfig | None = None

    def __post_init__(self):
        from repro.serving.codec import CODEC_REGISTRY
        from repro.serving.index import INDEX_REGISTRY

        if self.server is True:
            self.server = ServerConfig()
        elif isinstance(self.server, dict):
            known = [f.name for f in fields(ServerConfig)]
            unknown = sorted(set(self.server) - set(known))
            if unknown:
                raise SpecError(
                    f"unknown serving.server knobs {unknown}; supported: {sorted(known)}"
                )
            try:
                self.server = ServerConfig(**self.server)
            except ConfigError as err:
                raise SpecError(f"serving.server.{err}") from None
        elif self.server is not None and not isinstance(self.server, ServerConfig):
            raise SpecError("serving.server must be a mapping (or null)")
        self.index = INDEX_REGISTRY.canonical(self.index)
        self.codec = CODEC_REGISTRY.canonical(self.codec)
        check_counts(self, ("topn", "probe_queries"), "serving.", SpecError)
        check_counts(self, ("cache_size",), "serving.", SpecError, minimum=0)
        # the index's and the codec's own check, so that a bad parameter is
        # refused before a graph is loaded; a plugin without one is taken as given
        for kind, registry in (("index", INDEX_REGISTRY), ("codec", CODEC_REGISTRY)):
            params = getattr(self, f"{kind}_params")
            if not isinstance(params, dict):
                raise SpecError(f"serving.{kind}_params must be a mapping")
            check = getattr(registry.get(getattr(self, kind)), "check_params", None)
            try:
                if check is not None:
                    check(params)
            except ServingError as err:
                raise SpecError(f"serving.{kind}_params: {err}") from None

    def build(self, source, *, store_path=None, **address):
        """The read path these settings describe, over ``source``.

        ``source`` is a ``KeyedVectors``, encoded here with ``codec`` /
        ``codec_params`` (into a memory-mapped file with ``store_path``),
        or an :class:`~repro.serving.store.EmbeddingStore`, served as it
        is. Returns a ``QueryService``, or with a ``server`` block a
        not-yet-started ``QueryServer`` (``address``: its ``host`` / ``port``).
        """
        from repro.serving.server import QueryServer
        from repro.serving.service import QueryService
        from repro.serving.store import EmbeddingStore

        store = source
        if not isinstance(source, EmbeddingStore):
            store = source.to_store(store_path, codec=self.codec, **self.codec_params)
        settings = {"index": self.index, "cache_size": self.cache_size, **self.index_params}
        if self.server is None:
            return QueryService(store, **settings)
        return QueryServer(store, **settings, **asdict(self.server), **address)


__all__ = ["ServerConfig", "ServingSpec"]
