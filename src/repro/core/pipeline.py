"""The two-step UniNet pipeline with Table VI's phase decomposition.

    Walks      = RandomWalkGeneration(G, N, L)      -> Tw (+ Ti)
    Embeddings = Word2Vec(Walks)                    -> Tl

``Ti`` (initialisation) covers sampler preprocessing: engine/table/
proposal construction *plus* the time the M-H sampler spends running its
lazy per-state initialization strategy during the walk (the paper
accounts burn-in/high-weight/random costs there, which is what makes the
Fig. 6 initialization bars comparable). ``Tw`` is the remaining walk
time; ``Tt = Ti + Tw + Tl``.

Streaming mode
--------------
With a :class:`~repro.core.config.StreamingConfig`, the walk engine
yields bounded :class:`~repro.walks.corpus.WalkCorpus` shards that the
word2vec trainer absorbs incrementally (``build_vocab`` →
``partial_fit`` per shard → ``finalize``), so peak corpus memory is
O(shard) instead of O(total corpus). With ``overlap=True`` a producer
thread generates shards into a bounded queue while the main thread
trains — Tw and Tl share the wall clock, and ``timings["total"]`` is the
true wall time (less than Ti+Tw+Tl when overlap wins). The monolithic
path is the same trainer code run as one shard.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import (
    ShardingConfig,
    StreamingConfig,
    TrainConfig,
    WalkConfig,
    as_config,
)
from repro.embedding.word2vec import Word2Vec
from repro.walks.corpus import WalkCorpus
from repro.walks.vectorized import VectorizedWalkEngine


class PhaseTimings:
    """Table VI's phase seconds, read off a ``timings`` dict."""

    timings: dict[str, float]

    @property
    def ti(self) -> float:
        """Initialisation seconds (sampler construction + lazy M-H init)."""
        return self.timings.get("init", 0.0)

    @property
    def tw(self) -> float:
        """Walk-generation seconds (excluding initialisation)."""
        return self.timings.get("walk", 0.0)

    @property
    def tl(self) -> float:
        """Embedding-learning seconds."""
        return self.timings.get("learn", 0.0)

    @property
    def tt(self) -> float:
        """Total seconds."""
        return self.timings.get("total", self.ti + self.tw + self.tl)


@dataclass
class WalkResult(PhaseTimings):
    """Output of the walk-generation phase with its engine observables.

    Carries the corpus *plus* the Ti/Tw timings, the sampler counter
    snapshot and the resident sampler bytes, so walk-only callers (e.g.
    :meth:`repro.core.uninet.UniNet.generate_walks`) can observe them
    without re-running or re-querying the engine. Long-lived holders may
    ``dataclasses.replace(result, engine=None, corpus=None)`` to keep
    only the small observables.
    """

    corpus: WalkCorpus | None
    #: ``{"init": Ti, "walk": Tw}`` in seconds.
    timings: dict[str, float]
    #: Engine counter snapshot taken once after generation — the same
    #: keys as :attr:`TrainResult.sampler_stats`.
    stats: dict[str, float]
    #: Resident sampler bytes (chains / tables / proposals).
    memory_bytes: int
    #: Resident corpus bytes (walk matrix + lengths) — the other half of
    #: the walk phase's memory footprint, next to the sampler's.
    corpus_bytes: int = 0
    engine: VectorizedWalkEngine = field(repr=False, default=None)


@dataclass
class TrainResult(PhaseTimings):
    """Everything a pipeline run produces."""

    embeddings: object | None
    corpus: WalkCorpus | None
    #: Phase seconds keyed ``"init"`` / ``"walk"`` / ``"learn"`` /
    #: ``"total"`` (the paper's Ti / Tw / Tl / Tt; see the properties).
    #: In overlapped streaming mode ``walk`` and ``learn`` are per-phase
    #: busy times and ``total`` is the wall clock, so ``total`` may be
    #: *less* than their sum — that difference is the overlap win.
    timings: dict[str, float] = field(default_factory=dict)
    #: Sampler counter snapshot from :meth:`VectorizedWalkEngine.stats`,
    #: taken once at the end of walk generation: ``samples``,
    #: ``proposals``, ``accepts``, ``initializations``, ``init_seconds``,
    #: ``acceptance_ratio``, ``setup_seconds``, the walk ``backend`` and
    #: its ``compile_seconds``. A run that learned adds, next to those,
    #: ``learn_kernel`` (:attr:`Word2Vec.kernel`: ``"cnative"`` or
    #: ``"numpy"``) and ``learn_compile_seconds`` (the kernel's one-off
    #: compile/load cost, which is *inside* Tl and Tt: nothing is
    #: subtracted), so two runs on different kernels are never compared
    #: silently.
    sampler_stats: dict[str, float] = field(default_factory=dict)
    sampler_memory_bytes: int = 0
    #: ``num_walks`` / ``token_count`` of the corpus — populated in both
    #: modes, so reporting never needs the (possibly absent) corpus.
    corpus_summary: dict[str, int] = field(default_factory=dict)
    #: Peak corpus-resident bytes observed during the run: the whole
    #: corpus when monolithic, the tracked shard/queue/buffer high-water
    #: mark when streaming.
    peak_corpus_bytes: int = 0
    #: True when the run streamed shards (``corpus`` is None then).
    streaming: bool = False
    #: The live :class:`~repro.embedding.word2vec.Word2Vec` trainer
    #: (vocab + weight matrices) — what makes incremental re-training
    #: after a graph delta possible (``UniNet.refresh_embeddings`` calls
    #: its ``partial_fit``). None for walk-only runs.
    trainer: object | None = field(default=None, repr=False)


def _with_learn_kernel(stats: dict, trainer) -> dict:
    """Engine stats plus which learn kernel trained (walk-only: unchanged)."""
    if trainer is None:
        return stats
    return {
        **stats,
        "learn_kernel": trainer.kernel,
        "learn_compile_seconds": trainer.compile_seconds,
    }


def _shard_model_spec(model):
    """``(name, params)`` for the sharded engine's per-shard model rebuild.

    Shard workers reconstruct the model from its registry name plus the
    ``param_spec``-declared constructor parameters, which every builtin
    model stores verbatim under the declared attribute names. Declared
    names an instance does not carry (e.g. metapath2vec's ``type_names``,
    folded into the parsed ``metapath``) fall back to their constructor
    defaults.
    """
    if isinstance(model, str):
        return model, {}
    from repro.errors import ReproError, ShardError
    from repro.walks.models import MODEL_REGISTRY

    name = getattr(model, "name", None)
    try:
        spec = MODEL_REGISTRY.entry(name).capabilities.get("param_spec", {})
    except ReproError:
        raise ShardError(
            f"cannot shard model {name!r}: workers rebuild models from their "
            "registry name, and this instance's name is not registered"
        ) from None
    params = {p: getattr(model, p) for p in spec if hasattr(model, p)}
    return name, params


def generate_walk_result(
    graph, model, walk_config, *, seed=None, budget=None, start_nodes=None, sharding=None
) -> WalkResult:
    """Walk-generation step with Ti/Tw accounting.

    The engine's counter snapshot is taken exactly once, after
    generation, and shared by the Ti computation and the returned
    :class:`WalkResult` (so downstream consumers never re-query
    ``engine.stats()``).

    ``sharding`` takes a :class:`~repro.core.config.ShardingConfig` (or
    an equivalent dict, or ``True``) to generate the walks on the partitioned
    :class:`~repro.sharding.engine.ShardedWalkEngine` instead — same
    corpus bit-for-bit, and the returned stats gain the migration and
    partition-balance counters. A sharded engine owns worker processes,
    sockets and shared-memory segments, so it is closed here once its
    observables are read and the returned :attr:`WalkResult.engine` is
    ``None`` (a closed engine would only raise); a monolithic run
    returns its live engine.
    """
    sharding = as_config(ShardingConfig, sharding)
    start = time.perf_counter()
    if sharding is not None:
        from repro.sharding.engine import ShardedWalkEngine

        name, params = _shard_model_spec(model)
        engine = ShardedWalkEngine(
            graph,
            name,
            budget=budget,
            seed=seed,
            **walk_config.engine_kwargs(),
            **sharding.engine_kwargs(),
            **params,
        )
    else:
        engine = VectorizedWalkEngine(
            graph, model, budget=budget, seed=seed, **walk_config.engine_kwargs()
        )
    try:
        corpus = engine.generate(
            num_walks=walk_config.num_walks,
            walk_length=walk_config.walk_length,
            start_nodes=start_nodes,
        )
        elapsed = time.perf_counter() - start
        stats = engine.stats()
        memory_bytes = engine.memory_bytes()
    finally:
        if sharding is not None:
            engine.close()
            engine = None
    ti = stats["setup_seconds"] + stats["init_seconds"]
    timings = {"init": ti, "walk": max(elapsed - ti, 0.0)}
    return WalkResult(
        corpus=corpus,
        timings=timings,
        stats=stats,
        memory_bytes=memory_bytes,
        corpus_bytes=corpus.nbytes,
        engine=engine,
    )


def generate_walks(
    graph, model, walk_config, *, seed=None, budget=None, start_nodes=None, sharding=None
):
    """Walk-generation step; returns ``(corpus, engine, timings)``.

    Backward-compatible tuple form of :func:`generate_walk_result`;
    timings has ``init`` and ``walk`` entries.
    """
    result = generate_walk_result(
        graph,
        model,
        walk_config,
        seed=seed,
        budget=budget,
        start_nodes=start_nodes,
        sharding=sharding,
    )
    return result.corpus, result.engine, result.timings


def _expected_degree_counts(graph, total_tokens: int) -> np.ndarray:
    """Degree-proportional token-frequency estimate for streamed vocab.

    The stationary distribution of a first-order walk on an undirected
    graph puts mass exactly ∝ degree on each node, so the expected visit
    counts of a ``total_tokens``-token corpus are degree-proportional.
    Every node keeps a floor count of 1 so the vocabulary covers the full
    id space (isolated nodes still start length-1 walks).
    """
    degrees = np.diff(graph.offsets).astype(np.float64)
    total_degree = degrees.sum()
    if total_degree <= 0:
        return np.ones(graph.num_nodes, dtype=np.int64)
    expected = np.floor(total_tokens * degrees / total_degree).astype(np.int64)
    return expected + 1


class _CorpusResidency:
    """Thread-safe high-water mark of corpus bytes resident in the pipeline."""

    def __init__(self):
        self._lock = threading.Lock()
        self._live = 0
        self.peak = 0

    def acquire(self, nbytes: int) -> None:
        with self._lock:
            self._live += nbytes
            self.peak = max(self.peak, self._live)

    def release(self, nbytes: int) -> None:
        with self._lock:
            self._live -= nbytes

    def observe(self, extra: int = 0) -> None:
        with self._lock:
            self.peak = max(self.peak, self._live + extra)


def train_streaming_pipeline(
    graph,
    model,
    walk_config,
    train_config,
    streaming,
    *,
    seed=None,
    budget=None,
    start_nodes=None,
) -> TrainResult:
    """Shard-streaming walk→train with bounded corpus memory.

    Walk shards come from :meth:`VectorizedWalkEngine.generate_stream`
    (rebuilt identically for the exact-vocab counting pass, since the
    engine seed is pinned first) and feed :meth:`Word2Vec.partial_fit`.
    ``overlap=True`` moves generation into a producer thread with a
    bounded queue; numpy kernels release the GIL, so walk and learn work
    genuinely overlap.
    """
    from repro.utils.rng import as_rng
    from repro.walks.models import make_model

    # pin a concrete engine seed so the stream is re-creatable (exact
    # vocab pass + training pass see identical walks); integer seeds pass
    # through untouched so a streamed run walks the same corpus as a
    # monolithic run with the same seed
    if not isinstance(seed, (int, np.integer)):
        seed = int(as_rng(seed).integers(2**31))
    seed = int(seed)
    bound = make_model(model, graph)
    starts = (
        bound.valid_start_nodes()
        if start_nodes is None
        else np.asarray(start_nodes, dtype=np.int64)
    )
    if starts.size == 0:
        from repro.errors import WalkError

        raise WalkError("no valid start nodes for this model/graph")
    total_walks = walk_config.num_walks * starts.size
    shard_walks = streaming.resolve_shard_walks(walk_config.walk_length, starts.size)

    engine_cell: dict[str, VectorizedWalkEngine] = {}

    def shard_iter(charge_budget: bool):
        engine = VectorizedWalkEngine(
            graph,
            bound,
            budget=budget if charge_budget else None,
            seed=seed,
            **walk_config.engine_kwargs(),
        )
        engine_cell["engine"] = engine
        return engine.generate_stream(
            num_walks=walk_config.num_walks,
            walk_length=walk_config.walk_length,
            start_nodes=starts,
            shard_walks=shard_walks,
        )

    wall_start = time.perf_counter()
    walk_seconds = 0.0
    learn_seconds = 0.0

    trainer_kwargs = train_config.word2vec_kwargs()
    if streaming.block_walks is not None:
        trainer_kwargs["block_walks"] = streaming.block_walks
    elif "block_walks" not in trainer_kwargs:
        # align canonical blocks with the shards so the trainer's partial
        # block buffer never outgrows one shard — the memory bound stays
        # O(shard). (Set streaming.block_walks explicitly — e.g. to the
        # trainer default — to reproduce a monolithic run bit-for-bit.)
        trainer_kwargs["block_walks"] = shard_walks
    trainer = Word2Vec(train_config.dimensions, seed=seed, **trainer_kwargs)

    ti_counting_pass = 0.0
    if streaming.vocab == "exact":
        t0 = time.perf_counter()
        counts = np.zeros(graph.num_nodes, dtype=np.int64)
        for shard in shard_iter(charge_budget=True):
            counts += shard.node_frequencies(graph.num_nodes)
        walk_seconds += time.perf_counter() - t0
        # the counting pass built its own engine; account its setup/init
        # as Ti, not Tw, like every other engine
        count_stats = engine_cell["engine"].stats()
        ti_counting_pass = count_stats["setup_seconds"] + count_stats["init_seconds"]
        charge_training_pass = False
    else:
        counts = _expected_degree_counts(
            graph, total_walks * walk_config.walk_length
        )
        charge_training_pass = True
    trainer.build_vocab(counts, total_walks=total_walks)

    residency = _CorpusResidency()
    summary = {"num_walks": 0, "token_count": 0}

    def consume(shard) -> None:
        nonlocal learn_seconds
        residency.observe(trainer.buffered_bytes())
        t0 = time.perf_counter()
        trainer.partial_fit(shard)
        learn_seconds += time.perf_counter() - t0
        summary["num_walks"] += shard.num_walks
        summary["token_count"] += shard.token_count
        residency.release(shard.nbytes)
        residency.observe(trainer.buffered_bytes())

    if not streaming.overlap:
        t0 = time.perf_counter()
        shards = shard_iter(charge_budget=charge_training_pass)
        walk_seconds += time.perf_counter() - t0  # engine construction
        while True:
            t0 = time.perf_counter()
            shard = next(shards, None)
            walk_seconds += time.perf_counter() - t0
            if shard is None:
                break
            residency.acquire(shard.nbytes)
            consume(shard)
    else:
        shard_queue: queue.Queue = queue.Queue(maxsize=streaming.queue_shards)
        _DONE = object()
        stop = threading.Event()
        producer_state = {"walk_seconds": 0.0, "error": None}

        def produce():
            try:
                t0 = time.perf_counter()
                shards = shard_iter(charge_budget=charge_training_pass)
                producer_state["walk_seconds"] += time.perf_counter() - t0
                while not stop.is_set():
                    t0 = time.perf_counter()
                    shard = next(shards, None)
                    producer_state["walk_seconds"] += time.perf_counter() - t0
                    if shard is None:
                        break
                    residency.acquire(shard.nbytes)
                    # bounded put that re-checks stop, so a dying consumer
                    # never strands this thread on a full queue
                    while not stop.is_set():
                        try:
                            shard_queue.put(shard, timeout=0.1)
                            break
                        except queue.Full:
                            continue
            except BaseException as err:  # repro-lint: ignore[RPR004] — transported to and re-raised on the consumer side
                producer_state["error"] = err
            finally:
                stop.set()  # unblock anyone; mark end-of-stream
                try:
                    shard_queue.put_nowait(_DONE)
                except queue.Full:
                    pass  # consumer is gone or will see stop via timeout

        producer = threading.Thread(target=produce, name="walk-producer", daemon=True)
        producer.start()
        try:
            while True:
                try:
                    item = shard_queue.get(timeout=0.1)
                except queue.Empty:
                    if stop.is_set() and not producer.is_alive():
                        break
                    continue
                if item is _DONE:
                    break
                consume(item)
        finally:
            # whatever path exits the loop (done, consumer exception),
            # release the producer and reap the thread
            stop.set()
            while producer.is_alive():
                try:
                    shard_queue.get_nowait()
                except queue.Empty:
                    producer.join(timeout=0.1)
            producer.join()
        if producer_state["error"] is not None:
            raise producer_state["error"]
        walk_seconds += producer_state["walk_seconds"]

    t0 = time.perf_counter()
    embeddings = trainer.finalize()
    learn_seconds += time.perf_counter() - t0

    wall = time.perf_counter() - wall_start
    engine = engine_cell["engine"]
    stats = engine.stats()
    ti = ti_counting_pass + stats["setup_seconds"] + stats["init_seconds"]
    timings = {
        "init": ti,
        "walk": max(walk_seconds - ti, 0.0),
        "learn": learn_seconds,
        "total": wall,
    }
    return TrainResult(
        embeddings=embeddings,
        corpus=None,
        timings=timings,
        sampler_stats=_with_learn_kernel(stats, trainer),
        sampler_memory_bytes=engine.memory_bytes(),
        corpus_summary=dict(summary),
        peak_corpus_bytes=residency.peak,
        streaming=True,
        trainer=trainer,
    )


def train_pipeline(
    graph,
    model,
    walk_config=None,
    train_config=None,
    *,
    seed=None,
    budget=None,
    start_nodes=None,
    skip_learning: bool = False,
    streaming=None,
    sharding=None,
) -> TrainResult:
    """Run the full pipeline for one (graph, model, sampler) configuration.

    ``skip_learning=True`` stops after walk generation (the setting of
    the paper's Table VII / Fig. 6-7, which time only the walk phase).
    ``streaming`` takes a :class:`~repro.core.config.StreamingConfig`
    (or an equivalent dict, or ``True`` for the defaults) to run the
    shard-streaming path; walk-only runs ignore it, since without a
    trainer there is nothing to stream into. ``sharding`` takes a
    :class:`~repro.core.config.ShardingConfig` (or dict, or ``True``;
    :func:`~repro.core.config.as_config` is the one coercion) to generate the
    walks on the partitioned engine — corpus (and thus embeddings) stay
    bitwise identical; streaming and sharding are mutually exclusive
    (the streaming pipeline drives the monolithic engine).
    """
    walk_config = walk_config or WalkConfig()
    train_config = train_config or TrainConfig()
    # walk-only runs ignore a streaming block: nothing to stream into
    streaming = None if skip_learning else as_config(StreamingConfig, streaming)
    sharding = as_config(ShardingConfig, sharding)
    if streaming is not None and sharding is not None:
        from repro.errors import WalkError

        raise WalkError(
            "streaming and sharding cannot be combined: the streaming "
            "pipeline drives the monolithic engine; "
            "disable one block (e.g. --set streaming.enabled=false)"
        )

    if streaming is not None:
        return train_streaming_pipeline(
            graph,
            model,
            walk_config,
            train_config,
            streaming,
            seed=seed,
            budget=budget,
            start_nodes=start_nodes,
        )

    walked = generate_walk_result(
        graph,
        model,
        walk_config,
        seed=seed,
        budget=budget,
        start_nodes=start_nodes,
        sharding=sharding,
    )

    embeddings = None
    trainer = None
    learn_seconds = 0.0
    if not skip_learning:
        t0 = time.perf_counter()
        trainer = Word2Vec(
            train_config.dimensions, seed=seed, **train_config.word2vec_kwargs()
        )
        embeddings = trainer.fit(walked.corpus, num_nodes=graph.num_nodes)
        learn_seconds = time.perf_counter() - t0

    timings = dict(walked.timings)
    timings["learn"] = learn_seconds
    timings["total"] = timings["init"] + timings["walk"] + learn_seconds
    return TrainResult(
        embeddings=embeddings,
        corpus=walked.corpus,
        timings=timings,
        sampler_stats=_with_learn_kernel(walked.stats, trainer),
        sampler_memory_bytes=walked.memory_bytes,
        corpus_summary={
            "num_walks": walked.corpus.num_walks,
            "token_count": walked.corpus.token_count,
        },
        peak_corpus_bytes=walked.corpus_bytes,
        streaming=False,
        trainer=trainer,
    )
