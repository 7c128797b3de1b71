"""The two-step UniNet pipeline with Table VI's phase decomposition.

    Walks      = RandomWalkGeneration(G, N, L)      -> Tw (+ Ti)
    Embeddings = Word2Vec(Walks)                    -> Tl

``Ti`` (initialisation) covers sampler preprocessing: engine/table/
proposal construction *plus* the time the M-H sampler spends running its
lazy per-state initialization strategy during the walk (the paper
accounts burn-in/high-weight/random costs there, which is what makes the
Fig. 6 initialization bars comparable). ``Tw`` is the remaining walk
time; ``Tt = Ti + Tw + Tl``.

One driver
----------
:func:`train_pipeline` is the only way from walks to vectors. It opens a
source of :class:`~repro.walks.corpus.WalkCorpus` shards, fixes the
vocabulary, hands every shard to the trainer in one loop, finalizes, and
assembles the :class:`TrainResult` in one place. What varies between
runs is the source:

* **monolithic** (no streaming block): one shard, the whole corpus of
  :func:`generate_walk_result`. It stays on the result and its exact
  node frequencies are the vocabulary.
* **streamed** (a :class:`~repro.core.config.StreamingConfig`): the
  engine's ``generate_stream``, so peak corpus memory is O(shard)
  instead of O(total corpus); the vocabulary is a degree estimate or an
  exact counting pass over an identically seeded stream.
* **overlapped** (``overlap=True``): the same stream behind a prefetching
  iterator, so a producer thread walks up to :data:`PREFETCH_SHARDS` ahead
  while the loop trains. Tw and Tl share the wall clock and ``timings["total"]``
  is the true wall time (less than Ti+Tw+Tl when overlap wins).
* **refresh** (:meth:`UniNet.refresh_embeddings
  <repro.core.uninet.UniNet.refresh_embeddings>`): the monolithic source
  from a few start nodes, fed to the facade's live trainer.
"""

from __future__ import annotations

import contextlib
import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.config import StreamingConfig, TrainConfig, WalkConfig
from repro.embedding.word2vec import Word2Vec
from repro.errors import WalkError
from repro.utils.rng import as_rng
from repro.walks.corpus import WalkCorpus
from repro.walks.models import make_model
from repro.walks.vectorized import VectorizedWalkEngine

#: shards an overlapped run's producer thread walks ahead of the trainer.
PREFETCH_SHARDS = 2


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


def _walk_result(engine, corpus, busy_seconds, *, extra_ti=0.0) -> WalkResult:
    """Read an engine's observables, once, after it walked.

    ``busy_seconds`` is everything spent on walking, engine construction
    included; Ti is the part of it the engine reports as sampler set-up
    and lazy M-H initialisation (plus ``extra_ti``, the same of an engine
    that walked before this one), Tw the rest.
    """
    stats = engine.stats()
    ti = extra_ti + stats["setup_seconds"] + stats["init_seconds"]
    return WalkResult(
        corpus=corpus,
        timings={"init": ti, "walk": max(busy_seconds - ti, 0.0)},
        stats=stats,
        memory_bytes=engine.memory_bytes(),
        corpus_bytes=0 if corpus is None else corpus.nbytes,
        engine=engine,
    )


def generate_walk_result(
    graph, model, walk_config, *, seed=None, budget=None, start_nodes=None, chain_store=None
) -> WalkResult:
    """Walk-generation step with Ti/Tw accounting.

    The engine's counter snapshot is taken exactly once, after
    generation, and shared by the Ti computation and the returned
    :class:`WalkResult` (so downstream consumers never re-query
    ``engine.stats()``). ``chain_store`` is the facade's persistent
    M-H chain store (see :func:`train_pipeline`).
    """
    start = time.perf_counter()
    engine = VectorizedWalkEngine(
        graph, model, config=walk_config, chain_store=chain_store, budget=budget, seed=seed
    )
    corpus = engine.generate(start_nodes=start_nodes)
    return _walk_result(engine, corpus, time.perf_counter() - start)


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


class _ShardMeter:
    """What the driver measures of the shards on their way to the trainer.

    ``walk_seconds`` is the time spent inside the shard source (engine
    construction, generation, a counting pass), ``num_walks`` /
    ``token_count`` what the source delivered for training, and
    ``peak_bytes`` the high-water mark of corpus bytes resident between
    the source and the trainer. An overlapped run charges it from the producer thread as
    well, hence the lock.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._live = 0
        self.peak_bytes = 0
        self.walk_seconds = 0.0
        self.num_walks = 0
        self.token_count = 0

    @contextlib.contextmanager
    def walking(self):
        """Charge the block's wall time to ``walk_seconds``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.walk_seconds += time.perf_counter() - t0

    def clocked(self, shards):
        """``shards`` again: the wait for each one is walk time, and it is
        counted, its bytes resident, from the moment it exists."""
        shards = iter(shards)
        while True:
            with self.walking():
                shard = next(shards, None)
            if shard is None:
                return
            self.num_walks += shard.num_walks
            self.token_count += shard.token_count
            with self._lock:
                self._live += shard.nbytes
                self.peak_bytes = max(self.peak_bytes, self._live)
            yield shard

    def observe(self, extra: int) -> None:
        """Resident bytes right now are the live shards plus ``extra``."""
        with self._lock:
            self.peak_bytes = max(self.peak_bytes, self._live + extra)

    def release(self, nbytes: int) -> None:
        with self._lock:
            self._live -= nbytes


def _prefetch(items, depth: int):
    """``items`` again, produced up to ``depth`` ahead by a thread.

    The ``walk-producer`` thread iterates ``items`` into a bounded queue;
    this generator hands them on in order. An exception in the producer
    is re-raised here after the items produced before it. The thread is
    reaped when the generator finishes or is closed, so a consumer that
    stops or dies early must close it (``contextlib.closing``).
    """
    slots: queue.Queue = queue.Queue(maxsize=depth)
    gone = threading.Event()  # the consumer has stopped listening
    end = object()

    def put(item, error=None) -> bool:
        # bounded put that re-checks ``gone``, so a dying consumer never
        # strands this thread on a full queue
        while not gone.is_set():
            try:
                slots.put((item, error), timeout=0.1)
                return True
            except queue.Full:
                continue
        return False

    def produce():
        try:
            for item in items:
                if not put(item):
                    return
            put(end)
        except BaseException as err:  # repro-lint: ignore[RPR004] — transported to and re-raised on the consumer side
            put(end, err)

    producer = threading.Thread(target=produce, name="walk-producer", daemon=True)
    producer.start()
    try:
        while True:
            item, error = slots.get()
            if item is end:
                if error is not None:
                    raise error
                return
            yield item
    finally:
        gone.set()
        producer.join()


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
    trainer=None,
    chain_store=None,
) -> TrainResult:
    """Run the full pipeline for one (graph, model, sampler) configuration.

    ``skip_learning=True`` stops after walk generation (the setting of
    the paper's Table VII / Fig. 6-7, which time only the walk phase).
    ``streaming`` takes a :class:`~repro.core.config.StreamingConfig`
    (or an equivalent dict, or ``True`` for the defaults) to draw the
    shards from the engine's stream instead of materializing the corpus
    (see the module docstring); walk-only runs ignore it, since without
    a trainer there is nothing to stream into.

    ``trainer`` and ``chain_store`` are live objects only the
    :class:`~repro.core.uninet.UniNet` facade passes, for an incremental
    refresh: a :class:`~repro.embedding.word2vec.Word2Vec` whose
    vocabulary is already built, which is fed and finalized in place of a
    fresh one (``train_config`` is not read then), and the persistent
    :class:`~repro.walks.manager.ChainStore` the engine walks on.

    ``timings["total"]`` is ``init + walk + learn`` for a run that keeps
    its corpus and the driver's wall clock for a streamed one, where
    overlap shows as ``total < walk + learn``.
    """
    walk_config = walk_config or WalkConfig()
    train_config = train_config or TrainConfig()
    if streaming is True:
        streaming = StreamingConfig()
    elif isinstance(streaming, dict):
        streaming = StreamingConfig(**streaming)
    # walk-only runs ignore a streaming block: nothing to stream into
    if skip_learning or not streaming:
        streaming = None
    clock = time.perf_counter
    wall_start = clock()
    meter = _ShardMeter()
    trainer_kwargs = train_config.word2vec_kwargs()

    # -- the shard source, and what the vocabulary is counted from ---------
    if streaming is None:
        # one shard: the whole corpus, resident for the whole run, its
        # exact node frequencies the vocabulary
        walked = generate_walk_result(
            graph, model, walk_config, seed=seed, budget=budget, start_nodes=start_nodes,
            chain_store=chain_store,
        )
        corpus, counts, total_walks = walked.corpus, None, walked.corpus.num_walks
        shards = meter.clocked([corpus])
    else:
        # pin a concrete engine seed so the stream is re-creatable (the
        # exact-vocab pass and the training pass see identical walks);
        # integer seeds pass through untouched so a streamed run walks
        # the same corpus as a monolithic run with the same seed
        if not isinstance(seed, (int, np.integer)):
            seed = as_rng(seed).integers(2**31)
        seed = int(seed)
        bound = make_model(model, graph)
        starts = (
            bound.valid_start_nodes()
            if start_nodes is None
            else np.asarray(start_nodes, dtype=np.int64)
        )
        if starts.size == 0:
            raise WalkError("no valid start nodes for this model/graph")
        corpus, total_walks = None, walk_config.num_walks * starts.size
        shard_walks = streaming.shard_walks or starts.size  # default: one wave
        # align canonical blocks with the shards so the trainer's partial
        # block buffer never outgrows one shard — the memory bound stays
        # O(shard). (Set train.extra["block_walks"] explicitly — e.g. to the
        # trainer default — to reproduce a monolithic run bit-for-bit.)
        trainer_kwargs.setdefault("block_walks", shard_walks)

        def open_stream(charged):
            with meter.walking():
                engine = VectorizedWalkEngine(
                    graph, bound, config=walk_config, chain_store=chain_store, budget=charged,
                    seed=seed,
                )
            return engine, engine.generate_stream(start_nodes=starts, shard_walks=shard_walks)

        extra_ti = 0.0
        if streaming.vocab == "exact":
            # a pass of its own over an identical stream: its engine's
            # set-up is Ti, its walking Tw, and its budget charge is the
            # one that counts (the training pass then charges none)
            counting, stream = open_stream(budget)
            counts = np.zeros(graph.num_nodes, dtype=np.int64)
            with meter.walking():
                for shard in stream:
                    counts += shard.node_frequencies(graph.num_nodes)
            counted = counting.stats()
            extra_ti = counted["setup_seconds"] + counted["init_seconds"]
            budget = None
        else:
            counts = _expected_degree_counts(graph, total_walks * walk_config.walk_length)
        engine, stream = open_stream(budget)
        shards = meter.clocked(stream)
        if streaming.overlap:
            shards = _prefetch(shards, PREFETCH_SHARDS)

    # -- the trainer ------------------------------------------------------------
    learn_seconds = 0.0
    if trainer is None and not skip_learning:
        t0 = clock()
        trainer = Word2Vec(train_config.dimensions, seed=seed, **trainer_kwargs)
        if counts is None:
            counts = corpus.node_frequencies(graph.num_nodes)
        trainer.build_vocab(counts, total_walks=total_walks)
        learn_seconds += clock() - t0

    # -- every shard, through the one loop -----------------------------------
    # closed explicitly: when the trainer raises, the traceback keeps this
    # frame (and an unclosed prefetcher's thread) alive
    with contextlib.closing(shards):
        for shard in shards:
            if trainer is None:
                continue
            # a resident corpus is counted once, by its shard: the trainer's
            # pending rows are views of it, and it is never released
            if corpus is None:
                meter.observe(trainer.buffered_bytes())
            t0 = clock()
            trainer.partial_fit(shard)
            learn_seconds += clock() - t0
            if corpus is None:
                meter.release(shard.nbytes)
                meter.observe(trainer.buffered_bytes())
    embeddings = None
    if trainer is not None:
        t0 = clock()
        embeddings = trainer.finalize()
        learn_seconds += clock() - t0

    # -- the result --------------------------------------------------------------
    if streaming is not None:
        walked = _walk_result(engine, None, meter.walk_seconds, extra_ti=extra_ti)
    timings = {**walked.timings, "learn": learn_seconds}
    timings["total"] = (
        timings["init"] + timings["walk"] + learn_seconds
        if streaming is None
        else clock() - wall_start
    )
    return TrainResult(
        embeddings=embeddings,
        corpus=corpus,
        timings=timings,
        sampler_stats=_with_learn_kernel(walked.stats, trainer),
        sampler_memory_bytes=walked.memory_bytes,
        corpus_summary={"num_walks": meter.num_walks, "token_count": meter.token_count},
        peak_corpus_bytes=meter.peak_bytes,
        streaming=streaming is not None,
        trainer=trainer,
    )
