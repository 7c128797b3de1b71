"""UniNet — the user-facing facade of the framework.

One object binds a network to a random-walk model and exposes the paper's
pipeline: generate walks with a pluggable edge sampler (M-H by default)
and learn embeddings with word2vec. Example::

    from repro import UniNet, datasets

    graph, labels = datasets.load("blogcatalog", scale=0.5, seed=7)
    net = UniNet(graph, model="node2vec", p=0.25, q=4.0, seed=7)
    result = net.train(num_walks=10, walk_length=80, dimensions=64)
    result.embeddings.most_similar(0)

Defining a *new* random-walk model needs one method — subclass
:class:`~repro.walks.models.base.RandomWalkModel`, implement
``batch_dynamic_weight`` (the dynamic edge weight for arrays of walker
states; optionally ``batch_state_index``, ``kernel_spec`` and
``enumerate_state_contexts`` too), and pass the instance as ``model``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time

import numpy as np

from repro.config import TrainConfig, WalkConfig, check_counts, check_keywords, take_fields
from repro.core.pipeline import TrainResult, WalkResult, generate_walk_result, train_pipeline
from repro.serving.config import ServingSpec
from repro.utils.rng import as_rng
from repro.walks.models import make_model


@dataclasses.dataclass
class UpdateResult:
    """Outcome of one :meth:`UniNet.update` call."""

    #: the applied :class:`~repro.graph.delta.GraphDelta`.
    delta: object
    #: the post-delta graph now bound to the facade.
    graph: object = dataclasses.field(repr=False, default=None)
    #: sampler revalidation report (``invalidated_states``,
    #: ``rebuilt_nodes``, ``rebuild_cost_bytes``) — zeros when no
    #: persistent sampler state existed yet.
    sampler_refresh: dict = dataclasses.field(default_factory=dict)
    #: endpoints touched by this delta (plus any new nodes) — the seeds
    #: of the next incremental re-walk.
    affected_nodes: object = None
    #: wall seconds spent applying the delta + revalidating samplers.
    seconds: float = 0.0
    #: :class:`~repro.core.pipeline.TrainResult` of the incremental
    #: retrain when ``retrain=True`` was passed; None otherwise.
    retrain: TrainResult | None = None


class UniNet:
    """The unified NRL framework bound to one network.

    Parameters
    ----------
    graph:
        a :class:`~repro.graph.csr.CSRGraph`.
    model:
        registry name (``"deepwalk"``, ``"node2vec"``, ``"metapath2vec"``,
        ``"edge2vec"``, ``"fairwalk"``), or a bound
        :class:`~repro.walks.models.base.RandomWalkModel` instance.
    config:
        the :class:`~repro.config.WalkConfig` every walk of this instance
        starts from (its defaults when omitted).
    budget:
        optional :class:`~repro.sampling.memory_model.MemoryBudget` for
        simulated-OOM experiments. Each call's engines charge it and
        hand their charge back when the call ends; the persistent M-H
        chain store that :meth:`refresh_embeddings` creates is charged
        once and kept.
    keywords:
        a ``WalkConfig`` field name (``sampler=``, ``initializer=``,
        ``backend=``, ``table_budget_bytes=``, ...) replaces that field,
        checked here; anything else is forwarded to the model
        constructor (``p``, ``q``, ``metapath``,
        ``transition_matrix``...). A missing C compiler for
        ``backend="cnative"`` raises :class:`~repro.errors.ConfigError`
        at engine build time.
    """

    def __init__(self, graph, model="deepwalk", *, config=None, budget=None, seed=None, **keywords):
        self.graph = graph
        #: the :class:`WalkConfig` every walk of this instance starts from
        self.config = take_fields(config or WalkConfig(), keywords)
        self.model = make_model(model, graph, **keywords)
        self.budget = budget
        self.seed = seed
        self._rng = as_rng(seed)
        #: :class:`~repro.core.pipeline.WalkResult` observables (timings,
        #: stats, memory bytes — engine and corpus stripped) of the most
        #: recent :meth:`generate_walks` call; None before the first call.
        self.last_walk: WalkResult | None = None
        self._last_stats: dict | None = None
        #: :class:`~repro.embedding.keyed_vectors.KeyedVectors` of the
        #: most recent :meth:`train` call (what :meth:`serve` serves by
        #: default); None before the first call.
        self.last_embeddings = None
        # dynamic-graph state: the graph epoch advances on every
        # update(); embeddings remember the epoch they were trained at,
        # so serve() can refuse to hand out stale vectors.
        self._graph_epoch = 0
        self._embeddings_epoch: int | None = None
        self._trainer = None
        self._chain_store = None
        self._affected: np.ndarray | None = None
        #: the :class:`WalkConfig` of the last training — what an
        #: incremental refresh re-walks with.
        self._trained_walk: WalkConfig | None = None

    # ------------------------------------------------------------------
    def walk_config(self, num_walks=None, walk_length=None, **overrides) -> WalkConfig:
        """This instance's :class:`WalkConfig` with the given fields replaced.

        ``None`` keeps the config's own value, so the walk shape's
        defaults (10 walks of length 80) are declared by
        :class:`WalkConfig` alone.
        """
        return self.config.reshaped(num_walks, walk_length, **overrides)

    @contextlib.contextmanager
    def _call_budget(self):
        """The budget one call's engines charge, handed back when the
        call ends: the facade keeps none of its engines."""
        used = 0 if self.budget is None else self.budget.used_bytes
        try:
            yield self.budget
        finally:
            if self.budget is not None:
                self.budget.release(self.budget.used_bytes - used)

    def generate_walks(self, num_walks=None, walk_length=None, start_nodes=None, **overrides):
        """Run only the walk-generation step; returns a WalkCorpus.

        ``num_walks`` / ``walk_length`` / ``overrides`` are
        :class:`WalkConfig` fields (see :meth:`walk_config`).

        The engine observables of the run (Ti/Tw timings, sampler
        counters, resident bytes) are kept on :attr:`last_walk` /
        :attr:`last_stats`, so they are inspectable without a full
        :meth:`train`.
        """
        config = self.walk_config(num_walks, walk_length, **overrides)
        with self._call_budget() as budget:
            result = generate_walk_result(
                self.graph,
                self.model,
                config,
                seed=int(self._rng.integers(2**31)),
                budget=budget,
                start_nodes=start_nodes,
            )
        # keep only the small observables: the engine's chains/tables and
        # the corpus itself must not stay pinned after the caller is done
        self.last_walk = dataclasses.replace(result, engine=None, corpus=None)
        self._last_stats = result.stats
        return result.corpus

    @property
    def last_stats(self) -> dict | None:
        """Engine stats of the most recent :meth:`generate_walks` or
        :meth:`train` call: sampler counters and the walk ``backend``,
        and after a train also ``learn_kernel`` /
        ``learn_compile_seconds``."""
        return self._last_stats

    def train(
        self,
        num_walks=None,
        walk_length=None,
        dimensions=None,
        *,
        start_nodes=None,
        walk_overrides: dict | None = None,
        streaming=None,
        **train_params,
    ) -> TrainResult:
        """Full pipeline: walks + word2vec. Returns a TrainResult.

        ``dimensions`` and ``train_params`` go to :class:`TrainConfig`
        (``window``, ``epochs``, ``mode``, ...); ``num_walks``,
        ``walk_length`` and ``walk_overrides`` to :class:`WalkConfig`;
        whatever is left out takes that dataclass's default.
        ``streaming`` takes a
        :class:`~repro.core.config.StreamingConfig` (or dict, or ``True``
        for the defaults) to run the bounded-memory shard-streaming
        pipeline instead of materializing the whole corpus.
        """
        if dimensions is not None:
            train_params["dimensions"] = dimensions
        return self.train_from_configs(
            self.walk_config(num_walks, walk_length, **(walk_overrides or {})),
            TrainConfig(**train_params),
            streaming=streaming,
            start_nodes=start_nodes,
        )

    def train_from_configs(
        self,
        walk_config: WalkConfig,
        train_config: TrainConfig | None,
        *,
        streaming=None,
        start_nodes=None,
    ) -> TrainResult:
        """Run the pipeline from prebuilt config objects.

        The config-level twin of :meth:`train` and the one call the
        declarative runner makes: ``train_config=None`` stops after walk
        generation. Keeps the live trainer so the embeddings can later
        be refreshed incrementally after :meth:`update`.
        """
        with self._call_budget() as budget:
            result = train_pipeline(
                self.graph,
                self.model,
                walk_config,
                train_config,
                seed=int(self._rng.integers(2**31)),
                budget=budget,
                start_nodes=start_nodes,
                skip_learning=train_config is None,
                streaming=streaming,
            )
        self.last_embeddings = result.embeddings
        self._last_stats = result.sampler_stats
        self._trainer = result.trainer
        self._embeddings_epoch = self._graph_epoch
        self._affected = None
        self._trained_walk = walk_config
        return result

    # ------------------------------------------------------------------
    # dynamic graphs
    # ------------------------------------------------------------------
    def update(self, delta, *, retrain: bool = False, **retrain_params) -> UpdateResult:
        """Apply a :class:`~repro.graph.delta.GraphDelta` to the bound graph.

        The graph is merge-rebuilt, the model rebound, and the persistent
        M-H chain store, once a :meth:`refresh_embeddings` has created
        one, remapped: only chains whose resident edge the delta touched
        are invalidated (the paper's tableless-update advantage).

        Embeddings become *stale* after an update — :meth:`serve`
        refuses them until :meth:`refresh_embeddings` (or a full
        :meth:`train`) runs; pass ``retrain=True`` to do that here
        (``retrain_params`` forward to :meth:`refresh_embeddings`). The
        ``retrain_params`` are checked before the delta is applied: a
        keyword :meth:`refresh_embeddings` does not take, or any keyword
        without ``retrain=True``, is a :class:`~repro.errors.DeltaError`.
        Returns an :class:`UpdateResult`.
        """
        from repro.errors import DeltaError
        from repro.graph.delta import DeltaPlan, GraphDelta

        check_keywords(self.refresh_embeddings, retrain_params, "update: ", DeltaError)
        if retrain_params and not retrain:
            raise DeltaError(
                f"update: {sorted(retrain_params)} are refresh_embeddings keywords; "
                "pass retrain=True to use them"
            )
        if isinstance(delta, dict):
            delta = GraphDelta.from_dict(delta)
        t0 = time.perf_counter()
        plan = DeltaPlan.build(self.graph, delta)
        self.graph = plan.new_graph
        self.model.rebind(plan.new_graph)
        self._graph_epoch += 1
        refresh_info = {"invalidated_states": 0, "rebuilt_nodes": 0, "rebuild_cost_bytes": 0}
        if self._chain_store is not None:
            refresh_info = self._chain_store.on_delta(plan, self.model)
        new_nodes = np.arange(plan.old_graph.num_nodes, plan.new_graph.num_nodes, dtype=np.int64)
        affected = np.union1d(delta.touched_endpoints(), new_nodes).astype(np.int64)
        self._affected = (
            affected if self._affected is None else np.union1d(self._affected, affected)
        )
        result = UpdateResult(
            delta=delta,
            graph=self.graph,
            sampler_refresh=dict(refresh_info),
            affected_nodes=affected,
            seconds=time.perf_counter() - t0,
        )
        if retrain:
            result.retrain = self.refresh_embeddings(**retrain_params)
        return result

    def affected_start_nodes(self, horizon: int) -> np.ndarray:
        """Nodes within ``horizon - 1`` hops of edges touched since the
        last (re)training — the start set whose walks can differ.

        Uses out-neighbour expansion, which equals the true reach set on
        the symmetric graphs this library stores by convention. A
        ``horizon`` that is not an integer >= 1 is a ``WalkError``.
        """
        check_counts({"horizon": horizon})
        if self._affected is None or self._affected.size == 0:
            return np.empty(0, dtype=np.int64)
        from repro.walks._segments import concat_ranges

        reached = np.zeros(self.graph.num_nodes, dtype=bool)
        frontier = self._affected
        reached[frontier] = True
        for __ in range(horizon - 1):
            lo = self.graph.offsets[frontier]
            deg = self.graph.offsets[frontier + 1] - lo
            flat, __seg = concat_ranges(lo, deg)
            if flat.size == 0:
                break
            nxt = np.unique(self.graph.targets[flat])
            nxt = nxt[~reached[nxt]]
            if nxt.size == 0:
                break
            reached[nxt] = True
            frontier = nxt
            if reached.all():
                break
        return np.flatnonzero(reached)

    def refresh_embeddings(
        self,
        num_walks=None,
        walk_length=None,
        *,
        start_nodes=None,
        horizon: int | None = None,
    ) -> TrainResult:
        """Incrementally refresh embeddings after :meth:`update`.

        Re-walks, with the :class:`WalkConfig` of the last training
        (``num_walks`` / ``walk_length`` replace its shape), only from
        nodes within the walk-length horizon of the edges touched since
        then (or from ``start_nodes``), and trains the *live* trainer on
        the fresh corpus — new nodes enter the vocabulary with fresh
        rows, every other row continues from its trained state, at the
        full learning rate ``alpha`` (the decay of the original fit ended
        with it). The walk→learn step is
        :func:`~repro.core.pipeline.train_pipeline` itself, handed the
        live trainer and the facade's chain store, so the returned
        :class:`~repro.core.pipeline.TrainResult` reads like any other
        run's. M-H chain state persists across refreshes through that
        store, so repeated update→refresh cycles pay only the
        touched-state costs.
        """
        from repro.errors import TrainingError

        if horizon is not None:
            check_counts({"horizon": horizon})
        if self._trainer is None or self._trained_walk is None:
            raise TrainingError(
                "refresh_embeddings needs a prior train() (no live trainer)"
            )
        cfg = self._trained_walk.reshaped(num_walks, walk_length)
        if start_nodes is None:
            start_nodes = self.affected_start_nodes(
                cfg.walk_length if horizon is None else horizon
            )
        else:
            start_nodes = np.asarray(start_nodes, dtype=np.int64)

        # new nodes enter the vocabulary before training touches them
        space = self._trainer.vocab.space
        if self.graph.num_nodes > space:
            estimates = np.zeros(self.graph.num_nodes, dtype=np.int64)
            degrees = self.graph.degrees()
            estimates[space:] = degrees[space:] + 1
            self._trainer.expand_vocab(estimates)

        if start_nodes.size == 0:
            # nothing within the horizon changed; embeddings are current
            self._embeddings_epoch = self._graph_epoch
            self._affected = None
            return TrainResult(
                embeddings=self.last_embeddings,
                corpus=None,
                timings={"init": 0.0, "walk": 0.0, "learn": 0.0, "total": 0.0},
                trainer=self._trainer,
            )

        chain_store = None
        if cfg.sampler == "mh":
            if self._chain_store is None:
                from repro.walks.manager import ChainStore

                self._chain_store = ChainStore(self.graph, self.model, budget=self.budget)
            chain_store = self._chain_store
        with self._call_budget() as budget:
            result = train_pipeline(
                self.graph,
                self.model,
                cfg,
                seed=int(self._rng.integers(2**31)),
                budget=budget,
                start_nodes=start_nodes,
                trainer=self._trainer,
                chain_store=chain_store,
            )
        self.last_embeddings = result.embeddings
        self._embeddings_epoch = self._graph_epoch
        self._affected = None
        return result

    @property
    def embeddings_stale(self) -> bool:
        """True when :meth:`update` ran after the last (re)training."""
        return (
            self._embeddings_epoch is not None
            and self._embeddings_epoch != self._graph_epoch
        )

    def serve(
        self,
        embeddings=None,
        *,
        index: str = ServingSpec.index,
        store_path=None,
        codec: str = ServingSpec.codec,
        codec_params: dict | None = None,
        cache_size: int = ServingSpec.cache_size,
        server=False,
        **index_params,
    ):
        """Stand up a :class:`~repro.serving.service.QueryService`.

        Serves ``embeddings`` (defaults to the most recent
        :meth:`train` result). With ``store_path`` the embeddings are
        exported to a memory-mapped
        :class:`~repro.serving.store.EmbeddingStore` file first — the
        multi-process deployment shape; without, an in-memory store is
        built. ``codec`` selects the store compression (``"float32"``
        default, ``"int8"``, ``"pq"``; see
        :data:`repro.serving.CODEC_REGISTRY`) with ``codec_params``
        forwarded to the codec constructor; ``index_params`` go to the
        chosen index factory (``nlist``, ``nprobe``, ...).

        With ``server=True`` (or a dict of
        :class:`~repro.serving.server.QueryServer` knobs — ``max_batch``,
        ``max_wait_us``, ``queue_size``, ``host``, ``port``) the result
        is instead a not-yet-started ``QueryServer`` wrapping a
        :class:`~repro.serving.snapshot.SnapshotManager`, so concurrent
        clients get micro-batched scans and
        :meth:`~repro.serving.server.QueryServer.publish` /
        :meth:`~repro.serving.server.QueryServer.upsert` swap embedding
        versions with zero downtime. Start it with ``await
        server.start()`` (in-process) or ``await server.start_tcp()``.

        The arguments are :class:`~repro.serving.config.ServingSpec`
        fields and :meth:`ServingSpec.build` does the building, as for a
        ``serving:`` RunSpec block and the ``query`` / ``serve`` verbs.
        """
        from repro.errors import ServingError

        kv = self.last_embeddings if embeddings is None else embeddings
        if kv is None:
            raise ServingError(
                "no embeddings to serve: call train() first or pass embeddings="
            )
        if embeddings is None and self.embeddings_stale:
            raise ServingError(
                "embeddings are stale: update() changed the graph "
                f"(epoch {self._graph_epoch}) after training (epoch "
                f"{self._embeddings_epoch}); call refresh_embeddings() or "
                "train() first, or pass embeddings= explicitly to serve "
                "the old vectors anyway"
            )
        knobs = dict(server) if isinstance(server, dict) else {}
        address = {name: knobs.pop(name) for name in ("host", "port") if name in knobs}
        spec = ServingSpec(
            index=index,
            index_params=index_params,
            codec=codec,
            codec_params=codec_params or {},
            cache_size=cache_size,
            server=knobs if server else None,
        )
        return spec.build(kv, store_path=store_path, **address)

    def __repr__(self) -> str:
        return (
            f"UniNet(model={self.model.name!r}, sampler={self.config.sampler!r}, "
            f"graph={self.graph!r})"
        )
