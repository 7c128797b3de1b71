"""Declarative experiment specifications — experiments as data.

A :class:`RunSpec` captures everything one UniNet experiment needs —
graph source, model + parameters, sampler, walk and training settings,
optional downstream evaluation — as a JSON-serialisable dataclass. Specs
round-trip losslessly (``RunSpec.from_dict(spec.to_dict()) == spec``),
validate their component names against the registries at build time, and
execute with :func:`repro.core.runner.run` (also exported as
``repro.run``) or from the CLI via ``python -m repro run --spec
spec.json``.

Example spec file::

    {
      "name": "n2v-mh",
      "graph": {"dataset": "blogcatalog", "scale": 0.3, "seed": 7},
      "model": "node2vec",
      "model_params": {"p": 0.25, "q": 4.0},
      "walk": {"num_walks": 10, "walk_length": 80, "sampler": "mh"},
      "train": {"dimensions": 64, "epochs": 2},
      "evaluation": {"task": "classification", "train_fractions": [0.5]}
    }
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from repro.core.config import ShardingConfig, StreamingConfig, TrainConfig, WalkConfig
from repro.errors import SpecError

#: Downstream evaluation protocols runnable from a spec.
EVALUATION_TASKS = ("classification", "clustering")

#: Top-level convenience keys accepted by :meth:`RunSpec.from_dict` that
#: really live on the nested ``walk`` config.
_WALK_SUGAR = ("sampler", "initializer", "num_walks", "walk_length", "backend")


def _dataclass_from_dict(cls, data, where: str):
    """Build ``cls`` from a mapping, rejecting unknown keys helpfully."""
    if isinstance(data, cls):
        return data
    if not isinstance(data, dict):
        raise SpecError(f"{where} must be a mapping, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise SpecError(
            f"unknown {where} key(s) {unknown}; known keys: {sorted(known)}"
        )
    return cls(**data)


@dataclass
class GraphSpec:
    """Where the network comes from: a synthetic dataset or an edge list.

    Exactly one of ``dataset`` (a name in
    :data:`repro.graph.datasets.DATASETS`) or ``edge_list`` (a path to a
    ``src dst [weight]`` file) must be set.
    """

    dataset: str | None = None
    edge_list: str | None = None
    scale: float = 1.0
    weight_mode: str | None = None
    weighted: bool = False
    seed: int = 0

    def validate(self) -> "GraphSpec":
        if (self.dataset is None) == (self.edge_list is None):
            raise SpecError(
                "graph spec needs exactly one of 'dataset' or 'edge_list'"
            )
        if self.dataset is not None:
            from repro.graph import datasets

            if str(self.dataset).lower() not in datasets.DATASETS:
                raise SpecError(
                    f"unknown dataset {self.dataset!r}; "
                    f"available: {sorted(datasets.DATASETS)}"
                )
        return self

    def cache_key(self) -> tuple:
        """Hashable identity of this graph source (for load caching).

        Two specs with equal keys materialise identical graphs; used by
        :func:`repro.core.runner.run_many` to load a sweep's shared
        graph once, and seedable by callers that already hold the graph
        (``cache[spec.cache_key()] = (graph, labels)``).
        """
        return tuple(sorted(asdict(self).items()))

    def load(self):
        """Materialise the graph; returns ``(graph, labels_or_None)``."""
        self.validate()
        if self.dataset is not None:
            from repro.graph import datasets

            loaded = datasets.load(
                self.dataset, scale=self.scale, weight_mode=self.weight_mode,
                seed=self.seed,
            )
            if isinstance(loaded, tuple):
                return loaded
            return loaded, None
        from repro.graph.io import load_edge_list

        return load_edge_list(self.edge_list, weighted=self.weighted), None


@dataclass
class EvalSpec:
    """Downstream evaluation to run on the learned embeddings."""

    task: str = "classification"
    train_fractions: tuple[float, ...] = (0.1, 0.5, 0.9)
    trials: int = 3
    seed: int = 0

    def __post_init__(self):
        self.train_fractions = tuple(self.train_fractions)

    def validate(self) -> "EvalSpec":
        if self.task not in EVALUATION_TASKS:
            raise SpecError(
                f"unknown evaluation task {self.task!r}; "
                f"available: {list(EVALUATION_TASKS)}"
            )
        if self.trials < 1:
            raise SpecError("evaluation trials must be >= 1")
        return self


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
    cache_size: int = 4096
    topn: int = 10
    #: keys queried by the probe batch (clamped to the store size).
    probe_queries: int = 64
    #: None, or :class:`~repro.serving.server.QueryServer` knobs
    #: (``max_batch``, ``max_wait_us``, ``queue_size``) for a batching
    #: server probe.
    server: dict | None = None

    _SERVER_KNOBS = frozenset({"max_batch", "max_wait_us", "queue_size"})

    def validate(self) -> "ServingSpec":
        from repro.serving.codec import CODEC_REGISTRY
        from repro.serving.index import INDEX_REGISTRY

        self.index = INDEX_REGISTRY.canonical(self.index)
        self.codec = CODEC_REGISTRY.canonical(self.codec)
        if self.topn < 1:
            raise SpecError("serving.topn must be >= 1")
        if self.probe_queries < 1:
            raise SpecError("serving.probe_queries must be >= 1")
        if self.cache_size < 0:
            raise SpecError("serving.cache_size must be >= 0")
        if not isinstance(self.index_params, dict):
            raise SpecError("serving.index_params must be a mapping")
        if not isinstance(self.codec_params, dict):
            raise SpecError("serving.codec_params must be a mapping")
        if self.server is not None:
            if self.server is True:
                self.server = {}
            if not isinstance(self.server, dict):
                raise SpecError("serving.server must be a mapping (or null)")
            unknown = set(self.server) - self._SERVER_KNOBS
            if unknown:
                raise SpecError(
                    f"unknown serving.server knobs {sorted(unknown)}; "
                    f"supported: {sorted(self._SERVER_KNOBS)}"
                )
        return self


@dataclass
class UpdatesSpec:
    """A scripted delta schedule replayed after the initial training.

    Each step is a plain delta record (the
    :meth:`~repro.graph.delta.GraphDelta.from_dict` format: ``add`` /
    ``remove`` / ``reweight`` / ``add_nodes`` keys), so sweeps can
    replay recorded edge streams declaratively: the runner applies the
    steps in order through :meth:`UniNet.update`, optionally refreshing
    the embeddings incrementally after each step, and records per-step
    update/refresh costs under ``report.metrics["updates"]``.
    """

    #: delta records applied in order (see :meth:`GraphDelta.from_dict`).
    steps: list = field(default_factory=list)
    #: expand each edge row to both directed entries.
    symmetric: bool = True
    #: sampler revalidation policy per step (``affected``/``full``/``none``).
    refresh: str = "affected"
    #: incrementally re-train after each step (horizon re-walk +
    #: ``partial_fit``); final metrics/serving then use fresh embeddings.
    retrain: bool = True
    #: re-walk sizing for the incremental pass (defaults to the run's
    #: walk config).
    num_walks: int | None = None
    walk_length: int | None = None

    def __post_init__(self):
        self.steps = [dict(step) for step in self.steps]

    def validate(self) -> "UpdatesSpec":
        if self.refresh not in ("affected", "full", "none"):
            raise SpecError(
                f"updates.refresh must be 'affected', 'full' or 'none', got {self.refresh!r}"
            )
        if self.num_walks is not None and self.num_walks < 1:
            raise SpecError("updates.num_walks must be >= 1")
        if self.walk_length is not None and self.walk_length < 1:
            raise SpecError("updates.walk_length must be >= 1")
        if not self.steps:
            raise SpecError("updates.steps must contain at least one delta record")
        from repro.errors import DeltaError

        try:
            self.deltas()
        except DeltaError as err:
            raise SpecError(f"invalid updates step: {err}") from None
        return self

    def deltas(self):
        """Materialise the schedule as :class:`GraphDelta` objects."""
        from repro.graph.delta import GraphDelta

        return [
            GraphDelta.from_dict(step, symmetric=self.symmetric) for step in self.steps
        ]


@dataclass
class RunSpec:
    """One declarative UniNet experiment.

    ``model`` / ``walk.sampler`` / ``walk.initializer`` are registry
    names, so third-party components registered through
    :mod:`repro.registry` work here with no package edits. ``train=None``
    stops after walk generation (the setting of the paper's walk-phase
    tables); ``evaluation`` requires ``train`` and a labeled graph. A
    ``streaming`` block runs the bounded-memory shard-streaming pipeline
    (see :class:`~repro.core.config.StreamingConfig`); a ``sharding``
    block generates the walks on the partitioned
    :class:`~repro.sharding.engine.ShardedWalkEngine` (see
    :class:`~repro.core.config.ShardingConfig`) — results are bitwise
    identical, only the execution changes; a ``serving`` block stands up
    the query-side read path after training (see :class:`ServingSpec`).
    """

    graph: GraphSpec = field(default_factory=GraphSpec)
    model: str = "deepwalk"
    model_params: dict = field(default_factory=dict)
    walk: WalkConfig = field(default_factory=WalkConfig)
    train: TrainConfig | None = field(default_factory=TrainConfig)
    evaluation: EvalSpec | None = None
    streaming: StreamingConfig | None = None
    sharding: ShardingConfig | None = None
    serving: ServingSpec | None = None
    updates: UpdatesSpec | None = None
    seed: int = 0
    name: str = ""

    # -- convenience views ----------------------------------------------
    @property
    def sampler(self) -> str:
        return self.walk.sampler

    @property
    def initializer(self):
        return self.walk.initializer

    def label(self) -> str:
        """Display name: explicit ``name`` or a model/sampler summary."""
        return self.name or f"{self.model}+{self.walk.sampler}"

    def walk_config(self) -> WalkConfig:
        """An independent :class:`WalkConfig` copy for the engine."""
        return replace(self.walk)

    # -- validation ------------------------------------------------------
    def validate(self) -> "RunSpec":
        """Registry-validate all component names; returns ``self``.

        Model names resolve through
        :data:`repro.registry.MODEL_REGISTRY` (unknown names raise
        :class:`~repro.errors.ModelError` with suggestions), and
        ``model_params`` keys are checked against the model's declared
        ``param_spec`` capability when it has one. Sampler/initializer
        names were already validated by :class:`WalkConfig`.
        """
        from repro.registry import MODEL_REGISTRY

        if not isinstance(self.model, str):
            raise SpecError(
                "RunSpec.model must be a registry name (register custom "
                "models with repro.register_model)"
            )
        entry = MODEL_REGISTRY.entry(self.model)
        param_spec = entry.capabilities.get("param_spec")
        if param_spec is not None:
            unknown = sorted(set(self.model_params) - set(param_spec))
            if unknown:
                raise SpecError(
                    f"unknown parameter(s) {unknown} for model "
                    f"{entry.name!r}; declared: {sorted(param_spec)}"
                )
        self.graph.validate()
        if (
            self.streaming is not None
            and self.streaming.enabled
            and self.sharding is not None
            and self.sharding.enabled
            and self.train is not None
        ):
            raise SpecError(
                "streaming and sharding blocks cannot both be enabled: the "
                "streaming pipeline drives the monolithic engine; disable one "
                "(e.g. --set streaming.enabled=false)"
            )
        if self.evaluation is not None:
            self.evaluation.validate()
            if self.train is None:
                raise SpecError("evaluation requires a train config")
        if self.serving is not None:
            self.serving.validate()
            if self.train is None:
                raise SpecError("serving requires a train config")
        if self.updates is not None:
            self.updates.validate()
            if self.train is None:
                raise SpecError("updates require a train config")
            if not self.updates.retrain and (
                self.evaluation is not None or self.serving is not None
            ):
                raise SpecError(
                    "updates.retrain=false leaves the embeddings stale after "
                    "the delta schedule; evaluation/serving would silently "
                    "consume pre-update vectors — enable retrain or drop "
                    "those blocks"
                )
        return self

    # -- (de)serialisation ----------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready); inverse of :meth:`from_dict`."""
        return {
            "name": self.name,
            "seed": self.seed,
            "graph": asdict(self.graph),
            "model": self.model,
            "model_params": dict(self.model_params),
            "walk": asdict(self.walk),
            "train": None if self.train is None else asdict(self.train),
            "evaluation": None if self.evaluation is None else asdict(self.evaluation),
            "streaming": None if self.streaming is None else asdict(self.streaming),
            "sharding": None if self.sharding is None else asdict(self.sharding),
            "serving": None if self.serving is None else asdict(self.serving),
            "updates": None if self.updates is None else asdict(self.updates),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Build a spec from a plain dict (e.g. parsed JSON).

        Nested sections may be partial (missing keys take the dataclass
        defaults); unknown keys raise :class:`~repro.errors.SpecError`.
        The walk settings ``sampler`` / ``initializer`` / ``num_walks`` /
        ``walk_length`` / ``backend`` are also accepted at the top level
        as sugar.
        """
        if not isinstance(data, dict):
            raise SpecError(f"RunSpec data must be a mapping, got {type(data).__name__}")
        data = dict(data)
        walk_data = data.pop("walk", {})
        if isinstance(walk_data, WalkConfig):
            walk_data = asdict(walk_data)
        walk_data = dict(walk_data) if isinstance(walk_data, dict) else walk_data
        for key in _WALK_SUGAR:
            if key in data and isinstance(walk_data, dict):
                walk_data[key] = data.pop(key)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(
                f"unknown RunSpec key(s) {unknown}; known keys: "
                f"{sorted(known | set(_WALK_SUGAR))}"
            )
        graph = _dataclass_from_dict(GraphSpec, data.get("graph", {}), "graph spec")
        walk = _dataclass_from_dict(WalkConfig, walk_data, "walk config")
        train_data = data.get("train", TrainConfig())
        train = (
            None
            if train_data is None
            else _dataclass_from_dict(TrainConfig, train_data, "train config")
        )
        eval_data = data.get("evaluation")
        evaluation = (
            None
            if eval_data is None
            else _dataclass_from_dict(EvalSpec, eval_data, "evaluation spec")
        )
        streaming_data = data.get("streaming")
        streaming = (
            None
            if streaming_data is None
            else _dataclass_from_dict(StreamingConfig, streaming_data, "streaming config")
        )
        sharding_data = data.get("sharding")
        sharding = (
            None
            if sharding_data is None
            else _dataclass_from_dict(ShardingConfig, sharding_data, "sharding config")
        )
        serving_data = data.get("serving")
        serving = (
            None
            if serving_data is None
            else _dataclass_from_dict(ServingSpec, serving_data, "serving spec")
        )
        updates_data = data.get("updates")
        updates = (
            None
            if updates_data is None
            else _dataclass_from_dict(UpdatesSpec, updates_data, "updates spec")
        )
        return cls(
            graph=graph,
            model=data.get("model", "deepwalk"),
            model_params=dict(data.get("model_params", {})),
            walk=walk,
            train=train,
            evaluation=evaluation,
            streaming=streaming,
            sharding=sharding,
            serving=serving,
            updates=updates,
            seed=int(data.get("seed", 0)),
            name=str(data.get("name", "")),
        )

    def to_json(self, *, indent: int | None = 2) -> str:
        """JSON text of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Parse a spec from JSON text."""
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        """Write the spec as JSON to ``path``."""
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "RunSpec":
        """Read a spec from a JSON file."""
        return cls.from_json(Path(path).read_text())
