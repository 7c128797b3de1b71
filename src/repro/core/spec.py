"""Declarative experiment specifications — experiments as data.

A :class:`RunSpec` captures everything one UniNet experiment needs —
graph source, model + parameters, sampler, walk and training settings,
optional downstream evaluation — as a JSON-serialisable dataclass. Specs
round-trip losslessly (``RunSpec.from_dict(spec.to_dict()) == spec``),
check every field and component name when each section is built (a bad
value is refused by ``from_dict``, before a graph is loaded), and
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

import functools
import json
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from repro.config import (
    StreamingConfig, TrainConfig, WalkConfig, check_bools, check_choices, check_counts, check_reals,
)
from repro.errors import GraphError, SpecError
from repro.serving.config import ServingSpec  # the serving block, declared with its server knobs

#: Downstream evaluation protocols runnable from a spec.
EVALUATION_TASKS = ("classification", "clustering")

#: Top-level convenience keys and the dotted path each really lives at —
#: the one sugar table: :meth:`RunSpec.from_dict` (spec files) and
#: :func:`repro.core.runner.apply_override` (``--set``, grids, the CLI
#: flag table) both resolve through it.
SUGAR = {
    "sampler": "walk.sampler",
    "initializer": "walk.initializer",
    "num_walks": "walk.num_walks",
    "walk_length": "walk.walk_length",
    "backend": "walk.backend",
}


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


def _unwrap_optional(hint):
    """``(X, True)`` for an ``X | None`` type hint, else ``(hint, False)``."""
    if isinstance(hint, types.UnionType):
        return next(a for a in typing.get_args(hint) if a is not type(None)), True
    return hint, False


@functools.cache  # keys are the few dozen spec paths; the values are the classes' own fields
def spec_field(key: str):
    """``(field, type)`` of the dataclass field a spec key names.

    ``key`` is a dotted :class:`RunSpec` path (``"streaming.shard_walks"``) or
    a :data:`SUGAR` key; ``type`` is the field's type hint with any
    ``| None`` removed. This is how a knob's name, type and default are
    read off the config dataclasses instead of being declared again.
    """
    cls = RunSpec
    for part in SUGAR.get(key, key).split("."):
        found = {f.name: f for f in fields(cls)}.get(part) if is_dataclass(cls) else None
        if found is None:
            raise SpecError(f"spec key {key!r}: {cls.__name__} has no field {part!r}")
        cls, __ = _unwrap_optional(typing.get_type_hints(cls)[part])
    return found, cls


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

    def __post_init__(self):
        if (self.dataset is None) == (self.edge_list is None):
            raise SpecError(
                "graph spec needs exactly one of 'dataset' or 'edge_list'"
            )
        if self.edge_list is not None and not isinstance(self.edge_list, str):
            raise SpecError(f"graph.edge_list must be a path, got {self.edge_list!r}")
        from repro.graph import datasets, generators

        if self.dataset is not None and str(self.dataset).lower() not in datasets.DATASETS:
            raise SpecError(
                f"unknown dataset {self.dataset!r}; available: {sorted(datasets.DATASETS)}"
            )
        modes = generators.WEIGHT_MODES
        if self.weight_mode not in modes:
            raise SpecError(f"graph.weight_mode must be one of {modes}, got {self.weight_mode!r}")
        check_reals(self, ("scale",), "graph.", SpecError)
        check_counts(self, ("seed",), "graph.", SpecError, minimum=0)
        check_bools(self, ("weighted",), "graph.", SpecError)

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

        try:
            return load_edge_list(self.edge_list, weighted=self.weighted), None
        except OSError as err:  # a file this host lacks: the one check a spec cannot make
            raise GraphError(f"cannot read graph.edge_list {self.edge_list!r}: {err.strerror}") from None


@dataclass
class EvalSpec:
    """Downstream evaluation to run on the learned embeddings."""

    task: str = "classification"
    train_fractions: tuple[float, ...] = (0.1, 0.5, 0.9)
    trials: int = 3
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.train_fractions, (list, tuple)):
            raise SpecError(f"evaluation.train_fractions must be a list, got {self.train_fractions!r}")
        self.train_fractions = tuple(self.train_fractions)
        if self.task not in EVALUATION_TASKS:
            raise SpecError(
                f"unknown evaluation task {self.task!r}; "
                f"available: {list(EVALUATION_TASKS)}"
            )
        check_counts(self, ("trials",), "evaluation.", SpecError)
        check_counts(self, ("seed",), "evaluation.", SpecError, minimum=0)
        for fraction in self.train_fractions:
            check_reals({"train_fractions": fraction}, None, "evaluation.", SpecError, "(0, 1)")


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
    refresh: str = field(
        default="affected", metadata={"choices": ("affected", "full", "none")}
    )
    #: incrementally re-train after each step (horizon re-walk +
    #: ``partial_fit``); final metrics/serving then use fresh embeddings.
    retrain: bool = True
    #: re-walk sizing for the incremental pass (defaults to the run's
    #: walk config).
    num_walks: int | None = None
    walk_length: int | None = None

    def __post_init__(self):
        if not isinstance(self.steps, list) or not all(isinstance(step, dict) for step in self.steps):
            raise SpecError(f"updates.steps must be a list of delta records, got {self.steps!r}")
        self.steps = [dict(step) for step in self.steps]
        check_choices(self, "updates", SpecError)
        check_counts(self, ("num_walks", "walk_length"), "updates.", SpecError)
        check_bools(self, ("symmetric", "retrain"), "updates.", SpecError)
        if not self.steps:
            raise SpecError("updates.steps must contain at least one delta record")
        from repro.errors import DeltaError

        try:
            self.deltas()
        except DeltaError as err:
            raise SpecError(f"invalid updates step: {err}") from None

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
    (see :class:`~repro.core.config.StreamingConfig`); a ``serving``
    block stands up the query-side read path after training (see
    :class:`ServingSpec`).
    """

    graph: GraphSpec = field(default_factory=GraphSpec)
    model: str = "deepwalk"
    model_params: dict = field(default_factory=dict)
    walk: WalkConfig = field(default_factory=WalkConfig)
    train: TrainConfig | None = field(default_factory=TrainConfig)
    evaluation: EvalSpec | None = None
    streaming: StreamingConfig | None = None
    serving: ServingSpec | None = None
    updates: UpdatesSpec | None = None
    seed: int = 0
    name: str = ""

    def __post_init__(self):
        """Registry-check the model and the cross-section rules.

        The model name resolves through
        :data:`repro.registry.MODEL_REGISTRY` (an unknown name raises
        :class:`~repro.errors.ModelError` with suggestions), and
        ``model_params`` keys are checked against the model's declared
        ``param_spec`` capability when it has one, and their values by the
        model class's ``check_params`` (node2vec's ``p``, say). Each
        section checked its own settings when it was built.
        """
        from repro.registry import MODEL_REGISTRY

        self.model_params = dict(self.model_params)
        check_counts(self, ("seed",), "", SpecError, minimum=0)
        self.name = str(self.name)
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
        entry.obj.check_params(self.model_params)
        needs_train = {"evaluation": "requires", "serving": "requires", "updates": "require"}
        for block, verb in needs_train.items():
            if self.train is None and getattr(self, block) is not None:
                raise SpecError(f"{block} {verb} a train config")
        if self.train is not None and self.walk.walk_length < 2:
            raise SpecError("training needs walk.walk_length >= 2: a one-node walk has no pair")
        if self.updates is not None and not self.updates.retrain and (
            self.evaluation is not None or self.serving is not None
        ):
            raise SpecError(
                "updates.retrain=false leaves the embeddings stale after "
                "the delta schedule; evaluation/serving would silently "
                "consume pre-update vectors — enable retrain or drop "
                "those blocks"
            )

    def label(self) -> str:
        """Display name: explicit ``name`` or a model/sampler summary."""
        return self.name or f"{self.model}+{self.walk.sampler}"

    # -- (de)serialisation ----------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready); inverse of :meth:`from_dict`."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if is_dataclass(value):
                value = asdict(value)
            out[f.name] = dict(value) if isinstance(value, dict) else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Build a spec from a plain dict (e.g. parsed JSON).

        Nested sections may be partial (missing keys take the dataclass
        defaults); unknown keys raise :class:`~repro.errors.SpecError`.
        The :data:`SUGAR` keys (``sampler``, ``num_walks``, ``backend``,
        ...) are also accepted at the top level and win over the same
        setting inside its section.
        """
        if not isinstance(data, dict):
            raise SpecError(f"RunSpec data must be a mapping, got {type(data).__name__}")
        data = dict(data)
        for key in SUGAR.keys() & data.keys():
            section, name = SUGAR[key].split(".")
            block = data.get(section) or {}
            if is_dataclass(block):
                block = asdict(block)
            if isinstance(block, dict):
                data[section] = {**block, name: data.pop(key)}
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(
                f"unknown RunSpec key(s) {unknown}; known keys: "
                f"{sorted(known | set(SUGAR))}"
            )
        hints = typing.get_type_hints(cls)
        for name, value in data.items():
            section, optional = _unwrap_optional(hints[name])
            if is_dataclass(section) and not (optional and value is None):
                kind = "config" if section.__name__.endswith("Config") else "spec"
                data[name] = _dataclass_from_dict(section, value, f"{name} {kind}")
        return cls(**data)

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
