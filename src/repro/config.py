"""Configuration records for the UniNet pipeline.

Each dataclass declares its knobs once (name, type, default) and checks
them in ``__post_init__``, so a value is refused the moment it exists;
engines, steppers and shard workers are built from the objects
themselves. A leaf module: what it needs of ``walks/`` and
``embedding/`` it imports lazily, so all of them can import it
(:mod:`repro.core.config` re-exports the dataclasses). The sharded
engine's settings live with it, in :mod:`repro.sharding.config`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from numbers import Integral

from repro.errors import WalkError


def take_fields(config, keywords: dict, **spelled):
    """``config`` with every field that ``keywords`` names replaced.

    The one helper behind the constructors' keyword sugar
    (``VectorizedWalkEngine(graph, model, sampler="direct")``): the
    taken names are removed from ``keywords``, what is left is the
    caller's (model parameters). ``spelled`` are fields the constructor
    spells itself (a positional ``sampler``, ``num_shards``), ``None``
    for not given. The copy is re-validated.
    """
    keywords.update({name: value for name, value in spelled.items() if value is not None})
    taken = {f.name for f in fields(config)} & keywords.keys()
    return replace(config, **{name: keywords.pop(name) for name in taken})


def check_choices(config, section: str, error=WalkError) -> None:
    """Hold every field that declares ``choices`` metadata to them — the
    same declaration the CLI reads its ``choices=`` from."""
    for f in fields(config):
        value, choices = getattr(config, f.name), f.metadata.get("choices")
        if choices is not None and value not in choices:
            raise error(f"{section}.{f.name} must be one of {choices}, got {value!r}")


def check_counts(config, names, section: str = "", error=WalkError, minimum: int = 1) -> None:
    """Hold each named setting to an integer >= ``minimum`` (0 or 1): the one
    count check, raising the section's ``error``. ``config`` is a config
    dataclass, where ``None`` passes if the field's type admits it (a count
    left unset), or a mapping of keyword values, where a name it lacks passes."""
    keywords = isinstance(config, Mapping)
    values = config if keywords else {name: getattr(config, name) for name in names}
    optional = set() if keywords else {f.name for f in fields(config) if "None" in str(f.type)}
    for name in names:
        value = values.get(name)
        if name not in values or (value is None and name in optional):
            continue
        if not (isinstance(value, Integral) and value >= minimum):
            unset = " or None" if name in optional else ""
            raise error(f"{section}{name} must be an integer >= {minimum}{unset}, got {value!r}")


@dataclass
class WalkConfig:
    """Random-walk generation settings (Algorithm 2's inputs).

    The object a walk is built from: both engines keep it as
    ``engine.config``, a stepper reads it through its
    :class:`~repro.registry.SamplerContext`, and a shard worker gets it
    over the wire. Their keyword spellings (``sampler=``, ``backend=``,
    ...) are sugar that replaces fields here (:func:`take_fields`).

    ``num_walks`` / ``walk_length``
        the walk shape; ``walk_length`` counts nodes per sequence. The
        paper's default workload is 10 walks of length 80 per node.
    ``sampler`` / ``initializer`` / ``backend``
        names in :data:`repro.registry.SAMPLER_REGISTRY`,
        :data:`~repro.registry.INITIALIZER_REGISTRY` (M-H chain
        initialization) and :data:`~repro.registry.KERNEL_REGISTRY`,
        normalised to their canonical spelling (``"metropolis-hastings"``
        -> ``"mh"``, ``"burnin"`` -> ``"burn-in"``, ``"c"`` ->
        ``"cnative"``). A sampler *instance* passes through untouched;
        an initializer is a registry name and nothing else (register a
        strategy with :func:`~repro.registry.register_initializer`).
    ``init_sample_cap``
        candidate edges the high-weight initializer draws per fresh
        chain, uniformly with replacement, also on rows of fewer edges
        (``None``: the exact row argmax).
    ``burn_in_iterations``
        M-H iterations of the burn-in initializer.
    ``table_budget_bytes``
        alias-table budget; required by a sampler registered with
        ``needs_table_budget`` (``memory-aware``).
    ``max_reject_rounds``
        proposal rounds before a rejection-sampled walker gives up.

    Every check runs here, each a :class:`~repro.errors.WalkError`
    naming the field, so a typo or an out-of-range value fails at config
    time and not mid-pipeline. Whether the backend's *dependency* is
    present is checked when the engine is built
    (:class:`~repro.errors.ConfigError`): a config can be authored on a
    machine that lacks the compiler that will run it.
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

        check_counts(self, ("num_walks", "walk_length", "init_sample_cap", "max_reject_rounds"))
        check_counts(self, ("burn_in_iterations", "table_budget_bytes"), minimum=0)
        try:
            if isinstance(self.sampler, str):
                self.sampler = SAMPLER_REGISTRY.canonical(self.sampler)
                needs_budget = SAMPLER_REGISTRY.capabilities(self.sampler).get("needs_table_budget")
                if needs_budget and self.table_budget_bytes is None:
                    raise WalkError(f"sampler {self.sampler!r} needs table_budget_bytes")
            if not isinstance(self.initializer, str):
                raise WalkError(
                    f"initializer must be a registered name, got {type(self.initializer).__name__}"
                )
            self.initializer = INITIALIZER_REGISTRY.canonical(self.initializer)
            if isinstance(self.backend, str):
                self.backend = KERNEL_REGISTRY.canonical(self.backend)
        except ReproError as err:
            raise WalkError(str(err)) from None

    def reshaped(self, num_walks=None, walk_length=None, **overrides) -> "WalkConfig":
        """A copy with fields replaced; a ``None`` walk shape keeps this one's."""
        shape = {"num_walks": num_walks, "walk_length": walk_length}
        overrides.update({k: v for k, v in shape.items() if v is not None})
        return replace(self, **overrides)


#: Vocabulary strategies for streamed training (see :class:`StreamingConfig`).
STREAMING_VOCAB_MODES = ("degree", "exact")


@dataclass
class StreamingConfig:
    """Shard-streaming pipeline settings (bounded-memory walk→train).

    When a streaming block is present on a run, walk generation yields
    :class:`~repro.walks.corpus.WalkCorpus` shards that the word2vec
    trainer consumes incrementally, so peak corpus memory is O(shard)
    instead of O(total corpus), and with ``overlap=True`` the walk (Tw)
    and learn (Tl) phases share the wall clock. The block's presence is
    the switch: ``--set streaming=null`` runs the monolithic path.

    Parameters
    ----------
    shard_walks:
        walks per shard; ``None``: one wave (one walk per start node).
    overlap:
        run walk generation in a producer thread feeding a bounded queue
        that the trainer drains — Tw and Tl overlap on the wall clock
        (peak resident corpus is at most four shards — the two queued,
        the one the producer holds while the queue is full, the one
        being trained — plus the trainer's partial block buffer).
    vocab:
        ``"degree"`` estimates token frequencies from the stationary
        distribution (visits ∝ degree — exact for first-order walks on
        undirected graphs, no extra pass); ``"exact"`` runs a counting
        pass over a regenerated walk stream first (costs Tw twice, but
        reproduces the monolithic vocabulary bit-for-bit).

    The trainer's canonical block size is ``TrainConfig.extra["block_walks"]``
    (see :class:`repro.embedding.Word2Vec`); a streamed run defaults it
    to the shard size, which keeps the trainer's partial-block buffer
    within one shard. Set it to the trainer default (8192) together with
    ``vocab="exact"`` and ``overlap=False`` to reproduce a monolithic run
    of the same seed bit-for-bit.
    """

    shard_walks: int | None = None
    overlap: bool = False
    vocab: str = field(default="degree", metadata={"choices": STREAMING_VOCAB_MODES})

    def __post_init__(self):
        check_counts(self, ("shard_walks",), "streaming.")
        check_choices(self, "streaming")


@dataclass
class TrainConfig:
    """Embedding-learning settings forwarded to the word2vec trainer.

    ``extra`` holds the trainer-only keywords of
    :class:`repro.embedding.Word2Vec` (``batch_pairs``, ``max_row_step``,
    ``block_walks``). Every value is held to the trainer's own check
    (:func:`repro.embedding.word2vec.check_train_params`, which
    ``Word2Vec.__init__`` runs too) here, as a
    :class:`~repro.errors.TrainingError`: a spec that cannot train is
    refused before it walks.
    """

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

    def __post_init__(self):
        from repro.embedding.word2vec import check_train_params

        check_train_params(dimensions=self.dimensions, **self.word2vec_kwargs())

    def word2vec_kwargs(self) -> dict:
        """Keyword arguments for :class:`repro.embedding.Word2Vec`."""
        kwargs = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("dimensions", "extra")
        }
        kwargs.update(self.extra)
        return kwargs
