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

import inspect
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from numbers import Integral, Real

from repro.errors import TrainingError, WalkError


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


def _settings(config, names):
    """``(name, value, optional)`` of each named setting of ``config``: a config
    dataclass, where a field whose type admits ``None`` is optional (left unset),
    or a mapping of keyword values (``names=None``: all of them), where a name
    it lacks is skipped."""
    if isinstance(config, Mapping):
        return [(name, config[name], False) for name in names or config if name in config]
    optional = {f.name for f in fields(config) if "None" in str(f.type)}
    return [(name, getattr(config, name), name in optional) for name in names]


def is_number(value, kind) -> bool:
    """Whether ``value`` is an ``Integral`` / ``Real`` setting (a bool is neither)."""
    return isinstance(value, kind) and not isinstance(value, bool)


def check_counts(config, names=None, section: str = "", error=WalkError, minimum: int = 1) -> None:
    """Hold each named setting to an integer >= ``minimum``: the one count
    check, raising the section's ``error`` (``config`` as for :func:`_settings`)."""
    for name, value, optional in _settings(config, names):
        if not (is_number(value, Integral) and value >= minimum or optional and value is None):
            unset = " or None" if optional else ""
            raise error(f"{section}{name} must be an integer >= {minimum}{unset}, got {value!r}")


def check_reals(config, names=None, section: str = "", error=WalkError, interval: str = "(0, inf)") -> None:
    """Hold each named setting to a finite real inside ``interval``, written
    as in mathematics (``"[0, 1)"``: a bracket is a closed end, a parenthesis
    an open one, as an end at infinity always is, so NaN and infinities fail
    the comparisons): the one real-value check, called as :func:`check_counts`."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = operator.gt if interval[0] == "(" else operator.ge
    below = operator.lt if interval[-1] == ")" else operator.le
    for name, value, optional in _settings(config, names):
        inside = is_number(value, Real) and above(value, low) and below(value, high)
        if not (inside or optional and value is None):
            unset = " or None" if optional else ""
            raise error(f"{section}{name} must be a finite real in {interval}{unset}, got {value!r}")


def check_bools(config, names=None, section: str = "", error=WalkError) -> None:
    """Hold each named setting to ``True`` or ``False``, not a truthy stand-in
    (``"false"``, ``1``, NaN): the one switch check, called as :func:`check_counts`."""
    for name, value, optional in _settings(config, names):
        if not (isinstance(value, bool) or optional and value is None):
            raise error(f"{section}{name} must be true or false, got {value!r}")


def check_keywords(factory, params, section: str, error, *leading) -> None:
    """Refuse the keywords that ``factory(*leading, **params)`` would not
    take, as the section's ``error`` rather than a ``TypeError``."""
    try:
        inspect.signature(factory).bind_partial(*leading, **params)
    except TypeError as err:
        raise error(f"{section}{err}") from None


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
        ``"cnative"``). Each is a registry name and nothing else
        (register a stepper with :func:`~repro.registry.register_sampler`,
        a strategy with :func:`~repro.registry.register_initializer`).
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
        for name in ("sampler", "initializer", "backend"):
            if not isinstance(getattr(self, name), str):
                raise WalkError(f"{name} must be a registered name, got {getattr(self, name)!r}")
        try:
            self.sampler = SAMPLER_REGISTRY.canonical(self.sampler)
            needs_budget = SAMPLER_REGISTRY.capabilities(self.sampler).get("needs_table_budget")
            if needs_budget and self.table_budget_bytes is None:
                raise WalkError(f"sampler {self.sampler!r} needs table_budget_bytes")
            self.initializer = INITIALIZER_REGISTRY.canonical(self.initializer)
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
        check_bools(self, ("overlap",), "streaming.")
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

        if not isinstance(self.extra, Mapping):
            raise TrainingError(f"train.extra must be a mapping, got {self.extra!r}")
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
