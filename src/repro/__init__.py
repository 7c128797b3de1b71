"""repro — a reproduction of UniNet (ICDE 2021).

UniNet is a unified, scalable framework for random-walk-based network
representation learning built around a Metropolis-Hastings (M-H) edge
sampler that draws from *unnormalised* transition distributions in O(1)
time and O(1) memory per walker state.

The public surface mirrors the paper's architecture:

* :mod:`repro.graph` — CSR network storage, loaders, synthetic datasets.
* :mod:`repro.sampling` — what the edge samplers are built from (alias
  tables, M-H initialization strategies, memory accounting); its
  docstring tables each sampler's stepper and complexity.
* :mod:`repro.walks` — the unified random-walk model abstraction (a
  model is one method, ``batch_dynamic_weight``), five published models, and
  the walk engine with one stepper per edge sampler: the M-H sampler
  plus every baseline the paper compares against (alias, direct,
  rejection, KnightKing-style outlier folding, memory-aware).
* :mod:`repro.embedding` — numpy word2vec (skip-gram / CBOW with negative
  sampling).
* :mod:`repro.evaluation` — node classification (micro/macro F1) and link
  prediction protocols.
* :mod:`repro.theory` — the convergence / initialization analysis behind
  Theorems 1-3 and Figure 1.
* :mod:`repro.serving` — the read path: memory-mapped
  :class:`~repro.serving.store.EmbeddingStore` files, the pluggable ANN
  index family (bruteforce / IVF), and the
  batching :class:`~repro.serving.service.QueryService`.
* :mod:`repro.sharding` — the KnightKing-style
  :class:`~repro.sharding.engine.ShardedWalkEngine` baseline on a
  degree-balanced partition, first-order M-H walks only, built only by
  the ``shard_walk`` benchmark (no pipeline entry builds it; it was
  slower than one process at every scale measured).
* :mod:`repro.registry` — the plugin layer: every component family
  (models, samplers, initializers) is a :class:`~repro.registry.Registry`
  that third-party code extends with ``@register_model`` /
  ``@register_sampler`` / ``register_initializer`` (a class whose static
  ``init_chains`` starts a batch of fresh M-H chains) — no package edits
  needed.
* :mod:`repro.core` — the :class:`~repro.core.uninet.UniNet` facade plus
  the declarative experiment layer: :class:`~repro.core.spec.RunSpec`
  (experiments as JSON-serialisable data) executed by :func:`repro.run`
  and swept by :func:`repro.run_many`.

Quickstart::

    from repro import UniNet, datasets

    graph, labels = datasets.load("blogcatalog", scale=0.5, seed=7)
    net = UniNet(graph, model="deepwalk", seed=7)
    result = net.train(num_walks=10, walk_length=80, dimensions=64)
    vectors = result.embeddings          # KeyedVectors
    print(vectors.most_similar(0, topn=5))

Declarative form of the same experiment::

    from repro import GraphSpec, RunSpec, run

    spec = RunSpec(graph=GraphSpec(dataset="blogcatalog", scale=0.5, seed=7))
    report = run(spec)                   # RunReport: timings, stats, metrics
    print(report.tt, report.sampler_stats["acceptance_ratio"])
"""

from importlib import import_module

__version__ = "1.0.0"

#: Lazily resolved public attributes -> (module, attribute) pairs.
_LAZY_ATTRS = {
    "UniNet": ("repro.core.uninet", "UniNet"),
    "WalkConfig": ("repro.config", "WalkConfig"),
    "TrainConfig": ("repro.config", "TrainConfig"),
    "StreamingConfig": ("repro.config", "StreamingConfig"),
    "RunSpec": ("repro.core.spec", "RunSpec"),
    "GraphSpec": ("repro.core.spec", "GraphSpec"),
    "EvalSpec": ("repro.core.spec", "EvalSpec"),
    "ServingSpec": ("repro.core.spec", "ServingSpec"),
    "UpdatesSpec": ("repro.core.spec", "UpdatesSpec"),
    "UpdateResult": ("repro.core.uninet", "UpdateResult"),
    "GraphDelta": ("repro.graph.delta", "GraphDelta"),
    "load_deltas": ("repro.graph.delta", "load_deltas"),
    "save_deltas": ("repro.graph.delta", "save_deltas"),
    "EmbeddingStore": ("repro.serving.store", "EmbeddingStore"),
    "QueryService": ("repro.serving.service", "QueryService"),
    "QueryServer": ("repro.serving.server", "QueryServer"),
    "SnapshotManager": ("repro.serving.snapshot", "SnapshotManager"),
    "register_index": ("repro.serving.index", "register_index"),
    "register_codec": ("repro.serving.codec", "register_codec"),
    "make_codec": ("repro.serving.codec", "make_codec"),
    "run": ("repro.core.runner", "run"),
    "run_many": ("repro.core.runner", "run_many"),
    "RunReport": ("repro.core.runner", "RunReport"),
    "TrainResult": ("repro.core.pipeline", "TrainResult"),
    "WalkResult": ("repro.core.pipeline", "WalkResult"),
    "Registry": ("repro.registry", "Registry"),
    "LintRule": ("repro.analysis", "LintRule"),
    "run_lint": ("repro.analysis", "run_lint"),
    "register_model": ("repro.registry", "register_model"),
    "register_sampler": ("repro.registry", "register_sampler"),
    "register_initializer": ("repro.registry", "register_initializer"),
    "CSRGraph": ("repro.graph.csr", "CSRGraph"),
    "GraphBuilder": ("repro.graph.builder", "GraphBuilder"),
    "NodeLabels": ("repro.graph.labels", "NodeLabels"),
    "datasets": ("repro.graph", "datasets"),
}

__all__ = [*_LAZY_ATTRS, "__version__"]


def __getattr__(name: str):
    """Resolve public attributes on first use (PEP 562 lazy imports)."""
    try:
        module_name, attr = _LAZY_ATTRS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    if attr == "datasets":
        value = import_module("repro.graph.datasets")
    else:
        value = getattr(import_module(module_name), attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(__all__)
