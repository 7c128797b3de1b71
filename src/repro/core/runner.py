"""Declarative experiment execution: ``repro.run`` / ``repro.run_many``.

:func:`run` executes one :class:`~repro.core.spec.RunSpec` end to end —
load graph, resolve the model through the registry, generate walks, learn
embeddings, evaluate — and returns a structured :class:`RunReport` with
the paper's phase timings (Ti/Tw/Tl/Tt), the sampler counter snapshot,
and any evaluation metrics.

:func:`run_many` expands a grid over spec fields (the multi-configuration
loops every benchmark used to hand-roll)::

    reports = repro.run_many(base_spec, grid={
        "sampler": ["mh", "direct", "rejection"],
        "model": ["deepwalk", "node2vec"],
    })

Grid keys are dotted paths into the spec dict (``"walk.num_walks"``,
``"model_params.p"``, ``"train.dimensions"``); the sugar keys of
:data:`repro.core.spec.SUGAR` (``sampler``, ``num_walks``, ``backend``,
...) work at the top level.

Seeds: :func:`run` drives the :class:`~repro.core.uninet.UniNet` facade,
so ``run(spec)`` with ``seed=S`` learns bit for bit the embeddings of
``UniNet(graph, seed=S).train(...)`` and of ``repro train --seed S``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields, replace

import numpy as np

from repro.core.pipeline import PhaseTimings
from repro.core.spec import SUGAR, RunSpec, ServingSpec
from repro.core.uninet import UniNet
from repro.errors import SpecError


def _jsonable(value):
    """Coerce numpy scalars/arrays and tuples so ``json.dumps`` works."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


@dataclass
class RunReport(PhaseTimings):
    """Structured outcome of one :func:`run` call."""

    spec: RunSpec
    #: Phase seconds: ``init`` (Ti), ``walk`` (Tw), ``learn`` (Tl),
    #: ``total`` (Tt).
    timings: dict[str, float]
    #: Engine counter snapshot (``acceptance_ratio``, ``setup_seconds``,
    #: ``init_seconds``, ...), taken once after walk generation.
    sampler_stats: dict[str, float]
    sampler_memory_bytes: int
    #: Corpus shape: ``num_walks``, ``token_count`` and
    #: ``peak_corpus_bytes`` (the whole corpus when monolithic, the
    #: shard/queue high-water mark when streaming).
    corpus_summary: dict[str, int]
    #: Evaluation results keyed by task name (empty when no evaluation).
    metrics: dict = field(default_factory=dict)
    embeddings: object | None = field(default=None, repr=False)
    corpus: object | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        """JSON-ready dict (embeddings and corpus are not serialised)."""
        return _jsonable(
            {
                "spec": self.spec.to_dict(),
                "timings": self.timings,
                "sampler_stats": self.sampler_stats,
                "sampler_memory_bytes": self.sampler_memory_bytes,
                "corpus_summary": self.corpus_summary,
                "metrics": self.metrics,
            }
        )

    def summary_row(self) -> dict:
        """One flat table row (benchmark/CLI reporting convenience)."""
        row = {
            "run": self.spec.label(),
            "model": self.spec.model,
            "sampler": self.spec.walk.sampler,
            "init_s": self.ti,
            "walk_s": self.tw,
            "learn_s": self.tl,
            "total_s": self.tt,
            "acceptance": self.sampler_stats.get("acceptance_ratio", 1.0),
            "memory_bytes": self.sampler_memory_bytes,
        }
        for task, result in self.metrics.items():
            if isinstance(result, dict):
                for key, value in result.items():
                    if isinstance(value, (int, float)):
                        row[f"{task}.{key}"] = value
        return row


def _evaluate(spec: RunSpec, embeddings, labels) -> dict:
    ev = spec.evaluation
    if ev is None:
        return {}
    if ev.task == "classification":
        from repro.evaluation import classification_sweep

        sweep = classification_sweep(
            embeddings,
            labels,
            train_fractions=ev.train_fractions,
            trials=ev.trials,
            seed=ev.seed,
        )
        return {"classification": sweep}
    from repro.evaluation import clustering_experiment

    return {"clustering": clustering_experiment(embeddings, labels, seed=ev.seed)}


def _serve_probe(spec: RunSpec, embeddings) -> dict:
    """Stand up the spec's serving block and fire one probe batch.

    Returns the :class:`~repro.serving.service.QueryService` counter
    snapshot (qps, mean batch latency, cache hit rate) — the read-path
    numbers recorded next to the evaluation metrics — plus
    ``compression_ratio`` (float32 matrix bytes over encoded bytes) and
    ``recall_probe`` (the probe batch's top-``topn`` overlap with the
    exact float32 brute-force answers). Every service here, the exact
    reference included, comes from :meth:`ServingSpec.build`.
    """
    from repro.serving import INDEX_REGISTRY, topk_overlap

    sv = spec.serving
    service = replace(sv, server=None).build(embeddings)
    store = service.store
    probe_keys = np.asarray(store.keys)[: min(sv.probe_queries, len(store))]
    results = service.most_similar_batch(probe_keys, topn=sv.topn)
    stats = service.stats()
    stats["topn"] = sv.topn
    stats["compression_ratio"] = 4 * len(store) * store.dimensions / max(store.codes.nbytes, 1)
    # anything approximate in the path — a lossy codec or a non-exact
    # index — gets its recall measured against the exact float32 scan;
    # only exact-on-exact is 1.0 by construction
    if store.is_quantized or not INDEX_REGISTRY.entry(sv.index).capabilities.get("exact", False):
        exact = ServingSpec(cache_size=0).build(embeddings)
        stats["recall_probe"] = topk_overlap(
            exact.most_similar_batch(probe_keys, topn=sv.topn), results
        )
    else:
        stats["recall_probe"] = 1.0
    if sv.server is not None:
        stats["server"] = _server_probe(sv.build(store), probe_keys, sv.topn)
    return stats


def _server_probe(server, probe_keys, topn: int) -> dict:
    """Drive the probe keys through a batching :class:`QueryServer`.

    One concurrent in-process client per probe key, so the dispatcher
    actually coalesces — the recorded ``mean_batch``/``p99_ms``/``qps``
    reflect the micro-batching path, not a sequential loop.
    """
    import asyncio

    from repro.serving import InProcessClient, ServerConfig

    async def drive() -> dict:
        await server.start()
        client = InProcessClient(server)
        await asyncio.gather(*(client.most_similar(int(k), topn=topn) for k in probe_keys))
        stats = server.stats()
        await server.stop()
        return stats

    stats = asyncio.run(drive())
    reported = ("answered", "shed", "batches", "mean_batch", "p50_ms", "p99_ms", "qps")
    return {key: stats[key] for key in (*reported, *(f.name for f in fields(ServerConfig)))}


def _replay_updates(net: UniNet, upd) -> list[dict]:
    """Replay a delta schedule through the facade, one metrics row per step.

    The rows carry the per-step sampler revalidation and
    incremental-retrain costs that ``report.metrics["updates"]`` records.
    """
    rows = []
    for i, delta in enumerate(upd.deltas()):
        ur = net.update(delta, refresh=upd.refresh)
        row = {
            "step": i,
            "added": int(delta.add_src.size),
            "removed": int(delta.remove_src.size),
            "reweighted": int(delta.reweight_src.size),
            "add_nodes": int(delta.add_nodes),
            "update_s": ur.seconds,
            "invalidated_states": int(ur.sampler_refresh.get("invalidated_states", 0)),
            "rebuilt_nodes": int(ur.sampler_refresh.get("rebuilt_nodes", 0)),
            "rebuild_cost_bytes": int(ur.sampler_refresh.get("rebuild_cost_bytes", 0)),
        }
        if upd.retrain:
            rr = net.refresh_embeddings(
                num_walks=upd.num_walks, walk_length=upd.walk_length
            )
            row["refresh_s"] = rr.tt
            row["rewalked"] = int(rr.corpus_summary.get("num_walks", 0))
        rows.append(row)
    return rows


def run(
    spec,
    *,
    keep_embeddings: bool = True,
    keep_corpus: bool = False,
    graph_cache: dict | None = None,
) -> RunReport:
    """Execute one declarative experiment; returns a :class:`RunReport`.

    ``spec`` may be a :class:`RunSpec` or a plain dict (parsed JSON).
    Set ``keep_corpus=True`` to retain the walk corpus on the report
    (off by default — corpora dwarf everything else in memory).
    ``graph_cache`` maps :meth:`GraphSpec.cache_key` to ``(graph,
    labels)``; pass one to reuse already-materialised graphs (callers
    holding the graph can seed it: ``{spec.graph.cache_key(): (graph,
    labels)}``) — :func:`run_many` threads one through a whole sweep.
    """
    if isinstance(spec, dict):
        spec = RunSpec.from_dict(spec)
    elif not isinstance(spec, RunSpec):
        raise SpecError(
            f"run() needs a RunSpec or a spec mapping, got {type(spec).__name__}"
        )

    cache_key = spec.graph.cache_key()
    if graph_cache is not None and cache_key in graph_cache:
        graph, labels = graph_cache[cache_key]
    else:
        graph, labels = spec.graph.load()
        if graph_cache is not None:
            graph_cache[cache_key] = (graph, labels)
    if spec.evaluation is not None and labels is None:
        raise SpecError(
            f"evaluation task {spec.evaluation.task!r} needs a labeled dataset; "
            f"{spec.graph.dataset or spec.graph.edge_list!r} has no labels"
        )
    # the one execution path: walk-only, monolithic, streamed and replayed
    # runs all go through the facade, which owns the seed stream
    net = UniNet(graph, spec.model, seed=spec.seed, **spec.model_params)
    result = net.train_from_configs(spec.walk, spec.train, streaming=spec.streaming)
    update_rows = _replay_updates(net, spec.updates) if spec.updates is not None else None
    embeddings = net.last_embeddings  # refreshed by the replay when it retrained
    metrics = _jsonable(_evaluate(spec, embeddings, labels))
    if update_rows is not None:
        metrics["updates"] = update_rows
    if spec.serving is not None:
        metrics["serving"] = _jsonable(_serve_probe(spec, embeddings))
    corpus_summary = {k: int(v) for k, v in result.corpus_summary.items()}
    corpus_summary["peak_corpus_bytes"] = int(result.peak_corpus_bytes)
    return RunReport(
        spec=spec,
        timings=dict(result.timings),
        sampler_stats=dict(result.sampler_stats),
        sampler_memory_bytes=result.sampler_memory_bytes,
        corpus_summary=corpus_summary,
        metrics=metrics,
        embeddings=embeddings if keep_embeddings else None,
        corpus=result.corpus if keep_corpus else None,
    )


def apply_override(data: dict, key: str, value) -> dict:
    """Set a dotted-path ``key`` inside a spec dict (in place).

    ``"train.dimensions"`` descends into the ``train`` section (creating
    it when it is missing or ``None``); :data:`~repro.core.spec.SUGAR`
    keys map onto their section. Returns ``data`` for chaining.
    """
    path = SUGAR.get(key, key).split(".")
    if SUGAR.get(path[-1]) == ".".join(path):
        # a spec dict may carry the same setting as a top-level sugar key
        # (RunSpec.from_dict lets sugar win) — drop it so the override
        # written into the section cannot be shadowed by stale sugar
        data.pop(path[-1], None)
    node = data
    for part in path[:-1]:
        if not isinstance(node.get(part), dict):
            node[part] = {}
        node = node[part]
    node[path[-1]] = value
    return data


def expand_variations(spec, variations, *, names=None) -> list[RunSpec]:
    """One independent spec per ``{dotted-path: value}`` override dict.

    The base ``spec`` (RunSpec or dict) is deep-copied per variation and
    the overrides applied with :func:`apply_override`; ``names``
    optionally relabels each result. When a variation overrides
    ``model``, the base ``model_params`` are restricted to what the new
    model declares in its ``param_spec`` — so "all samplers x models"
    sweeps work even though e.g. deepwalk takes none of node2vec's
    parameters.
    """
    if isinstance(spec, RunSpec):
        spec = spec.to_dict()
    elif not isinstance(spec, dict):
        raise SpecError("expand_variations needs a RunSpec or a spec dict")
    specs = []
    for i, variation in enumerate(variations):
        data = RunSpec.from_dict(spec).to_dict()  # deep, independent copy
        for key, value in variation.items():
            apply_override(data, key, value)
        if "model" in variation and data.get("model_params"):
            from repro.registry import MODEL_REGISTRY

            param_spec = MODEL_REGISTRY.entry(data["model"]).capabilities.get("param_spec")
            if param_spec is not None:
                data["model_params"] = {
                    k: v for k, v in data["model_params"].items() if k in param_spec
                }
        if names is not None:
            data["name"] = names[i]
        specs.append(RunSpec.from_dict(data))
    return specs


def expand_grid(spec, grid: dict) -> list[RunSpec]:
    """All grid combinations of ``spec`` as independent specs.

    ``grid`` maps dotted spec paths to value lists; the cartesian product
    is expanded in the given key order and each combination is named
    ``<base>[k=v, ...]`` for reporting. Per-combination semantics are
    those of :func:`expand_variations`.
    """
    if isinstance(spec, RunSpec):
        spec = spec.to_dict()
    elif not isinstance(spec, dict):
        raise SpecError("expand_grid needs a RunSpec or a spec dict")
    if not grid:
        return [RunSpec.from_dict(spec)]
    keys = list(grid)
    combos = list(itertools.product(*(grid[k] for k in keys)))
    base_name = spec.get("name") or ""
    names = []
    for combo in combos:
        tag = ", ".join(f"{k}={v}" for k, v in zip(keys, combo))
        names.append(f"{base_name}[{tag}]" if base_name else tag)
    return expand_variations(
        spec, [dict(zip(keys, combo)) for combo in combos], names=names
    )


def run_many(
    spec_or_specs,
    grid: dict | None = None,
    *,
    graph_cache: dict | None = None,
    **run_kwargs,
) -> list[RunReport]:
    """Run a grid sweep (or an explicit spec list); returns the reports.

    Pass a base spec plus ``grid`` to sweep combinations, or a
    list/tuple of specs to run them as-is. Specs sharing an identical
    graph spec load the graph once for the whole sweep; pass a
    pre-seeded ``graph_cache`` (see :func:`run`) to reuse a graph you
    already hold. Extra keyword arguments are forwarded to :func:`run`.
    """
    if isinstance(spec_or_specs, (list, tuple)):
        if grid:
            raise SpecError("pass either a spec list or a base spec + grid, not both")
        specs = [RunSpec.from_dict(s) if isinstance(s, dict) else s for s in spec_or_specs]
    else:
        specs = expand_grid(spec_or_specs, grid or {})
    if graph_cache is None:
        graph_cache = {}
    return [run(s, graph_cache=graph_cache, **run_kwargs) for s in specs]
