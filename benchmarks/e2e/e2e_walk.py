"""``walk_only``: the Table VII setting — walks and nothing else.

node2vec (p = 0.25, q = 4) over the Twitter stand-in with the M-H
sampler and the compiled kernels; a fresh engine per repetition, so the
second-order dynamic weights and the lazy M-H initialisation are paid
every time. ``walks.kernels`` and ``sampling`` do all the work here and
``embedding`` / ``serving`` / ``sharding`` none: it guards the monolithic
engine when the stepping core is unified.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from e2e_common import median, repeat_for, resolve_walk_backend

NAME = "walk_only"

SIZES = {
    "full": dict(scale=0.5, num_walks=10, walk_length=80, min_reps=3, edge_samples=10_000),
    "smoke": dict(scale=0.01, num_walks=2, walk_length=20, min_reps=2, edge_samples=1_000),
}

P, Q = 0.25, 4.0


def _digest(corpus) -> str:
    h = hashlib.sha256(np.ascontiguousarray(corpus.walks))
    h.update(np.ascontiguousarray(corpus.lengths))
    return h.hexdigest()


def _engine(ctx, model_name: str, backend: str):
    from repro.walks.models import make_model
    from repro.walks.vectorized import VectorizedWalkEngine

    params = {"p": P, "q": Q} if model_name == "node2vec" else {}
    model = make_model(model_name, ctx["graph"], **params)
    return VectorizedWalkEngine(
        ctx["graph"], model, sampler="mh", initializer="high-weight",
        backend=backend, seed=ctx["seed"],
    )


def _steps_are_edges(graph, corpus, samples: int, seed: int) -> bool:
    """Every sampled consecutive token pair is an edge of the graph."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, corpus.num_walks, samples)
    rows = rows[corpus.lengths[rows] >= 2]
    cols = (rng.random(rows.size) * (corpus.lengths[rows] - 1)).astype(np.int64)
    return bool(
        graph.has_edge_batch(corpus.walks[rows, cols], corpus.walks[rows, cols + 1]).all()
    )


def setup(seed: int, size: dict, tracer) -> dict:
    from repro.graph import datasets

    with tracer.span("graph.load", "graph"):
        graph = datasets.load("twitter", scale=size["scale"], seed=seed)
    with tracer.span("kernel.resolve", "walks"):
        backend = resolve_walk_backend()
    ctx = {"seed": seed, "size": size, "graph": graph, "backend": backend}
    # Waves run one after another on one generator, so the first wave of
    # the full run equals a one-wave run: one numpy wave is the reference
    # for every repetition, and one compiled wave is the warm-up.
    with tracer.span("reference.wave", "walks"):
        ctx["numpy_wave"] = _engine(ctx, "node2vec", "numpy").generate(
            num_walks=1, walk_length=size["walk_length"]
        )
    with tracer.span("warmup.wave", "walks"):
        _engine(ctx, "node2vec", backend).generate(num_walks=1, walk_length=size["walk_length"])
    return ctx


def _check_rep(ctx, corpus, first_digest):
    wave = ctx["numpy_wave"]
    return {
        "digest_repeats": first_digest is None or _digest(corpus) == first_digest,
        "first_wave_equals_numpy": bool(
            np.array_equal(corpus.walks[: wave.num_walks], wave.walks)
            and np.array_equal(corpus.lengths[: wave.num_walks], wave.lengths)
        ),
    }


def measure(ctx, seconds: float) -> dict:
    from repro.core.config import WalkConfig
    from repro.core.pipeline import generate_walk_result
    from repro.walks.models import make_model

    size, graph = ctx["size"], ctx["graph"]
    config = WalkConfig(
        num_walks=size["num_walks"], walk_length=size["walk_length"],
        sampler="mh", initializer="high-weight", backend=ctx["backend"],
    )
    ctx["digest"] = None

    def one_rep(rep):
        t0 = time.perf_counter()
        model = make_model("node2vec", graph, p=P, q=Q)
        result = generate_walk_result(graph, model, config, seed=ctx["seed"])
        wall = time.perf_counter() - t0
        checks = _check_rep(ctx, result.corpus, ctx["digest"])
        if ctx["digest"] is None:
            ctx["digest"] = _digest(result.corpus)
            checks["steps_are_edges"] = _steps_are_edges(
                graph, result.corpus, size["edge_samples"], ctx["seed"]
            )
        return {"wall_s": wall, "tokens": result.corpus.token_count, "checks": checks}

    reps = repeat_for(seconds, size["min_reps"], one_rep)
    wall = median(r["wall_s"] for r in reps)
    names = {name for r in reps for name in r["checks"]}
    return {
        "values": {"op_p50_ms": 1000.0 * wall},
        "attempted": len(reps),
        "failed": sum(not all(r["checks"].values()) for r in reps),
        "checks": {n: all(r["checks"].get(n, True) for r in reps) for n in sorted(names)},
        "detail": {
            "reps": len(reps), "rep_wall_s": wall, "rep_walls_s": [r["wall_s"] for r in reps],
            "steps_per_s": reps[0]["tokens"] / wall, "corpus_sha256": ctx["digest"],
        },
    }


def trace(ctx, seconds: float, tracer, untraced: dict) -> dict:
    size, graph = ctx["size"], ctx["graph"]
    shape = dict(num_walks=size["num_walks"], walk_length=size["walk_length"])
    last = {}

    def one_rep(rep):
        with tracer.span("rep", "core", rep):
            with tracer.span("engine.build", "walks", rep):
                engine = _engine(ctx, "node2vec", ctx["backend"])
            with tracer.span("generate", "walks", rep):
                corpus = engine.generate(**shape)
        last.update(engine=engine, corpus=corpus)
        return _check_rep(ctx, corpus, ctx["digest"])

    rep_checks = repeat_for(seconds, size["min_reps"], one_rep)
    engine, corpus = last["engine"], last["corpus"]
    stats = engine.stats()
    build_s = median(tracer.seconds("engine.build"))
    rep_s = median(tracer.seconds("rep"))
    ti_s = stats["setup_seconds"] + stats["init_seconds"]

    # the same corpus on the reference backend: kernel share of the speed
    with tracer.span("numpy.rep", "walks"):
        numpy_corpus = _engine(ctx, "node2vec", "numpy").generate(**shape)
    # deepwalk on the same graph: the static-kind kernel path
    with tracer.span("first_order.rep", "walks"):
        first_order = _engine(ctx, "deepwalk", ctx["backend"]).generate(**shape)

    checks = {n: all(c[n] for c in rep_checks) for n in rep_checks[0]}
    checks["full_corpus_equals_numpy"] = _digest(numpy_corpus) == ctx["digest"]
    untraced_rep_s = untraced["detail"]["rep_wall_s"]
    return {
        "checks": checks,
        "metrics": {
            "graph.load_s": tracer.total("graph.load"),
            "graph.edge_entries": int(graph.offsets[-1]),
            "walks.build_s": build_s,
            "walks.ti_s": ti_s,
            "walks.tw_s": max(rep_s - ti_s, 0.0),
            "walks.steps": int(stats["samples"]),
            "walks.corpus_bytes": int(corpus.nbytes),
            "walks.steps_per_s": corpus.token_count / rep_s,
            "walks.numpy_steps_per_s": numpy_corpus.token_count / tracer.total("numpy.rep"),
            "walks.first_order_steps_per_s": (
                first_order.token_count / tracer.total("first_order.rep")
            ),
            "sampling.proposals_per_sample": stats["proposals"] / max(stats["samples"], 1),
            "sampling.initializations": int(stats["initializations"]),
            "sampling.memory_bytes": int(engine.memory_bytes()),
            "trace.overhead_frac": (rep_s - untraced_rep_s) / untraced_rep_s,
        },
    }
