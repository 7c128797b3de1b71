"""``train_e2e``: the Table VI pipeline as a user calls it.

``datasets.load`` → ``train_pipeline`` (deepwalk, M-H sampler with
high-weight init, monolithic) → ``EmbeddingStore`` save/open →
``QueryService.most_similar_batch`` over all keys → node
classification at 50 % labels. The learn phase does ~99 % of the work
here and the walk phase ~0.2 %, so this is the one workload where a
learn-phase kernel can show, and where a walk optimisation is predicted
to show nothing.
"""

from __future__ import annotations

import time

import numpy as np

from e2e_common import OUT_DIR, Tracer, median, repeat_for, resolve_walk_backend

NAME = "train_e2e"
#: end-to-end numbers always come from untraced calls
_UNTRACED = Tracer(NAME, enabled=False)

SIZES = {
    # Do not shrink the walk budget: under ten walks a node micro-F1
    # collapses (0.09 at 3 x 40, 0.51 at 6 x 40) and the quality check
    # stops meaning anything. The graph is 0.3 of the Table VI stand-in so
    # that a run holds four or five passes and reports their median.
    "full": dict(scale=0.3, num_walks=10, walk_length=40, dimensions=128, f1_floor=0.9),
    "smoke": dict(scale=0.2, num_walks=4, walk_length=20, dimensions=32, f1_floor=0.0),
}

#: Pairs per SGD batch, through ``TrainConfig.extra``. At the trainer's
#: default of 8192 each batch makes 21 MB temporaries, and how fast those
#: stream depends on the pages a process happens to get: pass times of
#: one commit then differ by 16-20 % (quartiles) between processes on the
#: authoring VM, and differed by 35 % where the benchmark is checked. At
#: 1024 the temporaries are 2.6 MB, the same code runs the same
#: arithmetic, and the spread is 5 %.
BATCH_PAIRS = 1024


def _configs(ctx):
    from repro.core.config import TrainConfig, WalkConfig

    size = ctx["size"]
    walk = WalkConfig(
        num_walks=size["num_walks"], walk_length=size["walk_length"],
        sampler="mh", initializer="high-weight", backend=ctx["backend"],
    )
    train = TrainConfig(
        dimensions=size["dimensions"], window=5, negative=5, epochs=1,
        extra={"batch_pairs": BATCH_PAIRS},
    )
    return walk, train


def setup(seed: int, size: dict, tracer) -> dict:
    from repro.graph import datasets

    with tracer.span("graph.load", "graph"):
        graph, labels = datasets.load("blogcatalog", scale=size["scale"], seed=seed)
    with tracer.span("kernel.resolve", "walks"):
        backend = resolve_walk_backend()
    return {"seed": seed, "size": size, "graph": graph, "labels": labels, "backend": backend}


def _serve_and_score(ctx, embeddings, tracer, rep=0) -> dict:
    """Export → open → query → classify; returns checks and the F1."""
    from repro.evaluation.classification import classification_sweep
    from repro.serving import EmbeddingStore, QueryService

    path = OUT_DIR / "tmp" / f"train_e2e-{ctx['seed']}.embstore"
    with tracer.span("store.export", "serving", rep):
        EmbeddingStore.from_keyed_vectors(embeddings).save(path)
    with tracer.span("store.open", "serving", rep):
        store = EmbeddingStore.open(path)
    with tracer.span("index.build", "serving", rep):
        service = QueryService(store, index="bruteforce", cache_size=0)
    with tracer.span("query", "serving", rep):
        neighbours = service.most_similar_batch(np.asarray(store.keys), topn=10)
        top1 = service.topk_vectors(store.decode_all(), topn=1)
    with tracer.span("evaluate", "evaluation", rep):
        sweep = classification_sweep(
            embeddings, ctx["labels"], train_fractions=(0.5,), trials=3, seed=ctx["seed"]
        )
    micro_f1 = sweep[0]["micro_f1_mean"]
    trained = np.asarray(embeddings.vectors, dtype=np.float32)
    checks = {
        "micro_f1_floor": micro_f1 >= ctx["size"]["f1_floor"],
        "store_roundtrip_bitwise": bool(
            np.array_equal(np.asarray(store.keys), embeddings.keys)
            and np.array_equal(store.decode_all(), trained)
        ),
        "top1_is_self": all(
            row and row[0][0] == key for key, row in zip(np.asarray(store.keys), top1)
        ),
        "ten_neighbours_each": all(len(row) == 10 for row in neighbours),
    }
    path.unlink()
    return {"micro_f1": micro_f1, "checks": checks}


def measure(ctx, seconds: float) -> dict:
    from repro.core.pipeline import train_pipeline

    walk, train = _configs(ctx)

    def one_pass(rep):
        t0 = time.perf_counter()
        result = train_pipeline(ctx["graph"], "deepwalk", walk, train, seed=ctx["seed"])
        wall = time.perf_counter() - t0
        out = {
            "tt_s": result.tt, "wall_s": wall, "tl_s": result.tl,
            "tokens": result.corpus_summary["token_count"],
        }
        if rep == 0:
            # the first pass is served and scored; a pass is a function of
            # the seed, so the later ones only have to repeat it
            ctx["embeddings"] = result.embeddings
            out.update(_serve_and_score(ctx, result.embeddings, _UNTRACED))
        else:
            out["checks"] = {"pass_repeats_bitwise": bool(
                np.array_equal(result.embeddings.vectors, ctx["embeddings"].vectors)
            )}
        return out

    passes = repeat_for(seconds, 1, one_pass)
    tt = median(p["tt_s"] for p in passes)
    names = {name for p in passes for name in p["checks"]}
    return {
        "values": {"op_p50_ms": 1000.0 * tt},
        "attempted": len(passes),
        "failed": sum(not all(p["checks"].values()) for p in passes),
        "checks": {n: all(p["checks"].get(n, True) for p in passes) for n in sorted(names)},
        "detail": {
            "passes": len(passes),
            "tt_s": tt,
            "tts_s": [p["tt_s"] for p in passes],
            "pipeline_wall_s": median(p["wall_s"] for p in passes),
            "tl_s": median(p["tl_s"] for p in passes),
            "micro_f1": passes[0]["micro_f1"],
        },
    }


def trace(ctx, seconds: float, tracer, untraced: dict) -> dict:
    """The same pipeline decomposed in the harness, one span per stage."""
    from repro.embedding.word2vec import Word2Vec
    from repro.walks.corpus import WalkCorpus
    from repro.walks.models import make_model
    from repro.walks.vectorized import VectorizedWalkEngine

    graph, seed = ctx["graph"], ctx["seed"]
    walk, train = _configs(ctx)
    with tracer.span("pass", "core"):
        with tracer.span("model.bind", "walks"):
            model = make_model("deepwalk", graph)
        with tracer.span("engine.build", "walks"):
            engine = VectorizedWalkEngine(
                graph, model, sampler=walk.sampler, initializer=walk.initializer,
                init_sample_cap=walk.init_sample_cap, backend=walk.backend, seed=seed,
            )
        with tracer.span("generate", "walks"):
            corpus = engine.generate(num_walks=walk.num_walks, walk_length=walk.walk_length)
        stats = engine.stats()
        with tracer.span("trainer.init", "embedding"):
            trainer = Word2Vec(train.dimensions, seed=seed, **train.word2vec_kwargs())
        with tracer.span("node_frequencies", "walks"):
            counts = corpus.node_frequencies(graph.num_nodes)
        with tracer.span("build_vocab", "embedding"):
            trainer.build_vocab(counts, total_walks=corpus.num_walks)
        with tracer.span("partial_fit", "embedding"):
            trainer.partial_fit(corpus)
        with tracer.span("finalize", "embedding"):
            embeddings = trainer.finalize()
        scored = _serve_and_score(ctx, embeddings, tracer)

    took = tracer.total
    build_s = took("engine.build")
    ti_s = stats["setup_seconds"] + stats["init_seconds"]
    tw_s = max(took("model.bind") + build_s + took("generate") - ti_s, 0.0)
    vocab_s = took("trainer.init") + took("node_frequencies") + took("build_vocab")
    fit_s = took("partial_fit") + took("finalize")
    traced_tt = ti_s + tw_s + vocab_s + fit_s

    # the same trainer used differently, on the first fifth of the corpus
    fifth = max(corpus.num_walks // 5, 1)
    part = WalkCorpus(corpus.walks[:fifth], corpus.lengths[:fifth])
    with tracer.span("cbow.fit", "embedding"):
        Word2Vec(
            train.dimensions, seed=seed, **{**train.word2vec_kwargs(), "mode": "cbow"}
        ).fit(part, num_nodes=graph.num_nodes)
    bounds = np.linspace(0, fifth, 9).astype(int)
    shards = [
        WalkCorpus(part.walks[a:b], part.lengths[a:b]) for a, b in zip(bounds, bounds[1:]) if b > a
    ]
    with tracer.span("stream.fit", "embedding"):
        Word2Vec(train.dimensions, seed=seed, **train.word2vec_kwargs()).fit_stream(
            shards, counts=part.node_frequencies(graph.num_nodes), total_walks=part.num_walks
        )

    untraced_tt = untraced["detail"]["tt_s"]
    checks = dict(scored["checks"])
    checks["decomposed_equals_pipeline"] = bool(
        np.array_equal(embeddings.vectors, ctx["embeddings"].vectors)
    )
    return {
        "checks": checks,
        "metrics": {
            "graph.load_s": took("graph.load"),
            "graph.edge_entries": int(graph.offsets[-1]),
            "walks.build_s": build_s,
            "walks.ti_s": ti_s,
            "walks.tw_s": tw_s,
            "walks.steps": int(stats["samples"]),
            "walks.corpus_bytes": int(corpus.nbytes),
            "sampling.proposals_per_sample": stats["proposals"] / max(stats["samples"], 1),
            "sampling.initializations": int(stats["initializations"]),
            "sampling.memory_bytes": int(engine.memory_bytes()),
            "embedding.vocab_s": vocab_s,
            "embedding.fit_s": fit_s,
            "embedding.tokens_per_s": corpus.token_count / fit_s,
            "embedding.batches": len(trainer.training_loss_),
            "embedding.final_loss": float(np.mean(trainer.training_loss_[-10:])),
            "embedding.cbow_tokens_per_s": part.token_count / took("cbow.fit"),
            "embedding.stream_tokens_per_s": part.token_count / took("stream.fit"),
            "evaluation.micro_f1": scored["micro_f1"],
            "serving.export_s": took("store.export"),
            "serving.open_s": took("store.open"),
            "serving.index_build_s": took("index.build"),
            # what train_pipeline spends outside the stages timed above
            "core.glue_s": untraced["detail"]["pipeline_wall_s"] - traced_tt,
            "trace.overhead_frac": (traced_tt - untraced_tt) / untraced_tt,
        },
    }
