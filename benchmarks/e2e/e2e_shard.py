"""``shard_walk``: the walk fabric over real sockets.

deepwalk / M-H on two ``degree_balanced`` shards driven over the
**socket** transport with self-spawned loopback workers; a fresh engine
(plan + spawn + connect) per repetition. ``sharding`` dominates —
driver RNG, migration rounds, wire codec, worker stepping — and uses the
``walks`` / ``sampling`` ideas differently from ``walk_only``:
first-order static weights, numpy worker stepping, a 50 % migration
rate. A gain here that costs ``walk_only``, or the reverse, shows.
"""

from __future__ import annotations

import time

import numpy as np

from e2e_common import median, repeat_for

NAME = "shard_walk"

SIZES = {
    "full": dict(scale=0.3, num_walks=5, walk_length=80, min_reps=3),
    "smoke": dict(scale=0.01, num_walks=1, walk_length=20, min_reps=2),
}

SHARDS = 2
_OPS = ("mh_begin", "mh_exec", "advance", "absorb")


def _sharded(ctx, transport: str):
    from repro.sharding.engine import ShardedWalkEngine

    return ShardedWalkEngine(
        ctx["graph"], "deepwalk", sampler="mh", num_shards=SHARDS,
        partitioner="degree_balanced", transport=transport,
        initializer="high-weight", seed=ctx["seed"],
    )


def _same(corpus, reference) -> bool:
    return bool(
        np.array_equal(corpus.walks, reference.walks)
        and np.array_equal(corpus.lengths, reference.lengths)
    )


def setup(seed: int, size: dict, tracer) -> dict:
    from repro.graph import datasets
    from repro.walks.vectorized import VectorizedWalkEngine

    with tracer.span("graph.load", "graph"):
        graph = datasets.load("twitter", scale=size["scale"], weight_mode="uniform", seed=seed)
    ctx = {"seed": seed, "size": size, "graph": graph, "backend": "numpy"}
    # the monolithic numpy engine is the bitwise oracle of every repetition
    with tracer.span("reference.mono_numpy", "walks"):
        t0 = time.perf_counter()
        ctx["reference"] = VectorizedWalkEngine(
            graph, "deepwalk", sampler="mh", initializer="high-weight",
            backend="numpy", seed=seed,
        ).generate(num_walks=size["num_walks"], walk_length=size["walk_length"])
        ctx["mono_numpy_s"] = time.perf_counter() - t0
    # warm-up: one wave through spawned workers (fork, connect, codec)
    with tracer.span("warmup.wave", "sharding"):
        with _sharded(ctx, "socket") as engine:
            engine.generate(num_walks=1, walk_length=size["walk_length"])
    return ctx


def measure(ctx, seconds: float) -> dict:
    size = ctx["size"]

    def one_rep(rep):
        t0 = time.perf_counter()
        with _sharded(ctx, "socket") as engine:
            corpus = engine.generate(num_walks=size["num_walks"], walk_length=size["walk_length"])
            wall = time.perf_counter() - t0
        return {"wall_s": wall, "equal": _same(corpus, ctx["reference"])}

    reps = repeat_for(seconds, size["min_reps"], one_rep)
    wall = median(r["wall_s"] for r in reps)
    return {
        "values": {"op_p50_ms": 1000.0 * wall},
        "attempted": len(reps),
        "failed": sum(not r["equal"] for r in reps),
        "checks": {"corpus_equals_monolithic": all(r["equal"] for r in reps)},
        "detail": {
            "reps": len(reps), "rep_wall_s": wall, "rep_walls_s": [r["wall_s"] for r in reps],
            "steps_per_s": ctx["reference"].token_count / wall,
        },
    }


def trace(ctx, seconds: float, tracer, untraced: dict) -> dict:
    size, reference = ctx["size"], ctx["reference"]
    shape = dict(num_walks=size["num_walks"], walk_length=size["walk_length"])
    last = {}

    def one_rep(rep):
        with tracer.span("rep", "core", rep):
            with tracer.span("engine.build", "sharding", rep):
                engine = _sharded(ctx, "socket")
            with engine:
                with tracer.span("generate", "sharding", rep):
                    corpus = engine.generate(**shape)
                last["stats"] = engine.stats()
        return _same(corpus, reference)

    equal = repeat_for(seconds, size["min_reps"], one_rep)
    # the fabric without the wire: same plan, workers in-process
    with tracer.span("inline.rep", "sharding"):
        with _sharded(ctx, "inline") as engine:
            inline = engine.generate(**shape)

    stats = last["stats"]
    wire = stats["transport_stats"]
    generate_s = tracer.seconds("generate")[-1]
    op_s = {op: wire["op_latency"].get(op, {}).get("seconds", 0.0) for op in _OPS}
    rounds = max(stats["migration_rounds"], 1)
    rep_s = median(
        b + g for b, g in zip(tracer.seconds("engine.build"), tracer.seconds("generate"))
    )
    untraced_rep_s = untraced["detail"]["rep_wall_s"]
    metrics = {
        "graph.load_s": tracer.total("graph.load"),
        "graph.edge_entries": int(ctx["graph"].offsets[-1]),
        "walks.steps": int(stats["samples"]),
        "walks.corpus_bytes": int(reference.nbytes),
        "sampling.proposals_per_sample": stats["proposals"] / max(stats["samples"], 1),
        "sampling.initializations": int(stats["initializations"]),
        "sharding.build_s": median(tracer.seconds("engine.build")),
        "sharding.steps_per_s": reference.token_count / rep_s,
        "sharding.mono_numpy_steps_per_s": reference.token_count / ctx["mono_numpy_s"],
        "sharding.inline_steps_per_s": inline.token_count / tracer.total("inline.rep"),
        "sharding.migration_rounds": int(stats["migration_rounds"]),
        "sharding.migrated_walkers": int(stats["migrated_walkers"]),
        "sharding.migration_rate": stats["migration_rate"],
        "sharding.wire_bytes_per_round": (wire["bytes_sent"] + wire["bytes_recv"]) / rounds,
        # Op seconds are summed over shards that answer concurrently, so
        # their per-shard mean is the wall the driver spent waiting; the
        # rest of generate() is driver RNG and Python glue.
        "sharding.driver_share": 1.0 - sum(op_s.values()) / SHARDS / generate_s,
        "trace.overhead_frac": (rep_s - untraced_rep_s) / untraced_rep_s,
    }
    metrics.update({f"sharding.op_s.{op}": op_s[op] for op in _OPS})
    return {
        "checks": {
            "corpus_equals_monolithic": all(equal),
            "inline_equals_monolithic": _same(inline, reference),
        },
        "metrics": metrics,
    }
