"""Sharded execution: walks/sec and query QPS vs shard count.

The scale-out record behind :mod:`repro.sharding`: the partitioned walk
engine and scatter-gather queries (``QueryService(index="sharded")``),
swept over shard counts on one Table VII network. Two regressions are
guarded on every row before any throughput is reported:

* the sharded corpus is asserted **bitwise identical** to the monolithic
  :class:`~repro.walks.vectorized.VectorizedWalkEngine` corpus, and
* the scatter-gather top-k answers are asserted **exactly equal** to the
  monolithic :class:`~repro.serving.service.QueryService` answers.

Results go to ``benchmarks/results/BENCH_shard.json`` (one run record
per scale, labelled with its commit; re-runs at the same scale replace
their record; with ``BENCH_SHARD_PARENT`` naming the ``BENCH_shard.json``
a checkout of the parent commit wrote, its ``query_qps`` is recorded
beside each row as ``parent_query_qps``) and to the
``shard_scaling`` table. Inline rows share one process, so walks/sec is
expected to stay near the monolithic line while the migration-rate and
imbalance columns record the *distribution* costs a multi-host
transport would pay. Socket rows then pay them for real: loopback
``serve_shard`` worker processes driven over TCP, with the network
budget — bytes each way, migration payload bytes, and bytes on the
wire per migration round — recorded alongside throughput. Those
columns, not single-host speedups, are the scientific content here.

No pytest-benchmark dependency: the CI shard-smoke job runs this with
plain pytest at toy scale (``BENCH_SHARD_SCALE=0.02``).
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from _common import RESULTS_DIR, commit_label, record_table, timed
from repro.graph import datasets
from repro.serving.service import QueryService
from repro.serving.store import EmbeddingStore
from repro.sharding import ShardedWalkEngine, build_shard_plan
from repro.walks.vectorized import VectorizedWalkEngine

SHARD_SCALE = float(os.environ.get("BENCH_SHARD_SCALE", "0.3"))
SHARD_REPEATS = int(os.environ.get("BENCH_SHARD_REPEATS", "3"))
SHARD_COUNTS = (1, 2, 4)
NUM_WALKS, WALK_LENGTH = 1, 24
QUERY_BATCH, QUERY_ROUNDS, TOPN = 256, 4, 10
DIMENSIONS = 64
SEED = 8


def _walk_run(graph, num_shards, partitioner, transport="inline"):
    """Best-of-``SHARD_REPEATS`` sharded walk time; plan construction and
    worker setup stay outside the timed region (they are one-off costs the
    engine reports separately as ``setup_seconds``)."""
    best, corpus, stats = math.inf, None, None
    for __ in range(SHARD_REPEATS):
        engine = ShardedWalkEngine(
            graph,
            "deepwalk",
            sampler="mh",
            num_shards=num_shards,
            partitioner=partitioner,
            transport=transport,
            seed=SEED,
        )
        try:
            corpus, seconds = timed(
                engine.generate, num_walks=NUM_WALKS, walk_length=WALK_LENGTH
            )
            best = min(best, seconds)
            stats = engine.stats()
        finally:
            engine.close()
    return corpus, best, stats


def _sharded_service(store, plan):
    return QueryService(store, index="sharded", owner=plan, cache_size=0)


def _query_run(service, keys):
    """Scatter-gather QPS of each of ``SHARD_REPEATS`` passes over uncached
    batches (the services here are built with ``cache_size=0``), best
    first: the best is the row's ``query_qps``, the rest its spread."""
    qps = []
    for __ in range(SHARD_REPEATS):
        __, seconds = timed(
            lambda: [
                service.most_similar_batch(keys[r::QUERY_ROUNDS], topn=TOPN)
                for r in range(QUERY_ROUNDS)
            ]
        )
        qps.append(round(keys.size / seconds, 1))
    return sorted(qps, reverse=True)


def _parent_query_qps():
    """``{num_shards: query_qps}`` of the same scale in the parent's record, if it has one."""
    path = os.environ.get("BENCH_SHARD_PARENT")
    if not path:
        return {}
    runs = json.loads(Path(path).read_text())["runs"]
    run = next((r for r in runs if r["scale"] == SHARD_SCALE), {"entries": []})
    return {e["num_shards"]: e["query_qps"] for e in run["entries"] if "query_qps" in e}


def _record_bench_shard(record):
    """Merge one run record into BENCH_shard.json (one per scale)."""
    path = RESULTS_DIR / "BENCH_shard.json"
    runs = []
    if path.exists():
        runs = json.loads(path.read_text()).get("runs", [])
    runs = [r for r in runs if r["scale"] != record["scale"]]
    runs.append(record)
    runs.sort(key=lambda r: r["scale"])
    RESULTS_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps({"bench": "sharded_walks_and_queries",
                                "schema_version": 1,
                                "runs": runs}, indent=2) + "\n")
    print(f"[written to {path}]")


def test_shard_scaling():
    graph = datasets.load_graph(
        "twitter", scale=SHARD_SCALE, seed=7, weight_mode="uniform"
    )
    num_walks_total = graph.num_nodes * NUM_WALKS

    # monolithic baselines: walk corpus + brute-force query answers
    mono_engine = VectorizedWalkEngine(graph, "deepwalk", sampler="mh", seed=SEED)
    ref, mono_seconds = timed(
        mono_engine.generate, num_walks=NUM_WALKS, walk_length=WALK_LENGTH
    )
    vectors = (
        np.random.default_rng(SEED)
        .standard_normal((graph.num_nodes, DIMENSIONS))
        .astype(np.float32)
    )
    store = EmbeddingStore(np.arange(graph.num_nodes, dtype=np.int64), vectors=vectors)
    service = QueryService(store, index="bruteforce", cache_size=0)
    keys = np.arange(graph.num_nodes, dtype=np.int64)[: QUERY_BATCH * QUERY_ROUNDS]
    expected = [
        service.most_similar_batch(keys[r::QUERY_ROUNDS], topn=TOPN)
        for r in range(QUERY_ROUNDS)
    ]
    mono_qps = _query_run(_sharded_service(store, build_shard_plan(graph, 1)), keys)[0]
    parent_qps = _parent_query_qps()

    entries, rows = [], []
    for num_shards in SHARD_COUNTS:
        corpus, seconds, stats = _walk_run(graph, num_shards, "degree_balanced")
        np.testing.assert_array_equal(ref.walks, corpus.walks)
        np.testing.assert_array_equal(ref.lengths, corpus.lengths)

        plan = build_shard_plan(graph, num_shards, "degree_balanced")
        sharded = _sharded_service(store, plan)
        got = [
            sharded.most_similar_batch(keys[r::QUERY_ROUNDS], topn=TOPN)
            for r in range(QUERY_ROUNDS)
        ]
        assert got == expected
        qps_repeats = _query_run(sharded, keys)
        qps = qps_repeats[0]

        entries.append({
            "num_shards": num_shards,
            "partitioner": "degree_balanced",
            "transport": "inline",
            "walk_seconds": round(seconds, 4),
            "walks_per_sec": round(num_walks_total / seconds, 1),
            "query_qps": qps,
            "query_qps_repeats": qps_repeats,
            **({"parent_query_qps": parent_qps[num_shards]} if num_shards in parent_qps else {}),
            "migration_rate": round(stats["migration_rate"], 4),
            "migrated_walkers": int(stats["migrated_walkers"]),
            "boundary_edges": int(stats["boundary_edges"]),
            "node_imbalance": round(stats["node_imbalance"], 4),
            "edge_imbalance": round(stats["edge_imbalance"], 4),
            "identical_corpus": True,
            "exact_queries": True,
        })
        rows.append({
            "shards": num_shards,
            "transport": "inline",
            "walks/s": round(num_walks_total / seconds, 1),
            "query QPS": qps,
            "migration rate": f"{stats['migration_rate']:.3f}",
            "wire MB/round": "-",
        })

    # socket transport: the multi-host wire over loopback workers — same
    # bits (asserted), plus the network budget a real deployment pays
    for num_shards in SHARD_COUNTS[1:]:
        corpus, seconds, stats = _walk_run(
            graph, num_shards, "degree_balanced", transport="socket"
        )
        np.testing.assert_array_equal(ref.walks, corpus.walks)
        np.testing.assert_array_equal(ref.lengths, corpus.lengths)
        wire = stats["transport_stats"]
        rounds = max(int(stats["migration_rounds"]), 1)
        bytes_per_round = (wire["bytes_sent"] + wire["bytes_recv"]) / rounds
        entries.append({
            "num_shards": num_shards,
            "partitioner": "degree_balanced",
            "transport": "socket",
            "walk_seconds": round(seconds, 4),
            "walks_per_sec": round(num_walks_total / seconds, 1),
            "migration_rate": round(stats["migration_rate"], 4),
            "migrated_walkers": int(stats["migrated_walkers"]),
            "migration_rounds": int(stats["migration_rounds"]),
            "bytes_sent": int(wire["bytes_sent"]),
            "bytes_recv": int(wire["bytes_recv"]),
            "migration_payload_bytes": int(wire["migration_payload_bytes"]),
            "bytes_per_migration_round": round(bytes_per_round, 1),
            "identical_corpus": True,
        })
        rows.append({
            "shards": num_shards,
            "transport": "socket",
            "walks/s": round(num_walks_total / seconds, 1),
            "query QPS": "-",
            "migration rate": f"{stats['migration_rate']:.3f}",
            "wire MB/round": f"{bytes_per_round / 1e6:.2f}",
        })

    record = {
        "scale": SHARD_SCALE,
        "commit": commit_label(RESULTS_DIR.parent.parent),
        "network": "twitter",
        "num_nodes": int(graph.num_nodes),
        "num_edges": int(graph.num_edge_entries),
        "model": "deepwalk",
        "sampler": "mh",
        "num_walks": NUM_WALKS,
        "walk_length": WALK_LENGTH,
        "topn": TOPN,
        "seed": SEED,
        "repeats": SHARD_REPEATS,
        "monolithic_walks_per_sec": round(num_walks_total / mono_seconds, 1),
        "monolithic_query_qps": round(mono_qps, 1),
        "entries": entries,
    }
    _record_bench_shard(record)
    record_table(
        "shard_scaling",
        ["shards", "transport", "walks/s", "query QPS", "migration rate", "wire MB/round"],
        rows,
        title=(f"Sharded walks + scatter-gather queries (degree_balanced, "
               f"deepwalk/mh, scale={SHARD_SCALE:g}): bitwise corpora, exact top-k"),
    )
    # migration cost grows with shard count; a single shard never migrates
    assert entries[0]["migration_rate"] == 0.0
    assert all(e["migration_rate"] > 0 for e in entries[1:])
    # every socket row carried real payloads over the wire
    socket_rows = [e for e in entries if e["transport"] == "socket"]
    assert socket_rows and all(
        e["bytes_sent"] > 0 and e["migration_payload_bytes"] > 0 for e in socket_rows
    )
