"""Streaming shard pipeline: wall-clock and memory vs the monolithic path.

The ROADMAP's bounded-memory goal in one table: the same walk→train
workload run (a) monolithically — whole corpus materialized, then
trained; (b) streamed sequentially — bounded shards, walk and train
interleaved; (c) streamed overlapped — a producer thread walks while the
trainer drains a bounded queue. Columns report the paper's phase split
(Ti/Tw/Tl), the wall-clock total, and the peak corpus-resident bytes.

Expected shape: every mode's embeddings cover the graph; streamed peak
corpus bytes are bounded by the configured shard size (orders below the
monolithic corpus on a real workload); overlapped wall clock ≤ walk+learn
busy time. No pytest-benchmark dependency, so the CI smoke job can run
this file at toy scale with plain pytest (scale via BENCH_STREAMING_SCALE,
default 1.0).
"""

import os

from repro.core.config import StreamingConfig, TrainConfig, WalkConfig
from repro.core.pipeline import train_pipeline
from repro.graph import generators

from _common import record_table

SCALE = float(os.environ.get("BENCH_STREAMING_SCALE", "1.0"))

NUM_NODES = max(int(2000 * SCALE), 100)
NUM_WALKS = 4
WALK_LENGTH = max(int(40 * SCALE), 8)
SHARD_WALKS = max(int(500 * SCALE), 25)


def _run(graph, streaming):
    return train_pipeline(
        graph,
        "deepwalk",
        WalkConfig(num_walks=NUM_WALKS, walk_length=WALK_LENGTH),
        TrainConfig(dimensions=32, epochs=1),
        seed=7,
        streaming=streaming,
    )


def test_streaming_vs_monolithic():
    graph = generators.chung_lu_power_law(NUM_NODES, 8.0, seed=3)
    modes = [
        ("monolithic", None),
        ("streamed", StreamingConfig(shard_walks=SHARD_WALKS)),
        ("streamed+overlap", StreamingConfig(shard_walks=SHARD_WALKS, overlap=True)),
    ]
    rows = []
    results = {}
    for name, streaming in modes:
        result = _run(graph, streaming)
        results[name] = result
        rows.append(
            {
                "mode": name,
                "init_s": round(result.ti, 3),
                "walk_s": round(result.tw, 3),
                "learn_s": round(result.tl, 3),
                "wall_s": round(result.tt, 3),
                "peak_corpus_bytes": result.peak_corpus_bytes,
                "tokens": result.corpus_summary["token_count"],
            }
        )
    record_table(
        "streaming",
        ["mode", "init_s", "walk_s", "learn_s", "wall_s", "peak_corpus_bytes", "tokens"],
        rows,
        title=(
            f"streamed vs monolithic walk→train "
            f"(n={NUM_NODES}, {NUM_WALKS}x{WALK_LENGTH} walks, "
            f"shard={SHARD_WALKS} walks)"
        ),
    )

    mono = results["monolithic"]
    for name in ("streamed", "streamed+overlap"):
        streamed = results[name]
        # same workload ...
        assert streamed.corpus_summary["num_walks"] == mono.corpus_summary["num_walks"]
        assert len(streamed.embeddings) == len(mono.embeddings)
        # ... with peak corpus residency bounded by the shard size (a few
        # shard-sized buffers), not the total corpus size
        shard_bytes = SHARD_WALKS * (WALK_LENGTH + 1) * 8
        assert streamed.peak_corpus_bytes <= 4 * shard_bytes
        assert streamed.peak_corpus_bytes < mono.peak_corpus_bytes
