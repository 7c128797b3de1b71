"""Quantized serving: shrink the read path 4-16x with int8/PQ codecs.

Trains embeddings on a synthetic network, exports the same vectors under
each serving codec (float32, int8, product quantization), and compares
bytes on disk, top-10 agreement with the exact float32 answers, and
batched-query latency — the accuracy/memory trade in one table.

Run:  PYTHONPATH=src python examples/quantized_serving.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import UniNet, datasets
from repro.serving import EmbeddingStore, QueryService, topk_overlap as overlap


def main():
    graph, __ = datasets.load("blogcatalog", scale=0.3, seed=7)
    net = UniNet(graph, model="deepwalk", seed=7)
    net.train(num_walks=8, walk_length=40, dimensions=64, epochs=2)
    print(f"trained {len(net.last_embeddings)} x 64 embeddings on {graph}")

    query_keys = np.asarray(net.last_embeddings.keys)[:200]
    exact = None
    with tempfile.TemporaryDirectory() as tmp:
        print(f"\n{'codec':<10} {'file bytes':>12} {'ratio':>6} {'overlap@10':>11} {'batch ms':>9}")
        # toy-scale caveat: PQ's fixed codebook state (m·k·ds floats)
        # dominates a 450-vector file; at production scale it is noise
        # and the ratio approaches the per-vector 16x (d=64, m=16) —
        # see benchmarks/results/serving_codec.txt for the 50k x 128 run
        for codec, params in [
            ("float32", {}),
            ("int8", {}),
            ("pq", {"m": 16, "seed": 0}),
        ]:
            path = Path(tmp) / f"vectors.{codec}.embstore"
            # export to disk and reopen memory-mapped — the worker shape
            net.last_embeddings.to_store(path, codec=codec, **params)
            service = QueryService(EmbeddingStore.open(path), cache_size=0)
            start = time.perf_counter()
            results = service.most_similar_batch(query_keys, topn=10)
            batch_ms = 1000 * (time.perf_counter() - start)
            if exact is None:
                exact = results
                float_bytes = path.stat().st_size
            print(
                f"{codec:<10} {path.stat().st_size:>12,} "
                f"{float_bytes / path.stat().st_size:>5.1f}x "
                f"{overlap(exact, results):>11.3f} {batch_ms:>9.1f}"
            )

    # the same dial is one keyword on the facade (in-memory store):
    service = net.serve(codec="pq", codec_params={"m": 16}, cache_size=0)
    stats = service.stats()
    print(
        f"\nnet.serve(codec='pq'): {stats['store_count']} vectors, "
        f"{stats['store_bytes']:,} store bytes (codec {stats['codec']})"
    )


if __name__ == "__main__":
    main()
