"""Embedding serving: the read path of the pipeline.

Training (the write path) ends in a :class:`KeyedVectors` blob; this
package turns that blob into something a fleet of query workers can
serve:

* :mod:`repro.serving.store` — :class:`EmbeddingStore`, a memory-mapped
  on-disk artifact (header + keys + codec state + encoded matrix +
  precomputed norms) that opens in O(1) and is shared across processes
  via the page cache;
* :mod:`repro.serving.codec` — the registry-pluggable compression
  family under the store: identity :class:`Float32Codec`, 8-bit scalar
  :class:`Int8Codec` (4x smaller) and product-quantization
  :class:`PQCodec` (16x smaller at d=128, m=32), each scoring through
  asymmetric-distance (ADC) lookups instead of decoding the matrix;
* :mod:`repro.serving.index` — the registry-pluggable index family
  behind one ``topk(queries, k)`` API: exact :class:`BruteForceIndex`
  (batched BLAS + argpartition, ADC scan on quantized stores) and
  approximate :class:`IVFIndex` (k-means coarse quantizer with
  ``nprobe`` recall/cost dial; IVFADC over PQ stores);
* :mod:`repro.serving.service` — :class:`QueryService`, the one query
  front-end: batching, an LRU result cache and latency/throughput
  counters, whatever the index;
* :mod:`repro.serving.snapshot` — :class:`SnapshotManager`, immutable
  (store, index, cache) versions published by atomic reference flip so
  embedding updates reach queries with zero downtime;
* :mod:`repro.serving.server` — :class:`QueryServer`, the asyncio
  network tier: length-prefixed JSON over TCP, micro-batched dispatch
  into ``most_similar_batch``, bounded-queue admission control and
  p50/p99 latency histograms (plus :class:`QueryClient` /
  :class:`InProcessClient`).

* :mod:`repro.serving.config` — :class:`ServingSpec` / :class:`ServerConfig`,
  the one declaration of every serving knob, and :meth:`ServingSpec.build`,
  the one function that assembles the read path from them.

Entry points, all through that builder: ``UniNet.serve()``, a ``serving:``
block in ``RunSpec``, the ``export-store --codec`` / ``query`` / ``serve`` verbs.
"""

from repro.serving.codec import (
    CODEC_REGISTRY,
    Codec,
    Float32Codec,
    Int8Codec,
    PQCodec,
    make_codec,
    register_codec,
)
from repro.serving.config import ServerConfig
from repro.serving.index import (
    INDEX_REGISTRY,
    BruteForceIndex,
    IVFIndex,
    make_index,
    register_index,
)
from repro.serving.server import (
    InProcessClient,
    LatencyHistogram,
    QueryClient,
    QueryServer,
)
from repro.serving.service import LRUCache, QueryService, topk_overlap
from repro.serving.snapshot import Snapshot, SnapshotManager
from repro.serving.store import EmbeddingStore

__all__ = [
    "EmbeddingStore",
    "QueryService",
    "QueryServer",
    "QueryClient",
    "InProcessClient",
    "LatencyHistogram",
    "Snapshot",
    "SnapshotManager",
    "LRUCache",
    "BruteForceIndex",
    "IVFIndex",
    "ServerConfig",
    "INDEX_REGISTRY",
    "register_index",
    "make_index",
    "CODEC_REGISTRY",
    "Codec",
    "Float32Codec",
    "Int8Codec",
    "PQCodec",
    "register_codec",
    "make_codec",
    "topk_overlap",
]
