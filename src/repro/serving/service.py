"""The batching query front-end: many keys in, one index pass out.

:class:`QueryService` is the read path's equivalent of the training
pipeline's facade. It owns an :class:`~repro.serving.store.EmbeddingStore`
plus one registered index, answers *batches* (the unit production traffic
arrives in), memoises hot keys in an LRU cache keyed by ``(key, topn)``,
and keeps latency/throughput counters so a deployment can be observed
without extra instrumentation::

    service = QueryService(store, index="ivf", nprobe=16)
    results = service.most_similar_batch([3, 17, 99], topn=10)
    service.stats()["qps"]
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

import numpy as np

from repro.config import check_counts
from repro.errors import ServingError
from repro.serving.config import ServingSpec
from repro.serving.index import make_index
from repro.serving.store import EmbeddingStore


def topk_overlap(reference, results) -> float:
    """Mean top-k set overlap between two aligned batched-query results.

    Both arguments are ``most_similar_batch``-shaped: one
    ``[(key, score), ...]`` list per query. The score ignores ranks and
    scores (a quantized path may reorder near-ties) and divides matched
    keys by the reference sizes — the recall@k statistic every codec
    recall probe, benchmark and regression test shares.
    """
    hits = sum(
        len({key for key, __ in ref} & {key for key, __ in got})
        for ref, got in zip(reference, results)
    )
    return hits / max(sum(len(ref) for ref in reference), 1)


class LRUCache:
    """A bounded mapping evicting the least-recently-used entry.

    Safe under concurrent access: ``get``'s refresh-then-read pair and
    ``put``'s insert-then-evict pair each run under an internal lock, so
    interleaved callers (the async serving tier shares one service
    across tasks and threads) can neither hit a spurious ``KeyError``
    nor overshoot ``capacity``.
    """

    def __init__(self, capacity: int):
        check_counts({"capacity": capacity}, section="cache ", error=ServingError)
        self.capacity = int(capacity)
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key):
        """The cached value, refreshed as most recent; None when absent."""
        with self._lock:
            try:
                self._data.move_to_end(key)
            except KeyError:
                return None
            return self._data[key]

    def put(self, key, value) -> None:
        """Insert/refresh ``key``, evicting the oldest entry when full."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            if len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


class QueryService:
    """Batched nearest-neighbour queries over one embedding store.

    Parameters
    ----------
    store:
        an :class:`EmbeddingStore` (mmap or in-memory) or a
        :class:`~repro.embedding.keyed_vectors.KeyedVectors` (converted
        in-memory).
    index:
        registered index name (``"bruteforce"`` default, ``"ivf"``) or a
        pre-built index instance.
    cache_size:
        LRU entries memoised per ``(key, topn)``; ``0`` disables caching.
    index_params:
        forwarded to the index factory (``nlist``, ``nprobe``, ...).
    """

    def __init__(
        self, store, index=ServingSpec.index, *, cache_size: int = ServingSpec.cache_size, **index_params
    ):
        self.store = store = self._as_store(store)
        self._index_params = dict(index_params)
        if isinstance(index, str):
            self.index_name = index
            self.index = make_index(index, store, **index_params)
            self._index_from_name = True
        else:
            if index_params:
                raise ServingError("index_params only apply when index is a registry name")
            self.index = index
            self.index_name = getattr(index, "name", type(index).__name__)
            self._index_from_name = False
        self.cache = LRUCache(cache_size) if cache_size else None
        self.counters = {
            "queries": 0,
            "batches": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "similarity_pairs": 0,
            "refreshes": 0,
            "seconds": 0.0,
        }
        self._counters_lock = threading.Lock()

    @staticmethod
    def _as_store(store) -> EmbeddingStore:
        if isinstance(store, EmbeddingStore):
            return store
        if hasattr(store, "keys") and hasattr(store, "vectors"):
            return EmbeddingStore.from_keyed_vectors(store)
        raise ServingError(
            f"QueryService needs an EmbeddingStore or KeyedVectors, got {type(store).__name__}"
        )

    def _bump(self, **deltas) -> None:
        """Apply counter increments atomically (read-modify-write is not)."""
        with self._counters_lock:
            for name, delta in deltas.items():
                self.counters[name] += delta

    # ------------------------------------------------------------------
    def refresh(self, store=None) -> "QueryService":
        """Track a mutated embedding store: rebuild the index, drop caches.

        Call after :meth:`EmbeddingStore.upsert` (or pass a replacement
        ``store``) so queries see the new vectors. The index is rebuilt
        from its registered factory with the original parameters, and
        the LRU cache is cleared *entirely* — a re-embedded key may
        appear in any cached neighbour list, so per-key eviction would
        leave stale results behind. Returns ``self`` for chaining.
        """
        if store is not None:
            self.store = self._as_store(store)
        if self._index_from_name:
            self.index = make_index(self.index_name, self.store, **self._index_params)
        elif hasattr(self.index, "refresh"):
            self.index.refresh(self.store)
        else:
            raise ServingError(
                f"index {self.index_name!r} was passed as an instance and has "
                "no refresh(store) method; rebuild it and construct a new "
                "QueryService"
            )
        if self.cache is not None:
            self.cache.clear()
        self._bump(refreshes=1)
        return self

    # ------------------------------------------------------------------
    def _decode(self, own_row: int, rows: np.ndarray, scores: np.ndarray, topn: int):
        keys = self.store.keys
        out = []
        for row, score in zip(rows, scores):
            if row < 0 or row == own_row:
                continue
            out.append((int(keys[row]), float(score)))
            if len(out) == topn:
                break
        return out

    def most_similar_batch(self, keys, topn: int = 10) -> list[list[tuple[int, float]]]:
        """Top-``topn`` neighbours (key, cosine) for each query key.

        One index pass answers all cache misses; each query's own key is
        excluded from its result, matching
        :meth:`KeyedVectors.most_similar`.
        """
        check_counts({"topn": topn}, error=ServingError)
        start = time.perf_counter()
        keys = np.atleast_1d(np.asarray(keys, dtype=np.int64))
        results: list = [None] * keys.size
        miss_positions = []
        if self.cache is None:
            miss_positions = list(range(keys.size))
        else:
            for i, key in enumerate(keys):
                hit = self.cache.get((int(key), topn))
                if hit is None:
                    miss_positions.append(i)
                else:
                    # hand out a fresh list so caller mutation cannot
                    # poison the cached answer
                    results[i] = list(hit)
            self._bump(
                cache_hits=keys.size - len(miss_positions),
                cache_misses=len(miss_positions),
            )
        if miss_positions:
            # duplicate keys in one batch (coalesced traffic hits the
            # same hot key many times) get one scan row, fanned back out
            miss_keys = keys[miss_positions]
            uniq_keys, inverse = np.unique(miss_keys, return_inverse=True)
            rows = self.store.rows_for(uniq_keys)
            # ask for one extra neighbour so dropping the query itself
            # still leaves topn results; on a quantized store the query
            # vectors are the codec reconstructions
            top_rows, top_scores = self.index.topk(self.store.decode_rows(rows), topn + 1)
            decoded = [
                self._decode(int(row), r, s, topn)
                for row, r, s in zip(rows, top_rows, top_scores)
            ]
            if self.cache is not None:
                for key, result in zip(uniq_keys, decoded):
                    self.cache.put((int(key), topn), tuple(result))
            for pos, j in zip(miss_positions, inverse):
                results[pos] = list(decoded[j])
        self._bump(
            queries=int(keys.size), batches=1, seconds=time.perf_counter() - start
        )
        return results

    def topk_vectors(self, queries, topn: int = 10) -> list[list[tuple[int, float]]]:
        """Top-``topn`` neighbours for raw query vectors (no exclusion)."""
        start = time.perf_counter()
        rows, scores = self.index.topk(queries, topn)
        keys = self.store.keys
        out = [
            [(int(keys[r]), float(s)) for r, s in zip(rr, ss) if r >= 0]
            for rr, ss in zip(rows, scores)
        ]
        self._bump(queries=len(out), batches=1, seconds=time.perf_counter() - start)
        return out

    def similarity_batch(self, a, b) -> np.ndarray:
        """Pairwise cosine similarity of aligned key arrays ``a`` and ``b``."""
        start = time.perf_counter()
        rows_a = self.store.rows_for(a)
        rows_b = self.store.rows_for(b)
        if rows_a.shape != rows_b.shape:
            raise ServingError("similarity_batch needs aligned key arrays")
        va = self.store.decode_rows(rows_a)
        vb = self.store.decode_rows(rows_b)
        denom = np.maximum(
            np.asarray(self.store.norms[rows_a]) * np.asarray(self.store.norms[rows_b]),
            np.float32(1e-12),
        )
        sims = np.einsum("ij,ij->i", va, vb) / denom
        self._bump(
            similarity_pairs=int(rows_a.size),
            batches=1,
            seconds=time.perf_counter() - start,
        )
        return sims.astype(np.float64)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counter snapshot plus derived throughput/latency numbers."""
        with self._counters_lock:
            c = dict(self.counters)
        seconds = c["seconds"]
        c["qps"] = (c["queries"] / seconds) if seconds > 0 else 0.0
        c["mean_batch_ms"] = (1000.0 * seconds / c["batches"]) if c["batches"] else 0.0
        lookups = c["cache_hits"] + c["cache_misses"]
        c["cache_hit_rate"] = (c["cache_hits"] / lookups) if lookups else 0.0
        c["index"] = self.index_name
        c["store_count"] = len(self.store)
        c["store_dimensions"] = self.store.dimensions
        c["codec"] = self.store.codec.name
        c["store_bytes"] = int(self.store.nbytes)
        return c

    def reset_stats(self) -> None:
        """Zero all counters (the cache is kept)."""
        with self._counters_lock:
            for key in self.counters:
                self.counters[key] = 0.0 if key == "seconds" else 0
