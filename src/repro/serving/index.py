"""Top-k similarity indexes over an :class:`EmbeddingStore`.

The index family is a registry (:data:`INDEX_REGISTRY`) like every other
component family in the framework, so third-party ANN structures plug in
with :func:`register_index` and immediately work from
:class:`~repro.serving.service.QueryService`, ``RunSpec`` serving blocks
and the ``python -m repro query`` CLI.

Every index answers one call::

    rows, scores = index.topk(queries, k)

``queries`` is a ``(m, dim)`` matrix of *raw* (unnormalised) vectors;
``rows`` is an int64 matrix of store rows sorted by descending cosine
similarity. ``k`` is clamped to the store size (so the result is
``(m, min(k, n))``); within that, a row is padded with ``-1`` (scores
``-inf``) when the index finds fewer candidates (e.g. IVF probing
near-empty cells).

Two built-ins, one on each side of the exact/approximate trade:

* :class:`BruteForceIndex` — one BLAS matrix-matrix product per query
  chunk over the L2-normalised matrix plus an ``argpartition`` top-k.
  Exact, and the throughput reference everything else is measured against.
* :class:`IVFIndex` — an inverted-file index: a spherical k-means coarse
  quantizer (trained on a sample) splits the store into ``nlist`` cells
  and a query scores only the ``nprobe`` nearest cells, trading recall
  for a ~``nlist/nprobe``-fold reduction in scanned rows. At
  ``nprobe == nlist`` the scan is exhaustive and recall is exact.

The built-ins serve *quantized* stores (see :mod:`repro.serving.codec`)
without decoding the matrix: scoring goes through the store codec's
asymmetric-distance (ADC) path against the encoded rows, so the resident
working set stays at the compressed size. IVF over a PQ store composes
the classic IVFADC layout.
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import check_counts, check_keywords
from repro.errors import ServingError
from repro.registry import Registry
from repro.utils.rng import as_rng

#: ANN index factories ``(store, **params) -> index``. The serving
#: counterpart of ``SAMPLER_REGISTRY``.
INDEX_REGISTRY = Registry("index", error_cls=ServingError, home="repro.serving.index")


def register_index(name: str, obj=None, *, aliases=(), replace=False, **capabilities):
    """Register an ANN index factory under ``name`` (decorator-friendly).

    The factory is called as ``factory(store, **params)``; an index class
    whose ``__init__`` takes ``(store, **params)`` works directly.
    """
    return INDEX_REGISTRY.register(name, obj, aliases=aliases, replace=replace, **capabilities)


def make_index(name: str, store, **params):
    """Instantiate a registered index over ``store``."""
    entry = INDEX_REGISTRY.entry(name)
    factory = entry.capabilities.get("factory", entry.obj)
    return factory(store, **params)


def _normalize_queries(queries) -> np.ndarray:
    q = np.asarray(queries, dtype=np.float32)
    if q.ndim == 1:
        q = q[None, :]
    if q.ndim != 2:
        raise ServingError(f"queries must be a (m, dim) matrix, got shape {q.shape}")
    norms = np.linalg.norm(q, axis=1, keepdims=True)
    return q / np.maximum(norms, np.float32(1e-12))


def _topk_rows(sims: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-``k`` columns of each row of ``sims``, sorted descending.

    Selection is value-partition + threshold mask rather than
    ``np.argpartition(..., axis=1)``: the latter materialises a full
    ``m x n`` int64 index matrix and runs an indirect introselect per
    row, which is ~20x slower on wide score matrices. Partitioning the
    values finds each row's k-th largest score, a vectorised comparison
    keeps only candidates at or above it, and the final sort touches
    just ~k survivors per row.
    """
    m, n = sims.shape
    k = min(k, n)
    if k >= n:
        order = np.argsort(-sims, axis=1, kind="stable")
        return order, np.take_along_axis(sims, order, axis=1)
    thresh = np.partition(sims, n - k, axis=1)[:, n - k]
    cand_rows, cand_cols = np.nonzero(sims >= thresh[:, None])
    starts = np.searchsorted(cand_rows, np.arange(m + 1))
    rows = np.empty((m, k), dtype=np.int64)
    scores = np.empty((m, k), dtype=sims.dtype)
    for i in range(m):
        cols = cand_cols[starts[i] : starts[i + 1]]  # >= k only on ties
        sc = sims[i, cols]
        order = np.argsort(-sc, kind="stable")[:k]
        rows[i] = cols[order]
        scores[i] = sc[order]
    return rows, scores


@register_index("bruteforce", aliases=("flat", "exact"), exact=True)
class BruteForceIndex:
    """Exhaustive top-k by chunked dense scoring.

    On a float32 store the unit matrix is materialised once and each
    batch of queries costs one ``sgemm`` per ``query_chunk`` rows plus
    an O(n) ``argpartition`` per query — no per-key Python loop, which
    is where the 10x-plus win over looped ``KeyedVectors.most_similar``
    comes from. On a *quantized* store the scan stays exhaustive but
    scores through the codec's ADC path against the encoded rows
    (``row_chunk`` at a time), so the resident working set is the codes
    — O(n·m) bytes — never a decoded float32 matrix.
    """

    name = "bruteforce"

    @classmethod
    def check_params(cls, params: dict) -> None:
        """Refuse, with no store at hand, what the constructor refuses
        (:class:`~repro.serving.config.ServingSpec` runs it when built)."""
        check_keywords(cls, params, "bruteforce: ", ServingError, None)
        check_counts(params, ("query_chunk", "row_chunk"), "bruteforce.", ServingError)

    def __init__(self, store, *, query_chunk: int = 1024, row_chunk: int = 65_536):
        self.check_params({"query_chunk": query_chunk, "row_chunk": row_chunk})
        self.store = store
        self.query_chunk = int(query_chunk)
        self.row_chunk = int(row_chunk)
        if store.is_quantized:
            self._unit = None
            self._inv_norms = 1.0 / np.maximum(
                np.asarray(store.norms, dtype=np.float32), np.float32(1e-12)
            )
        else:
            # shared with the store's cache; sgemm takes the transposed
            # view at zero copy, so no second resident matrix
            self._unit = store.unit_vectors()
            self._inv_norms = None

    def topk(self, queries, k: int) -> tuple[np.ndarray, np.ndarray]:
        check_counts({"k": k}, error=ServingError)
        q = _normalize_queries(queries)
        m = q.shape[0]
        n = len(self.store)
        k = min(k, n)
        rows = np.empty((m, k), dtype=np.int64)
        scores = np.empty((m, k), dtype=np.float32)
        for lo in range(0, m, self.query_chunk):
            hi = min(lo + self.query_chunk, m)
            if self._unit is not None:
                sims = q[lo:hi] @ self._unit.T
            else:
                adc = self.store.codec.make_adc(q[lo:hi])
                codes = self.store.codes
                sims = np.empty((hi - lo, n), dtype=np.float32)
                for rlo in range(0, n, self.row_chunk):
                    rhi = min(rlo + self.row_chunk, n)
                    sims[:, rlo:rhi] = adc(np.asarray(codes[rlo:rhi]))
                sims *= self._inv_norms[None, :]
            r, s = _topk_rows(sims, k)
            rows[lo:hi] = r
            scores[lo:hi] = s
        return rows, scores

    def memory_bytes(self) -> int:
        """Resident bytes: unit matrix (float32) or codes + norms (quantized)."""
        if self._unit is not None:
            return self._unit.nbytes
        return self.store.codes.nbytes + self._inv_norms.nbytes


@register_index("ivf", aliases=("ivf-flat",), exact=False)
class IVFIndex:
    """Inverted-file index with a spherical k-means coarse quantizer.

    Parameters
    ----------
    nlist:
        number of cells; defaults to ``round(sqrt(n))`` (the standard
        IVF sizing heuristic).
    nprobe:
        cells scanned per query. Recall and cost both grow with
        ``nprobe``; ``nprobe == nlist`` scans everything (exact).
    train_sample:
        rows sampled to train the quantizer (the full matrix is only
        ever streamed, never copied, so mmap stores stay out-of-core).
    iters:
        k-means iterations.
    seed:
        quantizer-training seed (the built index is deterministic).
    """

    name = "ivf"

    @classmethod
    def check_params(cls, params: dict) -> None:
        """As :meth:`BruteForceIndex.check_params`."""
        check_keywords(cls, params, "ivf: ", ServingError, None)
        check_counts(params, ("nprobe", "train_sample", "assign_chunk"), "ivf.", ServingError)
        if params.get("nlist") is not None:  # None: sized from the store
            check_counts(params, ("nlist",), "ivf.", ServingError)
        check_counts(params, ("iters", "seed"), "ivf.", ServingError, minimum=0)

    def __init__(
        self,
        store,
        *,
        nlist: int | None = None,
        nprobe: int = 8,
        train_sample: int = 20_000,
        iters: int = 10,
        seed: int = 0,
        assign_chunk: int = 65_536,
    ):
        self.check_params({"nlist": nlist, "nprobe": nprobe, "train_sample": train_sample,
                           "iters": iters, "seed": seed, "assign_chunk": assign_chunk})
        n = len(store)
        if n == 0:
            raise ServingError("cannot index an empty store")
        self.store = store
        if nlist is None:
            nlist = max(1, int(round(math.sqrt(n))))
        self.nlist = min(int(nlist), n)
        self.nprobe = min(int(nprobe), self.nlist)
        rng = as_rng(seed)
        self.centroids = self._train(rng, min(int(train_sample), n), int(iters))
        self._assign_all(int(assign_chunk))

    # ------------------------------------------------------------------
    def _unit_rows(self, rows: np.ndarray) -> np.ndarray:
        v = self.store.decode_rows(rows)
        norms = np.maximum(np.asarray(self.store.norms[rows]), np.float32(1e-12))
        return v / norms[:, None]

    def _train(self, rng, sample_size: int, iters: int) -> np.ndarray:
        sample = np.sort(rng.choice(len(self.store), size=sample_size, replace=False))
        x = self._unit_rows(sample)
        k = min(self.nlist, x.shape[0])
        self.nlist = k
        self.nprobe = min(self.nprobe, k)
        centroids = x[rng.choice(x.shape[0], size=k, replace=False)].copy()
        for __ in range(iters):
            assign = np.argmax(x @ centroids.T, axis=1)
            sums = np.zeros_like(centroids, dtype=np.float64)
            np.add.at(sums, assign, x)
            counts = np.bincount(assign, minlength=k)
            empty = counts == 0
            if empty.any():
                # reseed dead cells from random sample points
                sums[empty] = x[rng.integers(0, x.shape[0], size=int(empty.sum()))]
                counts[empty] = 1
            centroids = (sums / counts[:, None]).astype(np.float32)
            norms = np.linalg.norm(centroids, axis=1, keepdims=True)
            centroids /= np.maximum(norms, np.float32(1e-12))
        return np.ascontiguousarray(centroids)

    def _assign_all(self, chunk: int) -> None:
        n = len(self.store)
        assign = np.empty(n, dtype=np.int64)
        cent_t = self.centroids.T
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            assign[lo:hi] = np.argmax(self._unit_rows(np.arange(lo, hi)) @ cent_t, axis=1)
        order = np.argsort(assign, kind="stable")
        counts = np.bincount(assign, minlength=self.nlist)
        self._list_rows = order
        self._list_offsets = np.concatenate(([0], np.cumsum(counts)))

    def list_sizes(self) -> np.ndarray:
        """Rows per cell (diagnostics: balance of the quantizer)."""
        return np.diff(self._list_offsets)

    # ------------------------------------------------------------------
    def topk(self, queries, k: int, *, nprobe: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        check_counts({"k": k}, error=ServingError)
        q = _normalize_queries(queries)
        nprobe = self.nprobe if nprobe is None else min(max(1, int(nprobe)), self.nlist)
        m = q.shape[0]
        k = min(k, len(self.store))
        cell_sims = q @ self.centroids.T
        probe, __ = _topk_rows(cell_sims, nprobe)
        rows = np.full((m, k), -1, dtype=np.int64)
        scores = np.full((m, k), -np.inf, dtype=np.float32)
        offsets, list_rows = self._list_offsets, self._list_rows
        codes, norms = self.store.codes, self.store.norms
        quantized = self.store.is_quantized
        codec = self.store.codec
        for i in range(m):
            cand = np.concatenate(
                [list_rows[offsets[c] : offsets[c + 1]] for c in probe[i]]
            )
            if cand.size == 0:
                continue
            cand.sort()  # sequential gather is kinder to mmap pages
            if quantized:
                # ADC: one q·centroid lookup table per subspace, gathered
                # by code id — the candidate rows are never decoded
                sims = codec.make_adc(q[i : i + 1])(np.asarray(codes[cand]))[0]
            else:
                sims = np.asarray(codes[cand], dtype=np.float32) @ q[i]
            sims /= np.maximum(np.asarray(norms[cand]), np.float32(1e-12))
            kk = min(k, cand.size)
            top, sc = _topk_rows(sims[None, :], kk)
            rows[i, :kk] = cand[top[0]]
            scores[i, :kk] = sc[0]
        return rows, scores

    def memory_bytes(self) -> int:
        """Resident bytes of centroids + inverted lists."""
        return self.centroids.nbytes + self._list_rows.nbytes + self._list_offsets.nbytes


__all__ = [
    "INDEX_REGISTRY",
    "register_index",
    "make_index",
    "BruteForceIndex",
    "IVFIndex",
]
