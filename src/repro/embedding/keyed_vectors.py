"""Queryable embedding container (gensim's KeyedVectors, distilled).

Holds the trained input vectors keyed by node id and answers the standard
queries: vector lookup, cosine similarity, nearest neighbours, plus a
feature-matrix view for downstream classifiers.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.config import check_counts
from repro.errors import VocabularyError


class KeyedVectors:
    """Embedding vectors addressable by node id.

    Parameters
    ----------
    keys:
        int array of node ids, aligned with ``vectors`` rows.
    vectors:
        float matrix ``(len(keys), dimensions)``.
    """

    def __init__(self, keys: np.ndarray, vectors: np.ndarray):
        self.keys = np.asarray(keys, dtype=np.int64)
        self.vectors = np.asarray(vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[0] != self.keys.size:
            raise VocabularyError("vectors must be a matrix aligned with keys")
        self._row_of = np.full(int(self.keys.max(initial=-1)) + 1, -1, dtype=np.int64)
        self._row_of[self.keys] = np.arange(self.keys.size)
        self._normed: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def dimensions(self) -> int:
        """Embedding dimensionality."""
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return self.keys.size

    def __contains__(self, key: int) -> bool:
        return 0 <= key < self._row_of.size and self._row_of[key] >= 0

    def __getitem__(self, key: int) -> np.ndarray:
        return self.vector(key)

    def vector(self, key: int) -> np.ndarray:
        """Embedding of one node id."""
        row = self._row_of[key] if 0 <= key < self._row_of.size else -1
        if row < 0:
            raise VocabularyError(f"node {key} has no embedding")
        return self.vectors[row]

    def matrix_for(self, keys, *, missing: str = "error") -> np.ndarray:
        """Feature matrix for ``keys`` (rows aligned with the input order).

        ``missing="error"`` raises for unknown ids; ``missing="zeros"``
        substitutes zero vectors (useful when rare nodes never appeared
        in any walk).
        """
        keys = np.asarray(keys, dtype=np.int64)
        safe = np.clip(keys, 0, self._row_of.size - 1)
        rows = np.where(keys == safe, self._row_of[safe], -1)
        if missing == "error":
            if np.any(rows < 0):
                bad = int(keys[np.flatnonzero(rows < 0)[0]])
                raise VocabularyError(f"node {bad} has no embedding")
            return self.vectors[rows]
        out = np.zeros((keys.size, self.dimensions))
        has = rows >= 0
        out[has] = self.vectors[rows[has]]
        return out

    # ------------------------------------------------------------------
    def _unit_vectors(self) -> np.ndarray:
        if self._normed is None:
            norms = np.linalg.norm(self.vectors, axis=1, keepdims=True)
            self._normed = self.vectors / np.maximum(norms, 1e-12)
        return self._normed

    def similarity(self, a: int, b: int) -> float:
        """Cosine similarity between two node embeddings."""
        unit = self._unit_vectors()
        return float(unit[self._require_row(a)] @ unit[self._require_row(b)])

    def most_similar(self, key, topn: int = 10) -> list[tuple[int, float]]:
        """The ``topn`` nearest nodes by cosine similarity (an integer >= 1;
        all the other keys when it exceeds them).

        ``key`` may be a node id or a raw query vector.
        """
        check_counts({"topn": topn}, error=VocabularyError)
        unit = self._unit_vectors()
        exclude = -1
        if np.isscalar(key) or isinstance(key, (int, np.integer)):
            row = self._require_row(int(key))
            query = unit[row]
            exclude = row
        else:
            query = np.asarray(key, dtype=np.float64)
            query = query / max(np.linalg.norm(query), 1e-12)
        sims = unit @ query
        if exclude >= 0:
            sims[exclude] = -np.inf
        topn = min(topn, sims.size - (exclude >= 0))
        best = np.argpartition(-sims, topn - 1)[:topn]
        best = best[np.argsort(-sims[best])]
        return [(int(self.keys[i]), float(sims[i])) for i in best]

    def _require_row(self, key: int) -> int:
        row = self._row_of[key] if 0 <= key < self._row_of.size else -1
        if row < 0:
            raise VocabularyError(f"node {key} has no embedding")
        return int(row)

    # ------------------------------------------------------------------
    def save_npz(self, path) -> None:
        """Persist keys and vectors to a compressed ``.npz``."""
        np.savez_compressed(path, keys=self.keys, vectors=self.vectors)

    @classmethod
    def load_npz(cls, path) -> "KeyedVectors":
        """Load vectors stored by :meth:`save_npz`.

        ``numpy.savez_compressed`` appends ``.npz`` when the save path
        lacks it, so loading accepts the same suffix-less path and finds
        the file numpy actually wrote.
        """
        p = Path(path)
        if not p.exists():
            suffixed = p.with_name(p.name + ".npz")
            if suffixed.exists():
                p = suffixed
        with np.load(p) as data:
            return cls(data["keys"], data["vectors"])

    def to_store(self, path=None, *, codec=None, **codec_params):
        """Convert into a servable :class:`~repro.serving.store.EmbeddingStore`.

        With ``path``, the store is written to disk and reopened
        memory-mapped (the serving artifact); without, an in-memory store
        is returned. ``codec`` (registry name or instance; default
        ``"float32"``) compresses the matrix section — ``"int8"`` for 4x,
        ``"pq"`` for ~16x at d=128 — with ``codec_params`` forwarded to
        the codec constructor (``m``, ``k``, ...).
        """
        from repro.serving.store import EmbeddingStore

        store = EmbeddingStore.from_keyed_vectors(self, codec=codec, **codec_params)
        if path is None:
            return store
        store.save(path)
        return EmbeddingStore.open(path)

    def __repr__(self) -> str:
        return f"KeyedVectors(count={len(self)}, dimensions={self.dimensions})"
