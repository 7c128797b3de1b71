"""Corpus vocabulary for the word2vec trainer.

Tokens are node ids; the vocabulary assigns each retained token a dense
index ordered by descending frequency (the word2vec convention, which also
makes the negative-sampling CDF cache-friendly) and optionally computes
the classic subsampling keep-probabilities
``p_keep = sqrt(t/f) + t/f`` for frequent tokens.
"""

from __future__ import annotations

import numpy as np

from repro.config import TrainConfig
from repro.errors import VocabularyError


class Vocabulary:
    """Token statistics and the token-id <-> dense-index mapping.

    Parameters
    ----------
    counts:
        occurrence count per token id (index = token id).
    min_count:
        tokens appearing fewer times are dropped from training.
    """

    def __init__(self, counts: np.ndarray, *, min_count: int = TrainConfig.min_count):
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 1:
            raise VocabularyError("counts must be 1-D (token id -> count)")
        if min_count < 0:
            raise VocabularyError("min_count must be >= 0")
        kept = np.flatnonzero(counts >= max(min_count, 1))
        if kept.size == 0:
            raise VocabularyError("vocabulary is empty after min_count filtering")
        order = np.argsort(counts[kept])[::-1]
        #: token id of each dense index, frequency-descending
        self.tokens = kept[order]
        #: occurrence count aligned with :attr:`tokens`
        self.counts = counts[self.tokens]
        # dense lookup: token id -> index (or -1 if dropped)
        self._index_of = np.full(counts.size, -1, dtype=np.int64)
        self._index_of[self.tokens] = np.arange(self.tokens.size)

    @classmethod
    def from_corpus(cls, corpus, num_tokens: int | None = None, *, min_count: int = TrainConfig.min_count):
        """Build from a :class:`~repro.walks.corpus.WalkCorpus`."""
        if num_tokens is None:
            num_tokens = int(corpus.walks.max()) + 1
        return cls(corpus.node_frequencies(num_tokens), min_count=min_count)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of retained tokens."""
        return self.tokens.size

    @property
    def total_count(self) -> int:
        """Total retained token occurrences."""
        return int(self.counts.sum())

    def index(self, token_id: int) -> int:
        """Dense index of a token id (-1 when dropped/unknown)."""
        if not 0 <= token_id < self._index_of.size:
            return -1
        return int(self._index_of[token_id])

    def encode(self, token_ids: np.ndarray) -> np.ndarray:
        """Vectorized token-id -> dense-index mapping (-1 for dropped).

        Negative input ids (walk padding) and ids outside the counted
        token range also map to -1.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        in_range = (token_ids >= 0) & (token_ids < self._index_of.size)
        safe = np.clip(token_ids, 0, max(self._index_of.size - 1, 0))
        out = self._index_of[safe]
        return np.where(in_range, out, -1)

    def subsample_keep_probs(self, threshold: float) -> np.ndarray:
        """Per-index keep probability under frequency subsampling.

        ``threshold`` is word2vec's ``t`` (e.g. 1e-3); 0 disables
        subsampling (all ones).
        """
        if threshold <= 0:
            return np.ones(self.size, dtype=np.float64)
        freq = self.counts / max(self.total_count, 1)
        ratio = threshold / np.maximum(freq, 1e-300)
        return np.minimum(np.sqrt(ratio) + ratio, 1.0)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"Vocabulary(size={self.size}, total_count={self.total_count})"
