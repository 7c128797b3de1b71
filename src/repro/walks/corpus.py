"""Walk corpus: the node sequences handed to the word2vec trainer.

Walks are stored as one dense matrix of :data:`~repro.tokens.TOKEN_DTYPE`
(four-byte node ids) with -1 padding past each walk's end (walks can
terminate early at dead ends), plus an int64 length vector. This keeps a
billion-token corpus cache-friendly and makes the word2vec vocabulary
pass a single ``bincount``. The engines write that matrix in place;
anything else (lists, a ``.npz`` or text file, a wider integer matrix) is
checked before it becomes one.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WalkError
from repro.tokens import TOKEN_DTYPE, TOKEN_LIMIT


def _require_integer(array, what: str) -> None:
    """Refuse a float, bool or object array: NumPy would truncate or cast it."""
    if not np.issubdtype(array.dtype, np.integer):
        raise WalkError(f"{what} must be integer node ids, got dtype {array.dtype}")


def _check_tokens(walks: np.ndarray, lengths: np.ndarray) -> None:
    """Refuse a matrix whose row i is not ``lengths[i]`` node ids in
    ``[0, TOKEN_LIMIT)`` followed by -1 padding."""
    if walks.size and (walks.min() < -1 or walks.max() >= TOKEN_LIMIT):
        raise WalkError(f"walk tokens must be node ids in [0, {TOKEN_LIMIT}) or -1 padding")
    inside = np.arange(walks.shape[1]) < lengths[:, None]
    bad = np.flatnonzero(((walks >= 0) != inside).any(axis=1))
    if bad.size:
        raise WalkError(
            f"walk {int(bad[0])} is not {int(lengths[bad[0]])} node ids followed by "
            "-1 padding (a -1 inside its length, or a token past it)"
        )


class WalkCorpus:
    """A set of random walks over node ids.

    Parameters
    ----------
    walks:
        integer matrix ``(num_walks, max_len)``; row i holds walk i padded
        with -1 after ``lengths[i]`` entries. A
        :data:`~repro.tokens.TOKEN_DTYPE` matrix (what the engines write)
        is kept as it is; a wider integer one is checked and narrowed; a
        float or bool one is refused.
    lengths:
        number of valid nodes per walk (``1 <= lengths[i] <= max_len``).
    """

    def __init__(self, walks: np.ndarray, lengths: np.ndarray):
        walks, lengths = np.asarray(walks), np.asarray(lengths)
        if lengths.size:
            _require_integer(lengths, "walk lengths")
        self.lengths = np.ascontiguousarray(lengths, dtype=np.int64)
        if walks.ndim != 2:
            raise WalkError("walks must be a 2-D matrix")
        if self.lengths.shape != (walks.shape[0],):
            raise WalkError("lengths must have one entry per walk")
        if walks.shape[0] and (self.lengths.min() < 1 or self.lengths.max() > walks.shape[1]):
            raise WalkError("walk lengths out of range")
        if walks.dtype != TOKEN_DTYPE:
            _require_integer(walks, "walk tokens")
            _check_tokens(walks, self.lengths)
            walks = walks.astype(TOKEN_DTYPE)
        self.walks = np.ascontiguousarray(walks)

    # ------------------------------------------------------------------
    @classmethod
    def _empty(cls) -> "WalkCorpus":
        return cls(np.empty((0, 1), dtype=TOKEN_DTYPE), np.empty(0, dtype=np.int64))

    @classmethod
    def from_lists(cls, sequences) -> "WalkCorpus":
        """Build from an iterable of node-id sequences (ids in
        ``[0, TOKEN_LIMIT)``; anything else is a :class:`WalkError`)."""
        seqs = [np.asarray(s) for s in sequences]
        if not seqs:
            return cls._empty()
        lengths = np.array([s.size for s in seqs], dtype=np.int64)
        if lengths.min() == 0 or any(s.ndim != 1 for s in seqs):
            raise WalkError("every walk must be a non-empty 1-D sequence of node ids")
        flat = np.concatenate(seqs)
        _require_integer(flat, "walk tokens")
        if flat.min() < 0 or flat.max() >= TOKEN_LIMIT:
            raise WalkError(f"walk tokens must be node ids in [0, {TOKEN_LIMIT})")
        walks = np.full((len(seqs), int(lengths.max())), -1, dtype=TOKEN_DTYPE)
        # row-major: row i's first lengths[i] cells, walk after walk
        walks[np.arange(walks.shape[1]) < lengths[:, None]] = flat
        return cls(walks, lengths)

    @classmethod
    def merge(cls, corpora) -> "WalkCorpus":
        """Concatenate several corpora (walk order preserved).

        A single input is returned as-is (no copy), and same-width inputs
        concatenate directly instead of being copied through a freshly
        ``-1``-filled matrix — merging N equal shards costs one copy, not
        a fill plus a copy.
        """
        corpora = list(corpora)
        if not corpora:
            return cls._empty()
        if len(corpora) == 1:
            return corpora[0]
        max_len = max(c.walks.shape[1] for c in corpora)
        if all(c.walks.shape[1] == max_len for c in corpora):
            return cls(
                np.concatenate([c.walks for c in corpora]),
                np.concatenate([c.lengths for c in corpora]),
            )
        total = sum(c.num_walks for c in corpora)
        walks = np.full((total, max_len), -1, dtype=TOKEN_DTYPE)
        lengths = np.empty(total, dtype=np.int64)
        row = 0
        for c in corpora:
            walks[row : row + c.num_walks, : c.walks.shape[1]] = c.walks
            lengths[row : row + c.num_walks] = c.lengths
            row += c.num_walks
        return cls(walks, lengths)

    # ------------------------------------------------------------------
    @property
    def num_walks(self) -> int:
        """Number of walks."""
        return self.walks.shape[0]

    @property
    def token_count(self) -> int:
        """Total number of node occurrences across all walks."""
        return int(self.lengths.sum())

    @property
    def nbytes(self) -> int:
        """Resident bytes of the corpus arrays (walk matrix + lengths)."""
        return self.walks.nbytes + self.lengths.nbytes

    def iter_walks(self):
        """Yield each walk as a trimmed view of its row (``TOKEN_DTYPE``)."""
        for i in range(self.num_walks):
            yield self.walks[i, : self.lengths[i]]

    def node_frequencies(self, num_nodes: int) -> np.ndarray:
        """Occurrences of each node id across the corpus."""
        flat = self.walks[self.walks >= 0]
        return np.bincount(flat, minlength=num_nodes)

    def nodes_visited(self) -> np.ndarray:
        """Sorted unique node ids appearing in the corpus."""
        return np.unique(self.walks[self.walks >= 0])

    def statistics(self) -> dict:
        """Corpus summary: walk counts, length distribution, node coverage."""
        if self.num_walks == 0:
            return {
                "num_walks": 0,
                "token_count": 0,
                "mean_length": 0.0,
                "min_length": 0,
                "max_length": 0,
                "truncated_walks": 0,
                "distinct_nodes": 0,
            }
        return {
            "num_walks": self.num_walks,
            "token_count": self.token_count,
            "mean_length": float(self.lengths.mean()),
            "min_length": int(self.lengths.min()),
            "max_length": int(self.lengths.max()),
            "truncated_walks": int((self.lengths < self.walks.shape[1]).sum()),
            "distinct_nodes": int(self.nodes_visited().size),
        }

    # ------------------------------------------------------------------
    def save_npz(self, path) -> None:
        """Persist to a compressed ``.npz`` (walks in ``TOKEN_DTYPE``,
        lengths int64)."""
        np.savez_compressed(path, walks=self.walks, lengths=self.lengths)

    @classmethod
    def load_npz(cls, path) -> "WalkCorpus":
        """Load a corpus stored by :meth:`save_npz`; a file holding any
        integer token dtype (int64 included) loads, its values checked."""
        with np.load(path) as data:
            corpus = cls(data["walks"], data["lengths"])
        _check_tokens(corpus.walks, corpus.lengths)
        return corpus

    def save_text(self, path) -> None:
        """Write one space-separated walk per line (external word2vec
        tools consume exactly this format)."""
        with open(path, "w") as handle:
            for walk in self.iter_walks():
                handle.write(" ".join(map(str, walk.tolist())))
                handle.write("\n")

    @classmethod
    def load_text(cls, path) -> "WalkCorpus":
        """Load a corpus written by :meth:`save_text`; a token that is not
        a node id is a :class:`WalkError` naming its line."""
        sequences = []
        with open(path) as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    sequences.append([int(tok) for tok in line.split()])
                except ValueError:
                    raise WalkError(f"{path}:{number}: walk tokens must be integer node ids") from None
        return cls.from_lists(sequences)

    def __len__(self) -> int:
        return self.num_walks

    def __repr__(self) -> str:
        return f"WalkCorpus(num_walks={self.num_walks}, tokens={self.token_count})"
