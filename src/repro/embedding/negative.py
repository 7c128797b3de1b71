"""Negative sampling from the unigram^0.75 distribution.

word2vec draws negatives proportional to ``count(token) ** 0.75``. Rather
than the original 100M-slot table, this implementation samples by inverse
CDF (binary search over the cumulative smoothed counts) — exact, O(log V)
per draw and fully vectorized.

The map from a uniform to an index has one definition,
:meth:`NegativeSampler.indices`; the trainer draws the uniforms itself
(so every draw stays in its per-block generator) and the compiled learn
kernel's search is tested equal to it for every ``u``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import TrainingError


class NegativeSampler:
    """Draws dense vocab indices ∝ count^power.

    Parameters
    ----------
    counts:
        occurrence count per dense vocab index.
    power:
        smoothing exponent (word2vec default 0.75).
    """

    def __init__(self, counts: np.ndarray, *, power: float = 0.75):
        counts = np.asarray(counts, dtype=np.float64)
        if counts.ndim != 1 or counts.size == 0:
            raise TrainingError("counts must be a non-empty 1-D array")
        if np.any(counts < 0):
            raise TrainingError("counts must be non-negative")
        # libm's pow once per distinct count, not np.power: NumPy picks that
        # kernel by the CPU (its AVX-512 one rounds otherwise), and the
        # CDF's bits must be the same on every host
        distinct, inverse = np.unique(counts, return_inverse=True)
        smoothed = np.array([math.pow(c, power) for c in distinct.tolist()])[inverse]
        total = smoothed.sum()
        if total <= 0:
            raise TrainingError("all counts are zero")
        self._cdf = np.cumsum(smoothed / total)
        self._cdf[-1] = 1.0  # guard against rounding
        self._cdf.flags.writeable = False
        self.power = power

    @property
    def size(self) -> int:
        """Vocabulary size."""
        return self._cdf.size

    @property
    def cdf(self) -> np.ndarray:
        """Cumulative distribution (read-only float64, last entry 1.0)."""
        return self._cdf

    def probabilities(self) -> np.ndarray:
        """The exact sampling distribution."""
        return np.diff(self._cdf, prepend=0.0)

    def indices(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF: the int64 index each uniform in [0, 1) selects.

        ``u`` lands on the first index whose cumulative mass exceeds it,
        so a zero-count token (a flat run of the CDF) is never selected
        and ``u`` equal to a CDF entry belongs to the next token.
        """
        return np.searchsorted(self._cdf, u, side="right")

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Draw indices with the given shape.

        Accidental collisions with positive examples are not filtered,
        matching the original word2vec's behaviour.
        """
        return self.indices(rng.random(shape))
