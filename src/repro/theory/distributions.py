"""Parameterised target distributions for the Fig. 1 simulation.

The paper generates random target distributions controlled by three
knobs: the sample-space size n, the number of maximal-probability elements
t, and the skew ratio π_max/π_min. The construction here fixes t entries
at the maximal value, one entry at the minimal value (so the requested
ratio is hit exactly), draws the rest *log-uniformly* strictly in between,
and normalises — preserving both t and the ratio.

Log-uniform interiors matter: with a large ratio most elements then sit
orders of magnitude below the maxima, so a uniformly-initialised chain
usually starts in a genuinely low-probability region — the regime the
paper's burn-in discussion (and Fig. 1's crossover) is about. A uniform
interior would park most mass at mid probabilities and wash the effect
out.
"""

from __future__ import annotations

import numpy as np

from repro.config import check_counts, check_reals
from repro.errors import ConfigError
from repro.utils.rng import as_rng


def make_target_distribution(
    n: int, t: int, ratio: float, *, rng=None
) -> np.ndarray:
    """A probability vector with given size, #maxima and π_max/π_min.

    Parameters
    ----------
    n: sample-space size (>= 2).
    t: number of elements at the maximal probability (1 <= t < n).
    ratio: π_max / π_min (>= 1).

    >>> p = make_target_distribution(100, 5, 50.0, rng=0)
    >>> round(p.max() / p.min(), 6)
    50.0
    >>> int((p == p.max()).sum())
    5
    """
    check_counts({"n": n}, error=ConfigError, minimum=2)
    if not 1 <= t < n:
        raise ConfigError("t must satisfy 1 <= t < n")
    check_reals({"ratio": ratio}, error=ConfigError, interval="[1, inf)")
    rng = as_rng(rng)
    v_max = 1.0
    v_min = v_max / ratio
    values = np.empty(n, dtype=np.float64)
    values[:t] = v_max
    values[t] = v_min
    remaining = n - t - 1
    if remaining > 0:
        if ratio == 1.0:
            values[t + 1 :] = v_max
        else:
            # log-uniform strictly inside (v_min, v_max) so exactly t
            # maxima and the designated minimum survive
            lo, hi = np.log(v_min), np.log(v_max)
            values[t + 1 :] = np.exp(lo + (hi - lo) * (0.01 + 0.98 * rng.random(remaining)))
    rng.shuffle(values)
    return values / values.sum()
