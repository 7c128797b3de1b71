"""Initialization strategies for the M-H edge sampler (paper Section III-C).

A fresh M-H chain needs a first sample. The classical answer is a burn-in
period (run the chain for B iterations and discard them), but with #state
chains per network that cost dominates. The paper contributes two O(1)
alternatives and a trade-off theorem:

* **random** — draw LAST_x uniformly from the neighbours. Free, but when
  the target distribution is skewed the early samples are biased toward
  low-probability regions.
* **high-weight** — set LAST_x to the (approximately) maximum-weight
  neighbour, i.e. start the chain inside the high-probability region.
  Theorem 3 gives the condition (π_max/π_min > n/t, or π_min < 1/2n for
  large π_max) under which this converges faster than random.
* **burn-in** — the classical strategy, kept as the baseline; the paper
  tunes B = 100.

A strategy is a class in :data:`repro.registry.INITIALIZER_REGISTRY`
whose static ``init_chains(stepper, m, rng)`` returns the first edge
(a global CSR offset, ``NO_EDGE`` for none) of every fresh chain of one
M-H step, for all of them at once. ``stepper`` is the walk's M-H stepper
and ``m`` the scratch of its ``begin``: ``m["uninit"]`` marks the fresh
lanes, ``stepper.fresh_lanes(m)`` gives their ``(prev, prev_off, cur,
step)``, ``stepper.lane_weights(...)`` their dynamic weights through the
walk's kernel backend, and ``stepper.init_sample_cap`` /
``stepper.burn_in_iterations`` the walk's settings. A strategy draws
from ``rng`` and from nothing else, so a walk repeats for its seed. The
stepper calls the registered class itself (there are no instances), and
``register_initializer(name, cls, replace=True)`` swaps what every walk
by that name runs.

One deviation from pure MCMC practice, required for walk correctness: an
initializer never returns a zero-dynamic-weight edge (a metapath walker
must not traverse a forbidden edge while its chain mixes). When a strategy
draws one, it falls back to the row's support; a state with no support
reports ``NO_EDGE`` and the walk terminates.
"""

from __future__ import annotations

import numpy as np

from repro.registry import register_initializer
from repro.sampling.base import NO_EDGE


def _fresh_rows(stepper, m):
    """The fresh lanes of ``m`` with their rows' first offsets and degrees."""
    lanes = stepper.fresh_lanes(m)
    lo = stepper.graph.offsets[lanes[2]]
    return lanes, lo, stepper.graph.offsets[lanes[2] + 1] - lo


def _uniform_slot(rng, lo, deg):
    """One uniform edge entry of each row (one uniform per row)."""
    return lo + (rng.random(lo.size) * np.maximum(deg, 1)).astype(np.int64)


def _random_start(stepper, lanes, lo, deg, rng):
    last = _uniform_slot(rng, lo, deg)
    bad = stepper.lane_weights(*lanes, last) <= 0.0
    if bad.any():
        prev, prev_off, cur, step = lanes
        last[bad] = stepper.uniform_support(prev[bad], prev_off[bad], cur[bad], step, rng)
    return last


class RandomInit:
    """LAST_x := uniform neighbour (π0 = 1/n). O(1) expected time.

    One uniform slot per fresh chain; the chains that land on a
    zero-weight edge then draw again among their row's positive-weight
    edges, one uniform per edge entry.
    """

    @staticmethod
    def init_chains(stepper, m, rng) -> np.ndarray:
        lanes, lo, deg = _fresh_rows(stepper, m)
        return _random_start(stepper, lanes, lo, deg, rng)


class HighWeightInit:
    """LAST_x := the best of ``init_sample_cap`` uniform candidates.

    One ``(chains, cap)`` block of uniforms picks ``cap`` candidates per
    fresh chain *with replacement*, also on rows of degree ``<= cap``,
    and the chain starts at the candidate of largest dynamic weight —
    the paper's law-of-large-numbers approximation of the row argmax.
    A chain whose candidates all weigh zero, and every chain when the
    cap is ``None``, takes the exact row argmax instead. The work runs
    in the stepper's ``init_high_weight``, which the compiled wave
    kernel reproduces and the sharded driver fans out.
    """

    @staticmethod
    def init_chains(stepper, m, rng) -> np.ndarray:
        cap = stepper.init_sample_cap
        n = int(m["uninit"].sum())
        return stepper.init_high_weight(m, None if cap is None else rng.random((n, cap)))


class BurnInInit:
    """Classical burn-in: random start, then B discarded M-H iterations.

    Each of the ``burn_in_iterations`` iterations draws a candidate and
    an acceptance uniform per fresh chain. The paper tunes B=100 ("a
    smaller number will lead to accuracy loss"); the cost shows up as
    the dominant initialisation bar of Fig. 6's burn-in configuration.
    """

    @staticmethod
    def init_chains(stepper, m, rng) -> np.ndarray:
        lanes, lo, deg = _fresh_rows(stepper, m)
        last = _random_start(stepper, lanes, lo, deg, rng)
        w_last = stepper.lane_weights(*lanes, np.maximum(last, 0))
        for __ in range(stepper.burn_in_iterations):
            cand = _uniform_slot(rng, lo, deg)
            u_acc = rng.random(lo.size)
            w_cand = stepper.lane_weights(*lanes, cand)
            accept = (w_cand > 0.0) & ((w_last <= 0.0) | (u_acc * w_last < w_cand))
            last = np.where(accept & (last != NO_EDGE), cand, last)
            w_last = np.where(accept, w_cand, w_last)
        return last


register_initializer("random", RandomInit)
register_initializer("high-weight", HighWeightInit, aliases=("weight",))
register_initializer("burn-in", BurnInInit, aliases=("burnin",))
