"""The Metropolis-Hastings edge sampler — the paper's core contribution.

One M-H chain per walker state x, with the *uniform* distribution over the
current node's neighbours as the conditional proposal q(·|·). Because the
uniform proposal is symmetric, the acceptance ratio collapses to

    θ = min(1, w'(candidate) / w'(LAST_x))            (Algorithm 1)

which needs only two dynamic-weight evaluations — no normalising constant,
no per-state tables. Theorem 2 shows the uniform proposal satisfies the
geometric-convergence condition q(y|x) ≥ a·π(y) with a = 1/(deg·π_max) for
*any* target distribution, so the chain converges for every model
expressible in the unified abstraction.

Complexities (paper Section III-A): O(1) time and O(1) memory per state —
the whole sampler is a single int64 array ``last`` of length #state,
holding the global edge offset of each chain's current sample, plus a
pluggable initialization strategy applied lazily on first visit.
"""

from __future__ import annotations

import numpy as np

from repro.config import WalkConfig
from repro.errors import ConfigError
from repro.sampling.base import NO_EDGE, EdgeSampler
from repro.sampling.initialization import make_initializer
from repro.sampling.memory_model import mh_bytes


class MetropolisHastingsSampler(EdgeSampler):
    """Algorithm 1 of the paper, one lazy chain per walker state.

    Parameters
    ----------
    graph, model:
        Define the state space; the chain array has
        ``model.state_space_size(graph)`` slots.
    initializer:
        ``"random"``, ``"high-weight"`` (default, the paper's best),
        ``"burn-in"``, or an initializer instance.
    budget:
        Optional simulated memory budget charged with the chain array.
    """

    name = "mh"

    def __init__(self, graph, model, *, initializer=WalkConfig.initializer, budget=None, chain_store=None):
        super().__init__()
        size = model.state_space_size(graph)
        if chain_store is not None:
            # share chains with a vectorized engine (duck-typed ChainStore)
            self.last = chain_store.last
            self.last_w = getattr(chain_store, "last_w", None)
            if self.last.size != size:
                raise ConfigError("chain_store size does not match the model's state space")
        else:
            if budget is not None:
                budget.charge(mh_bytes(graph, model), self.name)
            self.last = np.full(size, NO_EDGE, dtype=np.int64)
            self.last_w = np.full(size, np.nan, dtype=np.float64)
        self.initializer = make_initializer(initializer)

    def _invalidate_weight(self, idx: int) -> None:
        """Mark the chain's cached w'(LAST_x) stale after moving it.

        The scalar sampler evaluates weights through the scalar model
        path, whose floating-point expression may differ in the last bit
        from the batch path the vectorized engine caches — so it only
        ever *invalidates* the shared cache, never populates it.
        """
        if self.last_w is not None:
            self.last_w[idx] = np.nan

    def sample(self, graph, model, state, rng: np.random.Generator) -> int:
        lo, hi = graph.edge_range(state.current)
        deg = hi - lo
        if deg == 0:
            return NO_EDGE
        idx = model.state_index(graph, state)
        last = int(self.last[idx])
        if last == NO_EDGE:
            # first touch: run the initialization strategy (Section III-C)
            last = self.initializer.initialize(graph, model, state, rng)
            self.stats.initializations += 1
            if last == NO_EDGE:
                return NO_EDGE  # no positive-weight transition exists
            self.last[idx] = last
            self._invalidate_weight(idx)

        # Algorithm 1, lines 2-9
        cand = lo + int(rng.integers(0, deg))
        w_cand = model.dynamic_weight(graph, state, cand)
        w_last = model.dynamic_weight(graph, state, last)
        self.stats.proposals += 1
        if w_cand > 0.0 and (w_last <= 0.0 or rng.random() * w_last < w_cand):
            self.last[idx] = cand
            self._invalidate_weight(idx)
            last = cand
        self.stats.samples += 1
        return last

    @property
    def num_initialized_states(self) -> int:
        """How many chains have been touched so far."""
        return int((self.last != NO_EDGE).sum())

    def reset_chains(self) -> None:
        """Forget all chain positions (forces re-initialization)."""
        self.last.fill(NO_EDGE)
        if self.last_w is not None:
            self.last_w.fill(np.nan)

    @classmethod
    def memory_bytes(cls, graph, model) -> int:
        return mh_bytes(graph, model)
