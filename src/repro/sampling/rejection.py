"""Rejection edge sampler (the KnightKing-style baseline).

Proposes from the *static*-weight distribution (cheap: uniform for
unweighted graphs, per-node alias tables otherwise) and accepts a
candidate edge e with probability ``w'(e) / (bound · w(e))`` where
``bound ≥ max w'(e)/w(e)`` is supplied by the model. Per-sample cost is
geometric with mean 1/θ, and θ collapses when the model's dynamic weights
diverge from the static ones — the parameter sensitivity of the paper's
Table II (acceptance 1.0 at node2vec (1,1) but 0.25 at (0.25,1)).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplerError
from repro.sampling.alias import FirstOrderAliasStore
from repro.sampling.base import NO_EDGE, EdgeSampler
from repro.sampling.memory_model import rejection_bytes


class RejectionSampler(EdgeSampler):
    """Accept/reject sampling over a static-weight proposal.

    Parameters
    ----------
    graph:
        The CSR graph (the proposal structure is built here, which is the
        sampler's initialisation cost).
    max_tries:
        Hard cap on proposals per sample; exhausting it returns
        ``NO_EDGE``. Protects against states whose dynamic weights are
        all zero (metapath dead ends).
    budget:
        Optional :class:`~repro.sampling.memory_model.MemoryBudget`
        charged with the proposal footprint.
    """

    name = "rejection"

    def __init__(self, graph, *, max_tries: int = 10_000, budget=None):
        super().__init__()
        if max_tries < 1:
            raise SamplerError("max_tries must be >= 1")
        if budget is not None:
            budget.charge(rejection_bytes(graph), self.name)
        self.proposal = FirstOrderAliasStore(graph)
        self.max_tries = max_tries

    def sample(self, graph, model, state, rng: np.random.Generator) -> int:
        lo, hi = graph.edge_range(state.current)
        if hi == lo:
            return NO_EDGE
        bound = model.alpha_bound(graph)
        if bound <= 0:
            return NO_EDGE
        for _ in range(self.max_tries):
            off = self.proposal.draw(state.current, rng)
            self.stats.proposals += 1
            w_static = graph.edge_weight_at(off)
            if w_static <= 0.0:
                continue
            w_dyn = model.dynamic_weight(graph, state, off)
            if rng.random() * bound * w_static < w_dyn:
                self.stats.samples += 1
                return off
        return NO_EDGE

    @classmethod
    def memory_bytes(cls, graph, model) -> int:
        return rejection_bytes(graph)
