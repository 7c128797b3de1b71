"""Rejection sampling with outlier folding (KnightKing, SOSP 2019).

Plain rejection must use a global bound covering the *largest* dynamic
multiplier. In node2vec with small p, that bound is 1/p even though only a
single edge (the return edge, d(u,s)=0) carries it — tanking acceptance
everywhere. KnightKing "folds" such enumerable outliers out of the
rejection loop: their excess mass above a tighter *bulk* bound is sampled
exactly, and the remaining bulk is rejection-sampled under the tight
bound.

The mixture is exact. Per iteration, an outlier j is chosen with mass
``excess_j``, and a bulk edge e with mass ``min(w'(e), bound·w(e))``; the
two add up to ``w'``, the target. The method only helps when the model can
*enumerate* its outliers in O(1) — possible for node2vec's single return
edge, impossible for edge2vec/fairwalk whose outliers depend on
heterogeneous types (paper Section V-D/V-E): those models report no
foldable outliers and this sampler degrades to plain rejection, exactly as
observed in Fig. 7(c)/(g).
"""

from __future__ import annotations

import numpy as np

from repro.sampling.base import NO_EDGE
from repro.sampling.rejection import RejectionSampler


class KnightKingSampler(RejectionSampler):
    """Rejection sampler with exact folding of model-declared outliers."""

    name = "knightking"

    def __init__(self, graph, *, max_tries: int = 10_000, budget=None):
        super().__init__(graph, max_tries=max_tries, budget=budget)
        self._row_weight_totals = graph.weight_row_sums()

    def sample(self, graph, model, state, rng: np.random.Generator) -> int:
        folded = model.fold_outliers(graph, state)
        if folded is None:
            return super().sample(graph, model, state, rng)
        outlier_offsets, bulk_bound = folded
        lo, hi = graph.edge_range(state.current)
        if hi == lo or bulk_bound <= 0:
            return NO_EDGE

        # exact excess mass of each outlier above the bulk envelope
        excess = np.empty(len(outlier_offsets), dtype=np.float64)
        for j, off in enumerate(outlier_offsets):
            w_dyn = model.dynamic_weight(graph, state, off)
            w_static = graph.edge_weight_at(off)
            excess[j] = max(w_dyn - bulk_bound * w_static, 0.0)
        excess_total = float(excess.sum())
        bulk_envelope = bulk_bound * float(self._row_weight_totals[state.current])
        total = excess_total + bulk_envelope
        if total <= 0.0:
            return NO_EDGE

        for _ in range(self.max_tries):
            self.stats.proposals += 1
            r = rng.random() * total
            if r < excess_total:
                # outlier branch: exact draw proportional to excess, no rejection
                cdf = np.cumsum(excess)
                j = int(np.searchsorted(cdf, r, side="right"))
                self.stats.samples += 1
                return int(outlier_offsets[min(j, len(outlier_offsets) - 1)])
            # bulk branch: propose from static weights, accept against the
            # *clipped* dynamic weight so outliers are not double-counted
            off = self.proposal.draw(state.current, rng)
            w_static = graph.edge_weight_at(off)
            if w_static <= 0.0:
                continue
            w_dyn = model.dynamic_weight(graph, state, off)
            clipped = min(w_dyn, bulk_bound * w_static)
            if rng.random() * bulk_bound * w_static < clipped:
                self.stats.samples += 1
                return off
        return NO_EDGE
