"""node2vec (Grover & Leskovec, KDD 2016) — second-order biased walk.

The dynamic weight of edge (v, u) given previous node s is α·w_vu with

    α = 1/p  if u == s             (return,    d(u, s) = 0)
    α = 1    if (s, u) ∈ E         (stay near, d(u, s) = 1)
    α = 1/q  otherwise             (explore,   d(u, s) = 2)

(paper Eq. 2). The state is the previous edge, so #state = |E| and the
adjacency test makes each weight evaluation O(log deg) via binary search —
the complexity quoted in the paper's Section III-A analysis.

The first step of a walk has no previous edge; the engine draws it from
the static distribution, matching the reference implementation.
"""

from __future__ import annotations

import numpy as np

from repro.walks.models.base import BiasedWalkModel
from repro.walks.state import NO_PREVIOUS


class Node2Vec(BiasedWalkModel):
    """Second-order walk with return parameter p and in-out parameter q."""

    name = "node2vec"

    def batch_dynamic_weight(self, prev, prev_off, cur, step, edge_offsets) -> np.ndarray:
        w = np.asarray(self.graph.edge_weight_at(edge_offsets), dtype=np.float64)
        u = self.graph.targets[edge_offsets]
        alpha = np.full(u.size, 1.0 / self.q)
        safe_prev = np.maximum(prev, 0)
        near = self.graph.has_edge_batch(safe_prev, u)
        alpha[near] = 1.0
        alpha[u == prev] = 1.0 / self.p
        alpha[prev == NO_PREVIOUS] = 1.0
        return w * alpha

    def kernel_spec(self) -> dict:
        """Compiled backends evaluate α with the same ``w · (1/p)`` /
        ``w · (1/q)`` products as :meth:`batch_dynamic_weight`, so the
        corpora stay bitwise-identical across backends."""
        return {"kind": "node2vec", "p": self.p, "q": self.q}

    # ------------------------------------------------------------------
    # rejection support
    # ------------------------------------------------------------------
    def alpha_bound(self, graph) -> float:
        return max(1.0 / self.p, 1.0, 1.0 / self.q)

    @property
    def bulk_bound(self) -> float:
        """Bound over the non-return edges (d(u,s) ∈ {1, 2})."""
        return max(1.0, 1.0 / self.q)

    @property
    def supports_folding(self) -> bool:
        """True when the single return-edge outlier is worth folding."""
        return 1.0 / self.p > self.bulk_bound

    def batch_outlier_excess(self, prev, cur) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized folding data: (return-edge offsets, excess mass).

        The only enumerable outlier of node2vec is the return edge
        (v -> s), whose dynamic weight w/p exceeds the bulk envelope by
        w·(1/p − bulk). Offsets are -1 (and excess 0) where no return
        edge exists or the walker has no previous node.
        """
        safe_prev = np.maximum(prev, 0)
        rev = self.graph.edge_index_batch(cur, safe_prev)
        rev = np.where(prev == NO_PREVIOUS, -1, rev)
        w_rev = np.where(
            rev >= 0,
            np.asarray(self.graph.edge_weight_at(np.maximum(rev, 0)), dtype=np.float64),
            0.0,
        )
        excess = w_rev * max(1.0 / self.p - self.bulk_bound, 0.0)
        return rev, excess
